"""Ordered map over per-mode work, in one thread.  No solver calls it: a
thread pool over vectorized modes does not pay off.  The one place that runs
in parallel is the field CSV writer, which splits a large field's time rows
across forked processes (:meth:`delayheat.field.SolutionField.write_csv`).
The benchmark's tracer (``perfbench/layers.py``) wraps both functions by
name."""


def thread_count():
    return 1


def map_ordered(fn, items):
    return [fn(item) for item in items]
