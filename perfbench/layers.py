"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps public functions of the ``delayheat`` modules at run time
and restores them afterwards; no program file is edited.  A wrapped function
is replaced under every module-level name bound to it, so ``from .x import f``
bindings are covered too.

Two kinds of wrappers:

* *spans* form a tree per op (``cli.main`` at the root).  A span's self time
  is its duration minus the time of the spans it encloses, so the self times
  of one op add up to the op's span time.
* *meters* (function-spec evaluation and differentiation, the delay kernel,
  quadrature) cut across that tree.  They record the outermost call only, so
  nested calls are not counted twice, and they do not take time away from the
  enclosing span.

Spans and counters are aggregated in memory per op; ``take()`` returns the
op's figures and resets them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# Spans opened inside these ancestors are folded into the ancestor: the
# compat gate reduces and projects the problem on its own, and that time
# belongs to the gate, not to the solve path.
_FOLD_UNDER = {"reduce": "compat", "project": "compat"}


class Tracer:
    """Installs wrappers into ``delayheat`` and aggregates what they record."""

    def __init__(self):
        self._stack = []          # open span frames: [name, child_seconds]
        self._depth = Counter()   # meter nesting depth
        self._patches = []        # (owner, attribute, original)
        self.spans = {}           # name -> [calls, total_s, self_s]
        self.counts = Counter()
        self.maxima = Counter()

    # -- recording ---------------------------------------------------------

    def _record(self, name, duration, child):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child

    def span(self, name, fn, after=None):
        """Wrap ``fn`` as a tree span; ``after(tracer, args, result)`` counts."""
        fold = _FOLD_UNDER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if fold is not None and any(f[0] == fold for f in self._stack):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += duration
                self._record(name, duration, frame[1])
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def meter(self, name, fn, after=None, failure=None):
        """Wrap ``fn`` as an outermost-only meter (calls, seconds, counts)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth[name]:
                return fn(*args, **kwargs)
            self._depth[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if failure is not None and isinstance(exc, failure):
                    self.counts[f"{name}.failures"] += 1
                raise
            finally:
                self._depth[name] -= 1
                self.counts[f"{name}.calls"] += 1
                self.counts[f"{name}.s"] += time.perf_counter() - start
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper):
        """Rebind every ``delayheat`` module global that is ``original``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "delayheat"
                                      or mod_name.startswith("delayheat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper_for):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_for(original))

    def install(self):
        from delayheat import (cli, compat, config, delay_ode, field, funcspec,
                               heat_delay, heat_nodelay, oracle_fd, parallel,
                               quadrature)
        from delayheat.errors import QuadratureError

        spans = [
            (cli.main, "op", None),
            (config.load_config, "config.load", None),
            (compat.check_problem, "compat", None),
            (compat.check_endpoint_conditions, "compat.endpoint", _endpoint),
            (compat.check_decay_conditions, "compat.decay", None),
            (heat_delay.reduce_delay, "reduce", None),
            (heat_nodelay.reduce_problem, "reduce", None),
            (heat_delay.build_modes, "project", None),
            (heat_nodelay._mode_data, "project", None),
            (heat_delay.solve_delay, "solve", None),
            (heat_nodelay.solve, "solve", None),
            (heat_delay.mode_solution, "modal", None),
            (heat_nodelay._duhamel_decay, "modal", None),
            (oracle_fd.fd_solve_delay, "fd", None),
            (oracle_fd.fd_solve_nodelay, "fd", None),
            (field.field_difference_report, "field.diff", None),
        ]
        for fn, name, after in spans:
            self._replace(fn, self.span(name, fn, after))
        meters = [
            (funcspec.parse_function, "funcspec.parse", None, None),
            (delay_ode.kernel, "kernel", _kernel_points, None),
            (quadrature.composite_gauss, "quad", None, QuadratureError),
        ]
        for fn, name, after, failure in meters:
            self._replace(fn, self.meter(name, fn, after, failure))
        self._replace(parallel.map_ordered, self._parallel(parallel))
        self._replace(quadrature.panel_nodes,
                      self._panel_nodes(quadrature.panel_nodes))
        self._replace(oracle_fd.solve_banded,
                      self._counted("fd.steps", oracle_fd.solve_banded))
        self._replace_method(funcspec.FunctionSpec, "__call__",
                             lambda fn: self.meter("funcspec.eval", fn,
                                                   _eval_points))
        self._replace_method(funcspec.FunctionSpec, "differentiate",
                             lambda fn: self.meter("funcspec.diff", fn))
        self._replace_method(field.SolutionField, "write_csv",
                             lambda fn: self.span("field.csv", fn, _csv))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- counting-only wrappers -------------------------------------------

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _panel_nodes(self, fn):
        """Quadrature levels are the panel layouts a composite_gauss call
        evaluates; spectral projection also lays out panels, outside quad."""
        @functools.wraps(fn)
        def wrapper(edges, nodes_per_panel):
            pts, wts = fn(edges, nodes_per_panel)
            if self._depth["quad"]:
                self.counts["quad.levels"] += 1
                self.counts["quad.points"] += pts.size
            return pts, wts
        return wrapper

    def _parallel(self, parallel):
        fn = parallel.map_ordered

        @functools.wraps(fn)
        def wrapper(func, items):
            items = list(items)
            self.counts["parallel.items"] += len(items)
            workers = min(parallel.thread_count(), len(items)) if items else 1
            self.maxima["parallel.workers"] = max(
                self.maxima["parallel.workers"], workers)
            return fn(func, items)
        return wrapper

    # -- results -------------------------------------------------------------

    def take(self):
        """Return this op's figures as a flat dict and reset the aggregates."""
        out = {}
        for name, (calls, total, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update(self.counts)
        out.update(self.maxima)
        self.spans = {}
        self.counts = Counter()
        self.maxima = Counter()
        return out


def _endpoint(tracer, args, kwargs, result):
    tracer.counts["compat.endpoint_checks"] += len(result)
    tracer.counts["compat.unverifiable"] += sum(
        1 for check in result if check.get("status") == "unverifiable")


def _kernel_points(tracer, args, kwargs, result):
    xi = args[1] if len(args) > 1 else kwargs["xi"]
    tracer.counts["kernel.points"] += int(getattr(xi, "size", 1))


def _eval_points(tracer, args, kwargs, result):
    tracer.counts["funcspec.eval.points"] += int(getattr(result, "size", 1))


def _csv(tracer, args, kwargs, result):
    fld, path = args[0], (args[1] if len(args) > 1 else kwargs["path"])
    tracer.counts["field.csv_rows"] += int(fld.x.size * fld.t.size)
    tracer.counts["field.csv_bytes"] += os.path.getsize(path)
