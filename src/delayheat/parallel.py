"""Optional thread pool over independent per-mode work.

No solver calls this module any more: the grid engine evaluates a mode's
whole trajectory in a few vectorized operations, and a thread pool over
modes does not pay off.  It remains importable because the benchmark's
tracer (``perfbench/layers.py``) wraps :func:`map_ordered`; it can go once
the benchmark stops referring to it.

Parallelism is opt-in via the environment variable ``RETARD_HEAT_THREADS``
(default 1 = sequential).  Results are always reduced in mode order, so
output bytes do not depend on the thread count or scheduling.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError

_ENV_VAR = "RETARD_HEAT_THREADS"


def thread_count():
    raw = os.environ.get(_ENV_VAR)
    if raw is None or raw.strip() == "":
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{_ENV_VAR} must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise ConfigError(f"{_ENV_VAR} must be a positive integer, got {raw!r}")
    return n


def map_ordered(fn, items):
    """Apply ``fn`` to items, possibly in a thread pool; results keep order."""
    items = list(items)
    workers = min(thread_count(), len(items)) if items else 1
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
