"""Order-preserving parallel map over independent pure jobs.

Worker count is set by the LATTICE_SPECTRA_THREADS environment variable
(absent means one worker per core) and never exceeds the core count or
the number of items.  Results are assembled by input index, so
parallelism is invisible in any output.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ThreadCountError

T = TypeVar("T")
R = TypeVar("R")

ENV_VAR = "LATTICE_SPECTRA_THREADS"


def worker_count() -> int:
    cores = os.cpu_count() or 1
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return cores
    try:
        n = int(raw)
    except ValueError:
        raise ThreadCountError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if n < 1:
        raise ThreadCountError(f"{ENV_VAR} must be >= 1, got {n}")
    return min(n, cores)


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    items = list(items)
    workers = min(worker_count(), max(1, len(items)))
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
