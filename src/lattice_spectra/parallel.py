"""Thread policy of the package and its order-preserving parallel map.

The program has one level of parallelism: ``parallel_map``, one job per k.
Each job is a small eigensolve (a dense block of at most a few thousand
rows), which a second BLAS thread does not speed up, and BLAS threads on
top of the map's workers oversubscribe the cores.  So when this package
is the first to load numpy, and none of BLAS_VARS is set, this module (the
first the package imports) sets OPENBLAS_NUM_THREADS and MKL_NUM_THREADS to
1 before numpy loads.  A BLAS variable set by the user always wins; once
numpy is loaded the environment is left alone, since the setting could no
longer take effect.

Worker count is set by the LATTICE_SPECTRA_THREADS environment variable
(absent means one worker per core) and never exceeds the core count or
the number of items.  The cores are those the process may run on (its
affinity set, where the OS reports one), not every core of the machine.
The workers are plain threads that take the next item index from a
shared counter, so no executor module is loaded.  Inside ``serial(True)``
the map runs its items in the calling thread, for a caller whose jobs are
too small to pay for passing the GIL between workers; the variable is
still read and checked.
Results are assembled by input index, so parallelism is invisible in any
output.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import sys
import threading
from typing import Callable, Iterator, Sequence, TypeVar

from .errors import InputError

T = TypeVar("T")
R = TypeVar("R")

ENV_VAR = "LATTICE_SPECTRA_THREADS"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread() -> None:
    if "numpy" in sys.modules or any(var in os.environ for var in BLAS_VARS):
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["MKL_NUM_THREADS"] = "1"


_one_blas_thread()


def worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # macOS and Windows
        cores = os.cpu_count() or 1
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return cores
    try:
        n = int(raw)
    except ValueError:
        raise InputError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
    if n < 1:
        raise InputError(f"{ENV_VAR} must be >= 1, got {n}")
    return min(n, cores)


_SERIAL = contextvars.ContextVar("serial", default=False)


@contextlib.contextmanager
def serial(on: bool) -> Iterator[None]:
    """Within the block, ``parallel_map`` runs in the calling thread when on."""
    token = _SERIAL.set(on)
    try:
        yield
    finally:
        _SERIAL.reset(token)


def parallel_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items] on ``worker_count`` threads, or in the calling
    thread inside ``serial(True)``; an item's exception is raised here, the
    first in input order."""
    items = list(items)
    workers = min(worker_count(), max(1, len(items)))
    if workers == 1 or _SERIAL.get():
        return [fn(x) for x in items]
    outcomes: list = [None] * len(items)
    indices = iter(range(len(items)))
    lock = threading.Lock()

    def work() -> None:
        while True:
            with lock:
                i = next(indices, None)
            if i is None:
                return
            try:
                outcomes[i] = (True, fn(items[i]))
            except BaseException as exc:  # re-raised by the caller
                outcomes[i] = (False, exc)

    threads = [threading.Thread(target=work) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]
