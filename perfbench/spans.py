"""In-process span tracing of lattice_spectra for the per-layer run.

`Tracer.installed()` wraps the public functions of each library module at
every site that imported them: each module of the package whose global
binds the original function gets the wrapper, so a call through
`analysis.build_h` and one through `cli.build_h` both land in the
`operators.build_h` span.  Modules are looked up in `sys.modules`, because
the package attribute `lattice_spectra.dispersion` is the function
`dispersion`, which shadows the submodule.  No library file is edited, and
leaving the context restores every original object.

A layer's self time is its span minus the child spans on the same thread.
Items of `parallel_map` run on worker threads as children of the map span,
so the map span's self time on the calling thread is its whole wall time,
and the layers inside the items report busy time summed over workers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

PACKAGE = "lattice_spectra"
# Modules whose public functions are wrapped.  In cli only `main` is
# wrapped, so argument parsing, subcommand plumbing and JSON serialisation
# are cli.main self time.
MODULES = ("model", "dispersion", "operators", "spectral", "analysis", "parallel", "sampling")
METHODS = (("model", "MomentumGrid", "nodes"),)

# Dense builders: each returns one N^3 x N^3 float64 matrix.
DENSE_BUILDERS = ("build_h0", "build_v", "build_vhalf", "build_h", "build_bs")

# Per-layer metrics emitted by the traced run, with their units.  Quantities
# derived from array sizes rather than measured carry a "_computed" unit.
# End-to-end metric each group should move:
# - dense builders, eig_sym self time and dim_max, dense_bytes: wall_s, cpu_s
#   and peak_rss_mb on spectrum_dense; no change on critical_lowrank;
# - bs_support_eigenvalues, gram_phase_bytes, dispersion_on_grid, model.nodes:
#   wall_s and peak_rss_mb on critical_lowrank;
# - eig_sym.calls, threshold_count, bs_check, verify_neraven: wall_s on
#   verify_mixed;
# - parallel.*: wall_s and cpu_s on spectrum_dense, the only parallel_map user;
# - cli.main self time and report_bytes: wall_s on spectrum_dense.
SELF_TIMES = (
    "operators.build_h", "operators.build_v", "operators.build_h0", "operators.build_bs",
    "operators.build_vhalf", "operators.potential_spectrum", "operators.bs_support_eigenvalues",
    "spectral.eig_sym", "spectral.verify_counting_theorem",
    "dispersion.dispersion_on_grid", "model.nodes",
    "analysis.threshold_count", "analysis.bs_check", "analysis.verify_neraven",
    "analysis.critical_coupling", "cli.main",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "operators.bs_support_eigenvalues.calls": "count",
    "spectral.eig_sym.calls": "count",
    "spectral.eig_sym.dim_max": "count",
    "dispersion.dispersion_on_grid.samples": "count_computed",
    "operators.dense_bytes": "B_computed",
    "operators.gram_phase_bytes": "B_computed",
    "linalg.eigensolves": "count",
    "linalg.flops": "flop_computed",
    "cli.report_bytes": "B",
    "parallel.parallel_map.wall_s": "s",
    "parallel.workers": "count",
    "parallel.busy_frac": "ratio",
    "parallel.speedup_vs_serial": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.process_start_s": "s",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count",
}


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    thread: int
    start: float
    end: float = 0.0


def _eig_flops(n: int, vectors: bool) -> float:
    """Symmetric eigensolver flop estimate (Golub & Van Loan, sec. 8.3):
    4n^3/3 for eigenvalues only, 9n^3 with eigenvectors."""
    return (9.0 if vectors else 4.0 / 3.0) * float(n) ** 3


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent, threading.get_ident(), time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def record_max(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable,
              hook: Optional[Callable[[dict, object], None]] = None) -> Callable:
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
            return result

        return wrapper

    def _wrap_parallel_map(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(func, items):
            span = self._open("parallel.parallel_map")

            def item(x):
                child = self._open("parallel.item", parent=span)
                try:
                    return func(x)
                finally:
                    self._close(child)

            try:
                return fn(item, items)
            finally:
                self._close(span)

        return wrapper

    def _wrap_eigensolver(self, fn: Callable, vectors: bool) -> Callable:
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            n = np.shape(a)[-1]
            self.add("linalg.eigensolves", 1)
            self.add("linalg.flops", _eig_flops(n, vectors))
            return fn(a, *args, **kwargs)

        return wrapper

    def _hooks(self) -> dict[str, Callable[[dict, object], None]]:
        def dense(args, result):
            self.add("operators.dense_bytes", 8.0 * result.dim**2)

        def gram(args, result):
            self.add("operators.gram_phase_bytes", 16.0 * args["grid"].dim * len(args["pot"].entries))

        def samples(args, result):
            self.add("dispersion.dispersion_on_grid.samples", args["grid"].dim)

        def eig(args, result):
            op = args["op"]
            self.record_max("spectral.eig_sym.dim_max", np.shape(getattr(op, "matrix", op))[0])

        hooks = {f"operators.{name}": dense for name in DENSE_BUILDERS}
        hooks["operators.bs_support_eigenvalues"] = gram
        hooks["dispersion.dispersion_on_grid"] = samples
        hooks["spectral.eig_sym"] = eig
        return hooks

    @contextlib.contextmanager
    def installed(self):
        """Patch the library for the duration of the block."""
        patches: list[tuple[object, str, object]] = []
        package = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]

        def replace(original, wrapper):
            for mod in package:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

        hooks = self._hooks()
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "parallel.parallel_map":
                    replace(fn, self._wrap_parallel_map(fn))
                else:
                    replace(fn, self._wrap(name, fn, hooks.get(name)))
        cli = sys.modules[f"{PACKAGE}.cli"]
        replace(cli.main, self._wrap("cli.main", cli.main))
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            original = vars(cls)[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{short}.{attr}", original))
        for attr, vectors in (("eigvalsh", False), ("eigh", True)):
            original = getattr(np.linalg, attr)
            patches.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._wrap_eigensolver(original, vectors))
        try:
            yield self
        finally:
            for obj, attr, original in reversed(patches):
                setattr(obj, attr, original)

    # -- statistics ----------------------------------------------------------

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls, wall and self time per span name; self time per thread."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None and span.parent.thread == span.thread:
                child_time[id(span.parent)] += span.end - span.start
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0, "main_self_s": 0.0})
        main = threading.main_thread().ident
        for span in self.spans:
            s = stats[span.name]
            wall = span.end - span.start
            own = wall - child_time[id(span)]
            s["calls"] += 1
            s["wall_s"] += wall
            s["self_s"] += own
            if span.thread == main:
                s["main_self_s"] += own
        return dict(stats)

    def parallel_stats(self) -> dict[str, float]:
        maps = [s for s in self.spans if s.name == "parallel.parallel_map"]
        wall = busy = capacity = 0.0
        workers = 0
        for m in maps:
            items = [s for s in self.spans if s.parent is m and s.name == "parallel.item"]
            n = len({s.thread for s in items})
            d = m.end - m.start
            wall += d
            busy += sum(s.end - s.start for s in items)
            capacity += n * d
            workers = max(workers, n)
        return {
            "parallel.parallel_map.wall_s": wall,
            "parallel.workers": workers,
            "parallel.busy_frac": busy / capacity if capacity else 0.0,
        }


# Layers whose calling-thread self time is counted in trace.accounted_frac:
# the listed self times plus the parallel map, which blocks the caller.
ACCOUNTED = (*SELF_TIMES, "parallel.parallel_map")


def pass_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer numbers of one traced pass whose in-process wall was `wall`."""
    stats = tracer.layer_stats()

    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0.0)

    out = {f"{name}.self_s": get(name, "self_s") for name in SELF_TIMES}
    out["operators.bs_support_eigenvalues.calls"] = get("operators.bs_support_eigenvalues", "calls")
    out["spectral.eig_sym.calls"] = get("spectral.eig_sym", "calls")
    for key in ("spectral.eig_sym.dim_max", "dispersion.dispersion_on_grid.samples",
                "operators.dense_bytes", "operators.gram_phase_bytes",
                "linalg.eigensolves", "linalg.flops"):
        out[key] = tracer.counts.get(key, 0.0)
    out.update(tracer.parallel_stats())
    out["trace.wall_s"] = wall
    accounted = sum(get(name, "main_self_s") for name in ACCOUNTED)
    out["trace.accounted_frac"] = accounted / wall if wall > 0 else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out
