"""Benchmark runs: child processes, passes, statistics and the result record."""

from __future__ import annotations

import contextlib
import glob
import io
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import spans
import workloads
from spawner import Spawner
from workloads import Invocation

SERIAL_ENV = {"LATTICE_SPECTRA_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
INVOCATION_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # samples required above the reported tail percentile

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_tail_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
    "pass_frac": "ratio",
    "lambda_rel_err": "ratio",
}


@dataclass
class Outcome:
    code: int
    out: str
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


# ---------------------------------------------------------------------------
# Child processes


class Runner:
    """Runs the CLI invocations of one benchmark run and tallies their checks."""

    def __init__(self, root: str, env: dict, spawner: Spawner) -> None:
        self.root = root
        self.env = env
        self.spawner = spawner
        self.tally = Tally()

    def run(self, inv: Invocation, env_extra: dict | None = None) -> Outcome:
        argv = [sys.executable, "-m", "lattice_spectra.cli", *inv.argv]
        r = self.spawner.run(argv, {**self.env, **(env_extra or {})}, self.root,
                             INVOCATION_TIMEOUT_S)
        self.tally.record(inv.check(r["code"], r["stdout"]),
                          f"{' '.join(inv.argv[:3])}: exit {r['code']} {r['stderr'].strip()[-300:]}")
        return Outcome(r["code"], r["stdout"], r["wall"], r["cpu"], r["rss_mb"])

    def run_pass(self, wl: workloads.Workload, env_extra: dict | None = None) -> dict:
        outcomes = [self.run(inv, env_extra) for inv in wl.invocations]
        return {
            "wall": sum(o.wall for o in outcomes),
            "cpu": sum(o.cpu for o in outcomes),
            "rss_mb": max(o.rss_mb for o in outcomes),
        }

    def inprocess_pass(self, wl: workloads.Workload,
                       tracer: spans.Tracer | None = None) -> tuple[float, int]:
        """One pass through cli.main in this process; (wall, report bytes)."""
        cli = sys.modules["lattice_spectra.cli"]
        wall = 0.0
        size = 0
        for inv in wl.invocations:
            out = io.StringIO()
            with contextlib.ExitStack() as stack:
                if tracer is not None:
                    stack.enter_context(tracer.installed())
                stack.enter_context(contextlib.redirect_stdout(out))
                stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
                start = time.perf_counter()
                try:
                    code = cli.main(list(inv.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                wall += time.perf_counter() - start
            text = out.getvalue()
            size += len(text.encode())
            self.tally.record(inv.check(code, text),
                              f"in-process {' '.join(inv.argv[:3])}: exit {code}")
        return wall, size


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it, but
    never below the median: with fewer than 2 * TAIL_BEYOND + 1 samples no
    percentile above the median qualifies and the median stands in.

    Returns (value, percentile, sample count).
    """
    xs = sorted(values)
    n = len(xs)
    i = n - 1 - TAIL_BEYOND
    if i <= (n - 1) / 2:
        return statistics.median(xs), 50.0, n
    return xs[i], 100.0 * i / n, n


def _metrics(values: dict, units: dict) -> dict:
    return {k: {"value": values[k], "unit": unit} for k, unit in units.items()}


# ---------------------------------------------------------------------------
# Environment record


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {}
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _caches() -> dict:
    """Cache sizes of CPU 0 as the kernel lists them, keyed L<level><type>."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    for index in sorted(glob.glob(os.path.join(base, "index*"))):
        try:
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(index, key)) as fh:
                    fields[key] = fh.read().strip()
        except OSError:
            continue
        out[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    return out


def _git_commit(root: str):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def environment(root: str, parent_threads: dict, child_env: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "caches": _caches(),
        "thread_vars_parent": parent_threads,
        "thread_vars_children": {var: child_env.get(var) for var in parent_threads},
        "serial_reference_env": SERIAL_ENV,
        "git_commit": _git_commit(root),
    }


# ---------------------------------------------------------------------------
# Runs


def _rounds(seconds: float):
    """Yield while the next round, as long as the last one, still ends
    within `seconds`; always at least once."""
    start = last = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if 2 * now - last - start > seconds:
            return
        last = now
        yield


def help_invocation(wl: workloads.Workload) -> Invocation:
    """`<subcommand> --help`: process start, numpy import and parser build."""
    return Invocation((wl.invocations[0].argv[0], "--help"),
                      lambda code, out: code == 0 and out.startswith("usage:"))


def end_to_end(runner: Runner, wl: workloads.Workload, seconds: float,
               lambda_inv: Invocation) -> tuple[dict, dict]:
    # One set-up sample before each pass, so that both see the same load;
    # the first --help is a warm-up (bytecode compile, page cache).
    setup_inv = help_invocation(wl)
    runner.run(setup_inv)
    setup, passes = [], []
    for _ in _rounds(seconds):
        setup.append(runner.run(setup_inv).wall)
        passes.append(runner.run_pass(wl))
    lam = runner.run(lambda_inv)
    err = workloads.lambda_rel_err(lam.code, lam.out)
    walls = [p["wall"] for p in passes]
    tail_value, tail_pct, n = tail(walls)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
        "items_per_s": wl.items_per_pass / statistics.median(walls),
        "pass_frac": 1.0 - runner.tally.failed / runner.tally.attempted,
        # 1.0 (100 % error) stands in when the check produced no value
        "lambda_rel_err": err if math.isfinite(err) else 1.0,
    }
    detail = {
        "items_per_pass": wl.items_per_pass,
        "passes": len(passes),
        "wall_tail_percentile": tail_pct,
        "wall_tail_samples": n,
        "pass_walls_s": walls,
        "pass_cpu_s": [p["cpu"] for p in passes],
        "pass_rss_mb": [p["rss_mb"] for p in passes],
        "setup_walls_s": setup,
    }
    return _metrics(values, END_TO_END), detail


def per_layer(runner: Runner, wl: workloads.Workload, seconds: float,
              lambda_inv: Invocation) -> tuple[dict, dict]:
    """Rounds of: subprocess pass at default and at serial thread settings,
    untraced in-process pass, traced in-process pass."""
    src = os.path.join(runner.root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import lattice_spectra.cli  # noqa: F401  (in-process target)

    default, serial, plain, traced, layers = [], [], [], [], []
    report_bytes = 0
    for _ in _rounds(seconds):
        default.append(runner.run_pass(wl)["wall"])
        serial.append(runner.run_pass(wl, SERIAL_ENV)["wall"])
        plain.append(runner.inprocess_pass(wl)[0])
        tracer = spans.Tracer()
        wall, report_bytes = runner.inprocess_pass(wl, tracer)
        traced.append(wall)
        layers.append(spans.pass_metrics(tracer, wall))
    runner.run(lambda_inv)
    values = {key: statistics.median(p[key] for p in layers) for key in layers[0]}
    values["cli.report_bytes"] = report_bytes
    values["parallel.speedup_vs_serial"] = statistics.median(serial) / statistics.median(default)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    values["trace.process_start_s"] = statistics.median(default) - statistics.median(plain)
    detail = {
        "rounds": len(traced),
        "subprocess_default_walls_s": default,
        "subprocess_serial_walls_s": serial,
        "inprocess_walls_s": plain,
        "traced_walls_s": traced,
    }
    return _metrics(values, spans.PER_LAYER), detail


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: str,
                 env: dict, spawner: Spawner, tmpdir: str,
                 sizes: workloads.Sizes = workloads.FULL) -> tuple[dict, dict]:
    """One benchmark run of one workload; returns (result, detail)."""
    inputs = os.path.join(tmpdir, name)
    os.makedirs(inputs, exist_ok=True)
    wl = workloads.build(name, seed, inputs, sizes)
    lambda_inv = workloads.lambda_check(inputs)
    runner = Runner(root, env, spawner)
    if traced:
        metrics, detail = per_layer(runner, wl, seconds, lambda_inv)
    else:
        metrics, detail = end_to_end(runner, wl, seconds, lambda_inv)
    detail.update(workload=name, item=wl.item, failures=runner.tally.notes)
    result = {
        "correct": runner.tally.failed == 0,
        "attempted": runner.tally.attempted,
        "failed": runner.tally.failed,
        "metrics": metrics,
    }
    return result, detail
