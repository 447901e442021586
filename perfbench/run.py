"""End-to-end and per-layer benchmark of the lattice-spectra CLI.

Run from the repository root:

    python3 perfbench/run.py --workload spectrum_dense --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

A closed loop with one client: `python -m lattice_spectra.cli` (with
PYTHONPATH=src) is started for each invocation of the workload's list only
after the previous one exited.  One pass is one run of that list; passes
repeat until --seconds have elapsed.  Children get the environment a user
gets, with the thread variables in THREAD_VARS removed, so that a
thread policy of the program itself shows.

--trace 0 reports the end-to-end metrics.  --trace 1 reports per-layer
metrics: it alternates subprocess passes (default and fully serial thread
settings) with in-process passes of `lattice_spectra.cli.main(argv)` on the
same inputs, untraced and traced (see spans.py).

Every program output is checked against a reference computed before timing
(see workloads.py); a failed check, an unexpected exit code or a timeout
counts as a failed invocation.  The last stdout line is the JSON result; the
lines before it hold the raw samples and the environment record.  `--workload
all` runs every workload and also prints each metric with its unit to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile

from spawner import Spawner

WORKDIR = ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "LATTICE_SPECTRA_THREADS", "OMP_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="spectrum_dense, critical_lowrank, verify_mixed or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lattice_spectra", "cli.py")):
        print("error: src/lattice_spectra/cli.py not found; run from the repository root",
              file=sys.stderr)
        return 2
    # The thread variables go before numpy loads OpenBLAS here (the traced
    # run is in-process) and in every child; the spawner starts before numpy
    # is imported, so that it stays small (see spawner.py).
    parent_threads = {var: os.environ.pop(var, None) for var in THREAD_VARS}
    workdir = os.path.join(root, WORKDIR)
    os.makedirs(workdir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=workdir)
    results = {}
    try:
        with Spawner(tmpdir) as spawner:
            import bench
            import workloads

            names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
            if not set(names) <= set(workloads.WORKLOADS):
                parser.error(f"unknown workload {args.workload!r}")
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(
                p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)}
            for name in names:
                result, detail = bench.run_workload(
                    name, args.seed, args.seconds, bool(args.trace), root, env, spawner, tmpdir)
                results[name] = result
                print(json.dumps({"detail": detail}))
                for key, m in result["metrics"].items():
                    print(f"{name:<17} {key:<42} {m['value']:<14.6g} {m['unit']}",
                          file=sys.stderr)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workdir)  # only when no other run is using it
    record = bench.environment(root, parent_threads, env)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print(json.dumps({"env": record}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
