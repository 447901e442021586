"""Tests for the worker count policy of the parallel map and the BLAS
thread policy set when the package loads numpy."""

import json
import math
import os
import subprocess
import sys
import threading

import pytest

import lattice_spectra
from lattice_spectra import cli, operators, parallel
from lattice_spectra.errors import InputError
from lattice_spectra.parallel import BLAS_VARS, ENV_VAR, parallel_map, worker_count

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lattice_spectra.__file__)))

# Prints what importing the package added to or changed in os.environ, and
# the number of threads of the process after the import.
ENV_PROBE = """
import json, os
{pre}
before = dict(os.environ)
import lattice_spectra
after = dict(os.environ)
task = "/proc/self/task"
print(json.dumps({{
    "added": {{k: after[k] for k in after.keys() - before.keys()}},
    "changed": sorted(k for k in before if after.get(k) != before[k]),
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
}}))
"""


def child_env(**extra: str) -> dict:
    """The test's environment without the BLAS thread variables, plus extra."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return {**env, **extra}


def probe(pre: str = "", **extra: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", ENV_PROBE.format(pre=pre)],
                          env=child_env(**extra), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_default_is_core_count(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert worker_count() == (os.cpu_count() or 1)


def test_env_value_capped_at_core_count(monkeypatch):
    # only the count is computed here; no pool is started with it
    monkeypatch.setenv(ENV_VAR, "100000")
    assert worker_count() == (os.cpu_count() or 1)


def test_env_value_below_core_count_kept(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1")
    assert worker_count() == 1


def test_cores_are_the_affinity_set(monkeypatch):
    # a process pinned to one core of a larger machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert worker_count() == 1
    assert parallel_map(lambda x: threading.current_thread(), range(3)) == [
        threading.main_thread()] * 3
    monkeypatch.setenv(ENV_VAR, "4")
    assert worker_count() == 1


def test_cores_without_an_affinity_set(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert worker_count() == 3


@pytest.mark.parametrize("raw", ["two", "1.5", "", "0", "-3"])
def test_bad_env_value_is_input_error(monkeypatch, raw):
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(InputError, match=ENV_VAR):
        worker_count()


class TestBlasThreadPolicy:
    def test_package_first_sets_one_blas_thread(self):
        out = probe()
        assert out["added"] == {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        assert out["changed"] == []
        if out["threads"] is not None:
            # OpenBLAS starts its workers when numpy loads; one BLAS
            # thread means none besides the main thread
            assert out["threads"] == 1

    @pytest.mark.parametrize("var", BLAS_VARS)
    def test_user_setting_wins(self, var):
        out = probe(**{var: "3"})
        assert out["added"] == {} and out["changed"] == []

    def test_numpy_first_leaves_environment_alone(self):
        out = probe(pre="import numpy")
        assert out["added"] == {} and out["changed"] == []

    def test_no_thread_pool_module_at_import(self):
        # concurrent.futures is imported only when a pool starts
        code = "import sys, lattice_spectra.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


def test_spectrum_output_independent_of_worker_count(tmp_path):
    pot = tmp_path / "pot.json"
    pot.write_text('{"sites": [{"s": [0, 0, 0], "v": 6.0}, {"s": [1, 0, 0], "v": 1.5}]}')
    argv = [sys.executable, "-m", "lattice_spectra.cli", "spectrum", "--masses", "1,2.5",
            "--potential", str(pot), "--grid", "6",
            "--k", "0,0,0", "--k", "0.3,-1.1,2", "--k", "1,1,1", "--k", "3,0.5,-2"]
    outs = []
    for workers in ("1", "2"):
        proc = subprocess.run(argv, env=child_env(**{ENV_VAR: workers}),
                              capture_output=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(json.loads(outs[0])["spectrum"]) == 4
    assert outs[0] == outs[1]


def spectrum_stdout(monkeypatch, capsys, workers, *argv):
    """stdout of ``spectrum`` run by ``cli.main`` on ``workers`` threads at most."""
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    assert cli.main(["spectrum", *argv]) == 0
    return capsys.readouterr().out


def test_forced_pool_output_independent_of_worker_count(tmp_path, monkeypatch, capsys,
                                                        solved_on_main):
    # the subprocess test above now runs in one thread, its blocks being
    # small; here the pool is forced for every block size
    pot = tmp_path / "pot.json"
    pot.write_text('{"sites": [{"s": [0, 0, 0], "v": 6.0}, {"s": [1, 0, 0], "v": 1.5}]}')
    argv = ["--masses", "1,2.5", "--potential", str(pot), "--grid", "6",
            "--k", "0,0,0", "--k", "0.3,-1.1,2", "--k", "1,1,1", "--k", "3,0.5,-2"]
    monkeypatch.setattr(cli, "POOL_MIN_ROWS", 0)
    one = spectrum_stdout(monkeypatch, capsys, 1, *argv)
    assert solved_on_main == [True] * 4
    solved_on_main.clear()
    two = spectrum_stdout(monkeypatch, capsys, 2, *argv)
    assert solved_on_main == [False] * 4
    assert len(json.loads(one)["spectrum"]) == 4
    assert one == two


class TestPoolOnlyForLargeBlocks:
    """``spectrum`` starts the pool only when some k leaves a block of at
    least ``cli.POOL_MIN_ROWS`` rows to solve after deflation."""

    @pytest.fixture
    def rows_seen(self, monkeypatch):
        seen = []
        count = operators.fiber_solve_rows

        def counted(*args):
            seen.append(count(*args))
            return seen[-1]

        monkeypatch.setattr(operators, "fiber_solve_rows", counted)
        return seen

    def test_benchmark_shape_runs_in_the_calling_thread(self, tmp_path, monkeypatch, capsys,
                                                        rows_seen, solved_on_main):
        # nine sites, N = 10, equal masses on the zone diagonal: each k
        # leaves 121 rows to solve, and (pi, pi, pi) 5
        pot = tmp_path / "nine.json"
        pot.write_text(json.dumps({"sites": [
            {"s": s, "v": v} for s, v in [([0, 0, 0], 4.0), ([1, 0, 0], 1.2), ([0, 1, 1], 0.7),
                                          ([1, -1, 0], 2.1), ([1, 1, 1], 0.9)]]}))
        pi = repr(math.pi)
        spectrum_stdout(monkeypatch, capsys, 2, "--grid", "10", "--potential", str(pot),
                        "--k-path", f"0,0,0:{pi},{pi},{pi}:8")
        assert rows_seen == [121] * 7 + [5]
        assert solved_on_main == [True] * 8

    def test_large_block_starts_the_pool(self, tmp_path, monkeypatch, capsys, rows_seen,
                                         solved_on_main):
        # unequal masses at a generic k: one block of all N^3 = 1000 rows
        pot = tmp_path / "pot.json"
        pot.write_text('{"sites": [{"s": [0, 0, 0], "v": 6.0}]}')
        spectrum_stdout(monkeypatch, capsys, 2, "--grid", "10", "--masses", "1,2.5",
                        "--potential", str(pot), "--k", "0.3,-1.1,2.0", "--k", "1.0,0.7,-0.4")
        assert rows_seen[0] == 1000 >= cli.POOL_MIN_ROWS
        assert solved_on_main == [False, False]
