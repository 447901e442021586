"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import numpy as np  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spawner import Spawner  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def spawner(tmp_path):
    with Spawner(str(tmp_path)) as s:
        yield s


def tiny_run(name: str, traced: bool, spawner, tmp_path) -> tuple[dict, dict]:
    return bench.run_workload(name, seed=3, seconds=0.01, traced=traced, root=ROOT, env=ENV,
                              spawner=spawner, tmpdir=str(tmp_path), sizes=workloads.TINY)


def test_metric_tables_match_benchmark_json():
    doc = spec()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_metric_is_emitted(name, traced, spawner, tmp_path):
    result, _ = tiny_run(name, traced, spawner, tmp_path)
    expected = spec()["per_layer" if traced else "end_to_end"]
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
    if not traced:
        assert result["metrics"]["pass_frac"]["value"] == 1.0
        assert 0.0 < result["metrics"]["lambda_rel_err"]["value"] <= workloads.LAMBDA_REL_TOL


@pytest.mark.parametrize("name, reference", [
    ("spectrum_dense", "spectrum_reference"),
    ("critical_lowrank", "critical_reference"),
])
def test_corrupted_reference_shows_in_pass_frac(name, reference, spawner, tmp_path, monkeypatch):
    original = getattr(workloads, reference)

    def corrupted(*args):
        ref = original(*args)
        if name == "spectrum_dense":
            return [(below + 1, above) for below, above in ref]
        return (ref[0] * (1 + 1e-6), ref[1])

    monkeypatch.setattr(workloads, reference, corrupted)
    result, detail = tiny_run(name, False, spawner, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["pass_frac"]["value"] < 1.0
    assert detail["failures"]


def test_span_patching_reaches_dispersion_module():
    from lattice_spectra import MassPair, MomentumGrid, Quasimomentum, operators

    dispersion_module = sys.modules["lattice_spectra.dispersion"]
    original = dispersion_module.dispersion_on_grid
    tracer = spans.Tracer()
    with tracer.installed():
        assert dispersion_module.dispersion_on_grid is not original
        assert operators.dispersion_on_grid is not original
        operators.build_h0(MassPair(1.0, 1.0), Quasimomentum(0.1, 0.2, 0.3), MomentumGrid(4))
    assert dispersion_module.dispersion_on_grid is original
    assert operators.dispersion_on_grid is original
    names = [s.name for s in tracer.spans]
    assert names == ["operators.build_h0", "dispersion.dispersion_on_grid", "model.nodes"]
    assert tracer.spans[1].parent is tracer.spans[0]
    assert tracer.counts["dispersion.dispersion_on_grid.samples"] == 64
    assert tracer.counts["operators.dense_bytes"] == 8 * 64**2


@pytest.mark.parametrize("name, key", [
    ("spectrum_dense", None),
    ("critical_lowrank", "operators.bs_support_eigenvalues.calls"),
    ("verify_mixed", "linalg.eigensolves"),
])
def test_item_count_matches_trace(name, key, spawner, tmp_path):
    """The static items-per-pass count agrees with what the trace counts."""
    wl = workloads.build(name, 5, str(tmp_path), workloads.TINY)
    runner = bench.Runner(ROOT, ENV, spawner)
    tracer = spans.Tracer()
    wall, _ = runner.inprocess_pass(wl, tracer)
    assert runner.tally.failed == 0
    if key is None:
        counted = sum(1 for s in tracer.spans if s.name == "parallel.item")
        workers = spans.pass_metrics(tracer, wall)["parallel.workers"]
        assert 1 <= workers <= min(os.cpu_count(), counted)
    else:
        counted = spans.pass_metrics(tracer, wall)[key]
    assert counted == wl.items_per_pass


def test_child_rss_excludes_benchmark_process(spawner):
    """A 200 MB benchmark process does not raise its children's peak RSS."""
    ballast = np.ones(200 * 2**20 // 8)
    reply = spawner.run([sys.executable, "-c", "pass"], ENV, ROOT, timeout=30)
    assert reply["code"] == 0
    assert reply["rss_mb"] < 100 < ballast.nbytes / 2**20


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectrum_dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
