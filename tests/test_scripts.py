"""Smoke tests of the scripts under scripts/: each runs to completion on a
small grid and prints its header."""

import importlib.util
import os
import subprocess
import sys

import pytest

import lattice_spectra

from conftest import watson_closed_form

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lattice_spectra.__file__)))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


@pytest.mark.parametrize("script, args, header", [
    ("emergence_sweep.py", ["--grid", "6", "--points", "3"], "critical coupling on N=6"),
    ("critical_coupling_convergence.py", ["--sizes", "4,6"], "target lambda*"),
])
def test_script_runs(script, args, header):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(header)
    assert len(lines) == 2 + (3 if script == "emergence_sweep.py" else 2)


def test_convergence_target_is_the_closed_form():
    spec = importlib.util.spec_from_file_location(
        "critical_coupling_convergence", os.path.join(SCRIPTS, "critical_coupling_convergence.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.W3 == pytest.approx(watson_closed_form(), rel=1e-15, abs=0)
