"""Tests of what a CLI process pays around its work: the modules the import
loads, the records it defines, and the garbage collection at exit."""

import gc
import json
import os
import subprocess
import sys

import pytest

import lattice_spectra
from lattice_spectra import MassPair, MomentumGrid, Quasimomentum, band_geometry, cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(lattice_spectra.__file__)))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


def child_modules(code: str) -> set[str]:
    """sys.modules of a fresh interpreter after running code."""
    code += "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], env=ENV, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_import_loads_no_dataclasses_or_inspect():
    loaded = child_modules("import lattice_spectra.cli")
    assert "dataclasses" not in loaded
    # numpy 2 loads inspect itself (numpy._core.overrides); the package adds
    # it only if numpy does not
    assert "inspect" not in loaded or "inspect" in child_modules("import numpy")
    assert not {"csv", "concurrent.futures", "logging"} & loaded


def test_deflation_loads_no_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 10 ms of a process;
    # equal masses on the zone diagonal give runs of several lengths
    loaded = child_modules(
        "from lattice_spectra import MassPair, MomentumGrid, Potential, Quasimomentum\n"
        "from lattice_spectra.spectral import fiber_eigenvalues\n"
        "fiber_eigenvalues(MassPair(1.0, 1.0), Quasimomentum(0.6, 0.6, 0.6),\n"
        "                  Potential({(0, 0, 0): 2.0}), MomentumGrid(6))")
    assert "numpy.ma" not in loaded


def test_records_are_named_tuples():
    grid = MomentumGrid(8)
    assert grid == (8, 0.5) and tuple(grid) == (8, 0.5)
    n, offset = grid
    assert (n, offset) == (8, 0.5)
    geo = band_geometry(MassPair(1.0, 1.0), Quasimomentum(0.0, 0.0, 0.0))
    assert geo._asdict()["e_max"] == 12.0
    with pytest.raises(AttributeError):
        grid.offset = 0.25
    with pytest.raises(ValueError):
        MomentumGrid(1)


def test_every_record_is_a_slotted_namedtuple_subclass():
    # the one form of a record: class X(namedtuple("X", ...)) with
    # __slots__ = () on X and its subclasses, so an instance has no __dict__
    # (the package's name dispersion is the function, so modules come from
    # sys.modules)
    records = {
        obj for name in ("analysis", "dispersion", "model", "operators", "spectral")
        for obj in vars(sys.modules[f"lattice_spectra.{name}"]).values()
        if isinstance(obj, type) and issubclass(obj, tuple)
        and obj.__module__ == f"lattice_spectra.{name}"
    }
    exported = {obj for obj in vars(lattice_spectra).values()
                if isinstance(obj, type) and issubclass(obj, tuple)}
    assert exported <= records
    assert {"BandGeometry", "CheksizReport", "CountingCheck", "GridOperator",
            "MassPair", "Quasimomentum", "UnitEigenvalue"} <= {c.__name__ for c in records}
    for cls in records:
        generated = cls.__mro__[cls.__mro__.index(tuple) - 1]
        assert generated is not cls and generated._fields == cls._fields, cls
        for klass in cls.__mro__[: cls.__mro__.index(generated)]:
            assert vars(klass).get("__slots__") == (), klass


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["band", "--k", "0,0,0"]) == 0
    assert gc.get_freeze_count() == before


def outcome(call, argv, capsys):
    """(exit code, stdout) of an in-process call, a SystemExit included."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["band", "--k", "0,0,0"], 0),
    (["band", "--help"], 0),
    (["band", "--grid", "4"], 2),
])
def test_run_and_module_match_main(capsys, argv, code):
    expected = outcome(cli.main, argv, capsys)
    assert expected[0] == code
    try:
        assert outcome(cli.run, argv, capsys) == expected
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    proc = subprocess.run([sys.executable, "-m", "lattice_spectra.cli", *argv], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == expected


def test_console_script_goes_through_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lattice-spectra": "lattice_spectra.cli:run"}
