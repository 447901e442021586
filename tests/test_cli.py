"""End-to-end tests of the command-line interface."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import numpy as np

import lattice_spectra
from lattice_spectra import MassPair, MomentumGrid, Quasimomentum, operators
from lattice_spectra.cli import COMMANDS, _build_parser, _jsonable, main
from lattice_spectra.model import load_potential
from lattice_spectra.parallel import ENV_VAR

from oracles import build_h


@pytest.fixture
def point_pot_file(tmp_path):
    path = tmp_path / "pot.json"
    path.write_text('{"sites": [{"s": [0, 0, 0], "v": 8.0}]}')
    return str(path)


@pytest.fixture
def weak_pot_file(tmp_path):
    path = tmp_path / "weak.json"
    path.write_text('{"sites": [{"s": [0, 0, 0], "v": 1.0}]}')
    return str(path)


@pytest.fixture
def five_site_pot_file(tmp_path):
    path = tmp_path / "pot5.json"
    path.write_text('{"sites": [{"s": [0, 0, 0], "v": 3.6}, '
                    '{"s": [0, 0, 1], "v": 0.86}, {"s": [0, 1, 0], "v": 0.79}]}')
    return str(path)


def refuse_dense_v(monkeypatch):
    """Make the N^3 x N^3 V builders that the library still has raise for
    the rest of the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("dense V build")

    for name in ("build_v", "_convolution_matrix"):
        if hasattr(operators, name):
            monkeypatch.setattr(operators, name, refuse)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBand:
    def test_single_k(self, capsys):
        code, out, _ = run(capsys, "band", "--k", "0,0,0")
        assert code == 0
        doc = json.loads(out)
        rec = doc["band"][0]
        assert rec["e_min"] == 0.0
        assert rec["e_max"] == 12.0
        assert rec["w_b"] == 12.0

    def test_k_path_width_shrinks_to_zero(self, capsys):
        code, out, _ = run(
            capsys, "band", "--k-path",
            f"0,0,0:{math.pi},{math.pi},{math.pi}:5",
        )
        assert code == 0
        widths = [rec["w_b"] for rec in json.loads(out)["band"]]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] == pytest.approx(0.0, abs=1e-12)

    def test_missing_k_is_config_error(self, capsys):
        code, _, err = run(capsys, "band")
        assert code == 2
        assert "error:" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "band.json"
        code, out, _ = run(capsys, "band", "--k", "0,0,0", "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["band"][0]["w_b"] == 12.0


class TestSpectrum:
    def test_bound_state_counted(self, capsys, point_pot_file):
        code, out, _ = run(
            capsys, "spectrum", "--potential", point_pot_file,
            "--grid", "6", "--k", "0,0,0",
        )
        assert code == 0
        rec = json.loads(out)["spectrum"][0]
        assert rec["n_below_band"] == 1
        assert min(rec["eigenvalues"]) < rec["e_min"]
        assert len(rec["eigenvalues"]) == 6**3

    def test_thread_env_var_respected(self, capsys, point_pot_file, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "2")
        code, out, _ = run(
            capsys, "spectrum", "--potential", point_pot_file,
            "--grid", "4", "--k", "0,0,0", "--k", "1,0,0", "--k", "0,1,0",
        )
        assert code == 0
        assert len(json.loads(out)["spectrum"]) == 3

    @pytest.mark.parametrize("masses, k", [("1,1", "0.3,0.3,0.3"), ("1,2.5", "0.3,-1.1,2")])
    def test_dense_path_builds_no_v(self, capsys, monkeypatch, five_site_pot_file, masses, k):
        with open(five_site_pot_file, "rb") as fh:
            pot = load_potential(fh)
        m = MassPair(*(float(x) for x in masses.split(",")))
        grid = MomentumGrid(10)
        ref = np.linalg.eigvalsh(
            build_h(m, Quasimomentum(*(float(x) for x in k.split(","))), pot, grid).matrix)
        refuse_dense_v(monkeypatch)
        code, out, _ = run(
            capsys, "spectrum", "--masses", masses, "--potential", five_site_pot_file,
            "--grid", "10", "--k", k,
        )
        assert code == 0
        eigs = np.array(json.loads(out)["spectrum"][0]["eigenvalues"])
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.allclose(eigs, ref, rtol=0.0, atol=1e-12 * scale)

    def test_requires_potential(self, capsys):
        code, _, err = run(capsys, "spectrum", "--k", "0,0,0")
        assert code == 2
        assert "potential" in err

    def test_missing_potential_file(self, capsys):
        code, _, err = run(
            capsys, "spectrum", "--potential", "/nonexistent.json", "--k", "0,0,0"
        )
        assert code == 2
        assert "cannot read" in err


class TestCritical:
    def test_scaling(self, capsys, point_pot_file, weak_pot_file):
        code1, out1, _ = run(capsys, "critical", "--potential", weak_pot_file, "--grid", "6")
        code2, out2, _ = run(capsys, "critical", "--potential", point_pot_file, "--grid", "6")
        assert code1 == 0 and code2 == 0
        lam1 = json.loads(out1)["lambda_star"]
        lam2 = json.loads(out2)["lambda_star"]
        assert lam1 == pytest.approx(8.0 * lam2, rel=1e-12)

    def test_refine_reports_sizes(self, capsys, weak_pot_file):
        code, out, _ = run(
            capsys, "critical", "--potential", weak_pot_file, "--grid", "6", "--refine"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["grid_sizes"] == [6, 12]
        assert doc["richardson"] is not None

    @pytest.mark.parametrize("to_file", [False, True])
    def test_nan_report_is_numerical_failure(self, capsys, monkeypatch, tmp_path,
                                             weak_pot_file, to_file):
        monkeypatch.setattr(
            lattice_spectra.analysis, "critical_coupling",
            lambda *args: lattice_spectra.CriticalCoupling(math.nan, None, (6,)),
        )
        out_file = tmp_path / "report.json"
        argv = ["critical", "--potential", weak_pot_file, "--grid", "6"]
        code, out, err = run(capsys, *argv, *(["--out", str(out_file)] if to_file else []))
        assert code == 3
        assert out == ""
        assert "numerical failure" in err and "Traceback" not in err
        assert not out_file.exists()


class TestVerify:
    def test_counting_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "counting", "--trials", "25", "--seed", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["counting"]["trials"] == 25

    def test_bs_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bs", "--trials", "6")
        assert code == 0
        assert json.loads(out)["bs"]["pass"] is True

    def test_bs_suite_builds_no_dense_v(self, capsys, monkeypatch):
        refuse_dense_v(monkeypatch)
        code, out, _ = run(capsys, "verify", "--suite", "bs", "--trials", "6")
        assert code == 0
        assert json.loads(out)["bs"]["pass"] is True

    def test_threshold_on_flat_band_below_sample_rounding(self, capsys, five_site_pot_file):
        # the grid samples of the flat band fall 2e-15 below its level 6, far
        # outside this tie band; the direct count comes from the exact spectrum
        pi = repr(math.pi)
        code, out, err = run(
            capsys, "verify", "--suite", "threshold", "--grid", "6",
            "--potential", five_site_pot_file, f"--k={pi},{pi},{pi}", "--tie-tol", "1e-20",
        )
        assert code == 0, err
        assert json.loads(out)["threshold"]["records"][0]["direct_n_below"] == 5

    def test_neraven_suite(self, capsys, point_pot_file):
        code, out, _ = run(
            capsys, "verify", "--suite", "neraven", "--potential", point_pot_file,
            "--grid", "6", "--k", "0,0,0",
        )
        assert code == 0
        assert json.loads(out)["neraven"]["pass"] is True

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "unknown suite" in err

    def test_failing_suite_exits_one(self, capsys, tmp_path):
        # a potential with no threshold state cannot satisfy the existence
        # suite; requesting it is an input error, while a genuine count
        # shortfall is exercised via threshold against a mismatched z-range
        pot = tmp_path / "p.json"
        pot.write_text('{"sites": [{"s": [0, 0, 0], "v": 30.0}]}')
        code, out, _ = run(
            capsys, "verify", "--suite", "threshold", "--potential", str(pot),
            "--grid", "4", "--k", "0,0,0", "--z-delta0", "40.0", "--z-steps", "3",
        )
        doc = json.loads(out)
        assert code == (0 if doc["pass"] else 1)
        assert code == 1  # counts taken far below the band miss the bound state

    def test_determinism_with_seed(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "bs", "--trials", "4", "--seed", "3")
        _, out2, _ = run(capsys, "verify", "--suite", "bs", "--trials", "4", "--seed", "3")
        assert out1 == out2


class TestPlotdata:
    def test_band_edges_csv(self, capsys):
        code, out, _ = run(
            capsys, "plotdata", "--quantity", "band_edges",
            "--k-path", "0,0,0:3.14159,0,0:4",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:5] == ["k1", "k2", "k3", "e_min", "e_max"]
        assert len(rows) == 5

    def test_below_band_eigs(self, capsys, point_pot_file):
        code, out, _ = run(
            capsys, "plotdata", "--quantity", "below_band_eigs",
            "--potential", point_pot_file, "--grid", "6", "--k", "0,0,0",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][4] == "1"
        assert float(rows[1][5]) < 0.0

    def test_bs_counts(self, capsys, point_pot_file):
        code, out, _ = run(
            capsys, "plotdata", "--quantity", "bs_counts",
            "--potential", point_pot_file, "--grid", "6", "--k", "0,0,0",
            "--z-steps", "4",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 5
        assert rows[-1][4] == "1"


class TestArgumentValidation:
    def test_bad_masses(self, capsys):
        code, _, err = run(capsys, "band", "--masses", "1", "--k", "0,0,0")
        assert code == 2

    def test_bad_k_triple(self, capsys):
        code, _, _ = run(capsys, "band", "--k", "1,2")
        assert code == 2

    def test_non_finite_k(self, capsys):
        code, out, err = run(capsys, "band", "--k", "nan,0,0")
        assert code == 2 and out == ""
        assert "finite" in err

    def test_non_finite_k_path(self, capsys):
        code, _, _ = run(capsys, "band", "--k-path", "0,0,0:nan,0,0:3")
        assert code == 2

    def test_non_finite_masses(self, capsys):
        code, out, err = run(capsys, "band", "--masses", "inf,1", "--k", "0,0,0")
        assert code == 2 and out == ""
        assert "finite" in err

    def test_mass_reciprocal_overflow(self, capsys, point_pot_file):
        code, out, err = run(
            capsys, "spectrum", "--masses", "1e-320,1", "--potential", point_pot_file,
            "--grid", "3", "--k", "0,0,0",
        )
        assert code == 2 and out == ""
        assert "error:" in err

    def test_format_flag_removed(self, capsys):
        # the flag was accepted and ignored; argparse now rejects it
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "counting", "--format", "csv"])
        assert exc.value.code == 2

    def test_dense_memory_guard(self, point_pot_file):
        # one dense matrix at N = 64 needs 8 * 64**6 bytes = 550 GB, refused
        # before anything is allocated
        src = os.path.dirname(os.path.dirname(os.path.abspath(lattice_spectra.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run(
            [sys.executable, "-m", "lattice_spectra.cli", "spectrum", "--grid", "64",
             "--potential", point_pot_file, "--k", "0,0,0"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "GB" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_integer_thread_count(self, capsys, point_pot_file, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "two")
        code, out, err = run(
            capsys, "spectrum", "--potential", point_pot_file,
            "--grid", "3", "--k", "0,0,0", "--k", "1,0,0",
        )
        assert code == 2 and out == ""
        assert ENV_VAR in err

    @pytest.mark.parametrize("suite", ["counting", "bs", "positivity"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_rejected(self, capsys, point_pot_file, suite, trials):
        code, out, err = run(capsys, "verify", "--suite", suite, "--trials", trials,
                             "--potential", point_pot_file)
        assert code == 2 and out == ""
        assert "--trials must be >= 1" in err

    def test_bad_k_path(self, capsys):
        code, _, _ = run(capsys, "band", "--k-path", "0,0,0:1,1,1")
        assert code == 2

    def test_bad_grid(self, capsys, point_pot_file):
        code, _, err = run(capsys, "spectrum", "--grid", "1", "--potential", point_pot_file,
                           "--k", "0,0,0")
        assert code == 2
        assert "N >= 2" in err

    def test_bad_schedule(self, capsys, point_pot_file):
        code, _, err = run(capsys, "verify", "--suite", "threshold", "--k", "0,0,0",
                           "--potential", point_pot_file, "--z-ratio", "1.5")
        assert code == 2
        assert "ratio" in err

    def test_malformed_potential(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        code, _, _ = run(capsys, "spectrum", "--potential", str(bad), "--k", "0,0,0")
        assert code == 2


# The options each subcommand takes; every other flag is an argparse error.
TAKES = {
    "band": {"--masses", "--k", "--k-path", "--out"},
    "spectrum": {"--masses", "--potential", "--grid", "--offset", "--k", "--k-path",
                 "--tie-tol", "--out"},
    "critical": {"--masses", "--potential", "--grid", "--offset", "--refine", "--out"},
    "verify": {"--masses", "--potential", "--grid", "--offset", "--k", "--k-path",
               "--z-delta0", "--z-ratio", "--z-steps", "--seed", "--trials", "--tie-tol",
               "--unit-tol", "--overlap-tol", "--pos-tol", "--out", "--suite"},
    "plotdata": {"--masses", "--potential", "--grid", "--offset", "--k", "--k-path",
                 "--z-delta0", "--z-ratio", "--z-steps", "--tie-tol", "--out", "--quantity"},
}
# a valid value for every shared flag (None: takes no value); "POT" is the potential file
FLAG_VALUES = {
    "--masses": "1,1", "--potential": "POT", "--grid": "4", "--offset": "0.5",
    "--k": "0,0,0", "--k-path": "0,0,0:1,1,1:2", "--z-delta0": "1", "--z-ratio": "0.1",
    "--z-steps": "3", "--seed": "1", "--trials": "2", "--refine": None,
    "--tie-tol": "1e-9", "--unit-tol": "1e-6", "--overlap-tol": "1e-6",
    "--pos-tol": "1e-8", "--out": "report.json",
}
# a run of each subcommand that exits 0 with its own flags alone
VALID_RUNS = {
    "band": ("--k", "0,0,0"),
    "spectrum": ("--potential", "POT", "--grid", "4", "--k", "0,0,0"),
    "critical": ("--potential", "POT", "--grid", "4"),
    "verify": ("--suite", "counting", "--trials", "1"),
    "plotdata": ("--quantity", "band_edges", "--k", "0,0,0"),
}
UNREAD = [(cmd, flag) for cmd, takes in TAKES.items() for flag in FLAG_VALUES
          if flag not in takes]


class TestPerCommandFlags:
    def test_option_table(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        got = {
            name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
            for name, p in sub.choices.items()
        }
        assert got == TAKES
        assert sum(len(v) for v in got.values()) == 47
        assert len(UNREAD) == 40

    def test_only_the_named_subcommand_gets_arguments(self):
        sub = next(a for a in _build_parser("critical")._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(TAKES)
        options = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                   for name, p in sub.choices.items()}
        assert options == {name: TAKES[name] if name == "critical" else set() for name in TAKES}

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(TAKES) + "}" in out
        for help_text, _ in COMMANDS.values():
            assert help_text in out

    @pytest.mark.parametrize("command, flag", UNREAD)
    def test_unread_flag_is_usage_error(self, capsys, point_pot_file, command, flag):
        value = FLAG_VALUES[flag]
        argv = [command, *VALID_RUNS[command], flag, *([] if value is None else [value])]
        argv = [point_pot_file if a == "POT" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: " + flag in captured.err


class TestExistencePrecondition:
    def test_supercritical_h0_exits_two(self, capsys, tmp_path):
        # the odd +-e1 branch at N = 8: G(0, 0) has the eigenvalue 1.24 on
        # the even sector, so H(0) is not nonnegative; that is an unmet
        # precondition, not a failed verification
        grid = MomentumGrid(8)
        diag = lattice_spectra.dispersion_on_grid(MassPair(1, 1), Quasimomentum(0, 0, 0), grid)
        q1 = grid.nodes()[:, 0]
        v = 1.0 / (np.mean(1.0 / diag) - np.mean(np.cos(2.0 * q1) / diag))
        pot = tmp_path / "odd.json"
        pot.write_text(json.dumps({"sites": [{"s": [1, 0, 0], "v": v}]}))
        code, out, err = run(capsys, "verify", "--suite", "existence", "--grid", "8",
                             "--potential", str(pot), "--k=1,1,1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "not nonnegative" in err


class TestNonFiniteFlags:
    # each flag once with NaN, once with an infinity; argparse takes both
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("argv", [
        ("spectrum", "--tie-tol"),
        ("verify", "--suite", "existence", "--unit-tol"),
        ("verify", "--suite", "existence", "--overlap-tol"),
        ("verify", "--suite", "positivity", "--pos-tol"),
        ("verify", "--suite", "threshold", "--z-delta0"),
        ("verify", "--suite", "threshold", "--z-ratio"),
    ])
    def test_rejected_as_input(self, capsys, five_site_pot_file, argv, value):
        code, out, err = run(capsys, *argv, value, "--grid", "4", "--k", "0.1,0.2,0.3",
                             "--potential", five_site_pot_file)
        assert code == 2 and out == ""
        assert err.startswith("error:") and value in err


class TestThresholdTolerances:
    # at 1 or more the classification goes wrong silently: the zero
    # eigenvalues of G(0, 0) count as unit ones, or no eigenvector can
    # overlap the kernel vector
    @pytest.mark.parametrize("value", ["1", "1.5"])
    @pytest.mark.parametrize("flag", ["--unit-tol", "--overlap-tol"])
    def test_one_or_more_rejected_as_input(self, capsys, weak_pot_file, flag, value):
        code, out, err = run(capsys, "verify", "--suite", "existence", "--grid", "6",
                             "--potential", weak_pot_file, "--k=1,1,1", flag, value)
        assert code == 2 and out == ""
        assert err.startswith("error:") and flag in err and "(0, 1)" in err


class TestThresholdTieBand:
    # point potential 8 on N = 6 at k = 0: the top Gram eigenvalue along the
    # schedule z = -1, -0.1, -0.01, -0.001 is about 1.36, 1.76, 1.82, 1.83,
    # so the tie band 0.5 drops only the first count
    ARGS = ("--grid", "6", "--k", "0,0,0", "--z-steps", "4")

    @pytest.mark.parametrize("flag, counts", [
        ((), [1, 1, 1, 1]),
        (("--tie-tol", "0.5"), [0, 1, 1, 1]),
    ])
    def test_reaches_the_schedule_counts(self, capsys, point_pot_file, flag, counts):
        code, out, _ = run(capsys, "verify", "--suite", "threshold", "--potential",
                           point_pot_file, *self.ARGS, *flag)
        assert code == 0
        assert json.loads(out)["threshold"]["records"][0]["counts"] == counts
        code, out, _ = run(capsys, "plotdata", "--quantity", "bs_counts", "--potential",
                           point_pot_file, *self.ARGS, *flag)
        assert code == 0
        assert [int(row[4]) for row in list(csv.reader(io.StringIO(out)))[1:]] == counts


class TestJsonable:
    def test_arrays_become_plain_lists(self):
        doc = _jsonable({"a": np.array([[0.5, -1.0]]), "b": np.arange(3), 2: np.float64(1.5)})
        assert doc == {"a": [[0.5, -1.0]], "b": [0, 1, 2], "2": 1.5}
        assert type(doc["a"][0][0]) is float and type(doc["b"][0]) is int


class TestSuiteTable:
    """One table says which verify suites need --potential, and in which
    order ``--suite all`` runs them."""

    @pytest.mark.parametrize("suite", ["neraven", "threshold", "existence", "cheksiz",
                                       "positivity"])
    def test_suite_without_potential_is_refused(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--k", "0,0,0", "--grid", "4")
        assert (code, out) == (2, "")
        assert err == f"error: suite {suite!r} requires --potential\n"

    @pytest.mark.parametrize("suite", ["counting", "bs"])
    def test_suite_runs_without_potential(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--trials", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)[suite]["pass"] is True

    def test_all_names_the_first_suite_that_needs_a_potential(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "all", "--trials", "1",
                             "--k", "0,0,0", "--grid", "4")
        assert (code, out) == (2, "")
        assert err == "error: suite 'neraven' requires --potential\n"


class TestBelowBandEigsAreSpectrumRecords:
    ARGS = ("--grid", "6", "--k-path", "0,0,0:3.14159,1,0.5:5")

    @pytest.mark.parametrize("flag", [(), ("--tie-tol", "0.5")])
    def test_rows_list_the_first_n_below_band_eigenvalues(self, capsys, five_site_pot_file,
                                                          flag):
        args = ("--potential", five_site_pot_file, *self.ARGS, *flag)
        code, out, _ = run(capsys, "spectrum", *args)
        assert code == 0
        records = json.loads(out)["spectrum"]
        code, out, _ = run(capsys, "plotdata", "--quantity", "below_band_eigs", *args)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == len(records) == 5
        assert sum(rec["n_below_band"] for rec in records) > 0
        for row, rec in zip(rows, records):
            n = rec["n_below_band"]
            assert [float(x) for x in row[:4]] == [*rec["k"], rec["e_min"]]
            assert int(row[4]) == n
            listed = [float(x) for x in row[5].split(";")] if row[5] else []
            assert listed == rec["eigenvalues"][:n]


class TestOverflowingGramIsNumericalFailure:
    def test_threshold_suite_exits_three(self, capsys, tmp_path):
        # at offset 0 the grid has the node q = 0, where E = 0, and
        # 1/(E - z) at z = -1e-320 overflows
        path = tmp_path / "pot3.json"
        path.write_text('{"sites": [{"s": [0, 0, 0], "v": 3.0}]}')
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, "verify", "--suite", "threshold", "--potential",
                                 str(path), "--offset", "0", "--grid", "4", "--k", "0,0,0",
                                 "--tie-tol", "1e-320")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure:") and "non-finite" in err


def cli_process(*argv, **env):
    """A ``python -m lattice_spectra.cli`` process, as a user runs it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lattice_spectra.__file__)))
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "lattice_spectra.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestNoNumpyWarnings:
    """An overflow is reported once, as exit 3; numpy prints no warning."""

    @pytest.fixture
    def pot3(self, tmp_path):
        path = tmp_path / "pot3.json"
        path.write_text('{"sites": [{"s": [0, 0, 0], "v": 3.0}]}')
        return str(path)

    def test_overflowing_gram(self, pot3):
        proc = cli_process("verify", "--suite", "threshold", "--potential", pot3, "--offset", "0",
                           "--grid", "4", "--k", "0,0,0", "--tie-tol", "1e-320")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("numerical failure:") and proc.stderr.count("\n") == 1

    def test_overflowing_dispersion_in_worker_threads(self, pot3):
        # numpy's error state does not pass from main to the pool's threads
        proc = cli_process("spectrum", "--masses", "1e-308,1", "--grid", "4", "--potential", pot3,
                           "--k", "0,0,0", "--k", "0.5,0,0", **{ENV_VAR: "2"})
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith("numerical failure:") and proc.stderr.count("\n") == 1


class TestRecordRefusalsNeedNoWrapping:
    """``MomentumGrid`` and ``ZSchedule`` raise ``InputError`` themselves."""

    @pytest.mark.parametrize("argv,message", [
        (("--offset", "1.5"), "offset must be in [0, 1), got 1.5"),
        (("--z-steps", "1"), "need at least 2 steps"),
    ])
    def test_exit_two_with_the_records_message(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", "--suite", "counting", "--k", "0,0,0", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
