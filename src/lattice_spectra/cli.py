"""Command-line front end.

Subcommands map one-to-one onto the analysis operations: band, spectrum,
verify, critical, plotdata.  Reports are JSON on stdout (CSV for plot
data); stderr carries diagnostics only.  Exit codes: 0 pass, 1 assertion
failure, 2 config/input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import analysis, operators, sampling
from .dispersion import band_geometry
from .errors import InputError, NumericalFailure
from .model import (
    ECHO_CHARS,
    MassPair,
    MomentumGrid,
    Quasimomentum,
    _echo,
    load_potential,
)
from .parallel import parallel_map
from .spectral import (
    count_above,
    count_below,
    default_tie_tol,
    fiber_eigenvalues,
    verify_counting_theorem,
)

# ---------------------------------------------------------------------------
# Parsing helpers


def _parse_triple(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"expected three comma-separated numbers, got {_echo(text)}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise InputError(f"bad number in {_echo(text)}") from exc


# Bytes one k-point takes while a k-path is parsed or random k are drawn:
# the tracemalloc peaks of ``_parse_k_path`` and of the positivity draws
# are 16.0 and 15.2 MB at 10^5 points.
K_PATH_POINT_BYTES = 160


def _parse_k_path(text: str) -> list[Quasimomentum]:
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"--k-path wants start:end:count, got {_echo(text)}")
    start = np.array(_parse_triple(parts[0]))
    end = np.array(_parse_triple(parts[1]))
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad point count {_echo(parts[2])}") from exc
    if count < 2:
        raise InputError("k-path needs at least 2 points")
    operators._require_fits(count * K_PATH_POINT_BYTES, f"--k-path count {_echo(count)}",
                            InputError)
    ts = np.linspace(0.0, 1.0, count)
    return [Quasimomentum(*(start + t * (end - start))) for t in ts]


def _config_from_args(args: argparse.Namespace, need_potential: bool) -> argparse.Namespace:
    """Every parsed flag, with masses, potential and grid resolved to their
    model objects, plus the k-points (k_list) and the z-schedule."""
    mp = args.masses.split(",")
    if len(mp) != 2:
        raise InputError(f"--masses wants m1,m2, got {_echo(args.masses)}")
    try:
        m1, m2 = float(mp[0]), float(mp[1])
    except ValueError:
        raise InputError(f"could not convert string to float: {_echo(args.masses)}") from None
    masses = MassPair(m1, m2)
    pot = None
    if args.potential is not None:
        try:
            with open(args.potential, "rb") as fh:
                pot = load_potential(fh)
        except OSError as exc:
            raise InputError(f"cannot read potential file: {exc.strerror}: "
                              f"{_echo(args.potential)}") from exc
    elif need_potential:
        raise InputError("this command requires --potential")
    grid = MomentumGrid(args.grid, args.offset)
    schedule = analysis.ZSchedule(args.z_delta0, args.z_ratio, args.z_steps)
    k_list = [Quasimomentum(*_parse_triple(trip)) for trip in args.k or []]
    if args.k_path:
        k_list.extend(_parse_k_path(args.k_path))
    if args.trials is not None and args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {_echo(args.trials)}")
    if args.seed < 0:  # numpy's generators take none
        raise InputError(f"--seed must be >= 0, got {_echo(args.seed)}")
    # the threshold tolerances stay below 1: at unit_tol >= 1 the zero
    # eigenvalues of G(0, 0) would count as unit ones, and at
    # overlap_tol >= 1 no eigenvector could overlap the kernel vector
    for name, high in (("tie_tol", math.inf), ("unit_tol", 1.0),
                       ("overlap_tol", 1.0), ("pos_tol", math.inf)):
        val = getattr(args, name)
        if val is not None and not (math.isfinite(val) and 0.0 < val < high):
            span = "> 0" if high == math.inf else "in (0, 1)"
            raise InputError(f"--{name.replace('_', '-')} must be finite and {span}, got {val}")
    return argparse.Namespace(**{**vars(args), "masses": masses, "potential": pot, "grid": grid,
                                 "k_list": k_list, "schedule": schedule})


def _require_k(cfg: argparse.Namespace) -> list[Quasimomentum]:
    if not cfg.k_list:
        raise InputError("this command requires --k or --k-path")
    return cfg.k_list


# ---------------------------------------------------------------------------
# Report plumbing


def _jsonable(obj):
    # every record is on a collections.namedtuple base: a dict of its fields, not a list
    if hasattr(obj, "_asdict"):
        return {name: _jsonable(value) for name, value in obj._asdict().items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write report: {exc.strerror}: {_echo(out)}") from exc
    else:
        sys.stdout.write(text)


def _emit_json(doc, out: Optional[str]) -> None:
    """Write doc as strict JSON; a NaN or infinity is a numerical failure,
    raised before anything is written."""
    try:
        text = json.dumps(_jsonable(doc), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"report holds a non-finite number: {exc}") from exc
    _emit(text + "\n", out)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_band(cfg: argparse.Namespace) -> int:
    records = [
        {"k": list(k.components), **band_geometry(cfg.masses, k)._asdict()}
        for k in _require_k(cfg)
    ]
    _emit_json({"band": records}, cfg.out)
    return 0


def _spectrum_records(cfg: argparse.Namespace) -> list[dict]:
    """Eigenvalues and band counts per k, the k-points in the pool."""
    def record(k: Quasimomentum) -> dict:
        # a worker thread does not inherit main's errstate
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            geo = band_geometry(cfg.masses, k)
            eigs = fiber_eigenvalues(cfg.masses, k, cfg.potential, cfg.grid)
            tol = cfg.tie_tol if cfg.tie_tol is not None else default_tie_tol(eigs)
            return {
                "k": list(k.components),
                "e_min": geo.e_min,
                "e_max": geo.e_max,
                "eigenvalues": eigs,
                "n_below_band": count_below(geo.e_min, eigs, tol),
                "n_above_band": count_above(geo.e_max, eigs, tol),
            }

    return parallel_map(record, _require_k(cfg))


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    _emit_json({"spectrum": _spectrum_records(cfg)}, cfg.out)
    return 0


def cmd_critical(cfg: argparse.Namespace) -> int:
    result = analysis.critical_coupling(cfg.masses, cfg.potential, cfg.grid, cfg.refine)
    _emit_json(result._asdict(), cfg.out)
    return 0


def _suite_counting(cfg: argparse.Namespace) -> dict:
    rng = np.random.default_rng(cfg.seed)
    trials = 200 if cfg.trials is None else cfg.trials
    failures = []
    for t in range(trials):
        dim = int(rng.integers(2, 51))
        a = sampling.random_symmetric(rng, dim)
        rank = int(rng.integers(1, min(10, dim) + 1))
        v = sampling.random_low_rank_symmetric(rng, dim, rank)
        check = verify_counting_theorem(a, v)
        if not check.all_hold:
            failures.append({"trial": t, "check": check._asdict()})
    return {"trials": trials, "failures": failures, "pass": not failures}


def _suite_bs(cfg: argparse.Namespace) -> dict:
    rng = np.random.default_rng(cfg.seed)
    trials = 50 if cfg.trials is None else cfg.trials
    sizes = (4, 6, 8)
    cases = []
    ok = True
    for t in range(trials):
        m = sampling.random_masses(rng)
        k = sampling.random_quasimomentum(rng)
        pot = sampling.random_potential(rng, radius=1, nonnegative=True)
        grid = MomentumGrid(sizes[t % len(sizes)], cfg.grid.offset)
        z = band_geometry(m, k).e_min - 1.0
        check = analysis.bs_check(m, k, pot, z, grid, cfg.tie_tol)
        cases.append(
            {"trial": t, "n": grid.n_per_dim, "n_minus": check.n_minus,
             "n_plus": check.n_plus, "equal": check.equal}
        )
        ok = ok and check.equal
    return {"trials": trials, "cases": cases, "pass": ok}


def _per_k(check):
    """The suite that runs check(cfg, k) at every k: one record per k, and
    it passes when every record does."""

    def suite(cfg: argparse.Namespace) -> dict:
        records = [{"k": list(k.components), **check(cfg, k)} for k in _require_k(cfg)]
        return {"records": records, "pass": all(rec["pass"] for rec in records)}

    return suite


@_per_k
def _suite_threshold(cfg: argparse.Namespace, k: Quasimomentum) -> dict:
    tc = analysis.threshold_count(cfg.masses, k, cfg.potential, cfg.grid, cfg.schedule,
                                  cfg.tie_tol)
    direct = analysis.count_below_band(cfg.masses, k, cfg.potential, cfg.grid, cfg.tie_tol)
    return {"counts": list(tc.counts), "stabilized": tc.stabilized, "divergent": tc.divergent,
            "direct_n_below": direct, "pass": (not tc.divergent) and tc.stabilized == direct}


@_per_k
def _suite_neraven(cfg: argparse.Namespace, k: Quasimomentum) -> dict:
    rep = analysis.verify_neraven(cfg.masses, k, cfg.potential, cfg.grid, tie_tol=cfg.tie_tol)
    return {**_jsonable(rep), "pass": rep.all_ok}


def _suite_existence(cfg: argparse.Namespace) -> dict:
    rep = analysis.verify_existence(
        cfg.masses, cfg.potential, _require_k(cfg), cfg.grid,
        unit_tol=cfg.unit_tol, overlap_tol=cfg.overlap_tol,
        pos_tol=cfg.pos_tol, tie_tol=cfg.tie_tol,
    )
    return {**_jsonable(rep), "pass": rep.all_ok}


@_per_k
def _suite_cheksiz(cfg: argparse.Namespace, k: Quasimomentum) -> dict:
    rep = analysis.verify_cheksiz(cfg.masses, k, cfg.potential, cfg.grid, cfg.schedule,
                                  cfg.tie_tol)
    return {**_jsonable(rep), "pass": rep.holds}


def _suite_positivity(cfg: argparse.Namespace) -> dict:
    ks = list(cfg.k_list)
    if not ks:
        rng = np.random.default_rng(cfg.seed)
        trials = 20 if cfg.trials is None else cfg.trials
        operators._require_fits(trials * K_PATH_POINT_BYTES, f"--trials {_echo(trials)}",
                                InputError)
        ks = [sampling.random_quasimomentum(rng) for _ in range(trials)]
    rep = analysis.positivity_check(cfg.masses, cfg.potential, ks, cfg.grid, cfg.pos_tol)
    return {**_jsonable(rep), "pass": rep.all_ok}


# The verify suites in ``--suite all`` order: name -> (runner, needs --potential).
SUITES = {
    "counting": (_suite_counting, False),
    "neraven": (_suite_neraven, True),
    "bs": (_suite_bs, False),
    "threshold": (_suite_threshold, True),
    "existence": (_suite_existence, True),
    "cheksiz": (_suite_cheksiz, True),
    "positivity": (_suite_positivity, True),
}


def cmd_verify(cfg: argparse.Namespace) -> int:
    """Run each selected suite once, in order, after every name and its
    --potential need is checked."""
    names = list(SUITES) if cfg.suite == "all" else list(dict.fromkeys(cfg.suite.split(",")))
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {_echo(name)}")
        if SUITES[name][1] and cfg.potential is None:
            raise InputError(f"suite {name!r} requires --potential")
    report = {name: SUITES[name][0](cfg) for name in names}
    report["pass"] = all(rec["pass"] for rec in report.values())
    _emit_json(report, cfg.out)
    return 0 if report["pass"] else 1


def cmd_plotdata(cfg: argparse.Namespace) -> int:
    import csv  # only plotdata writes CSV

    ks = _require_k(cfg)
    if cfg.quantity != "band_edges" and cfg.potential is None:
        raise InputError(f"{cfg.quantity} requires --potential")
    buf = io.StringIO()
    writer = csv.writer(buf)
    if cfg.quantity == "band_edges":
        writer.writerow(["k1", "k2", "k3", "e_min", "e_max", "w_b", "w_1b", "w_2b", "w_3b"])
        for k in ks:
            geo = band_geometry(cfg.masses, k)
            writer.writerow([*k.components, geo.e_min, geo.e_max, geo.w_b, *geo.w_jb])
    elif cfg.quantity == "below_band_eigs":
        writer.writerow(["k1", "k2", "k3", "e_min", "n_below", "below_band_eigs"])
        # the eigenvalues ascend, so the first n_below_band are those below
        for rec in _spectrum_records(cfg):
            below = rec["eigenvalues"][: rec["n_below_band"]].tolist()
            writer.writerow([*rec["k"], rec["e_min"], len(below), ";".join(map(repr, below))])
    else:  # bs_counts, the last of the quantities argparse accepts
        writer.writerow(["k1", "k2", "k3", "z", "n_plus"])
        for k in ks:
            tc = analysis.threshold_count(cfg.masses, k, cfg.potential, cfg.grid, cfg.schedule,
                                          cfg.tie_tol)
            for z, c in zip(tc.zs, tc.counts):
                writer.writerow([*k.components, z, c])
    _emit(buf.getvalue(), cfg.out)
    return 0


# ---------------------------------------------------------------------------
# Entry point


_SCHEDULE = analysis.ZSchedule()  # the default z-schedule

# Every flag a subcommand may take, by argparse dest; the flag is "--" + dest
# with "-" for "_".
FLAGS = {
    "masses": dict(default="1,1", help="m1,m2 (default 1,1)"),
    "potential": dict(help="potential JSON file"),
    "grid": dict(type=int, default=8, help="nodes per dimension"),
    "offset": dict(type=float, default=0.5, help="grid offset in [0,1)"),
    "k": dict(action="append", help="quasi-momentum a,b,c (repeatable)"),
    "k_path": dict(help="path spec a,b,c:d,e,f:COUNT"),
    "z_delta0": dict(type=float, default=_SCHEDULE.delta0),
    "z_ratio": dict(type=float, default=_SCHEDULE.ratio),
    "z_steps": dict(type=int, default=_SCHEDULE.steps),
    "seed": dict(type=int, default=0),
    "trials": dict(type=int),
    "refine": dict(action="store_true", default=False),
    "tie_tol": dict(type=float),
    "unit_tol": dict(type=float, default=analysis.UNIT_TOL),
    "overlap_tol": dict(type=float, default=analysis.OVERLAP_TOL),
    "pos_tol": dict(type=float),
    "out": dict(help="write report to file instead of stdout"),
    "suite": dict(required=True, help=f"comma-separated subset of: {','.join(SUITES)}, or 'all'"),
    "quantity": dict(required=True, choices=("band_edges", "below_band_eigs", "bs_counts")),
}

# The flags each subcommand reads; argparse rejects every other one (exit 2).
# A verify suite or a plotdata quantity may still ignore some of them.
_MODEL_FLAGS = ("masses", "potential", "grid", "offset")
COMMANDS = {
    "band": ("band geometry per k", ("masses", "k", "k_path", "out")),
    "spectrum": ("eigenvalues and band counts per k",
                 (*_MODEL_FLAGS, "k", "k_path", "tie_tol", "out")),
    "critical": ("critical coupling of the base potential", (*_MODEL_FLAGS, "refine", "out")),
    "verify": ("run theorem verification suites",
               tuple(f for f in FLAGS if f not in ("refine", "quantity"))),
    "plotdata": ("CSV data for external plotting", (*_MODEL_FLAGS, "k", "k_path", "z_delta0",
                 "z_ratio", "z_steps", "tie_tol", "out", "quantity")),
}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors cut each command-line word they
    echo, whole, as a repr or past the "=" of --flag=value, as ``model._echo``
    does, and then the list of unrecognized words, which joins them all.  The
    subparsers are of this class too."""

    def parse_known_args(self, args=None, namespace=None):
        self._words = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        parts = {p for w in self._words for p in (w, w.partition("=")[2])}
        # longest first: a word is cut before the value inside it
        for part in sorted(parts, key=len, reverse=True):
            if len(part) > ECHO_CHARS:
                message = message.replace(repr(part), _echo(part)).replace(part, _echo(part))
        head, sep, words = message.partition("unrecognized arguments: ")
        if len(words) > ECHO_CHARS:
            message = head + sep + words[: ECHO_CHARS - 3] + "..."
        super().error(message)


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, listed by the top-level ``--help``.
    Only the subparser named ``command`` gets its arguments, or each of
    them when ``command`` is None: a process parses one subcommand."""
    parser = _Parser(
        prog="lattice-spectra",
        description="Band geometry, spectra and theorem checks for two-particle "
        "lattice Schroedinger operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, reads) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command not in (None, name):
            continue
        for dest in reads:
            p.add_argument("--" + dest.replace("_", "-"), **FLAGS[dest])
        # the config reads every flag; those not taken keep their defaults
        p.set_defaults(**{d: FLAGS[d].get("default") for d in FLAGS if d not in reads})
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        handler = {"band": cmd_band, "spectrum": cmd_spectrum, "critical": cmd_critical,
                   "verify": cmd_verify, "plotdata": cmd_plotdata}[args.command]
        # an overflow, in the flags or after them, is the library's to
        # report, as exit 2 or 3, not numpy's to print as a RuntimeWarning
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            cfg = _config_from_args(args, need_potential=args.command in ("spectrum", "critical"))
            return handler(cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def run(argv: Optional[Sequence[str]] = None) -> int:
    """``main`` for a process that ends with it: the console script and
    ``python -m lattice_spectra.cli``.

    Afterwards ``gc.freeze()`` moves every object to the permanent
    generation, so the collections the interpreter runs at exit have
    nothing to walk (README, "Start-up and exit").  It runs on every way
    out, ``--help`` and usage errors included.  ``main`` itself leaves the
    collector alone, since it is also called in-process.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
