"""Workload definitions: seeded inputs, CLI invocation lists, item counts and
the independent references every program output is checked against.

The benchmark generates every input from the workload seed; the program
only sees the potential files and flags built here.  References are
computed with the benchmark's own numpy code, through a different
construction than the library uses, before any timing starts:

* spectrum_dense: H = diag(E) - C diag(v) C^T / N^3 - S diag(v) S^T / N^3
  with C, S the cosine and sine plane-wave matrices of the support sites
  (the library gathers a circulant table instead);
* critical_lowrank: the Gram matrix from an FFT of 1/E(q) over the offset
  grid (the library contracts an explicit N^3 x r phase matrix);
* verify_mixed: the verification suites check theorems, so a correct
  program passes every suite and exits 0.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WATSON_W3 = 0.5054620197470816
LAMBDA_POINT = 2.0 / WATSON_W3  # critical coupling of the unit point potential, N -> inf
LAMBDA_REL_TOL = 1e-5
LAMBDA_GRID = 64  # grid of the lambda_rel_err check, at every size
CRITICAL_REL_TOL = 1e-8
Z_STEPS = 7  # default length of the CLI z-schedule
DEFAULT_TRIALS = {"counting": 200, "bs": 50}  # CLI defaults of the two verify suites

WORKLOADS = ("spectrum_dense", "critical_lowrank", "verify_mixed")
POINT_POTENTIAL = {"sites": [{"s": [0, 0, 0], "v": 1.0}]}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is the benchmark, TINY is for the smoke tests."""

    dense_grid: int  # spectrum_dense and the threshold/neraven suites
    k_points: int
    critical_grid: int
    verify_trials: int | None  # None keeps the CLI defaults


FULL = Sizes(dense_grid=10, k_points=8, critical_grid=64, verify_trials=None)
TINY = Sizes(dense_grid=4, k_points=3, critical_grid=8, verify_trials=3)


@dataclass(frozen=True)
class Invocation:
    """One CLI run: arguments after ``python -m lattice_spectra.cli`` and the
    check its exit code and stdout must pass."""

    argv: tuple[str, ...]
    check: Callable[[int, str], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    item: str  # the unit of work counted by items_per_pass
    items_per_pass: int


# ---------------------------------------------------------------------------
# Input generation


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(name)])


def _pair_sites(rng: np.random.Generator, radius: int, pairs: int) -> list[tuple[int, int, int]]:
    """`pairs` distinct +-pair representatives in the sup-norm ball, origin excluded."""
    span = range(-radius, radius + 1)
    reps = [
        (a, b, c) for a in span for b in span for c in span
        if (a, b, c) > (-a, -b, -c)
    ]
    chosen = rng.choice(len(reps), size=pairs, replace=False)
    return [reps[i] for i in sorted(chosen)]


def _potential(rng: np.random.Generator, radius: int, pairs: int,
               origin: tuple[float, float], pair: tuple[float, float]) -> dict:
    """Nonnegative even potential with 1 + 2 * pairs sites (fixed size)."""
    sites = [{"s": [0, 0, 0], "v": float(rng.uniform(*origin))}]
    for s in _pair_sites(rng, radius, pairs):
        v = float(rng.uniform(*pair))
        sites.append({"s": list(s), "v": v})
        sites.append({"s": [-c for c in s], "v": v})
    return {"sites": sites}


def _write(workdir: str, name: str, doc: dict) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _sites(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    s = np.array([site["s"] for site in doc["sites"]], dtype=float)
    v = np.array([site["v"] for site in doc["sites"]], dtype=float)
    return s, v


def _parse(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


# ---------------------------------------------------------------------------
# Grid helpers (same conventions as the CLI: masses 1,1 and grid offset 0.5)


def _axis_nodes(n: int, offset: float = 0.5) -> np.ndarray:
    return -math.pi + (np.arange(n) + offset) * (2.0 * math.pi / n)


def _dispersion(k: np.ndarray, n: int) -> np.ndarray:
    """E(q) = eps(k/2 + q) + eps(k/2 - q) on the grid, shape (n, n, n)."""
    a = _axis_nodes(n)
    per_axis = [2.0 - np.cos(0.5 * kj + a) - np.cos(0.5 * kj - a) for kj in k]
    return per_axis[0][:, None, None] + per_axis[1][None, :, None] + per_axis[2][None, None, :]


def _band_edges(k: np.ndarray) -> tuple[float, float]:
    r = 2.0 * np.abs(np.cos(0.5 * k))
    return 6.0 - float(r.sum()), 6.0 + float(r.sum())


# ---------------------------------------------------------------------------
# spectrum_dense


def spectrum_reference(pot: dict, ks: np.ndarray, n: int) -> list[tuple[int, int]]:
    """(n_below_band, n_above_band) per k from an independent dense build."""
    s, v = _sites(pot)
    a = _axis_nodes(n)
    q = np.stack(np.meshgrid(a, a, a, indexing="ij"), axis=-1).reshape(-1, 3)
    phase = q @ s.T
    c, sn = np.cos(phase), np.sin(phase)
    vmat = (c * v) @ c.T / n**3 + (sn * v) @ sn.T / n**3
    out = []
    for k in ks:
        h = np.diag(_dispersion(k, n).ravel()) - vmat
        eigs = np.linalg.eigvalsh(0.5 * (h + h.T))
        tol = 1e-9 * max(1.0, float(np.abs(eigs).max()))
        e_min, e_max = _band_edges(k)
        out.append((int(np.count_nonzero(eigs < e_min - tol)),
                    int(np.count_nonzero(eigs > e_max + tol))))
    return out


def _k_path(count: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, count)[:, None] * np.full(3, math.pi)[None, :]


def _check_spectrum(n: int, reference: list[tuple[int, int]]) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        doc = _parse(out)
        if code != 0 or doc is None or len(doc.get("spectrum", [])) != len(reference):
            return False
        return all(
            len(rec["eigenvalues"]) == n**3
            and (rec["n_below_band"], rec["n_above_band"]) == ref
            for rec, ref in zip(doc["spectrum"], reference)
        )

    return check


def _spectrum_dense(seed: int, workdir: str, sizes: Sizes) -> Workload:
    rng = _rng(seed, "spectrum_dense")
    pot = _potential(rng, radius=1, pairs=4, origin=(2.0, 6.0), pair=(0.5, 3.0))
    path = _write(workdir, "spectrum_pot.json", pot)
    n, count = sizes.dense_grid, sizes.k_points
    argv = ("spectrum", "--grid", str(n), "--potential", path,
            "--k-path", f"0,0,0:{math.pi!r},{math.pi!r},{math.pi!r}:{count}")
    check = _check_spectrum(n, spectrum_reference(pot, _k_path(count), n))
    return Workload("spectrum_dense", (Invocation(argv, check),), "k-point", count)


# ---------------------------------------------------------------------------
# critical_lowrank


def _gram_top(s: np.ndarray, v: np.ndarray, n: int) -> float:
    """Top eigenvalue of G(0, 0) from the FFT of 1/E(q) over the offset grid."""
    green = np.fft.ifftn(1.0 / _dispersion(np.zeros(3), n))
    theta = -math.pi + 0.5 * (2.0 * math.pi / n)  # node phase at index 0
    d = (s[None, :, :] - s[:, None, :]).astype(int)  # (r, r, 3): y - x
    g = green[d[..., 0] % n, d[..., 1] % n, d[..., 2] % n] * np.exp(1j * theta * d.sum(axis=-1))
    root = np.sqrt(v)
    gram = root[:, None] * g * root[None, :]
    return float(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))[-1])


def critical_reference(pot: dict, n: int) -> tuple[float, float]:
    """(lambda_star at N, Richardson value from N and 2N)."""
    s, v = _sites(pot)
    x1, x2 = _gram_top(s, v, n), _gram_top(s, v, 2 * n)
    return 1.0 / x1, (2 * n - n) / (2 * n * x2 - n * x1)


def _close(a, b: float) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= CRITICAL_REL_TOL * abs(b)


def _check_critical(n: int, reference: tuple[float, float]) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        doc = _parse(out)
        return (
            code == 0 and doc is not None
            and doc.get("grid_sizes") == [n, 2 * n]
            and _close(doc.get("lambda_star"), reference[0])
            and _close(doc.get("richardson"), reference[1])
        )

    return check


def _critical_argv(path: str, n: int) -> tuple[str, ...]:
    return ("critical", "--refine", "--grid", str(n), "--potential", path)


def _critical_lowrank(seed: int, workdir: str, sizes: Sizes) -> Workload:
    rng = _rng(seed, "critical_lowrank")
    seeded = _potential(rng, radius=2, pairs=3, origin=(0.5, 2.0), pair=(0.2, 1.5))
    n = sizes.critical_grid
    invocations = tuple(
        Invocation(_critical_argv(_write(workdir, fname, pot), n),
                   _check_critical(n, critical_reference(pot, n)))
        for fname, pot in (("point.json", POINT_POTENTIAL), ("critical_pot.json", seeded))
    )
    return Workload("critical_lowrank", invocations, "Gram solve", 2 * len(invocations))


# ---------------------------------------------------------------------------
# verify_mixed


def _check_verify(suites: tuple[str, ...]) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        doc = _parse(out)
        return (
            code == 0 and doc is not None and doc.get("pass") is True
            and all(doc.get(name, {}).get("pass") is True for name in suites)
        )

    return check


def _verify_mixed(seed: int, workdir: str, sizes: Sizes) -> Workload:
    rng = _rng(seed, "verify_mixed")
    suite_seed = int(rng.integers(0, 2**31))
    pot = _potential(rng, radius=1, pairs=2, origin=(2.0, 6.0), pair=(0.5, 3.0))
    ks = rng.uniform(-math.pi, math.pi, size=(3, 3)).tolist()
    path = _write(workdir, "verify_pot.json", pot)
    trials = [] if sizes.verify_trials is None else ["--trials", str(sizes.verify_trials)]
    random_suites = ("counting", "bs")
    grid_suites = ("threshold", "neraven")
    first = ("verify", "--suite", ",".join(random_suites), "--seed", str(suite_seed), *trials)
    second = ("verify", "--suite", ",".join(grid_suites), "--grid", str(sizes.dense_grid),
              "--potential", path, *(f"--k={k[0]!r},{k[1]!r},{k[2]!r}" for k in ks))
    # LAPACK symmetric eigensolves per pass: counting solves A, V and A - V per
    # trial; bs solves H and the dense G per trial (eig_sym reuses G's cached
    # eigenvalues); threshold solves one r x r Gram per z and dense H per k;
    # neraven solves dense H per k.
    counting = sizes.verify_trials or DEFAULT_TRIALS["counting"]
    bs = sizes.verify_trials or DEFAULT_TRIALS["bs"]
    items = 3 * counting + 2 * bs + len(ks) * (Z_STEPS + 1 + 1)
    return Workload(
        "verify_mixed",
        (Invocation(first, _check_verify(random_suites)),
         Invocation(second, _check_verify(grid_suites))),
        "eigensolve",
        items,
    )


def build(name: str, seed: int, workdir: str, sizes: Sizes = FULL) -> Workload:
    """Write the workload's inputs into workdir and compute its references."""
    makers = {
        "spectrum_dense": _spectrum_dense,
        "critical_lowrank": _critical_lowrank,
        "verify_mixed": _verify_mixed,
    }
    return makers[name](seed, workdir, sizes)


def lambda_check(workdir: str) -> Invocation:
    """Untimed `critical --refine` on the unit point potential; its Richardson
    value is compared against 2 / W3 to give lambda_rel_err."""
    path = _write(workdir, "lambda_point.json", POINT_POTENTIAL)
    return Invocation(_critical_argv(path, LAMBDA_GRID),
                      lambda code, out: lambda_rel_err(code, out) <= LAMBDA_REL_TOL)


def lambda_rel_err(code: int, out: str) -> float:
    doc = _parse(out)
    if code != 0 or doc is None or not isinstance(doc.get("richardson"), (int, float)):
        return math.inf
    return abs(doc["richardson"] - LAMBDA_POINT) / LAMBDA_POINT
