"""Dense N^3 x N^3 oracles of V, V^{1/2}, H(k) and G(k, z), and the
test-only helpers that no library caller runs, for tests only.

The library works from the rank-r structure of V: the plane-wave factor
of ``operators.fiber_blocks`` and the r x r Gram of ``_support_gram``.  The
builders here form the full matrices on the momentum grid instead, the
independent reference every fast route is checked against at small N.
They share the library's guards: a matrix whose 8 N^6 bytes exceed
physical memory is refused before it allocates, and G is checked
positive semidefinite against PSD_TOL.

The threshold-continuity route (``continuity_exponent`` over
``bs_difference_norm``) contracts its difference kernel through the
library's ``_support_gram``, with the checks of ``operators._gram``
repeated.  ``deflate_per_run`` is the deflation with one QR per level.
``save_potential`` and ``momentum_kernel`` serialize a potential and
evaluate its Fourier series.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from lattice_spectra.analysis import (
    OVERLAP_TOL,
    UNIT_TOL,
    ZERO_K,
    Z_DELTAS,
    ThresholdReport,
    _threshold_report,
)
from lattice_spectra.dispersion import band_geometry, dispersion_on_grid
from lattice_spectra.errors import (
    NegativePotentialError,
    PreconditionError,
    ZeroPotentialError,
    ZNotBelowBandError,
)
from lattice_spectra.model import (
    TWO_PI,
    MassPair,
    MomentumGrid,
    Potential,
    Quasimomentum,
    TorusVector,
)
from lattice_spectra.operators import (
    GridOperator,
    Kernel,
    _axis_factors,
    _eigvalsh,
    _fiber_parts,
    _long_runs,
    _parity_map,
    _require_dense_fits,
    _require_grid_fits,
    _require_psd,
    _sampled_band,
    _support_gram,
    build_h0,
)


def _convolution_matrix(values: dict, grid: MomentumGrid) -> np.ndarray:
    """Momentum-side matrix of the position multiplication operator.

    Entry (m, n) = (1/N^3) sum_x f(x) cos((q_m - q_n, x)).  Depends only on
    the node index difference mod N per axis (circulant structure); the
    grid offset cancels in q_m - q_n.
    """
    _require_dense_fits(grid.dim, grid)
    n = grid.n_per_dim
    d = np.arange(n)
    table = np.zeros((n, n, n))
    for (s1, s2, s3), v in values.items():
        ang = (2.0 * math.pi / n) * (
            d[:, None, None] * s1 + d[None, :, None] * s2 + d[None, None, :] * s3
        )
        table += v * np.cos(ang)
    table /= n**3
    # entry ((i1, i2, i3), (j1, j2, j3)) in C order reads table[dd[i1, j1],
    # dd[i2, j2], dd[i3, j3]]; broadcasting keeps the index arrays N x N
    dd = (d[:, None] - d[None, :]) % n
    mat = table[
        dd[:, None, None, :, None, None],
        dd[None, :, None, None, :, None],
        dd[None, None, :, None, None, :],
    ].reshape(n**3, n**3)
    return 0.5 * (mat + mat.T)


def build_v(pot: Potential, grid: MomentumGrid) -> GridOperator:
    """Momentum representation of the convolution potential (exact)."""
    _require_grid_fits(pot, grid)
    return GridOperator(_convolution_matrix(dict(pot.entries), grid), grid, "V")


def build_vhalf(pot: Potential, grid: MomentumGrid) -> GridOperator:
    """Positive square root V^{1/2}, built from sqrt(v-hat); needs v-hat >= 0."""
    if not pot.is_nonnegative():
        raise NegativePotentialError("V^{1/2} requires a nonnegative potential")
    _require_grid_fits(pot, grid)
    roots = {s: math.sqrt(v) for s, v in pot.entries.items()}
    return GridOperator(_convolution_matrix(roots, grid), grid, "Vhalf")


def position_box_values(pot: Potential, grid: MomentumGrid) -> np.ndarray:
    """Eigenvalues of V, ascending: v-hat at each of the N^3 sites of the
    centered position box, read one site at a time."""
    _require_grid_fits(pot, grid)
    n = grid.n_per_dim
    lo = -((n - 1) // 2)
    box = range(lo, lo + n)
    vals = [
        pot.value((x1, x2, x3)) for x1 in box for x2 in box for x3 in box
    ]
    return np.sort(np.array(vals))


def build_h(
    m: MassPair, k: Quasimomentum, pot: Potential, grid: MomentumGrid
) -> GridOperator:
    """Full fiber Hamiltonian H(k) = H0(k) - V on the grid."""
    h0 = build_h0(m, k, grid)
    v = build_v(pot, grid)
    return GridOperator(h0.matrix - v.matrix, grid, "H")


def build_bs(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    z: float,
    grid: MomentumGrid,
) -> GridOperator:
    """Birman-Schwinger operator G(k, z) = V^{1/2} (H0(k) - z)^{-1} V^{1/2}.

    Positive semidefiniteness is a theorem and is enforced at build time
    from the eigenvalues of G, which are not kept.
    """
    w = build_vhalf(pot, grid).matrix
    diag = dispersion_on_grid(m, k, grid)
    if not z < diag.min():  # NaN fails too
        raise ZNotBelowBandError(
            f"z={z} is not below the grid-sampled dispersion minimum {diag.min()}"
        )
    g = (w / (diag - z)[None, :]) @ w
    g = 0.5 * (g + g.T)
    _require_psd(_eigvalsh(g))
    return GridOperator(g, grid, "BS")


def parity_nodes(grid: MomentumGrid) -> tuple[np.ndarray, np.ndarray]:
    """The nodes of the even parity block (one of each pair q, -q, then the
    fixed nodes) and of the odd one (the pairs' representatives) on a grid
    closed under parity."""
    nodes, mirror = np.arange(grid.dim), _parity_map(grid)
    pairs = nodes[nodes < mirror]
    return np.concatenate([pairs, nodes[nodes == mirror]]), pairs


def parity_blocks_of_v(pot: Potential, grid: MomentumGrid) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks of V on a grid closed under parity, formed densely
    from the factor rows ``_fiber_parts`` gives its parity blocks at k = 0,
    where every axis factor of E is even."""
    (_, even, w_even), (_, odd, w_odd) = _fiber_parts(MassPair(1, 1), ZERO_K, pot, grid)[0]
    return (even * w_even) @ even.T, (odd * w_odd) @ odd.T


def deflate_per_run(
    diag: np.ndarray, f: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``operators._deflate`` with one QR call per run of ``_long_runs``,
    the reference for the library's one stacked call per run length."""
    rank = f.shape[1]
    order = np.argsort(diag, kind="stable")
    s = diag[order]
    keep = np.ones(len(diag), dtype=bool)
    levels, rows, copies = [], [], []
    for a, b in _long_runs(s, tol, rank):
        run, level = order[a:b], float(s[a:b].mean())
        keep[run] = False
        rows.append(np.linalg.qr(f[run], mode="r"))
        levels.append(np.full(rank, level))
        copies.append(np.full(b - a - rank, level))
    if not rows:
        return diag, f, np.zeros(0)
    return (
        np.concatenate([diag[keep], *levels]),
        np.vstack([f[keep], *rows]),
        np.concatenate(copies),
    )


def dense_resonance_analysis(
    m: MassPair,
    pot: Potential,
    grid: MomentumGrid,
    unit_tol: float = UNIT_TOL,
    overlap_tol: float = OVERLAP_TOL,
) -> ThresholdReport:
    """Threshold classification of H(0) from the dense N^3 x N^3 G(0, 0).

    The eigenpairs of G and the grid vector of the half-potential kernel,
    sum_s sqrt(v(s)) cos(q.s), go through the library's classification
    rule (``_threshold_report``) in place of the r x r Gram's.
    """
    if not pot.is_nonnegative():
        raise NegativePotentialError("Birman-Schwinger requires v-hat >= 0")
    if pot.is_empty():
        return ThresholdReport(0.0, (), "none", 0, False)
    diag0 = dispersion_on_grid(m, ZERO_K, grid)
    if diag0.min() <= 0.0:
        raise PreconditionError(
            "grid offset must keep the dispersion minimum off the grid "
            f"(min sample {diag0.min()}); use offset 0.5"
        )
    g = build_bs(m, ZERO_K, pot, 0.0, grid)
    eigs, vecs = np.linalg.eigh(g.matrix)
    q = grid.nodes()
    u = np.zeros(grid.dim)
    for s, v in pot.entries.items():
        u += math.sqrt(v) * np.cos(q @ np.array(s, dtype=float))
    return _threshold_report(eigs, vecs, u, unit_tol, overlap_tol)


def save_potential(pot: Potential) -> str:
    """Serialize to the canonical (sorted, fully symmetrized) JSON form."""
    sites = [{"s": list(s), "v": pot.entries[s]} for s in pot.sorted_sites()]
    return json.dumps({"sites": sites}, indent=2) + "\n"


def momentum_kernel(pot: Potential, q: TorusVector) -> float:
    """Fourier series of v-hat at q; real because the potential is even."""
    qa = q.as_array()
    total = 0.0
    for s, v in pot.entries.items():
        total += v * math.cos(float(qa @ np.array(s)))
    return (TWO_PI) ** -1.5 * total


def _difference_kernel(z0: float, z: float) -> Kernel:
    """(z0 - z) / ((E - z0)(E - z)), in place on a slab of E: the kernel of
    G(k, z0) - G(k, z), written as a product, so nothing cancels."""

    def kernel(e: np.ndarray) -> None:
        shifted = e - z0
        e -= z
        e *= shifted
        np.divide(z0 - z, e, out=e)

    return kernel


def bs_difference_norm(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    z0: float,
    z: float,
    grid: MomentumGrid,
) -> float:
    """||G(k, z0) - G(k, z)||_2 for z < z0 below the grid-sampled band.

    G(k, z0) - G(k, z) = V^{1/2} [(H0 - z0)^{-1} - (H0 - z)^{-1}] V^{1/2},
    and the middle factor is the positive diagonal
    (z0 - z) / ((E - z0)(E - z)), so the difference is positive
    semidefinite and its 2-norm is the top eigenvalue of the Gram with that
    kernel (``_difference_kernel``), checked PSD.  The grid and band checks
    are those of ``operators._gram`` at z0.
    """
    if not pot.is_nonnegative():
        raise NegativePotentialError("Birman-Schwinger requires v-hat >= 0")
    if not z < z0:  # NaN fails too
        raise ZNotBelowBandError(f"need z={z} < z0={z0}")
    _require_grid_fits(pot, grid)
    factors = _axis_factors(m, k, grid)
    low = _sampled_band(factors)[0]
    if not z0 < low:  # NaN fails too
        raise ZNotBelowBandError(
            f"z={z0} is not below the grid-sampled dispersion minimum {low}"
        )
    if pot.is_empty():
        return 0.0
    gram = _support_gram(factors, _difference_kernel(z0, z), pot, grid)
    return float(_require_psd(_eigvalsh(gram))[-1])


class ContinuityReport(NamedTuple):
    deltas: tuple[float, ...]
    norms: tuple[float, ...]
    exponent: float


def continuity_exponent(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    grid: MomentumGrid,
) -> ContinuityReport:
    """Fit ||G(k, e_min) - G(k, z)|| ~ (e_min - z)^alpha along a z-schedule.

    Each norm is the top eigenvalue of an r x r Gram (``bs_difference_norm``);
    no dense G is built.  The continuum bound is square-root Hoelder; on a
    finite grid the decay steepens towards linear once e_min - z drops below
    the grid gap, so the fitted exponent is reported rather than a constant.
    """
    if pot.is_empty():
        raise ZeroPotentialError("continuity exponent of the zero potential")
    geo = band_geometry(m, k)
    if _sampled_band(_axis_factors(m, k, grid))[0] <= geo.e_min:
        raise PreconditionError(
            "grid samples must sit strictly above the analytic band bottom"
        )
    norms = [bs_difference_norm(m, k, pot, geo.e_min, geo.e_min - d, grid) for d in Z_DELTAS]
    slope = float(np.polyfit(np.log(Z_DELTAS), np.log(norms), 1)[0])
    return ContinuityReport(Z_DELTAS, tuple(norms), slope)
