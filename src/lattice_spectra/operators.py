"""Exact finite-torus representatives of H0(k), V, H(k), V^{1/2} and G(k, z).

For a finitely supported potential with support radius R and a grid with
N >= 2R + 1 the construction is exact on the discrete torus Z_N^3: the
convolution operator is unitarily equivalent to multiplication by v-hat
on the position box, so the only approximation anywhere is finite volume.
The ``build_*`` matrices are real symmetric and dense, O(N^6) in memory, so
they stay at desk scale (N <= 14) and serve as the reference.  The nonzero
Birman-Schwinger spectrum comes from an r x r Gram matrix instead
(``bs_support_eigenvalues``), whose cost is O(N^3) and which reaches
N = 128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dispersion import dispersion_on_grid
from .errors import (
    GridTooSmallError,
    NegativePotentialError,
    NumericalFailure,
    ZNotBelowBandError,
)
from .model import MassPair, MomentumGrid, Potential, Quasimomentum


@dataclass(frozen=True)
class GridOperator:
    """Dense real symmetric matrix on the momentum grid, tagged by kind."""

    matrix: np.ndarray
    grid: MomentumGrid
    kind: str  # one of: H0, V, H, Vhalf, BS
    eigenvalues: Optional[np.ndarray] = None  # cached, ascending, if known

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_grid_fits(pot: Potential, grid: MomentumGrid) -> None:
    if grid.n_per_dim < 2 * pot.support_radius + 1:
        raise GridTooSmallError(
            f"grid N={grid.n_per_dim} < 2R+1={2 * pot.support_radius + 1}; "
            "aliasing would corrupt the spectrum"
        )


def _convolution_matrix(values: dict, grid: MomentumGrid) -> np.ndarray:
    """Momentum-side matrix of the position multiplication operator.

    Entry (m, n) = (1/N^3) sum_x f(x) cos((q_m - q_n, x)).  Depends only on
    the node index difference mod N per axis (circulant structure); the
    grid offset cancels in q_m - q_n.
    """
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


def build_h0(m: MassPair, k: Quasimomentum, grid: MomentumGrid) -> GridOperator:
    """Diagonal matrix of dispersion samples over the grid nodes."""
    diag = dispersion_on_grid(m, k, grid)
    return GridOperator(np.diag(diag), grid, "H0", eigenvalues=np.sort(diag))


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


def potential_spectrum(pot: Potential, grid: MomentumGrid) -> np.ndarray:
    """Exact eigenvalue multiset of build_v: v-hat over the centered position box."""
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
    psd_tol: float = 1e-10,
) -> GridOperator:
    """Birman-Schwinger operator G(k, z) = V^{1/2} (H0(k) - z)^{-1} V^{1/2}.

    Positive semidefiniteness is a theorem and is enforced at build time;
    eigenvalues are computed for the check and cached on the result.
    """
    w = build_vhalf(pot, grid).matrix
    diag = dispersion_on_grid(m, k, grid)
    if z >= diag.min():
        raise ZNotBelowBandError(
            f"z={z} is not below the grid-sampled dispersion minimum {diag.min()}"
        )
    g = (w / (diag - z)[None, :]) @ w
    g = 0.5 * (g + g.T)
    eigs = np.linalg.eigvalsh(g)
    floor = -psd_tol * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if eigs[0] < floor:
        raise NumericalFailure(
            f"Birman-Schwinger matrix not PSD: min eigenvalue {eigs[0]}"
        )
    return GridOperator(g, grid, "BS", eigenvalues=eigs)


def bs_support_eigenvalues(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    z: float,
    grid: MomentumGrid,
) -> np.ndarray:
    """Nonzero spectrum of G(k, z) via the support-sized Gram matrix.

    G has rank at most the number r of supported sites; its nonzero
    eigenvalues equal those of the r x r matrix with entries
    sqrt(v(x) v(y)) T(y - x), where
    T(u) = (1/N^3) sum_n exp(i (q_n, u)) / (E(q_n) - z)
    is the lattice Green's function of the grid at site difference u.

    Both factors split per axis: E(q) = e_1(q_1) + e_2(q_2) + e_3(q_3) and
    exp(i (q, u)) is a product of three one-axis phases.  So T is computed
    for every needed difference at once by contracting the N x N x N array
    1/(E - z) against the per-axis phase vectors, one axis at a time.  Each
    axis has at most 4R + 1 distinct differences (R the support radius), so
    the cost is O(N^3 |U|) multiply-adds and the memory O(N^3) reals; no
    N^3 x r phase matrix and no N^3 x 3 node array is built.
    """
    if not pot.is_nonnegative():
        raise NegativePotentialError("Birman-Schwinger requires v-hat >= 0")
    _require_grid_fits(pot, grid)
    a = grid.axis_nodes()
    e1, e2, e3 = (
        (1.0 - np.cos(0.5 * kj + a)) / m.m1 + (1.0 - np.cos(0.5 * kj - a)) / m.m2
        for kj in k.components
    )
    resolvent = e1[:, None, None] + e2[None, :, None] + e3[None, None, :]
    e_low = float(resolvent.min())
    if z >= e_low:
        raise ZNotBelowBandError(
            f"z={z} is not below the grid-sampled dispersion minimum {e_low}"
        )
    resolvent -= z
    np.reciprocal(resolvent, out=resolvent)  # 1 / (E - z), in place
    sites = pot.sorted_sites()
    if not sites:
        return np.zeros(0)
    s = np.array(sites)  # (r, 3)
    diff = s[None, :, :] - s[:, None, :]  # (r, r, 3): y - x
    u1, u2, u3 = (np.unique(diff[..., j]) for j in range(3))
    # axis 3 as one real matmul against [cos | sin] of its phases, then the
    # two small complex contractions over axes 2 and 1
    n, w = grid.n_per_dim, len(u3)
    ang = np.outer(a, u3)
    part = resolvent.reshape(n * n, n) @ np.hstack([np.cos(ang), np.sin(ang)])
    part = (part[:, :w] + 1j * part[:, w:]).reshape(n, n, w)
    p1, p2 = np.exp(1j * np.outer(a, u1)), np.exp(1j * np.outer(a, u2))
    green = np.einsum("abw,bv,au->uvw", part, p2, p1, optimize=True) / grid.dim
    gram = green[
        np.searchsorted(u1, diff[..., 0]),
        np.searchsorted(u2, diff[..., 1]),
        np.searchsorted(u3, diff[..., 2]),
    ]
    # Hermitian with a genuinely complex part unless the dispersion is even
    # in q (equal masses or k = 0); eigvalsh handles the complex case
    root = np.sqrt([pot.entries[t] for t in sites])
    gram = root[:, None] * gram * root[None, :]
    return np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
