"""Exact finite-torus representatives of H0(k), V, H(k) and G(k, z).

For a finitely supported potential with support radius R and a grid with
N >= 2R + 1 the construction is exact on the discrete torus Z_N^3: the
convolution operator is unitarily equivalent to multiplication by v-hat
on the position box, so the only approximation anywhere is finite volume.
The only N^3 x N^3 matrices built here are H0(k) (``build_h0``) and the
blocks of H(k) handed to the eigensolver.  A dense build is refused
before it allocates when its 8 rows^2 bytes exceed the machine's physical
memory, twice that for a block that is solved: the solve holds the block
and the eigensolver's copy of it.  The r x r Gram is refused the same way
when its N x N planes of E do not fit (``_require_gram_fits``).
``_convolution_matrix`` and the dense V, V^{1/2}, H(k) and G(k, z)
builders are test oracles, in ``tests/oracles.py``.

E is sampled one way on every path: from its three axis factors e_j
(``_axis_factors``), summed as (e_1 + e_2) + e_3.  Whether z lies below
(above) every sample is read off them as (min e_1 + min e_2) + min e_3
(the same with max), which is the extreme summed sample exactly
(``_sampled_band``).  There is one evenness rule (``_even_factor``): on a
grid closed under parity (offset 0 or 1/2), a factor equal to its mirror
image within PARITY_TOL of the scale of E is even, and is replaced by its
pair means.  At k = 0, or for equal masses, every factor is even.

V has rank r, the number of potential sites, so the questions the theorems
ask are r x r problems, each asked through one checked entry, ``_gram``.
Its builder, ``_support_gram``, contracts a kernel K of E into the r x r
matrix sqrt|v(x) v(y)| T_K(y - x), at O(N^3) cost and O(N^2) memory: it
forms E and K one slab of axis-1 planes at a time (GRAM_SLAB_NODES), and
no N^3 array is built.  An even axis is folded onto one node of each
mirror pair, with the pair's phases summed to a cosine (``_fold_axis``),
so K is evaluated on about N^3 / 8 nodes when all three are even.
``_gram`` passes it K = 1/(E - z) (the test oracles pass other kernels)
for these users:

* the nonzero Birman-Schwinger spectrum of G(k, z)
  (``bs_support_eigenvalues``), and at k = 0, z = 0 with its eigenvectors
  the threshold classification of H(0) (``analysis.resonance_analysis``);
* with z outside the sampled band, on either side, the number of
  eigenvalues of H(k) below z (``fiber_count_below``), from the inertia of
  S - G~(z) with S = diag(sgn v), by Haynsworth inertia additivity, plus
  N^3 when z lies above the band; ``fiber_count_above`` is N^3 minus it.

``weyl_bracket`` bounds the spectrum of H(k) without solving it, and sets
the default tie band of those counts.

Library eigensolves of H(k), which list every eigenvalue and stay dense,
go through ``fiber_blocks``, with the same arguments (m, k, pot, grid) as
every other question about H(k).  V enters as its N^3 x r plane-wave
factor, V = C diag(w) C^T + S diag(w') S^T with cosine and sine columns
C and S (``_plane_wave_factor``), built by each call at a small fraction
of the cost of its solve; the N^3 x N^3 V is not formed.
The potential is even, so V commutes with the parity q -> -q.  When every
axis factor is even, so is E, and H(k) is handed to the eigensolver as
its even and odd blocks of about N^3 / 2 each (a quarter of the dense
work), else as one N^3 x N^3 block; C is even and S odd, so each block
is its diagonal minus one rank-r product of rows of C, of S or of both.
``_fiber_parts`` decides the blocks, their memory guard and the
tolerance of their levels.

The diagonal of a block is often very degenerate: equal masses on the
zone diagonal (E is symmetric in the three axes) or a direction with
k_j = pi (E does not depend on q_j) leave levels of many nodes with the
same E.  On a level of m nodes the block is e I minus a matrix of rank at
most the block's rank r_b, so m - r_b of its eigenvalues equal e exactly.
``fiber_blocks`` splits those off before the solve
(``_deflate``, the deflation step of Bunch, Nielsen & Sorensen 1978).
Levels are runs of sorted samples within the evenness tolerance, and by
Weyl placing a run at its mean moves no eigenvalue by more than its
spread.  A block whose levels are no longer than its rank (a generic k)
passes through unchanged.

Birman-Schwinger operators are positive semidefinite.  Their Gram
spectrum refuses a non-finite eigenvalue, or a smallest eigenvalue below
-PSD_TOL * max(1, largest |eigenvalue|), with ``NumericalFailure``
(``_require_psd``); rounding stays far above that floor.  The
inertia count reads the side of the band off z, and applies the same floor
to G~(z) below the band and to -G~(z) above it.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from typing import Callable, Iterator, Optional

import numpy as np

from .dispersion import band_geometry, dispersion_on_grid
from .errors import (
    DenseTooLargeError,
    GridTooSmallError,
    NegativePotentialError,
    NumericalFailure,
    ZNotBelowBandError,
)
from .model import MassPair, MomentumGrid, Potential, Quasimomentum, _echo


class GridOperator(namedtuple("GridOperator", "matrix grid kind")):
    """Dense real symmetric matrix on the momentum grid, tagged by kind:
    H0 in the library; the test oracles also build V, H, Vhalf and BS."""

    __slots__ = ()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _require_grid_fits(pot: Potential, grid: MomentumGrid) -> None:
    if grid.n_per_dim < 2 * pot.support_radius + 1:
        raise GridTooSmallError(
            f"grid N={_echo(grid.n_per_dim)} < 2R+1={_echo(2 * pot.support_radius + 1)}; "
            "aliasing would corrupt the spectrum"
        )


def _physical_memory() -> float:
    """Bytes of physical memory, or infinity where the OS does not say."""
    try:
        return float(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"))
    except (AttributeError, ValueError, OSError):
        return math.inf


def _require_fits(need: int, what: str, error: type[Exception] = DenseTooLargeError) -> None:
    """error unless need bytes, an exact int, fit in physical memory.  An
    int compares with a float exactly however large, and past the float
    range the GB figure is read off its logarithm."""
    have = _physical_memory()
    if need > have:
        try:
            gb = f"{need / 1e9:.3g}"
        except OverflowError:
            exp = math.floor(math.log10(need))
            gb = f"{10 ** (math.log10(need) - exp):.3g}e+{exp - 9}"
        raise error(f"{what} would take {gb} GB, "
                    f"more than the {have / 1e9:.3g} GB of physical memory")


def _require_dense_fits(rows: int, grid: MomentumGrid, solved: bool = True) -> None:
    """DenseTooLargeError unless a dense rows x rows matrix, with the
    eigensolver's copy of it when it is solved, fits in physical memory."""
    copy = " and the eigensolver's copy of it" if solved else ""
    _require_fits((2 if solved else 1) * 8 * rows**2, f"a dense {_echo(rows)} x {_echo(rows)} "
                  f"matrix{copy} (grid N={_echo(grid.n_per_dim)})")


def build_h0(m: MassPair, k: Quasimomentum, grid: MomentumGrid) -> GridOperator:
    """Diagonal matrix of dispersion samples over the grid nodes."""
    _require_dense_fits(grid.dim, grid, solved=False)
    diag = dispersion_on_grid(m, k, grid)
    return GridOperator(np.diag(diag), grid, "H0")


def potential_spectrum(pot: Potential, grid: MomentumGrid) -> np.ndarray:
    """The nonzero eigenvalues of V: the r support values of v-hat,
    ascending.  V's other N^3 - r eigenvalues are 0, which no count the
    theorems ask for includes, so they are not listed.

    V is v-hat on the centered box of N^3 lattice sites, and with
    N >= 2R + 1 the box holds every supported site exactly once.
    """
    _require_grid_fits(pot, grid)
    return np.sort(np.fromiter(pot.entries.values(), float, len(pot.entries)))


# An axis factor of E counts as parity-even when e_j(q_j) and e_j(-q_j)
# agree to this many machine epsilons of the scale of E.  Node rounding
# leaves at most about 3 eps, and by Weyl's inequality solving with the
# pair means moves no eigenvalue by more than half the defects' sum.
PARITY_TOL = 64.0 * float(np.finfo(float).eps)


def _axis_mirror(grid: MomentumGrid) -> Optional[np.ndarray]:
    """Index of the axis node -q_j for every axis node q_j, or None when the
    grid is not closed under q -> -q: node i maps to (N - i - 2 offset) mod N."""
    if grid.offset not in (0.0, 0.5):
        return None
    n = grid.n_per_dim
    return (n - np.arange(n) - int(2 * grid.offset)) % n


def _parity_map(grid: MomentumGrid) -> Optional[np.ndarray]:
    """Index of the node -q for every node q, or None when the grid is not
    closed under q -> -q (``_axis_mirror`` on each axis)."""
    axis = _axis_mirror(grid)
    if axis is None:
        return None
    n = grid.n_per_dim
    return (
        axis[:, None, None] * n * n + axis[None, :, None] * n + axis[None, None, :]
    ).ravel()


# Past this many nodes per axis no machine holds a block of H(k) (at least
# ceil(N^3 / 2) rows, 4.6e18 bytes with its solver's copy at N = 1024), and
# ``_fiber_parts`` refuses it on that bound before the O(N) axis factors.
DENSE_MAX_N = 1 << 10


def _fiber_parts(
    m: MassPair, k: Quasimomentum, pot: Potential, grid: MomentumGrid
) -> tuple[list[tuple[np.ndarray, np.ndarray, np.ndarray]], float]:
    """(diagonal, factor rows, weights) of each diagonal block of H(k),
    and the tolerance of the evenness test, which also bounds a level.

    The diagonal samples E as the Gram does, (e_1 + e_2) + e_3.  V is
    C diag(w) C^T + S diag(w') S^T (``_plane_wave_factor``).  When every
    axis factor is even (``_even_factor``), each factor is replaced by its
    pair means and H(k) splits in two parity blocks.  The even block acts
    on e_q at the fixed nodes q = -q (listed last) and (e_q + e_-q)/sqrt(2)
    at one representative q of each pair, the odd block on
    (e_q - e_-q)/sqrt(2) at the pair representatives.  C is even in q and
    S odd, so the even block takes the rows of C at its nodes (times
    sqrt(2) at the pairs) and the odd block the rows of S at its nodes
    times sqrt(2).  Otherwise the one block is the full matrix.  A block
    is its diagonal minus f diag(w) f^T, and is refused here when its rows
    do not fit in memory, before any N^3 array is built.
    """
    _require_grid_fits(pot, grid)
    if grid.n_per_dim > DENSE_MAX_N:
        _require_dense_fits(-(-grid.dim // 2), grid)
    factors = _axis_factors(m, k, grid)
    tol = PARITY_TOL * max(1.0, _sampled_band(factors)[1])
    axis = _axis_mirror(grid)
    even = [_even_factor(ej, axis, tol) for ej in factors]
    split = all(ej is not None for ej in even)
    # the block rows from the axes alone, before any N^3 array: the fixed
    # nodes q = -q are the products of the axes' self-mirrored nodes
    rows = [grid.dim]
    if split:
        fixed = int(np.count_nonzero(axis == np.arange(grid.n_per_dim))) ** 3
        rows = [(grid.dim + fixed) // 2, (grid.dim - fixed) // 2]
    for n in rows:
        _require_dense_fits(n, grid)
    e1, e2, e3 = even if split else factors
    e = ((e1[:, None, None] + e2[:, None]) + e3).ravel()
    factor, weights, n_cos = _plane_wave_factor(pot, grid)
    parts = [(e, factor, weights)]
    if split:
        nodes, mirror = np.arange(grid.dim), _parity_map(grid)
        pairs = nodes[nodes < mirror]
        even_nodes = np.concatenate([pairs, nodes[nodes == mirror]])
        scale = np.where(np.arange(len(even_nodes)) < len(pairs), math.sqrt(2.0), 1.0)
        parts = [
            (e[even_nodes], factor[even_nodes, :n_cos] * scale[:, None], weights[:n_cos]),
            (e[pairs], factor[pairs, n_cos:] * math.sqrt(2.0), weights[n_cos:]),
        ]
    return parts, tol


def fiber_blocks(
    m: MassPair, k: Quasimomentum, pot: Potential, grid: MomentumGrid
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each diagonal block of H(k) (``_fiber_parts``) with its degenerate
    levels deflated (``_deflate``), as the reduced block and the eigenvalues
    split off from it; together their spectra make up that of H(k).

    Levels are runs of diagonal samples within the tolerance of
    ``_fiber_parts``, whose memory guard counts the rows of the whole block:
    deflation changes the cost of a solve, not which grids are accepted.
    """
    parts, tol = _fiber_parts(m, k, pot, grid)
    for diag, f, w in parts:
        diag, f, copies = _deflate(diag, f, tol)
        yield _block(diag, f, w), copies


def _block(diag: np.ndarray, f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """diag - f diag(w) f^T."""
    h = (f * -w) @ f.T
    h[np.diag_indices_from(h)] += diag
    return h


def _long_runs(s: np.ndarray, tol: float, rank: int) -> Iterator[tuple[int, int]]:
    """Runs [a, b) of the ascending samples s longer than rank.

    The runs partition s greedily from the left: each starts at the first
    sample after the previous one and takes every sample within tol of its
    start, so no run spreads (last - first) beyond tol, however closely
    the levels chain.  Only stretches longer than rank whose neighbouring
    samples lie within tol can hold such a run, so only those are walked.
    """
    cut = np.flatnonzero(np.diff(s) > tol) + 1
    starts = np.concatenate(([0], cut))
    ends = np.concatenate((cut, [len(s)]))
    wide = ends - starts > rank
    for a, b in zip(starts[wide].tolist(), ends[wide].tolist()):
        while a < b:
            end = a + int(np.searchsorted(s[a:b] - s[a], tol, side="right"))
            if end - a > rank:
                yield a, end
            a = end


def _deflate(
    diag: np.ndarray, f: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the exactly known eigenvalues of diag - f diag(w) f^T off its
    degenerate levels (the deflation of Bunch, Nielsen & Sorensen 1978).

    On a level of m nodes with equal diagonal e, the block acts on the span
    of their m unit vectors as e I - F W F^T, with F the m x r rows of f
    there.  With F = Q R (R is r x r), the m - r directions orthogonal to
    the columns of Q see no f at all, so they are eigenvectors with
    eigenvalue e, and the level enters the rest of the block through the r
    rows of R alone.  For every run of ``_long_runs`` longer than the rank
    r this replaces its m rows of f by R, placed at the run's mean, and
    splits off m - r copies of the mean.  The change of basis is orthogonal, and by
    Weyl the mean moves no eigenvalue by more than the run's spread (at
    most tol).

    Returns (diag, f, copies): the kept nodes in their order followed by
    the rows of R, and the copies.  Without such a run, diag and f are
    returned as they came.
    """
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


def _plane_wave_factor(pot: Potential, grid: MomentumGrid) -> tuple[np.ndarray, np.ndarray, int]:
    """The N^3 x r factor [C | S] of V = C diag(w) C^T + S diag(w') S^T,
    (w, w') and the number of columns of C.  With one representative s of
    each pair of sites +-s (the origin first), C and S hold cos(q.s) and
    sin(q.s) over N^{3/2} at the nodes q; w is v(0) at the origin and 2 v(s)
    at the other pairs, w' the same without the origin."""
    origin = (0, 0, 0)
    pairs = [s for s in pot.sorted_sites() if s > origin]
    ang = grid.nodes() @ np.array(pairs, dtype=float).reshape(-1, 3).T
    w_sin = [2.0 * pot.entries[s] for s in pairs]
    cos, w_cos = [np.cos(ang)], list(w_sin)
    if origin in pot.entries:
        cos.insert(0, np.ones((grid.dim, 1)))
        w_cos.insert(0, pot.entries[origin])
    factor = np.hstack([*cos, np.sin(ang)]) / math.sqrt(grid.dim)
    return factor, np.array(w_cos + w_sin), len(w_cos)


# Relative floor below which a Birman-Schwinger eigenvalue fails the
# positive-semidefiniteness that the theorem guarantees.
PSD_TOL = 1e-10


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh, with a LAPACK convergence failure raised as
    NumericalFailure."""
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"symmetric eigensolver failed: {exc}") from exc


def _require_psd(eigs: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Birman-Schwinger operator, checked finite
    and PSD.  A kernel that overflows (1/(E - z) with z a denormal from a
    node where E = 0) leaves NaN in the Gram; NaN compares false against
    any floor, so finiteness is checked first."""
    if not np.isfinite(eigs).all():
        raise NumericalFailure("Birman-Schwinger matrix has a non-finite eigenvalue")
    floor = -PSD_TOL * max(1.0, float(np.abs(eigs).max(initial=0.0)))
    if eigs[0] < floor:
        raise NumericalFailure(
            f"Birman-Schwinger matrix not PSD: min eigenvalue {eigs[0]}"
        )
    return eigs


# Nodes of the kernel held at once by ``_support_gram``: it streams the grid
# in slabs of whole axis-1 planes, as many as fit this cap (at least one).
GRAM_SLAB_NODES = 1 << 16

AxisFactors = tuple[np.ndarray, np.ndarray, np.ndarray]
Kernel = Callable[[np.ndarray], None]  # applied in place to a slab of E


def _axis_factors(m: MassPair, k: Quasimomentum, grid: MomentumGrid) -> AxisFactors:
    """The axis factors of E = (e_1 + e_2) + e_3 over the grid's axis nodes,
    e_j(q_j) = (1 - cos(k_j/2 + q_j)) / m1 + (1 - cos(k_j/2 - q_j)) / m2."""
    a = grid.axis_nodes()
    e1, e2, e3 = (
        (1.0 - np.cos(0.5 * kj + a)) / m.m1 + (1.0 - np.cos(0.5 * kj - a)) / m.m2
        for kj in k.components
    )
    return e1, e2, e3


def _sampled_band(factors: AxisFactors) -> tuple[float, float]:
    """Smallest and largest sample of E = (e_1 + e_2) + e_3 over the grid.
    Float addition is monotone in each argument, so (min e_1 + min e_2) +
    min e_3 is the smallest summed sample exactly, and likewise the largest."""
    e1, e2, e3 = factors
    return (
        float((e1.min() + e2.min()) + e3.min()),
        float((e1.max() + e2.max()) + e3.max()),
    )


def _resolvent_kernel(z: float) -> Kernel:
    """1 / (E - z), in place on a slab of E."""

    def kernel(e: np.ndarray) -> None:
        e -= z
        np.reciprocal(e, out=e)

    return kernel


def _even_factor(e: np.ndarray, mirror: Optional[np.ndarray], tol: float) -> Optional[np.ndarray]:
    """The pair means (e_j + e_j[mirror]) / 2, exactly even, of an axis factor
    even under the grid reflection within tol, else None (also without a
    mirror).  Both paths take tol = PARITY_TOL * max(1, largest sample)."""
    if mirror is None or np.abs(e - e[mirror]).max() > tol:
        return None
    return 0.5 * (e + e[mirror])


def _fold_axis(
    e: np.ndarray, a: np.ndarray, u: np.ndarray, mirror: Optional[np.ndarray], tol: float
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """One axis of ``_support_gram``: (e_j, phase angles q_j u, weights).

    When e_j is even (``_even_factor``), the axis is folded: one node of
    each mirror pair is kept with weight 2 and the pair's mean e_j, and a
    self-mirrored node with weight 1; the pair's two phases exp(+-i q_j u)
    sum to 2 cos(q_j u).  Otherwise every node is kept and the weights are
    None.
    """
    even = _even_factor(e, mirror, tol)
    if even is None:
        return e, np.outer(a, u), None
    nodes = np.arange(len(e))
    keep = nodes <= mirror
    weight = np.where(nodes < mirror, 2.0, 1.0)[keep, None]
    return even[keep], np.outer(a[keep], u), weight


def _support_gram(
    factors: AxisFactors, kernel: Kernel, pot: Potential, grid: MomentumGrid
) -> np.ndarray:
    """r x r Hermitian matrix sqrt|v(x) v(y)| T_K(y - x) over the sorted sites.

    T_K(u) = (1/N^3) sum_n exp(i (q_n, u)) K(E(q_n)), with E summed from
    its axis factors as (e_1 + e_2) + e_3 and K applied in place to a slab
    of E.  exp(i (q, u)) is a product of three one-axis phases, so T_K is
    computed for every needed difference at once by contracting K against
    the per-axis phase vectors, one axis at a time.  Each axis has at most
    4R + 1 distinct differences (R the support radius), so the cost is
    O(N^3 |U|) multiply-adds.  An axis whose factor is even
    (``_even_factor``, the rule of the dense blocks) is folded onto about
    half its nodes with cosine phases (``_fold_axis``): at k = 0, or for
    equal masses at any k, all three are, and K is evaluated on about
    N^3 / 8 nodes.  The grid is
    streamed in slabs of axis-1 planes of at most GRAM_SLAB_NODES nodes
    (one plane when a plane is larger), each contracted and added into the
    Green table before the next is formed, so the memory is O(N^2) reals;
    no N^3 array is built.  The potential is nonempty.
    """
    sites = pot.sorted_sites()
    s = np.array(sites)  # (r, 3)
    diff = s[None, :, :] - s[:, None, :]  # (r, r, 3): y - x
    u1, u2, u3 = (np.array(sorted(set(diff[..., j].ravel().tolist()))) for j in range(3))
    a, mirror = grid.axis_nodes(), _axis_mirror(grid)
    tol = PARITY_TOL * max(1.0, _sampled_band(factors)[1])
    (e1, ang1, w1), (e2, ang2, w2), (e3, ang3, w3) = (
        _fold_axis(e, a, u, mirror, tol) for e, u in zip(factors, (u1, u2, u3))
    )
    p1, p2 = (np.exp(1j * ang) if wt is None else wt * np.cos(ang)
              for ang, wt in ((ang1, w1), (ang2, w2)))
    # axis 3 as one real matmul against its phases ([cos | sin] unless
    # folded), then the two small contractions over axes 2 and 1
    phase3 = np.hstack([np.cos(ang3), np.sin(ang3)]) if w3 is None else w3 * np.cos(ang3)
    n2, n3, w = len(e2), len(e3), len(u3)
    e12 = e1[:, None] + e2[None, :]
    planes = max(1, GRAM_SLAB_NODES // (n2 * n3))
    green = np.zeros((len(u1), len(u2), w), dtype=complex)
    for lo in range(0, len(e1), planes):
        slab = e12[lo : lo + planes, :, None] + e3[None, None, :]
        kernel(slab)
        part = slab.reshape(-1, n3) @ phase3
        if w3 is None:
            part = part[:, :w] + 1j * part[:, w:]
        part = part.reshape(-1, n2, w)
        # sum_ab p1[a, u] part[a, b, w] p2[b, v]: one matmul over b, then one over a
        vaw = p2.T @ part.transpose(1, 0, 2).reshape(n2, -1)
        vwa = vaw.reshape(len(u2), -1, w).transpose(0, 2, 1).reshape(-1, len(part))
        green += (vwa @ p1[lo : lo + planes]).reshape(len(u2), w, -1).transpose(2, 0, 1)
    green /= grid.dim
    gram = green[
        np.searchsorted(u1, diff[..., 0]),
        np.searchsorted(u2, diff[..., 1]),
        np.searchsorted(u3, diff[..., 2]),
    ]
    # Hermitian with a genuinely complex part unless K is even in q (for the
    # resolvent: equal masses or k = 0); eigvalsh handles the complex case
    root = np.sqrt([abs(pot.entries[t]) for t in sites])
    gram = root[:, None] * gram * root[None, :]
    return 0.5 * (gram + gram.conj().T)


def _require_gram_fits(grid: MomentumGrid) -> None:
    """DenseTooLargeError unless the largest arrays of ``_support_gram`` fit
    in physical memory: its N x N table of e_1 + e_2 and one slab of E,
    counted unfolded.  Checked before any array of the grid is formed."""
    n = grid.n_per_dim
    _require_fits(8 * (n * n + max(n * n, GRAM_SLAB_NODES)),
                  f"the Gram's planes of E (grid N={_echo(n)})")


def _gram(
    m: MassPair, k: Quasimomentum, pot: Potential, grid: MomentumGrid, z: float
) -> tuple[Optional[np.ndarray], tuple[float, float]]:
    """``_support_gram`` of H(k) at z with the kernel 1/(E - z), the one
    checked entry of every r x r question, and the sampled band
    (``_sampled_band``), which tells the caller the side of z.
    GridTooSmallError when the grid does not hold the support,
    DenseTooLargeError when its planes do not fit (``_require_gram_fits``),
    ZNotBelowBandError when z lies inside the sampled band (NaN too); None
    for the empty potential."""
    _require_grid_fits(pot, grid)
    _require_gram_fits(grid)
    factors = _axis_factors(m, k, grid)
    low, high = _sampled_band(factors)
    if not (z < low or z > high):  # NaN fails too
        raise ZNotBelowBandError(
            f"z={z} is not below the grid-sampled dispersion minimum {low} "
            f"nor above its maximum {high}"
        )
    gram = None if pot.is_empty() else _support_gram(factors, _resolvent_kernel(z), pot, grid)
    return gram, (low, high)


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
    is the lattice Green's function of the grid at site difference u
    (``_gram`` with the kernel 1/(E - z)).  Empty for the empty potential.
    z must lie below the grid-sampled band.

    G is positive semidefinite, so a Gram eigenvalue below the PSD_TOL
    floor raises NumericalFailure.
    """
    if not pot.is_nonnegative():
        raise NegativePotentialError("Birman-Schwinger requires v-hat >= 0")
    gram, (low, _) = _gram(m, k, pot, grid, z)
    if z > low:
        raise ZNotBelowBandError(f"z={z} is not below the grid-sampled dispersion minimum {low}")
    return np.zeros(0) if gram is None else _require_psd(_eigvalsh(gram))


def fiber_count_below(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    z: float,
    grid: MomentumGrid,
) -> int:
    """n_-(z, H(k)), the eigenvalues of H(k) strictly below z, for z outside
    the grid-sampled band [min E, max E], from an r x r problem (r the
    number of sites).

    V = P D P* with D = diag(v) on the sites and P the N^3 x r plane waves
    of the sites over N^{3/2}, so P* P = I when N >= 2R + 1.  With
    A = H0(k) - z invertible, the Haynsworth inertia additivity of
    [[A, P], [P*, D^{-1}]] over its two Schur complements H(k) - z and
    D^{-1} - P* A^{-1} P gives
    n_-(z, H) = n_-(A) + n_-(S - G~(z)) - #{v < 0}, where
    S - G~ = |D|^{1/2} (D^{-1} - P* A^{-1} P) |D|^{1/2} is a congruent
    copy, S = diag(sgn v) and G~(z) is the Gram with weights |v| and
    kernel 1/(E - z).  n_-(A) is 0 below the band and N^3 above it, and
    G~ is positive semidefinite below the band and negative semidefinite
    above it; the side is read off z, and G~ or -G~ is checked against the
    PSD_TOL floor.
    """
    gram, (_, high) = _gram(m, k, pot, grid, z)
    above = z > high
    n_a = grid.dim if above else 0  # n_-(A)
    if gram is None:
        return n_a
    _require_psd(_eigvalsh(-gram if above else gram))
    signs = np.sign([pot.entries[t] for t in pot.sorted_sites()])
    inertia = _eigvalsh(np.diag(signs) - gram)
    return n_a + int(np.count_nonzero(inertia < 0.0) - np.count_nonzero(signs < 0.0))


def fiber_count_above(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    z: float,
    grid: MomentumGrid,
) -> int:
    """n_+(z, H(k)), the eigenvalues of H(k) strictly above z, for z outside
    the grid-sampled band and not an eigenvalue: N^3 - ``fiber_count_below``."""
    return grid.dim - fiber_count_below(m, k, pot, z, grid)


def weyl_bracket(m: MassPair, k: Quasimomentum, pot: Potential) -> tuple[float, float]:
    """Interval [e_min - max(v, 0), e_max - min(v, 0)] that holds the spectrum
    of H(k) on every grid, by Weyl's inequality: the grid samples of E lie
    in [e_min, e_max] and the spectrum of V is the values of v-hat and 0."""
    geo = band_geometry(m, k)
    values = [0.0, *pot.entries.values()]
    return geo.e_min - max(values), geo.e_max - min(values)
