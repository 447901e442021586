"""Symmetric eigenvalues, counting functionals and the width theorem.

Counting is strict-inequality counting with an explicit tie band: finite
arithmetic cannot distinguish an eigenvalue sitting exactly at a reference
level from one a rounding error away.

The dense blocks of H(k) (``operators.fiber_blocks``) are solved in full
by ``fiber_eigenvalues``, and counted below a level by
``fiber_count_below_dense``, which needs a spectrum only where a Cholesky
factor does not prove the count zero (Sylvester's law of inertia).  Both
take (m, k, pot, grid) as every other question about H(k) does.  A matrix
from a caller is checked square, finite and symmetric before it is solved
(``_check_symmetric``); the blocks, which the library builds symmetric,
are checked for finiteness only (``_check_finite``).
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence, Union

import numpy as np

from .errors import InputError, NonSymmetricError, NumericalFailure
from .model import MassPair, MomentumGrid, Potential, Quasimomentum
from .operators import GridOperator, _eigvalsh, fiber_blocks

MatrixLike = Union[GridOperator, np.ndarray]


def _as_matrix(op: MatrixLike) -> np.ndarray:
    return op.matrix if isinstance(op, GridOperator) else np.asarray(op, dtype=float)


def _check_finite(a: np.ndarray) -> tuple[float, float]:
    """The largest and smallest entry of a, each bounded by 0, checked
    finite: max and min propagate NaN and infinities.  No temporary."""
    top, bottom = float(a.max(initial=0.0)), float(a.min(initial=0.0))
    if not (np.isfinite(top) and np.isfinite(bottom)):
        raise NumericalFailure("matrix handed to the eigensolver has non-finite entries")
    return top, bottom


def _check_symmetric(a: np.ndarray) -> None:
    """Square, finite and symmetric within 1e-10 of the largest entry.

    NaN compares false, so finiteness is checked first (``_check_finite``).
    One n x n temporary at most.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSymmetricError(f"expected a square matrix, got shape {a.shape}")
    top, bottom = _check_finite(a)
    asym = a - a.T
    np.abs(asym, out=asym)
    if float(asym.max(initial=0.0)) > 1e-10 * max(1.0, top, -bottom):
        raise NonSymmetricError("matrix is not symmetric within tolerance")


def eig_sym(op: MatrixLike) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix.

    Backed by LAPACK (numpy.linalg.eigvalsh).  A non-finite entry or a
    LAPACK convergence failure raises NumericalFailure.
    """
    a = _as_matrix(op)
    _check_symmetric(a)
    return _eigvalsh(a)


def fiber_eigenvalues(m: MassPair, k: Quasimomentum, pot: Potential,
                      grid: MomentumGrid) -> np.ndarray:
    """Ascending eigenvalues of H(k) = H0(k) - V on the grid.

    Solves the parity blocks of H(k) separately when it has them and
    merges their spectra.  Each block is deflated first
    (``operators.fiber_blocks``): V has rank r, so on a level of the
    dispersion with m > r nodes, m - r eigenvalues equal the level and
    only r rows of it are left to solve.  Equal masses on the zone
    diagonal, or a direction with k_j = pi, make most levels that large;
    a generic k leaves the block as it is.  One eigensolve per block
    either way, after a finiteness check (``_check_finite``; an E or a
    weight 2v that overflows makes a block non-finite).
    """
    spectra = []
    for h, copies in fiber_blocks(m, k, pot, grid):
        _check_finite(h)
        spectra += [_eigvalsh(h), copies]
    return np.sort(np.concatenate(spectra))


def _lower_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """low^{-1} b for a lower-triangular low, by halves of its rows: the
    top half first, then the bottom half against b less the product of
    the top's solution with the block below it.  LAPACK's general solve
    takes the pieces of at most 64 rows; above that size a matrix product
    costs a fraction of a general solve of the whole."""
    n = len(low)
    if n <= 64:
        return np.linalg.solve(low, b)
    half = n // 2
    top = _lower_solve(low[:half, :half], b[:half])
    bottom = _lower_solve(low[half:, half:], b[half:] - low[half:, :half] @ top)
    return np.vstack([top, bottom])


def _positive_definite(h: np.ndarray) -> bool:
    """Whether the symmetric h is positive definite, from one step of block
    Cholesky (Haynsworth 1968).

    With h = [[A, B], [B^T, C]] split at half its rows, h is positive
    definite exactly when A and its Schur complement C - B^T A^{-1} B are.
    A = L L^T is factored, W = L^{-1} B solved (``_lower_solve``), and the
    complement formed as C - W^T W in W^T W's own storage, a temporary
    beside h: h itself is never written.  No array here has more than
    ceil(n/2) rows or columns (n the rows of h), and at most three quarters
    of n x n are held at once.  A factor that fails, LAPACK's
    LinAlgError, answers False.
    """
    half = len(h) // 2
    try:
        w = _lower_solve(np.linalg.cholesky(h[:half, :half]), h[:half, half:])
        schur = w.T @ w
        del w
        np.subtract(h[half:, half:], schur, out=schur)
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return False
    return True


def fiber_count_below_dense(
    m: MassPair, k: Quasimomentum, pot: Potential, level: float, grid: MomentumGrid
) -> int:
    """#{eigenvalues of H(k) < level}, from the blocks that
    ``fiber_eigenvalues`` solves, without their spectra where it can.

    Per deflated block (``operators.fiber_blocks``) the count is
    the split-off copies below level plus, by Sylvester's law of inertia,
    the negative eigenvalues of the block shifted by level.  Those are 0
    when the shifted block has a Cholesky factor (``_positive_definite``,
    about a third of the work of its spectrum); otherwise the untouched
    shifted block is solved and they are counted.  Each block is checked
    for finiteness only, as in ``fiber_eigenvalues``, and a LAPACK failure
    of the solve raises NumericalFailure.

    Memory: beside a block of n rows the certificate holds about three
    quarters of n x n at once, in arrays of at most ceil(n/2) rows and
    columns, and the fallback LAPACK's n x n copy of the block.  No n x n
    array is allocated beside the block and that copy, as a plain
    ``np.linalg.cholesky`` of the block, whose factor is n x n, would.
    """
    count = 0
    for h, copies in fiber_blocks(m, k, pot, grid):
        count += int(np.count_nonzero(copies < level))
        _check_finite(h)
        h[np.diag_indices_from(h)] -= level
        if not _positive_definite(h):
            count += int(np.count_nonzero(_eigvalsh(h) < 0.0))
    return count


def default_tie_tol(eigenvalues: Sequence[float]) -> float:
    """Tie band 1e-9 * max(1, spectral scale)."""
    arr = np.asarray(eigenvalues, dtype=float)
    scale = float(np.abs(arr).max(initial=0.0)) if arr.size else 0.0
    return 1e-9 * max(1.0, scale)


def count_below(mu: float, eigenvalues: Sequence[float], tie_tol: float = 0.0) -> int:
    """Number of eigenvalues strictly below mu - tie_tol."""
    return int(np.count_nonzero(np.asarray(eigenvalues, dtype=float) < mu - tie_tol))


def count_above(mu: float, eigenvalues: Sequence[float], tie_tol: float = 0.0) -> int:
    """Number of eigenvalues strictly above mu + tie_tol."""
    return int(np.count_nonzero(np.asarray(eigenvalues, dtype=float) > mu + tie_tol))


class CountingCheck(namedtuple("CountingCheck", "m_a big_m_a width lhs rhs holds mirrored_lhs "
                                 "mirrored_rhs mirrored_holds corollary_lhs corollary_rhs "
                                 "corollary_holds")):
    """Width-theorem check n_-(m(A), A-V) >= n_+(w_s(A), V) and companions."""

    __slots__ = ()

    @property
    def all_hold(self) -> bool:
        return self.holds and self.mirrored_holds and self.corollary_holds


def verify_counting_theorem(a: MatrixLike, v: MatrixLike) -> CountingCheck:
    """Check the eigenvalue-counting inequality for a perturbed pair (A, A - V).

    Also checks the mirrored form at M(A) and the corollary with |V|,
    where |V| is the operator absolute value (eigenvalue signs flipped in
    V's own eigenbasis), never the entrywise one.  The tie band is
    ``default_tie_tol`` of the three spectra.  A, V and A - V are each
    checked as ``eig_sym`` checks them and solved in one stacked call;
    LAPACK still solves them one by one, so the eigenvalues are those of
    three separate solves.
    """
    amat = _as_matrix(a)
    vmat = _as_matrix(v)
    if amat.shape != vmat.shape:
        raise InputError(f"dimension mismatch: {amat.shape} vs {vmat.shape}")
    stack = np.stack([amat, vmat, amat - vmat])
    for mat in stack:
        _check_symmetric(mat)
    eigs_a, eigs_v, eigs_av = _eigvalsh(stack)
    m_a = float(eigs_a[0])
    big_m_a = float(eigs_a[-1])
    width = big_m_a - m_a
    tol = default_tie_tol(np.concatenate([eigs_a, eigs_v, eigs_av]))
    lhs = count_below(m_a, eigs_av, tol)
    rhs = count_above(width, eigs_v, tol)
    mirrored_lhs = count_above(big_m_a, eigs_av, tol)
    mirrored_rhs = count_below(-width, eigs_v, tol)
    corollary_rhs = count_above(width, np.abs(eigs_v), tol)
    return CountingCheck(
        m_a=m_a,
        big_m_a=big_m_a,
        width=width,
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        mirrored_lhs=mirrored_lhs,
        mirrored_rhs=mirrored_rhs,
        mirrored_holds=mirrored_lhs >= mirrored_rhs,
        corollary_lhs=lhs + mirrored_lhs,
        corollary_rhs=corollary_rhs,
        corollary_holds=lhs + mirrored_lhs >= corollary_rhs,
    )
