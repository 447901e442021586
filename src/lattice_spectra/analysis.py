"""Theorem-level verifications: Birman-Schwinger counting, threshold
classification, critical coupling, positivity transfer, emergence and the
degenerate-direction lower bound.

Every function here is a pure job over immutable inputs and returns a
small report record (a class on a ``collections.namedtuple`` base, like
the records of ``model``); nothing asserts, callers decide what a failure
means (the CLI turns report flags into exit codes).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Optional, Sequence

import numpy as np

from .dispersion import band_geometry, degenerate_directions
from .errors import (
    InputError,
    NegativePotentialError,
    NumericalFailure,
    PreconditionError,
    ZeroPotentialError,
    ZNotBelowBandError,
)
from .model import MassPair, MomentumGrid, Potential, Quasimomentum, _real
from .operators import (
    _eigvalsh,
    _gram,
    _require_psd,
    bs_support_eigenvalues,
    fiber_count_above,
    fiber_count_below,
    potential_spectrum,
    weyl_bracket,
)
from .spectral import count_above, count_below, default_tie_tol, fiber_count_below_dense

ZERO_K = Quasimomentum(0.0, 0.0, 0.0)


# The z-schedule z_i = e_min - Z_DELTAS[i] of the threshold counts.  On a
# finite grid its counts repeat the direct count below the band, so it is
# fixed, not tuned.
Z_DELTAS = tuple(0.1**i for i in range(7))


# ---------------------------------------------------------------------------
# Birman-Schwinger counting


class BSCheck(namedtuple("BSCheck", "z n_minus n_plus")):
    """n_-(z, H(k)) and n_+(1, G(k, z)), the two sides of the Birman-Schwinger count."""

    __slots__ = ()

    @property
    def equal(self) -> bool:
        return self.n_minus == self.n_plus


def bs_check(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    z: float,
    grid: MomentumGrid,
    tie_tol: Optional[float] = None,
) -> BSCheck:
    """Compare n_-(z, H(k)) against n_+(1, G(k, z)) on two independent routes.

    n_- is counted on the dense blocks of H(k) (``fiber_count_below_dense``:
    a Cholesky factor of each shifted block proves it has no eigenvalue
    below the level, and a block without one is solved) at z - tie_tol,
    by default with the tie band ``default_tie_tol`` of ``weyl_bracket``.
    G(k, z) has rank r, the number of potential sites, so n_+ comes from
    its nonzero spectrum, the eigenvalues of the r x r Gram matrix
    (``bs_support_eigenvalues``), which also set its default tie band.
    """
    tol = default_tie_tol(weyl_bracket(m, k, pot)) if tie_tol is None else tie_tol
    n_minus = fiber_count_below_dense(m, k, pot, z - tol, grid)
    eigs_g = bs_support_eigenvalues(m, k, pot, z, grid)
    n_plus = count_above(1.0, eigs_g, default_tie_tol(eigs_g) if tie_tol is None else tie_tol)
    return BSCheck(z, n_minus, n_plus)


class ThresholdCount(namedtuple("ThresholdCount", "zs counts stabilized")):
    """n_+(1, G(k, z)) along the schedule; ``stabilized`` None means divergent."""

    __slots__ = ()

    @property
    def divergent(self) -> bool:
        return self.stabilized is None


def threshold_count(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    grid: MomentumGrid,
    tie_tol: Optional[float] = None,
) -> ThresholdCount:
    """Track n_+(1, G(k, z_i)) along the z-schedule ``Z_DELTAS`` approaching
    the band bottom.

    Each count takes the tie band tie_tol, by default ``default_tie_tol`` of
    that Gram spectrum.  The counts stabilize when the threshold operator
    is regular; in the degenerate-direction regime they keep growing
    (divergence is reported, not decided).
    """
    e_min = band_geometry(m, k).e_min
    zs = [e_min - d for d in Z_DELTAS]
    counts = []
    for z in zs:
        eigs = bs_support_eigenvalues(m, k, pot, z, grid)
        tol = default_tie_tol(eigs) if tie_tol is None else tie_tol
        counts.append(count_above(1.0, eigs, tol))
    stabilized = counts[-1] if len(set(counts[-3:])) == 1 else None
    return ThresholdCount(tuple(zs), tuple(counts), stabilized)


# ---------------------------------------------------------------------------
# Threshold classification at k = 0, z = 0


# Default half-width of the unit window and resonance overlap cut
UNIT_TOL = 1e-6
OVERLAP_TOL = 1e-6


class UnitEigenvalue(namedtuple("UnitEigenvalue", "value overlap")):
    """A unit eigenvalue and its overlap |(v^{1/2}, psi)| / (|v^{1/2}| |psi|)."""

    __slots__ = ()


class ThresholdReport(namedtuple("ThresholdReport", "lambda_max unit_eigenvalues classification "
                                   "multiplicity ambiguous")):
    """``classification`` is none, resonance, zero_eigenvalue or
    resonance_plus_zero_eigenvalue; ``multiplicity`` counts the zero eigenvalues:
    the dimension of the unit eigenspace, less one with a resonance."""

    __slots__ = ()

    @property
    def has_resonance(self) -> bool:
        return self.classification in ("resonance", "resonance_plus_zero_eigenvalue")


def _threshold_report(
    eigs: np.ndarray, vecs: np.ndarray, kernel: np.ndarray, unit_tol: float, overlap_tol: float
) -> ThresholdReport:
    """Classify the unit eigenspace U of a Birman-Schwinger operator from its
    eigenpairs (eigs ascending) and the half-potential kernel vector in the
    same coordinates, whatever basis of U the eigensolver picked.

    U holds one resonance when the projection p of the kernel vector onto U
    has |p| / |kernel| > overlap_tol (``ambiguous`` within a factor 10 of
    it); the rest of dim U are zero eigenvalues.  With a resonance, U is
    listed in a basis led by p / |p| (its Rayleigh quotient and overlap),
    then the eigenvectors of the operator compressed to the rest of U
    (overlap 0); without one, in the eigenbasis, each overlap <= overlap_tol.
    """
    unit = np.abs(eigs - 1.0) <= unit_tol
    lam = eigs[unit]
    coef = vecs[:, unit].conj().T @ kernel / np.linalg.norm(kernel)
    overlap = float(np.linalg.norm(coef))
    resonance = overlap > overlap_tol
    values, overlaps = lam, np.abs(coef)
    if resonance:
        # unitary change of basis of U whose first column is coef / |coef|
        rest = np.linalg.qr(np.column_stack([coef, np.eye(len(lam))]))[0][:, 1:]
        values = [float(lam @ np.abs(coef) ** 2) / overlap**2,
                  *_eigvalsh(rest.conj().T @ (lam[:, None] * rest))]
        overlaps = [overlap] + [0.0] * (len(lam) - 1)
    n_zero = len(lam) - int(resonance)
    names = {(True, True): "resonance_plus_zero_eigenvalue", (True, False): "resonance",
             (False, True): "zero_eigenvalue", (False, False): "none"}
    return ThresholdReport(
        float(eigs[-1]),
        tuple(UnitEigenvalue(float(v), float(o)) for v, o in zip(values, overlaps)),
        names[resonance, n_zero > 0],
        n_zero,
        0.1 * overlap_tol < overlap <= 10.0 * overlap_tol,
    )


def _at_threshold(pot: Potential, solve):
    """solve() on G(0, 0) behind its refusals: a signed potential, and a grid
    sample at the dispersion minimum E = 0 (z = 0 not below the band)."""
    if not pot.is_nonnegative():
        raise NegativePotentialError("Birman-Schwinger requires v-hat >= 0")
    try:
        return solve()
    except ZNotBelowBandError as exc:
        raise PreconditionError(f"grid offset must keep the dispersion minimum off the grid "
                                f"({exc}); use an even N with offset 0.5") from None


def resonance_analysis(
    m: MassPair,
    pot: Potential,
    grid: MomentumGrid,
    unit_tol: float = UNIT_TOL,
    overlap_tol: float = OVERLAP_TOL,
) -> ThresholdReport:
    """Classify the zero-energy threshold of H(0).

    G(0, 0) is well defined on an offset grid, where every dispersion
    sample is strictly positive.  G(0, 0) = P K P* with P the N^3 x r plane
    waves of the sites over N^{3/2} (P* P = I), so its nonzero eigenpairs
    are (lambda, P c) for the eigenpairs (lambda, c) of the r x r Gram K
    with kernel 1/E (``_gram`` at z = 0), and the half-potential kernel
    vector N^{3/2} P sqrt(v) has the coordinates sqrt(v) there.
    ``_threshold_report`` sorts the eigenvalues within unit_tol of 1 into a
    resonance and zero eigenvalues.  Both tolerances lie in (0, 1), so the
    zero eigenvalues of G, off the Gram, are never within unit_tol of 1.
    """
    for name, tol in (("unit_tol", unit_tol), ("overlap_tol", overlap_tol)):
        if not 0.0 < tol < 1.0:  # NaN fails too
            raise PreconditionError(f"{name} must lie in (0, 1), got {tol}")
    if pot.is_empty():
        return ThresholdReport(0.0, (), "none", 0, False)
    gram, _ = _at_threshold(pot, lambda: _gram(m, ZERO_K, pot, grid, 0.0))
    try:
        eigs, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Hermitian eigensolver failed: {exc}") from exc
    _require_psd(eigs)
    root = np.sqrt([pot.entries[s] for s in pot.sorted_sites()])
    return _threshold_report(eigs, vecs, root, unit_tol, overlap_tol)


# ---------------------------------------------------------------------------
# Critical coupling


class CriticalCoupling(namedtuple("CriticalCoupling", "lambda_star richardson grid_sizes")):
    """``richardson`` extrapolates from the grid sizes N and 2N; None without refine."""

    __slots__ = ()


def critical_coupling(
    m: MassPair,
    base_pot: Potential,
    grid: MomentumGrid,
    refine: bool = False,
) -> CriticalCoupling:
    """Coupling scale at which G(0, 0) for lambda * v-hat first reaches 1.

    G scales linearly in the coupling, so lambda_star is the reciprocal of
    the largest Birman-Schwinger eigenvalue of the base potential; one
    diagonalization of the support-sized Gram matrix suffices.  With
    refine, the eigenvalue is recomputed at grid sizes N and 2N and
    Richardson-extrapolated assuming O(1/N) finite-volume error (the
    eigenvalue, not its reciprocal, carries the clean 1/N law).
    """

    def top(n: int) -> float:
        g = MomentumGrid(n, grid.offset)
        eigs = _at_threshold(base_pot, lambda: bs_support_eigenvalues(m, ZERO_K, base_pot, 0.0, g))
        return float(eigs.max(initial=0.0))

    n1 = grid.n_per_dim
    x1 = top(n1)
    if x1 <= 0.0:
        raise ZeroPotentialError("base potential has no positive part")
    if not refine:
        return CriticalCoupling(1.0 / x1, None, (n1,))
    n2 = 2 * n1
    x2 = top(n2)
    x_inf = (n2 * x2 - n1 * x1) / (n2 - n1)
    return CriticalCoupling(1.0 / x1, 1.0 / x_inf, (n1, n2))


# ---------------------------------------------------------------------------
# Positivity transfer


class PositivityAtK(namedtuple("PositivityAtK", "k n_negative ok")):
    """n_-(-pos_tol, H(k)), the eigenvalues of H(k) below -pos_tol, and whether it is 0."""

    __slots__ = ()


class PositivityReport(namedtuple("PositivityReport", "pos_tol per_k")):
    """Positivity transfer from H(0) to each listed k."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.per_k)


def _pos_tol(m: MassPair, pot: Potential, pos_tol: Optional[float]) -> float:
    """pos_tol, by default 10 * ``default_tie_tol`` of ``weyl_bracket`` at k = 0,
    whose scale bounds the one at every k (e_min(k) >= e_min(0) = 0 and
    e_max(k) <= e_max(0)); a value not finite and > 0 is an InputError."""
    tol = 10.0 * default_tie_tol(weyl_bracket(m, ZERO_K, pot)) if pos_tol is None else pos_tol
    if not 0.0 < _real(tol, "pos_tol") < math.inf:  # NaN fails too
        raise InputError(f"pos_tol must be finite and > 0, got {tol}")
    return tol


def positivity_check(
    m: MassPair,
    pot: Potential,
    k_list: Sequence[Quasimomentum],
    grid: MomentumGrid,
    pos_tol: Optional[float] = None,
) -> PositivityReport:
    """Check that positivity of H(0) transfers to H(k) for each listed k: min
    spec H(k) >= -pos_tol (default ``_pos_tol``) exactly when the r x r count
    ``fiber_count_below`` of n_-(-pos_tol, H(k)) is 0, and -pos_tol < 0 lies
    below every sample of E."""
    if not m.equal_masses():
        raise PreconditionError("positivity transfer requires equal masses")
    tol = _pos_tol(m, pot, pos_tol)
    n0 = fiber_count_below(m, ZERO_K, pot, -tol, grid)
    if n0:
        raise PreconditionError(f"H(0) has {n0} eigenvalue(s) below -pos_tol = {-tol}")
    counts = [(k, fiber_count_below(m, k, pot, -tol, grid)) for k in k_list]
    return PositivityReport(tol, tuple(PositivityAtK(k.components, n, n == 0) for k, n in counts))


# ---------------------------------------------------------------------------
# Eigenvalue emergence below the band


class EmergenceAtK(namedtuple("EmergenceAtK", "k e_min count n_negative count_ok nonneg_ok")):
    """The count of H(k) below the band and n_-(-pos_tol, H(k)), checked."""

    __slots__ = ()


class ExistenceReport(namedtuple("ExistenceReport", "threshold required pos_tol per_k")):
    """The threshold state of H(0), the below-band count it requires, each k."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return all(r.count_ok and r.nonneg_ok for r in self.per_k)


def verify_existence(
    m: MassPair,
    pot: Potential,
    k_list: Sequence[Quasimomentum],
    grid: MomentumGrid,
    unit_tol: float = UNIT_TOL,
    overlap_tol: float = OVERLAP_TOL,
    pos_tol: Optional[float] = None,
    tie_tol: Optional[float] = None,
) -> ExistenceReport:
    """Count nonnegative below-band eigenvalues of H(k) given a threshold state.

    With a resonance and an n-fold zero eigenvalue at k = 0, each nonzero
    interior k must carry at least n + 1 below-band eigenvalues (n without
    the resonance), all nonnegative.  The theorem assumes H(0) >= 0: a
    Gram eigenvalue of G(0, 0) above 1 + unit_tol (a negative eigenvalue of
    H(0), by Birman-Schwinger at z = 0) is a PreconditionError, as is the
    absence of a threshold state.  Both checks are r x r counts: n_- below
    the band (``count_below_band``), and n_-(-pos_tol, H(k)) (default
    ``_pos_tol``), which must be 0; E >= 0 puts those below the band too.
    """
    ptol = _pos_tol(m, pot, pos_tol)
    threshold = resonance_analysis(m, pot, grid, unit_tol, overlap_tol)
    if threshold.lambda_max > 1.0 + unit_tol:
        # Birman-Schwinger at z = 0, below the band: every eigenvalue of
        # G(0, 0) above 1 is a negative eigenvalue of H(0)
        raise PreconditionError(
            "H(0) is not nonnegative: the largest eigenvalue of G(0, 0) is "
            f"{threshold.lambda_max} > 1 + unit_tol; the existence theorem "
            "assumes H(0) >= 0"
        )
    if threshold.classification == "none":
        raise PreconditionError(
            "no threshold state at k = 0; emergence has no lower bound to verify"
        )
    required = threshold.multiplicity + (1 if threshold.has_resonance else 0)
    per_k = []
    for k in k_list:
        count = count_below_band(m, k, pot, grid, tie_tol)
        n_negative = fiber_count_below(m, k, pot, -ptol, grid)
        per_k.append(EmergenceAtK(k.components, band_geometry(m, k).e_min, count, n_negative,
                                  count >= required, n_negative == 0))
    return ExistenceReport(threshold, required, ptol, tuple(per_k))


# ---------------------------------------------------------------------------
# Band-width estimate


class NeravenReport(namedtuple("NeravenReport", "w_b lhs rhs holds corollary_lhs corollary_rhs "
                                 "corollary_holds")):
    """The band-width estimate and its corollary."""

    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.holds and self.corollary_holds


def flat_band_spectrum(
    m: MassPair, k: Quasimomentum, pot: Potential, grid: MomentumGrid
) -> Optional[np.ndarray]:
    """6/m - spec V on the flat band, where H0(k) is 6/m times the identity
    (equal masses at k = (pi, pi, pi)) and this is the spectrum of H(k)
    exactly, less the N^3 - r eigenvalues 6/m on the band from V's zeros;
    None elsewhere."""
    if m.equal_masses() and all(abs(kj - math.pi) <= 1e-12 for kj in k.components):
        return 6.0 / m.m1 - potential_spectrum(pot, grid)
    return None


def count_below_band(
    m: MassPair, k: Quasimomentum, pot: Potential, grid: MomentumGrid,
    tie_tol: Optional[float] = None,
) -> int:
    """``count_below(e_min, spec H(k), tie_tol)`` without the dense H: the
    r x r inertia count ``fiber_count_below`` at e_min - tie_tol, or on the
    flat band the count of its exact spectrum (``flat_band_spectrum``).  The
    default tie band is ``default_tie_tol`` of ``weyl_bracket``, whose
    scale bounds every |eigenvalue| of H(k)."""
    e_min = band_geometry(m, k).e_min
    tol = default_tie_tol(weyl_bracket(m, k, pot)) if tie_tol is None else tie_tol
    spec = flat_band_spectrum(m, k, pot, grid)
    if spec is None:
        return fiber_count_below(m, k, pot, e_min - tol, grid)
    return count_below(e_min, spec, tol)


def verify_neraven(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    grid: MomentumGrid,
    tie_tol: Optional[float] = None,
) -> NeravenReport:
    """Band-width counting estimate and its two-sided corollary.

    Checks n_-(e_min, H) >= n_+(w_b, V) against the exact potential
    spectrum, and the corollary with |V|.  No dense H(k) and no N^3 array
    is built: the potential spectrum is its r support values
    (``potential_spectrum``), as V's N^3 - r zeros sit at 0 or at
    w_b >= 0, which strict counts exclude.  The count below the band is
    ``count_below_band``, and the count above it the r x r inertia count
    ``fiber_count_above`` at e_max + tie_tol, or on the flat band the count
    of its exact spectrum (``flat_band_spectrum``), with the same default
    tie band.
    """
    geo = band_geometry(m, k)
    vspec = potential_spectrum(pot, grid)
    tol = default_tie_tol(weyl_bracket(m, k, pot)) if tie_tol is None else tie_tol
    lhs = count_below_band(m, k, pot, grid, tol)
    spec = flat_band_spectrum(m, k, pot, grid)
    if spec is None:
        n_above = fiber_count_above(m, k, pot, geo.e_max + tol, grid)
    else:
        n_above = count_above(geo.e_max, spec, tol)
    rhs = count_above(geo.w_b, vspec, tol)
    cor_lhs = lhs + n_above
    cor_rhs = count_above(geo.w_b, np.abs(vspec), tol)
    return NeravenReport(geo.w_b, lhs, rhs, lhs >= rhs, cor_lhs, cor_rhs, cor_lhs >= cor_rhs)


# ---------------------------------------------------------------------------
# Degenerate-direction lower bound


class CheksizReport(namedtuple("CheksizReport", "axis target zs counts final_count monotone")):
    """Counts along the z-schedule against the target of the 0-based degenerate ``axis``."""

    __slots__ = ()

    @property
    def holds(self) -> bool:
        return self.final_count >= self.target and self.monotone


def verify_cheksiz(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    grid: MomentumGrid,
    tie_tol: Optional[float] = None,
) -> CheksizReport:
    """Lower bound on below-band eigenvalues from a collapsed band direction.

    When a directional band width vanishes, the number of eigenvalues below
    the band is at least the number of positive potential sites on that
    axis; the Birman-Schwinger counts along the z-schedule, each with the
    tie band tie_tol (``threshold_count``), must reach it and not decrease.
    """
    degen = degenerate_directions(m, k)
    if not degen:
        shown = ", ".join(f"{c:.12g}" for c in k.components)
        raise PreconditionError(f"no degenerate direction at k = ({shown}) for masses {tuple(m)}")
    j = min(degen)
    target = sum(1 for s, v in pot.entries.items()
                 if v > 0 and all(s[i] == 0 for i in range(3) if i != j))
    tc = threshold_count(m, k, pot, grid, tie_tol)
    monotone = all(a <= b for a, b in zip(tc.counts, tc.counts[1:]))
    return CheksizReport(
        axis=j,
        target=target,
        zs=tc.zs,
        counts=tc.counts,
        final_count=tc.counts[-1],
        monotone=monotone,
    )
