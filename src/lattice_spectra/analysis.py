"""Theorem-level verifications: Birman-Schwinger counting, threshold
classification, critical coupling, positivity transfer, emergence and the
degenerate-direction lower bound.

Every function here is a pure job over immutable inputs and returns a
small report NamedTuple; nothing asserts, callers decide what a failure
means (the CLI turns report flags into exit codes).
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dispersion import band_geometry, degenerate_directions
from .errors import InputError, NumericalFailure, PreconditionError, ZeroPotentialError
from .model import MassPair, MomentumGrid, Potential, Quasimomentum, _real
from .operators import (
    _axis_factors,
    _eigvalsh,
    _require_grid_fits,
    _require_psd,
    _resolvent_kernel,
    _sampled_band,
    _support_gram,
    bs_difference_norm,
    bs_support_eigenvalues,
    fiber_count_above,
    fiber_count_below,
    fiber_potential,
    potential_spectrum,
    weyl_bracket,
)
from .spectral import (
    count_above,
    count_below,
    default_tie_tol,
    fiber_count_below_dense,
    fiber_eigenvalues,
)

ZERO_K = Quasimomentum(0.0, 0.0, 0.0)


class ZSchedule(namedtuple("ZSchedule", "delta0 ratio steps")):
    """Geometric approach z_i = e_min - delta0 * ratio^i from below."""

    __slots__ = ()

    def __new__(cls, delta0: float = 1.0, ratio: float = 0.1, steps: int = 7) -> "ZSchedule":
        # NaN fails every comparison, so each check is written to pass
        # only a finite value in range
        if not (math.isfinite(_real(delta0, "delta0")) and delta0 > 0.0):
            raise InputError(f"delta0 must be finite and > 0, got {delta0}")
        if not (0.0 < _real(ratio, "ratio") < 1.0):
            raise InputError(f"ratio must be in (0, 1), got {ratio}")
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
            raise InputError(f"steps must be an integer, got {steps!r}")
        if steps < 2:
            raise InputError("need at least 2 steps")
        return super().__new__(cls, delta0, ratio, steps)

    def points(self, e_min: float) -> list[float]:
        return [e_min - self.delta0 * self.ratio**i for i in range(self.steps)]

    def deltas(self) -> list[float]:
        return [self.delta0 * self.ratio**i for i in range(self.steps)]


# ---------------------------------------------------------------------------
# Birman-Schwinger counting


class BSCheck(NamedTuple):
    z: float
    n_minus: int
    n_plus: int

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
    n_minus = fiber_count_below_dense(m, k, fiber_potential(pot, grid), z - tol)
    if pot.is_empty():
        return BSCheck(z, n_minus, 0)
    eigs_g = bs_support_eigenvalues(m, k, pot, z, grid)
    n_plus = count_above(1.0, eigs_g, default_tie_tol(eigs_g) if tie_tol is None else tie_tol)
    return BSCheck(z, n_minus, n_plus)


class ThresholdCount(NamedTuple):
    zs: tuple[float, ...]
    counts: tuple[int, ...]
    stabilized: Optional[int]  # None means divergent

    @property
    def divergent(self) -> bool:
        return self.stabilized is None


def threshold_count(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    grid: MomentumGrid,
    schedule: ZSchedule = ZSchedule(),
    tie_tol: Optional[float] = None,
) -> ThresholdCount:
    """Track n_+(1, G(k, z_i)) along a z-schedule approaching the band bottom.

    Each count takes the tie band tie_tol, by default ``default_tie_tol`` of
    that Gram spectrum.  The counts stabilize when the threshold operator
    is regular; in the degenerate-direction regime they keep growing
    (divergence is reported, not decided).
    """
    e_min = band_geometry(m, k).e_min
    zs = schedule.points(e_min)
    counts = []
    for z in zs:
        if pot.is_empty():
            counts.append(0)
            continue
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


class UnitEigenvalue(NamedTuple):
    value: float
    overlap: float  # |(v^{1/2}, psi)| / (|v^{1/2}| |psi|)


class ThresholdReport(NamedTuple):
    lambda_max: float
    unit_eigenvalues: tuple[UnitEigenvalue, ...]
    classification: str  # none | resonance | zero_eigenvalue | resonance_plus_zero_eigenvalue
    multiplicity: int  # zero eigenvalues: dim of the unit eigenspace, less one with a resonance
    ambiguous: bool

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
    with kernel 1/E (``_support_gram``), and the half-potential kernel
    vector N^{3/2} P sqrt(v) has the coordinates sqrt(v) there.
    ``_threshold_report`` sorts the eigenvalues within unit_tol of 1 into a
    resonance and zero eigenvalues.  Both tolerances lie in (0, 1), so the
    zero eigenvalues of G, off the Gram, are never within unit_tol of 1.
    """
    for name, tol in (("unit_tol", unit_tol), ("overlap_tol", overlap_tol)):
        if not 0.0 < tol < 1.0:  # NaN fails too
            raise PreconditionError(f"{name} must lie in (0, 1), got {tol}")
    if not pot.is_nonnegative():
        raise PreconditionError("threshold classification requires v-hat >= 0")
    if pot.is_empty():
        return ThresholdReport(0.0, (), "none", 0, False)
    factors = _axis_factors(m, ZERO_K, grid)
    e_low = _sampled_band(factors)[0]
    if e_low <= 0.0:
        raise PreconditionError(
            "grid offset must keep the dispersion minimum off the grid "
            f"(min sample {e_low}); use an even N with offset 0.5"
        )
    _require_grid_fits(pot, grid)
    gram = _support_gram(factors, _resolvent_kernel(0.0), pot, grid)
    try:
        eigs, vecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"Hermitian eigensolver failed: {exc}") from exc
    _require_psd(eigs)
    root = np.sqrt([pot.entries[s] for s in pot.sorted_sites()])
    return _threshold_report(eigs, vecs, root, unit_tol, overlap_tol)


# ---------------------------------------------------------------------------
# Critical coupling


class CriticalCoupling(NamedTuple):
    lambda_star: float
    richardson: Optional[float]
    grid_sizes: tuple[int, ...]


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
    if base_pot.is_empty():
        raise ZeroPotentialError("critical coupling of the zero potential")
    if not base_pot.is_nonnegative():
        raise PreconditionError("critical coupling requires v-hat >= 0")

    def top(n: int) -> float:
        g = MomentumGrid(n, grid.offset)
        return float(bs_support_eigenvalues(m, ZERO_K, base_pot, 0.0, g)[-1])

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


class PositivityAtK(NamedTuple):
    k: tuple[float, float, float]
    min_eigenvalue: float
    ok: bool


class PositivityReport(NamedTuple):
    pos_tol: float
    min_eig_h0: float
    per_k: tuple[PositivityAtK, ...]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.per_k)


def positivity_check(
    m: MassPair,
    pot: Potential,
    k_list: Sequence[Quasimomentum],
    grid: MomentumGrid,
    pos_tol: Optional[float] = None,
) -> PositivityReport:
    """Check that positivity of H(0) transfers to H(k) for each listed k."""
    if not m.equal_masses():
        raise PreconditionError("positivity transfer requires equal masses")
    v = fiber_potential(pot, grid)
    eigs0 = fiber_eigenvalues(m, ZERO_K, v)
    tol = 1e-8 * max(1.0, float(np.abs(eigs0).max())) if pos_tol is None else pos_tol
    if eigs0[0] < -tol:
        raise PreconditionError(
            f"H(0) is not positive within tolerance (min eigenvalue {eigs0[0]})"
        )
    per_k = []
    for k in k_list:
        lo = float(fiber_eigenvalues(m, k, v)[0])
        per_k.append(PositivityAtK(k.components, lo, lo >= -tol))
    return PositivityReport(tol, float(eigs0[0]), tuple(per_k))


# ---------------------------------------------------------------------------
# Eigenvalue emergence below the band


class EmergenceAtK(NamedTuple):
    k: tuple[float, float, float]
    e_min: float
    count: int
    below_band: tuple[float, ...]
    count_ok: bool
    nonneg_ok: bool


class ExistenceReport(NamedTuple):
    threshold: ThresholdReport
    required: int
    per_k: tuple[EmergenceAtK, ...]

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
    absence of a threshold state.
    """
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
    v = fiber_potential(pot, grid)
    per_k = []
    for k in k_list:
        geo = band_geometry(m, k)
        eigs = fiber_eigenvalues(m, k, v)
        tol = default_tie_tol(eigs) if tie_tol is None else tie_tol
        ptol = 1e-8 * max(1.0, float(np.abs(eigs).max())) if pos_tol is None else pos_tol
        below = tuple(float(x) for x in eigs[eigs < geo.e_min - tol])
        per_k.append(
            EmergenceAtK(
                k=k.components,
                e_min=geo.e_min,
                count=len(below),
                below_band=below,
                count_ok=len(below) >= required,
                nonneg_ok=all(x >= -ptol for x in below),
            )
        )
    return ExistenceReport(threshold, required, tuple(per_k))


# ---------------------------------------------------------------------------
# Band-width estimate


class ScalarCaseCheck(NamedTuple):
    level: float
    n_below_h: int
    n_above_v_zero: int
    n_above_h: int
    n_below_v_zero: int
    equalities_hold: bool


class NeravenReport(NamedTuple):
    w_b: float
    lhs: int
    rhs: int
    holds: bool
    corollary_lhs: int
    corollary_rhs: int
    corollary_holds: bool
    scalar_case: Optional[ScalarCaseCheck]

    @property
    def all_ok(self) -> bool:
        ok = self.holds and self.corollary_holds
        if self.scalar_case is not None:
            ok = ok and self.scalar_case.equalities_hold
        return ok


def flat_band_level(m: MassPair, k: Quasimomentum) -> Optional[float]:
    """6/m on the flat band, where H0(k) is 6/m times the identity (equal
    masses at k = (pi, pi, pi)) and spec H(k) is 6/m minus the potential
    spectrum exactly; None elsewhere."""
    if m.equal_masses() and all(abs(kj - math.pi) <= 1e-12 for kj in k.components):
        return 6.0 / m.m1
    return None


def count_below_band(
    m: MassPair, k: Quasimomentum, pot: Potential, grid: MomentumGrid,
    tie_tol: Optional[float] = None,
) -> int:
    """``count_below(e_min, spec H(k), tie_tol)`` without the dense H: the
    r x r inertia count ``fiber_count_below`` at e_min - tie_tol, or on the
    flat band (``flat_band_level``) the count of its exact spectrum.  The
    default tie band is ``default_tie_tol`` of ``weyl_bracket``, whose
    scale bounds every |eigenvalue| of H(k)."""
    e_min = band_geometry(m, k).e_min
    tol = default_tie_tol(weyl_bracket(m, k, pot)) if tie_tol is None else tie_tol
    level = flat_band_level(m, k)
    if level is None:
        return fiber_count_below(m, k, pot, e_min - tol, grid)
    vspec, mult = potential_spectrum(pot, grid)
    return count_below(e_min, level - vspec, tol, mult)


def verify_neraven(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    grid: MomentumGrid,
    tie_tol: Optional[float] = None,
) -> NeravenReport:
    """Band-width counting estimate plus its scalar-case exact equalities.

    Checks n_-(e_min, H) >= n_+(w_b, V) against the exact potential
    spectrum, the two-sided corollary with |V|, and, for equal masses at
    k = (pi, pi, pi), the exact integer equalities against the 6/m level.
    No dense H(k) and no N^3 array is built: the potential spectrum is its
    r support values and the multiplicity N^3 - r of 0.  The count below
    the band is ``count_below_band``, and the count above it the r x r
    inertia count ``fiber_count_above`` at e_max + tie_tol, or on the flat
    band (``flat_band_level``) the count of its exact spectrum, with the
    same default tie band.
    """
    geo = band_geometry(m, k)
    vspec, mult = potential_spectrum(pot, grid)
    tol = default_tie_tol(weyl_bracket(m, k, pot)) if tie_tol is None else tie_tol
    lhs = count_below_band(m, k, pot, grid, tol)
    scalar_case = None
    level = flat_band_level(m, k)
    if level is not None:
        eigs_h = level - vspec
        n_above = count_above(geo.e_max, eigs_h, tol, mult)
        nb_h = count_below(level, eigs_h, tol, mult)
        na_v = count_above(0.0, vspec, tol, mult)
        na_h = count_above(level, eigs_h, tol, mult)
        nb_v = count_below(0.0, vspec, tol, mult)
        scalar_case = ScalarCaseCheck(
            level, nb_h, na_v, na_h, nb_v, nb_h == na_v and na_h == nb_v
        )
    else:
        n_above = fiber_count_above(m, k, pot, geo.e_max + tol, grid)
    rhs = count_above(geo.w_b, vspec, tol, mult)
    cor_lhs = lhs + n_above
    cor_rhs = count_above(geo.w_b, np.abs(vspec), tol, mult)
    return NeravenReport(
        geo.w_b, lhs, rhs, lhs >= rhs, cor_lhs, cor_rhs, cor_lhs >= cor_rhs, scalar_case
    )


# ---------------------------------------------------------------------------
# Degenerate-direction lower bound


class CheksizReport(NamedTuple):
    axis: int  # 0-based degenerate direction used
    target: int
    zs: tuple[float, ...]
    counts: tuple[int, ...]
    final_count: int
    monotone: bool
    w_jb_axis: float
    h0_constant_along_axis: bool

    @property
    def holds(self) -> bool:
        return (
            self.final_count >= self.target
            and self.monotone
            and self.h0_constant_along_axis
        )


def verify_cheksiz(
    m: MassPair,
    k: Quasimomentum,
    pot: Potential,
    grid: MomentumGrid,
    schedule: ZSchedule = ZSchedule(),
) -> CheksizReport:
    """Lower bound on below-band eigenvalues from a collapsed band direction.

    When a directional band width vanishes, the number of eigenvalues below
    the band is at least the number of positive potential sites on that
    axis; the Birman-Schwinger counts along the z-schedule must reach the
    target and be non-decreasing.
    """
    degen = degenerate_directions(m, k)
    if not degen:
        raise PreconditionError("no degenerate direction at this (m, k)")
    j = min(degen)
    target = sum(
        1
        for s in pot.axis_sites(j)
        if pot.value(tuple(s if i == j else 0 for i in range(3))) > 0
    )
    if not pot.is_nonnegative():
        raise PreconditionError("degenerate-direction count requires v-hat >= 0")
    tc = threshold_count(m, k, pot, grid, schedule)
    geo = band_geometry(m, k)
    # E = (e_1 + e_2) + e_3 is constant along axis j when e_j is
    factors = _axis_factors(m, k, grid)
    const_along = float(np.ptp(factors[j])) <= 1e-12 * max(1.0, _sampled_band(factors)[1])
    monotone = all(a <= b for a, b in zip(tc.counts, tc.counts[1:]))
    return CheksizReport(
        axis=j,
        target=target,
        zs=tc.zs,
        counts=tc.counts,
        final_count=tc.counts[-1],
        monotone=monotone,
        w_jb_axis=geo.w_jb[j],
        h0_constant_along_axis=const_along,
    )


# ---------------------------------------------------------------------------
# Threshold-operator continuity


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
    schedule = ZSchedule()
    deltas = schedule.deltas()
    norms = [
        bs_difference_norm(m, k, pot, geo.e_min, z, grid)
        for z in schedule.points(geo.e_min)
    ]
    slope = float(np.polyfit(np.log(deltas), np.log(norms), 1)[0])
    return ContinuityReport(tuple(deltas), tuple(norms), slope)
