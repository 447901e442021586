"""Tests for the theorem-level analysis operations."""

import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lattice_spectra import (
    MassPair,
    MomentumGrid,
    Potential,
    Quasimomentum,
    band_geometry,
    bs_check,
    bs_support_eigenvalues,
    count_above,
    count_below,
    critical_coupling,
    default_tie_tol,
    dispersion_on_grid,
    positivity_check,
    resonance_analysis,
    threshold_count,
    verify_cheksiz,
    verify_existence,
    verify_neraven,
    weyl_bracket,
)
from lattice_spectra import analysis, cli, operators, spectral
from lattice_spectra.cli import main
from lattice_spectra.errors import (
    GridTooSmallError,
    InputError,
    NegativePotentialError,
    NumericalFailure,
    PreconditionError,
    ZeroPotentialError,
)

from conftest import k_pi, point_potential
from oracles import build_bs, build_h, build_v, continuity_exponent, dense_resonance_analysis

K0 = Quasimomentum(0, 0, 0)
M11 = MassPair(1, 1)


class TestZSchedule:
    def test_points_increase_toward_e_min(self):
        # z_i = e_min - 1.0 * 0.1**i to the bit, i < 7
        k = Quasimomentum(0.3, -1.1, 2.0)
        e_min = band_geometry(M11, k).e_min
        tc = threshold_count(M11, k, Potential({}), MomentumGrid(4))
        assert tc.zs == tuple(e_min - 1.0 * 0.1**i for i in range(7))
        assert list(tc.zs) == sorted(tc.zs) and tc.zs[-1] < e_min


@st.composite
def bs_check_instances(draw):
    """Equal or unequal masses, random k, a nonnegative potential of radius
    1 or 2 on at least two sites, N in 4..8 (N >= 2R + 1) at offset 0, 1/4
    or 1/2, and z below the band.  The coupling puts 1 between the smallest
    and the largest BS eigenvalue, so both sides of 1 are populated."""
    radius = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(max(4, 2 * radius + 1), 8))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]))
    m1 = draw(st.floats(0.4, 3.0))
    m2 = draw(st.one_of(st.just(m1), st.floats(0.4, 3.0)))
    k = Quasimomentum(*draw(st.tuples(*[st.floats(-math.pi, math.pi)] * 3)))
    span = st.integers(-radius, radius)
    entries = draw(
        st.dictionaries(st.tuples(span, span, span), st.floats(0.05, 3.0),
                        min_size=2, max_size=5)
    )
    base = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    m, grid = MassPair(m1, m2), MomentumGrid(n, offset)
    z = band_geometry(m, k).e_min - draw(st.floats(0.01, 2.0))
    mu = bs_support_eigenvalues(m, k, base, z, grid)
    assume(mu[-1] > 1.5 * mu[0] > 0.0)
    t = draw(st.floats(0.2, 0.8))
    level = mu[0] ** (1.0 - t) * mu[-1] ** t
    return m, k, base.scaled(1.0 / level), z, grid


class TestBSCheck:
    def test_empty_potential(self):
        check = bs_check(M11, K0, Potential({}), -1.0, MomentumGrid(4))
        assert check.n_minus == 0 and check.n_plus == 0 and check.equal

    def test_strong_coupling_binds(self):
        check = bs_check(M11, K0, point_potential(8.0), -1.0, MomentumGrid(8))
        assert check.equal
        assert check.n_minus >= 1

    @settings(max_examples=30, deadline=None)
    @given(bs_check_instances())
    def test_counts_match_dense_oracles(self, inst):
        m, k, pot, z, grid = inst
        check = bs_check(m, k, pot, z, grid)
        eigs_g = np.linalg.eigvalsh(build_bs(m, k, pot, z, grid).matrix)
        eigs_h = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        assert 0 < count_above(1.0, eigs_g) < len(pot.entries)
        assert check.n_plus == count_above(1.0, eigs_g, default_tie_tol(eigs_g))
        assert check.n_minus == count_below(z, eigs_h, default_tie_tol(eigs_h))
        assert check.equal

    def test_bs_suite_builds_no_dense_g(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("dense Birman-Schwinger build")

        for module, name in [(analysis, "build_bs"), (operators, "build_bs"),
                             (operators, "build_vhalf")]:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
        assert main(["verify", "--suite", "bs", "--trials", "6"]) == 0
        assert '"pass": true' in capsys.readouterr().out

    @pytest.mark.parametrize("low, raises", [(-1e-6, True), (-1e-11, False)])
    def test_gram_psd_floor(self, monkeypatch, low, raises):
        # floor is -1e-10 * max(1, largest |eigenvalue|) = -1e-10 here
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.array([low, 0.5, 1.0]))
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0})
        if raises:
            with pytest.raises(NumericalFailure, match="not PSD"):
                bs_support_eigenvalues(M11, K0, pot, -1.0, MomentumGrid(4))
        else:
            assert bs_support_eigenvalues(M11, K0, pot, -1.0, MomentumGrid(4))[0] == low


class TestThresholdCount:
    def test_empty(self):
        tc = threshold_count(M11, K0, Potential({}), MomentumGrid(4))
        assert set(tc.counts) == {0}
        assert tc.stabilized == 0

    def test_subcritical_interior_is_zero(self):
        grid = MomentumGrid(6)
        lam = 0.5 * critical_coupling(M11, point_potential(1.0), grid).lambda_star
        tc = threshold_count(M11, K0, point_potential(lam), grid)
        assert tc.stabilized == 0

    def test_counts_monotone(self):
        pot = Potential({(0, 0, 0): 4.0, (1, 0, 0): 4.0})
        tc = threshold_count(M11, Quasimomentum(math.pi, 0, 0), pot, MomentumGrid(8))
        assert list(tc.counts) == sorted(tc.counts)


@st.composite
def threshold_instances(draw):
    """Equal or unequal masses, a nonnegative potential of radius 1 or 2 on
    1 to 4 drawn sites, N in 4..10 (N >= 2R + 1) at offset 1/4, 1/2 or 0.77
    wherever every sample of E(0, q) is positive, and a unit_tol of 1e-6,
    0.3 or 0.9.  The coupling puts a randomly chosen Gram eigenvalue (at
    least 1e-3 of the largest) at 1, or at 1/2; with the wide tolerances
    several eigenvalues fall in the window, so every classification is
    reached."""
    radius = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(max(4, 2 * radius + 1), 10))
    offset = draw(st.sampled_from([0.25, 0.5, 0.77]))
    m1 = draw(st.floats(0.4, 3.0))
    m2 = draw(st.one_of(st.just(m1), st.floats(0.4, 3.0)))
    span = st.integers(-radius, radius)
    entries = draw(
        st.dictionaries(st.tuples(span, span, span), st.floats(0.05, 3.0),
                        min_size=1, max_size=4)
    )
    base = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    m, grid = MassPair(m1, m2), MomentumGrid(n, offset)
    assume(dispersion_on_grid(m, K0, grid).min() > 0.0)
    mu = bs_support_eigenvalues(m, K0, base, 0.0, grid)
    i = draw(st.integers(0, len(mu) - 1))
    assume(mu[i] >= 1e-3 * mu[-1])
    level = draw(st.sampled_from([1.0, 0.5]))
    unit_tol = draw(st.sampled_from([1e-6, 0.3, 0.9]))
    coupling = level / mu[i]
    return m, base.scaled(coupling), grid, unit_tol


def odd_branch_potential(grid: MomentumGrid) -> Potential:
    """The value on +-e1 that puts the odd-sector eigenvalue of G(0, 0) at 1."""
    diag = dispersion_on_grid(M11, K0, grid)
    q1 = grid.nodes()[:, 0]
    a = np.mean(1.0 / diag)
    b = np.mean(np.cos(2.0 * q1) / diag)
    return Potential({(1, 0, 0): 1.0 / (a - b)})


class TestResonanceAnalysis:
    @settings(max_examples=40, deadline=None)
    @given(threshold_instances())
    def test_matches_dense_g(self, inst):
        # the r x r Gram route against the eigenpairs of the dense G(0, 0)
        m, pot, grid, unit_tol = inst
        rep = resonance_analysis(m, pot, grid, unit_tol=unit_tol)
        ref = dense_resonance_analysis(m, pot, grid, unit_tol=unit_tol)
        assert (rep.classification, rep.multiplicity, rep.ambiguous) == (
            ref.classification, ref.multiplicity, ref.ambiguous)
        assert rep.lambda_max == pytest.approx(ref.lambda_max, rel=1e-10, abs=1e-10)
        assert len(rep.unit_eigenvalues) == len(ref.unit_eigenvalues)
        for got, want in zip(rep.unit_eigenvalues, ref.unit_eigenvalues):
            assert got.value == pytest.approx(want.value, rel=0.0, abs=1e-10)
            assert got.overlap == pytest.approx(want.overlap, rel=0.0, abs=1e-10)

    def test_degenerate_unit_eigenspace_is_basis_free(self):
        # the pair +-(0,1,1) on N = 4 has the Gram v T(0) I: a two-dimensional
        # unit eigenspace in which sqrt(v) has one direction, a resonance,
        # and the other is a zero eigenvalue, whichever basis the solver picks
        grid = MomentumGrid(4, 0.5)
        pot = Potential({(0, 1, 1): 4.636363636363635})
        for rep in (resonance_analysis(M11, pot, grid), dense_resonance_analysis(M11, pot, grid)):
            assert (rep.classification, rep.multiplicity) == ("resonance_plus_zero_eigenvalue", 1)
            assert [u.overlap for u in rep.unit_eigenvalues] == [pytest.approx(1.0), 0.0]

    @pytest.mark.parametrize("unit_tol, overlap_tol", [
        (1.0, 1e-6), (1.5, 1e-6), (1e-6, 1.0), (1e-6, 1.5),
        (0.0, 1e-6), (1e-6, -1.0), (math.nan, 1e-6),
    ])
    def test_tolerances_must_lie_in_unit_interval(self, unit_tol, overlap_tol):
        # unit_tol >= 1 would count the zero eigenvalues of G(0, 0) as unit
        # ones, and overlap_tol >= 1 would turn every resonance into a zero
        # eigenvalue
        with pytest.raises(PreconditionError, match="must lie in"):
            resonance_analysis(M11, point_potential(1.0), MomentumGrid(6),
                               unit_tol=unit_tol, overlap_tol=overlap_tol)

    def test_subcritical_none(self):
        grid = MomentumGrid(8)
        lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        rep = resonance_analysis(M11, point_potential(0.2 * lam_star), grid)
        assert rep.classification == "none"
        assert rep.lambda_max < 1.0

    def test_critical_point_is_resonance(self):
        grid = MomentumGrid(8)
        lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        rep = resonance_analysis(M11, point_potential(lam_star), grid)
        assert rep.classification == "resonance"
        assert rep.multiplicity == 0
        assert len(rep.unit_eigenvalues) == 1
        # rank-one kernel vector is constant on the grid: full overlap
        assert rep.unit_eigenvalues[0].overlap == pytest.approx(1.0, abs=1e-9)

    def test_odd_branch_is_zero_eigenvalue(self):
        # even potential on +-e1 splits into even/odd sectors; tuning the
        # coupling onto the odd branch gives a unit eigenvector orthogonal
        # to the (even) kernel vector
        grid = MomentumGrid(8)
        rep = resonance_analysis(M11, odd_branch_potential(grid), grid)
        assert rep.classification == "zero_eigenvalue"
        assert rep.multiplicity == 1

    def test_even_branch_is_resonance(self):
        grid = MomentumGrid(8)
        diag = dispersion_on_grid(M11, K0, grid)
        q1 = grid.nodes()[:, 0]
        a = np.mean(1.0 / diag)
        b = np.mean(np.cos(2.0 * q1) / diag)
        rep = resonance_analysis(M11, Potential({(1, 0, 0): 1.0 / (a + b)}), grid)
        assert rep.classification == "resonance"

    def test_lapack_failure_in_the_unit_eigenspace_is_numerical_failure(
        self, monkeypatch, tmp_path, capsys
    ):
        # with a resonance the operator is solved once more, compressed to
        # the rest of the unit eigenspace; a LAPACK failure there is a
        # NumericalFailure (exit 3), not a traceback
        grid = MomentumGrid(8)
        lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        pot = point_potential(lam_star)
        assert resonance_analysis(M11, pot, grid).has_resonance
        path = tmp_path / "pot.json"
        path.write_text(json.dumps({"sites": [{"s": [0, 0, 0], "v": lam_star}]}))

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalFailure, match="did not converge"):
            resonance_analysis(M11, pot, grid)
        code = main(["verify", "--suite", "existence", "--grid", "8",
                     "--potential", str(path), "--k", "0.5,0.5,0.5"])
        assert code == 3
        assert "did not converge" in capsys.readouterr().err

    def test_requires_nonnegative(self):
        with pytest.raises(PreconditionError):
            resonance_analysis(M11, Potential({(1, 0, 0): -1.0}), MomentumGrid(4))

    def test_requires_offset_grid(self):
        with pytest.raises(PreconditionError):
            resonance_analysis(M11, point_potential(1.0), MomentumGrid(4, offset=0.0))

    def test_odd_grid_at_half_offset_has_a_node_at_zero(self):
        # the middle node of an odd grid at offset 1/2 sits at q = 0
        with pytest.raises(PreconditionError, match="even N"):
            resonance_analysis(M11, point_potential(1.0), MomentumGrid(5))


class TestOneSignRefusal:
    """Each Birman-Schwinger entry refuses a signed potential with one class,
    a PreconditionError, and one message."""

    SIGNED = Potential({(0, 0, 0): 8.0, (1, 0, 0): -6.0})
    K = Quasimomentum(0.3, 0.2, 0.1)

    @pytest.mark.parametrize("call", [
        lambda pot, grid: resonance_analysis(M11, pot, grid),
        lambda pot, grid: critical_coupling(M11, pot, grid),
        lambda pot, grid: bs_support_eigenvalues(M11, TestOneSignRefusal.K, pot, -1.0, grid),
        lambda pot, grid: threshold_count(M11, TestOneSignRefusal.K, pot, grid),
    ], ids=["resonance_analysis", "critical_coupling", "bs_support_eigenvalues",
            "threshold_count"])
    def test_negative_potential_error(self, call):
        assert issubclass(NegativePotentialError, PreconditionError)
        with pytest.raises(NegativePotentialError) as exc:
            call(self.SIGNED, MomentumGrid(6))
        assert str(exc.value) == "Birman-Schwinger requires v-hat >= 0"


class TestCriticalCoupling:
    def test_scaling_linearity(self):
        grid = MomentumGrid(6)
        base = Potential({(0, 0, 0): 1.0, (1, 0, 0): 0.5})
        lam1 = critical_coupling(M11, base, grid).lambda_star
        lam2 = critical_coupling(M11, base.scaled(2.0), grid).lambda_star
        assert lam2 * 2.0 == pytest.approx(lam1, rel=1e-12)

    def test_point_formula(self):
        grid = MomentumGrid(6)
        diag = dispersion_on_grid(M11, K0, grid)
        expected = 1.0 / np.mean(1.0 / diag)
        got = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        assert got == pytest.approx(expected, rel=1e-12)

    def test_refine_self_convergence(self):
        r8 = critical_coupling(M11, point_potential(1.0), MomentumGrid(8), refine=True)
        r16 = critical_coupling(M11, point_potential(1.0), MomentumGrid(16), refine=True)
        assert r8.grid_sizes == (8, 16)
        assert abs(r8.richardson - r16.richardson) < 1e-3 * r16.richardson

    def test_zero_potential_rejected(self):
        with pytest.raises(ZeroPotentialError):
            critical_coupling(M11, Potential({}), MomentumGrid(4))


class TestPositivity:
    def test_empty_potential(self):
        rep = positivity_check(M11, Potential({}), [Quasimomentum(1.0, 0.2, -0.5)], MomentumGrid(5))
        assert rep.all_ok
        assert rep.per_k[0].n_negative == 0

    def test_critical_point_interaction(self):
        grid = MomentumGrid(6)
        lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        rep = positivity_check(
            M11, point_potential(lam_star), [Quasimomentum(math.pi / 2, 0, 0)], grid
        )
        assert rep.all_ok

    def test_supercritical_precondition_fails(self):
        grid = MomentumGrid(6)
        lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        with pytest.raises(PreconditionError):
            positivity_check(M11, point_potential(2.0 * lam_star), [K0], grid)

    def test_unequal_masses_rejected(self):
        with pytest.raises(PreconditionError):
            positivity_check(MassPair(1, 2), Potential({}), [K0], MomentumGrid(4))

    def test_builds_no_dense_block(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense block build")

        # by name, each present: a name that is gone fails here, not silently
        for module, name in [(operators, "_fiber_parts"), (operators, "fiber_blocks"),
                             (spectral, "fiber_blocks")]:
            monkeypatch.setattr(module, name, refuse)
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.4, (0, 1, 1): -0.7})
        ks = [K0, Quasimomentum(1.0, 0.2, -0.5), Quasimomentum(math.pi, 0.0, 0.0)]
        rep = positivity_check(M11, pot, ks, MomentumGrid(6))
        assert rep.all_ok and [r.n_negative for r in rep.per_k] == [0, 0, 0]

    def test_default_tolerance_is_scaled_by_the_weyl_bracket(self):
        # the Weyl bracket of H(0) is [0, 12 + 300], so pos_tol is 1e-8 * 312
        rep = positivity_check(M11, point_potential(-300.0), [K0], MomentumGrid(4))
        assert rep.pos_tol == pytest.approx(1e-8 * 312.0, rel=1e-15)
        with pytest.raises(PreconditionError, match=r"H\(0\) has 1 eigenvalue\(s\) below"):
            positivity_check(M11, point_potential(200.0), [K0], MomentumGrid(4))

    @pytest.mark.parametrize("pos_tol", [0.0, -1e-9, math.nan, math.inf, -math.inf])
    def test_pos_tol_not_finite_and_positive_is_refused(self, pos_tol):
        # at 0, z = 0 would sit on the node q = 0 of the offset-0 grid at k = 0
        with pytest.raises(InputError, match="pos_tol must be finite and > 0"):
            positivity_check(M11, point_potential(1.0), [K0], MomentumGrid(4, 0.0), pos_tol)


class TestExistence:
    def test_resonance_gives_emergence(self):
        grid = MomentumGrid(8)
        lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        k = Quasimomentum(math.pi / 2, math.pi / 2, math.pi / 2)
        rep = verify_existence(M11, point_potential(lam_star), [k], grid)
        assert rep.required == 1
        assert rep.all_ok
        at_k = rep.per_k[0]
        assert at_k.count >= 1
        # the report holds counts only; the eigenvalues are the dense spectrum's
        eigs = spectral.fiber_eigenvalues(M11, k, point_potential(lam_star), grid)
        below_band = eigs[eigs < at_k.e_min - default_tie_tol(eigs)]
        assert at_k.count == len(below_band)
        assert at_k.n_negative == count_below(0.0, eigs, rep.pos_tol)
        assert all(x >= -1e-8 for x in below_band)
        assert all(x < at_k.e_min for x in below_band)

    def test_deep_subcritical_has_no_threshold_state(self):
        grid = MomentumGrid(8)
        lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        with pytest.raises(PreconditionError):
            verify_existence(M11, point_potential(0.5 * lam_star), [K0], grid)

    def test_supercritical_h0_is_a_precondition_failure(self):
        # the odd +-e1 branch: a unit Gram eigenvalue on the odd sector, but
        # the even one is above 1, so H(0) has a negative eigenvalue and the
        # theorem's hypothesis H(0) >= 0 fails
        grid = MomentumGrid(8)
        pot = odd_branch_potential(grid)
        assert resonance_analysis(M11, pot, grid).lambda_max == pytest.approx(1.2395, abs=1e-4)
        with pytest.raises(PreconditionError, match="not nonnegative"):
            verify_existence(M11, pot, [Quasimomentum(1, 1, 1)], grid)

    def test_threshold_absorption_trend(self):
        # the below-band eigenvalue shrinks to the band bottom as k -> 0
        grid = MomentumGrid(8)
        lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
        ks = [Quasimomentum(t, 0, 0) for t in (2.0, 1.0, 0.5)]
        rep = verify_existence(M11, point_potential(lam_star), ks, grid)
        gaps = []
        for k, r in zip(ks, rep.per_k):
            eigs = spectral.fiber_eigenvalues(M11, k, point_potential(lam_star), grid)
            below_band = eigs[eigs < r.e_min - default_tie_tol(eigs)]
            assert r.count == len(below_band)
            assert r.n_negative == count_below(0.0, eigs, rep.pos_tol)
            if len(below_band):
                gaps.append(r.e_min - max(below_band))
        assert gaps == sorted(gaps, reverse=True)


class TestNeraven:
    def test_scalar_case_mixed_signs(self):
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): -1.0})
        grid = MomentumGrid(5)
        rep = verify_neraven(M11, k_pi(), pot, grid)
        eigs = np.linalg.eigvalsh(build_h(M11, k_pi(), pot, grid).matrix)
        tol = default_tie_tol(eigs)
        assert (count_below(6.0, eigs, tol), count_above(6.0, eigs, tol)) == (1, 2)
        assert (rep.lhs, rep.corollary_lhs) == (1, 3)
        assert rep.all_ok

    def test_deep_well_at_k_zero(self):
        rep = verify_neraven(M11, K0, point_potential(20.0), MomentumGrid(8))
        assert rep.w_b == pytest.approx(12.0)
        assert rep.rhs == 1
        assert rep.lhs >= 1
        assert rep.all_ok

    def test_weak_potential_vacuous(self):
        rep = verify_neraven(M11, K0, point_potential(1.0), MomentumGrid(6))
        assert rep.rhs == 0
        assert rep.holds

    @pytest.mark.parametrize("m, k", [(M11, k_pi()), (MassPair(1.0, 2.5), Quasimomentum(0.3, -1.1, 2.0))])
    def test_n64_allocates_no_n3_array(self, m, k):
        # the potential spectrum is its r support values, and the
        # counts outside the band stream the Gram: the traced peak stays
        # below one float64 array of N^3 entries
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): -1.0})
        grid = MomentumGrid(64)
        tracemalloc.start()
        try:
            rep = verify_neraven(m, k, pot, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid.dim
        assert rep.all_ok
        if k == k_pi():  # the flat band: spec H(k) is 6 - {2, -1, -1} and zeros
            assert (rep.lhs, rep.corollary_lhs) == (1, 3)

    def test_grid_suites_build_no_dense_matrix(self, monkeypatch, capsys, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("dense matrix build")

        # by name, each present: a name that is gone fails here, not silently
        for module, name in [(operators, "fiber_blocks"), (operators, "_fiber_parts"),
                             (spectral, "fiber_blocks"), (operators, "build_h0")]:
            monkeypatch.setattr(module, name, refuse)
        path = tmp_path / "pot.json"
        path.write_text('{"sites": [{"s": [0, 0, 0], "v": 3.6}, '
                        '{"s": [0, 0, 1], "v": 0.86}, {"s": [0, 1, 0], "v": 0.79}]}')
        ks = ["--k=-1.09,-2.4,-0.77", "--k=-0.13,-1.5,-0.12",
              f"--k={math.pi!r},{math.pi!r},{math.pi!r}"]
        code = main(["verify", "--suite", "threshold,neraven", "--grid", "10",
                     "--potential", str(path), *ks])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["pass"] is True
        assert [r["direct_n_below"] for r in doc["threshold"]["records"]] == [1, 1, 5]


class TestCheksiz:
    def test_three_axis_sites(self):
        pot = Potential({(0, 0, 0): 4.0, (1, 0, 0): 4.0})
        rep = verify_cheksiz(M11, Quasimomentum(math.pi, 0, 0), pot, MomentumGrid(8))
        assert rep.axis == 0
        assert rep.target == 3
        assert rep.final_count >= 3
        assert rep.monotone
        assert rep.holds

    def test_off_axis_support_is_vacuous(self):
        pot = Potential({(0, 1, 1): 2.0})
        rep = verify_cheksiz(M11, Quasimomentum(math.pi, 0, 0), pot, MomentumGrid(8))
        assert rep.target == 0
        assert rep.holds

    def test_non_degenerate_rejected(self):
        with pytest.raises(PreconditionError):
            verify_cheksiz(M11, K0, point_potential(1.0), MomentumGrid(6))

    def test_axis_site_beyond_the_grid_is_refused(self):
        # a site past (N - 1) // 2 never reaches the target count
        pot = Potential({(0, 0, 0): 1.0, (4, 0, 0): 1.0})
        with pytest.raises(GridTooSmallError):
            verify_cheksiz(M11, Quasimomentum(math.pi, 0, 0), pot, MomentumGrid(8))


class TestContinuity:
    def test_exponent_positive(self):
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0})
        rep = continuity_exponent(
            M11, Quasimomentum(1.2, 0.4, -0.9), pot, MomentumGrid(6)
        )
        assert len(rep.norms) == 7
        assert list(rep.norms) == sorted(rep.norms, reverse=True)
        assert rep.exponent >= 0.45

    def test_zero_potential_rejected(self):
        with pytest.raises(ZeroPotentialError):
            continuity_exponent(M11, Quasimomentum(1.2, 0.4, -0.9), Potential({}),
                                MomentumGrid(6))

    @pytest.mark.parametrize("n", range(4, 9))
    def test_norms_match_dense_difference(self, n):
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0, (0, 1, -1): 0.4})
        m, k = MassPair(1.0, 1.7), Quasimomentum(1.2, 0.4, -0.9)
        grid = MomentumGrid(n)
        rep = continuity_exponent(m, k, pot, grid)
        e_min = band_geometry(m, k).e_min
        g_thr = build_bs(m, k, pot, e_min, grid).matrix
        dense = [np.linalg.norm(g_thr - build_bs(m, k, pot, e_min - d, grid).matrix, 2)
                 for d in rep.deltas]
        assert np.allclose(rep.norms, dense, rtol=1e-9, atol=0.0)


# One site of each +-pair of the radius-1 ball, the origin included.
RADIUS_ONE_SITES = [s for s in itertools.product((-1, 0, 1), repeat=3)
                    if s >= tuple(-c for c in s)]


@st.composite
def radius_one_potentials(draw):
    """A nonempty signed or nonnegative potential of radius 1 with every
    |v| >= 1e-6."""
    sign = st.sampled_from([1.0, -1.0]) if draw(st.booleans()) else st.just(1.0)
    sites = draw(st.lists(st.sampled_from(RADIUS_ONE_SITES), min_size=1, unique=True))
    return Potential({s: draw(sign) * draw(st.floats(1e-6, 10.0)) for s in sites})


class TestFlatBandCountsNoZeroOfV:
    """On the flat band spec H(k) is 6/m - spec V, and V's N^3 - r zeros sit
    at the level 6/m, where band_geometry's e_min and e_max can lie one ulp
    away: at any tie band the zeros count on neither side."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.floats(0.1, 10.0), n=st.sampled_from([3, 4, 5]),
           offset=st.sampled_from([0.0, 0.5]), pot=radius_one_potentials(),
           tie=st.floats(-300.0, -9.0).map(lambda e: 10.0**e))
    # e_min one ulp above 6/m, and e_max one ulp below it
    @example(m=1.1030927835051547, n=4, offset=0.5, pot=point_potential(8.0), tie=1e-16)
    @example(m=0.7142857142857143, n=4, offset=0.5, pot=point_potential(8.0), tie=1e-16)
    def test_counts_are_the_site_values(self, m, n, offset, pot, tie):
        masses, grid = MassPair(m, m), MomentumGrid(n, offset)
        positive = sum(v > 0.0 for v in pot.entries.values())
        assert analysis.count_below_band(masses, k_pi(), pot, grid, tie) == positive
        rep = verify_neraven(masses, k_pi(), pot, grid, tie)
        assert (rep.lhs, rep.corollary_lhs) == (positive, len(pot.entries))
        assert rep.all_ok


class TestFlatBandCountsAreDenseCounts:
    """On the flat band neraven counts the exact spectrum 6/m - spec V
    (``flat_band_spectrum``); the dense H(k) must give the same counts, and
    the paper's scalar-case equalities n_-(6/m, H) = n_+(0, V) and
    n_+(6/m, H) = n_-(0, V) must hold between the dense spectra."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.floats(0.5, 3.0), n=st.integers(3, 6), offset=st.sampled_from([0.0, 0.3, 0.5]),
           pot=radius_one_potentials(), rel_tol=st.floats(-12.0, -3.0).map(lambda e: 10.0**e))
    def test_counts_match_the_dense_spectrum(self, m, n, offset, pot, rel_tol):
        masses, grid = MassPair(m, m), MomentumGrid(n, offset)
        tol = rel_tol * max(1.0, *map(abs, weyl_bracket(masses, k_pi(), pot)))
        eigs_h = np.linalg.eigvalsh(build_h(masses, k_pi(), pot, grid).matrix)
        eigs_v = np.linalg.eigvalsh(build_v(pot, grid).matrix)
        geo = band_geometry(masses, k_pi())
        rep = verify_neraven(masses, k_pi(), pot, grid, tol)
        lhs = count_below(geo.e_min, eigs_h, tol)
        assert rep.lhs == lhs
        assert rep.corollary_lhs == lhs + count_above(geo.e_max, eigs_h, tol)
        level = 6.0 / m
        assert count_below(level, eigs_h, tol) == count_above(0.0, eigs_v, tol)
        assert count_above(level, eigs_h, tol) == count_below(0.0, eigs_v, tol)


class TestExistenceCountsAreDenseCounts:
    """``verify_existence`` counts each k in r-space: n_- below the band, and
    n_-(-pos_tol, H(k)); the dense spectrum of H(k) must give both counts.
    Its premise, a threshold state of H(0), needs a tuned coupling that no
    draw hits, so the classification is stubbed with a resonance: both
    counts are defined for every H(k)."""

    RESONANCE = analysis.ThresholdReport(1.0, (), "resonance", 0, False)

    @settings(max_examples=80, deadline=None)
    @given(masses=st.one_of(st.floats(0.5, 3.0).map(lambda m: MassPair(m, m)),
                            st.builds(MassPair, st.floats(0.5, 3.0), st.floats(0.5, 3.0))),
           n=st.integers(3, 6), offset=st.sampled_from([0.0, 0.3, 0.5]),
           pot=radius_one_potentials(), coupling=st.floats(0.3, 3.0),
           ks=st.lists(st.tuples(*[st.floats(-math.pi, math.pi)] * 3), min_size=1, max_size=2),
           rel_tie=st.floats(-12.0, -3.0).map(lambda e: 10.0**e),
           rel_pos=st.floats(-12.0, -3.0).map(lambda e: 10.0**e))
    def test_counts_match_the_dense_spectrum(self, masses, n, offset, pot, coupling, ks,
                                             rel_tie, rel_pos):
        grid, pot = MomentumGrid(n, offset), pot.scaled(coupling)
        ks = [K0, *(Quasimomentum(*c) for c in ks)]
        scale = max(1.0, *map(abs, weyl_bracket(masses, K0, pot)))
        tie_tol, pos_tol = rel_tie * scale, rel_pos * scale
        with mock.patch.object(analysis, "resonance_analysis", lambda *args: self.RESONANCE):
            rep = verify_existence(masses, pot, ks, grid, pos_tol=pos_tol, tie_tol=tie_tol)
        assert rep.pos_tol == pos_tol
        for k, at_k in zip(ks, rep.per_k):
            eigs = np.linalg.eigvalsh(build_h(masses, k, pot, grid).matrix)
            assert at_k.count == count_below(band_geometry(masses, k).e_min, eigs, tie_tol)
            assert at_k.n_negative == count_below(0.0, eigs, pos_tol)


class TestPositivityCountsAreDenseCounts:
    """``positivity_check`` counts n_-(-pos_tol, H(k)) in r-space; the dense
    spectrum of H(k) must give the same verdicts and the same counts."""

    @settings(max_examples=80, deadline=None)
    @given(m=st.floats(0.3, 3.0), n=st.integers(3, 7), offset=st.sampled_from([0.0, 0.3, 0.5]),
           pot=radius_one_potentials(), coupling=st.floats(0.0, 8.0),
           ks=st.lists(st.tuples(*[st.floats(-math.pi, math.pi)] * 3), min_size=1, max_size=2),
           rel_tol=st.floats(-15.0, -6.0).map(lambda e: 10.0**e))
    def test_counts_match_the_dense_spectrum(self, m, n, offset, pot, coupling, ks, rel_tol):
        masses, grid = MassPair(m, m), MomentumGrid(n, offset)
        # the critical coupling scales like 1/m; this spans both sides of it
        pot = pot.scaled(coupling / (m * max(abs(v) for v in pot.entries.values())))
        ks = [K0, *(Quasimomentum(*c) for c in ks)]
        tol = rel_tol * max(1.0, *map(abs, weyl_bracket(masses, K0, pot)))

        def dense_count(k):
            eigs = np.linalg.eigvalsh(build_h(masses, k, pot, grid).matrix)
            return int(np.count_nonzero(eigs < -tol))

        if dense_count(K0):
            with pytest.raises(PreconditionError, match=r"H\(0\) has"):
                positivity_check(masses, pot, ks, grid, tol)
            return
        rep = positivity_check(masses, pot, ks, grid, tol)
        want = [dense_count(k) for k in ks]
        assert rep.pos_tol == tol
        assert [r.n_negative for r in rep.per_k] == want
        assert [r.ok for r in rep.per_k] == [c == 0 for c in want]
