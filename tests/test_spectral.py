"""Tests for eigendecomposition, counting functionals and the width theorem."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lattice_spectra import (
    MomentumGrid,
    Potential,
    Quasimomentum,
    count_above,
    count_below,
    default_tie_tol,
    eig_sym,
    fiber_eigenvalues,
    operators,
    spectral,
    verify_counting_theorem,
)
from lattice_spectra.errors import InputError, NonSymmetricError, NumericalFailure
from lattice_spectra.sampling import random_low_rank_symmetric, random_symmetric
from lattice_spectra.spectral import fiber_count_below_dense

from conftest import k_pi, point_potential
from lattice_spectra import MassPair
from oracles import build_h

PI = math.pi


class TestEigSym:
    def test_diagonal(self):
        assert list(eig_sym(np.diag([1.0, 0.0]))) == [0.0, 1.0]

    def test_scalar_minus_potential(self):
        h = build_h(MassPair(1, 1), k_pi(), point_potential(2.0), MomentumGrid(3))
        eigs = eig_sym(h)
        assert eigs[0] == pytest.approx(4.0, abs=1e-9)
        assert np.allclose(eigs[1:], 6.0, atol=1e-9)

    def test_rejects_non_symmetric(self):
        with pytest.raises(NonSymmetricError):
            eig_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_finite(self):
        # NaN compares false, so a symmetry check alone lets it through and
        # LAPACK returns [0, -0, 1] for diag(nan, 1, 1)
        with pytest.raises(NumericalFailure):
            eig_sym(np.diag([np.nan, 1.0, 1.0]))

    def test_lapack_failure_is_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalFailure, match="did not converge"):
            eig_sym(np.eye(2))

    def test_orthogonal_conjugation_invariance(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 50)
        q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
        assert np.allclose(eig_sym(a), eig_sym(q @ a @ q.T), atol=1e-8)

    def test_trace_and_frobenius(self):
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 30)
        eigs = eig_sym(a)
        tol = 1e-8 * 30 * max(1.0, np.abs(a).max())
        assert np.trace(a) == pytest.approx(eigs.sum(), abs=tol)
        assert np.linalg.norm(a, "fro") ** 2 == pytest.approx((eigs**2).sum(), abs=tol)


class TestCounting:
    def test_simple(self):
        assert count_below(0.0, [-2.0, 1.0]) == 1
        assert count_above(0.0, [-2.0, 1.0]) == 1

    def test_tie_band_excludes_level(self):
        eigs = np.array([4.0] + [6.0] * 26)
        assert count_below(6.0, eigs, tie_tol=1e-9) == 1
        assert count_above(6.0, eigs, tie_tol=1e-9) == 0

    def test_strict_at_level(self):
        assert count_below(0.0, [0.0, 0.0, 0.0], tie_tol=1e-9) == 0

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_monotone_in_level(self, eigs):
        eigs = sorted(eigs)
        mus = sorted({-11.0, 11.0, *eigs})
        below = [count_below(mu, eigs) for mu in mus]
        above = [count_above(mu, eigs) for mu in mus]
        assert below == sorted(below)
        assert above == sorted(above, reverse=True)

    def test_partition_with_ties(self):
        eigs = np.array([1.0, 2.0, 2.0, 3.0])
        mu, tol = 2.0, 1e-9
        ties = int(np.count_nonzero(np.abs(eigs - mu) <= tol))
        assert count_below(mu, eigs, tol) + count_above(mu, eigs, tol) + ties == len(eigs)


class TestCountingTheorem:
    def test_hand_example(self):
        check = verify_counting_theorem(np.diag([0.0, 1.0]), np.diag([2.0, 0.0]))
        assert check.width == 1.0
        assert check.rhs == 1
        assert check.lhs == 1
        assert check.all_hold

    def test_scalar_operator_equality(self):
        # A = mu*I: n_-(mu, A - V) equals n_+(0, V) exactly
        rng = np.random.default_rng(6)
        mu = 1.7
        a = mu * np.eye(20)
        v = random_low_rank_symmetric(rng, 20, 5)
        check = verify_counting_theorem(a, v)
        n_plus_zero = int((np.linalg.eigvalsh(v) > 1e-9).sum())
        assert check.lhs == n_plus_zero
        assert check.all_hold

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            verify_counting_theorem(np.eye(2), np.eye(3))

    def test_dimension_mismatch_is_input_error(self):
        with pytest.raises(InputError, match="dimension mismatch"):
            verify_counting_theorem(np.eye(2), np.eye(3))

    def test_rejects_non_symmetric_v(self):
        with pytest.raises(NonSymmetricError):
            verify_counting_theorem(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stacked_solve_matches_separate_solves(self):
        rng = np.random.default_rng(11)
        a = random_symmetric(rng, 23)
        v = random_low_rank_symmetric(rng, 23, 4)
        check = verify_counting_theorem(a, v)
        eigs_a, eigs_v, eigs_av = eig_sym(a), eig_sym(v), eig_sym(a - v)
        assert (check.m_a, check.big_m_a) == (eigs_a[0], eigs_a[-1])
        tol = default_tie_tol(np.concatenate([eigs_a, eigs_v, eigs_av]))
        assert check.lhs == count_below(eigs_a[0], eigs_av, tol)
        assert check.rhs == count_above(check.width, eigs_v, tol)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 51))
        a = random_symmetric(rng, dim)
        v = random_low_rank_symmetric(rng, dim, int(rng.integers(1, 11)))
        assert verify_counting_theorem(a, v).all_hold


@st.composite
def dense_count_instances(draw):
    """(m, k, potential, grid) for the dense count: equal masses on the zone
    diagonal (parity blocks and deflation copies), a k with some k_j = pi,
    or unequal masses at a generic k; offset 0, 1/4 or 1/2 and N from 2 to
    8, with a signed potential of radius at most (N - 1) / 2, so N = 2
    holds the origin alone and its blocks have one and two rows."""
    n = draw(st.integers(2, 8))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]))
    radius = draw(st.integers(0, min(2, (n - 1) // 2)))
    m1 = draw(st.floats(0.4, 3.0))
    t, u, w = draw(st.tuples(*[st.floats(-PI, PI)] * 3))
    kind = draw(st.sampled_from(["diagonal", "pi", "generic"]))
    if kind == "diagonal":
        m, k = MassPair(m1, m1), (t, t, t)
    elif kind == "pi":
        m = MassPair(m1, draw(st.one_of(st.just(m1), st.floats(0.4, 3.0))))
        k = draw(st.sampled_from([(PI, t, u), (t, PI, PI), (PI, PI, PI)]))
    else:
        m2 = draw(st.floats(0.4, 3.0).filter(lambda x: abs(x - m1) > 0.05))
        m, k = MassPair(m1, m2), (t, u, w)
    span = st.integers(-radius, radius)
    entries = draw(st.dictionaries(st.tuples(span, span, span), st.floats(-6.0, 6.0),
                                   min_size=1, max_size=6))
    pot = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    return m, Quasimomentum(*k), pot, MomentumGrid(n, offset)


class TestFiberCountBelowDense:
    @settings(max_examples=80, deadline=None)
    @given(dense_count_instances(), st.data())
    def test_matches_dense_spectrum(self, inst, data):
        m, k, pot, grid = inst
        eigs = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        scale = max(1.0, float(np.abs(eigs).max()))
        where = data.draw(st.sampled_from(["below", "inside", "above", "minus", "plus"]))
        frac = data.draw(st.floats(0.0, 1.0))
        i = data.draw(st.integers(0, len(eigs) - 1))
        level = {
            "below": eigs[0] - (1e-3 + frac) * scale,
            "inside": eigs[0] + frac * (eigs[-1] - eigs[0]),
            "above": eigs[-1] + (1e-3 + frac) * scale,
            "minus": eigs[i] - 1e-6 * scale,
            "plus": eigs[i] + 1e-6 * scale,
        }[where]
        # a level within rounding of an eigenvalue has no strict count
        assume(np.abs(eigs - level).min() > 1e-9 * scale)
        got = fiber_count_below_dense(m, k, pot, level, grid)
        assert got == int(np.count_nonzero(eigs < level))

    def test_leading_half_factors_and_schur_complement_does_not(self):
        # unequal masses at a generic k: one undeflated block of 64 rows,
        # with four eigenvalues below the lowest one of its leading half.
        # Between them the shifted half is positive definite and the Schur
        # complement is not, so each count comes from the untouched block
        m, k = MassPair(2.5, 1.25), Quasimomentum(-0.3, -2.2, -0.6)
        pot = Potential({(0, 0, 0): 3.6, (0, 1, 0): 7.7, (0, 1, -1): 7.4, (1, -1, 0): -0.25})
        grid = MomentumGrid(4)
        [(h, copies)] = list(operators.fiber_blocks(m, k, pot, grid))
        assert h.shape == (64, 64) and copies.size == 0
        eigs = np.linalg.eigvalsh(h)
        half_min = float(np.linalg.eigvalsh(h[:32, :32])[0])
        below = eigs[eigs < half_min]
        assert len(below) == 4
        levels = [0.5 * (a + b) for a, b in zip(below, [*below[1:], half_min])]
        dense = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        for count, level in enumerate(levels, start=1):
            np.linalg.cholesky(h[:32, :32] - level * np.eye(32))
            assert np.count_nonzero(dense < level) == count
            assert fiber_count_below_dense(m, k, pot, level, grid) == count

    @pytest.mark.parametrize("n", [65, 201])
    def test_lower_solve_matches_general_solve(self, n):
        rng = np.random.default_rng(n)
        low = np.tril(rng.standard_normal((n, n))) + n * np.eye(n)
        b = rng.standard_normal((n, n + 3))
        assert np.allclose(spectral._lower_solve(low, b), np.linalg.solve(low, b),
                           rtol=0, atol=1e-12)

    def test_level_below_spectrum_needs_no_eigensolve(self, monkeypatch):
        def refuse(a):
            raise AssertionError("eigensolve")

        monkeypatch.setattr(spectral, "_eigvalsh", refuse)
        m, k = MassPair(1.0, 1.0), Quasimomentum(0.4, 0.4, 0.4)
        pot, grid = Potential({(0, 0, 0): 3.0, (1, 0, 0): -1.0}), MomentumGrid(6, 0.0)
        assert len(list(operators.fiber_blocks(m, k, pot, grid))) == 2
        assert fiber_count_below_dense(m, k, pot, -5.0, grid) == 0

    def test_non_finite_block_is_numerical_failure(self, monkeypatch):
        build = operators._plane_wave_factor

        def broken(*args):
            factor, weights, n_cos = build(*args)
            weights[0] = np.nan
            return factor, weights, n_cos

        monkeypatch.setattr(operators, "_plane_wave_factor", broken)
        with pytest.raises(NumericalFailure, match="non-finite"):
            fiber_count_below_dense(MassPair(1.0, 2.0), Quasimomentum(0.3, 0.5, -1.2),
                                    Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0}), 1.0,
                                    MomentumGrid(4))

    def test_lapack_failure_of_the_fallback_is_numerical_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericalFailure, match="did not converge"):
            fiber_count_below_dense(MassPair(1.0, 2.0), Quasimomentum(0.3, 0.5, -1.2),
                                    Potential({(0, 0, 0): 2.0}), 20.0, MomentumGrid(4))


class TestDenseCountChecksFiniteness:
    """The count and the full solve check the blocks the library built for
    finiteness only."""

    def test_no_symmetry_check_of_built_blocks(self, monkeypatch):
        def refuse(a):
            raise AssertionError("symmetry check")

        monkeypatch.setattr(spectral, "_check_symmetric", refuse)
        m, k = MassPair(2.5, 1.25), Quasimomentum(-0.3, -2.2, -0.6)
        pot, grid = Potential({(0, 0, 0): 3.6, (0, 1, 0): 7.7}), MomentumGrid(4)
        level = 0.5
        dense = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        expected = int(np.count_nonzero(dense < level))
        assert expected > 0
        assert fiber_count_below_dense(m, k, pot, level, grid) == expected

    def test_no_symmetry_check_in_the_full_solve(self, monkeypatch):
        def refuse(a):
            raise AssertionError("symmetry check")

        monkeypatch.setattr(spectral, "_check_symmetric", refuse)
        m, k = MassPair(2.5, 1.25), Quasimomentum(-0.3, -2.2, -0.6)
        pot, grid = Potential({(0, 0, 0): 3.6, (0, 1, 0): 7.7}), MomentumGrid(4)
        dense = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        assert np.allclose(fiber_eigenvalues(m, k, pot, grid), dense, rtol=0, atol=1e-12)
        # a caller's matrix is still checked
        with pytest.raises(AssertionError, match="symmetry check"):
            eig_sym(np.eye(2))

    def test_full_solve_overflow_is_numerical_failure(self):
        m = MassPair(1.0, 1.0)
        pot = Potential({(0, 0, 0): 1.0, (1, 0, 0): 1e308})  # 2v overflows
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="non-finite"):
            fiber_eigenvalues(m, Quasimomentum(0.3, 0.5, -1.2), pot, MomentumGrid(4))

    @pytest.mark.parametrize("m, pot", [
        (MassPair(1e-308, 1.0), Potential({(0, 0, 0): 2.0})),  # E overflows
        (MassPair(1.0, 1.0), Potential({(0, 0, 0): 1.0, (1, 0, 0): 1e308})),  # 2v overflows
    ])
    def test_overflow_is_numerical_failure(self, m, pot):
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="non-finite"):
            fiber_count_below_dense(m, Quasimomentum(0.3, 0.5, -1.2), pot, -1.0,
                                    MomentumGrid(4))
