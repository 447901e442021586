"""Tests for eigendecomposition, counting functionals and the width theorem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_spectra import (
    MomentumGrid,
    count_above,
    count_below,
    default_tie_tol,
    eig_sym,
    verify_counting_theorem,
)
from lattice_spectra.errors import NonSymmetricError, NumericalFailure
from lattice_spectra.sampling import random_low_rank_symmetric, random_symmetric

from conftest import k_pi, point_potential
from lattice_spectra import MassPair
from oracles import build_h


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

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 51))
        a = random_symmetric(rng, dim)
        v = random_low_rank_symmetric(rng, dim, int(rng.integers(1, 11)))
        assert verify_counting_theorem(a, v).all_hold
