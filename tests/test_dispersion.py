"""Tests for the dispersion and closed-form band geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_spectra import (
    MassPair,
    Quasimomentum,
    RelativeMomentum,
    band_geometry,
    degenerate_directions,
    dispersion,
    eps,
)

from conftest import k_pi, scanned_band_edges

masses_st = st.builds(MassPair, st.floats(0.5, 3.0), st.floats(0.5, 3.0))
component_st = st.floats(-math.pi, math.pi)
k_st = st.builds(Quasimomentum, component_st, component_st, component_st)
q_st = st.builds(RelativeMomentum, component_st, component_st, component_st)


class TestEps:
    def test_corners(self):
        assert eps(RelativeMomentum(0, 0, 0)) == 0.0
        assert eps(k_pi()) == pytest.approx(6.0)
        assert eps(RelativeMomentum(math.pi / 2, 0, 0)) == pytest.approx(1.0)

    @given(q_st)
    @settings(max_examples=50)
    def test_range(self, q):
        assert 0.0 <= eps(q) <= 6.0


class TestDispersion:
    def test_equal_mass_corner(self):
        m = MassPair(1, 1)
        assert dispersion(m, Quasimomentum(0, 0, 0), k_pi()) == pytest.approx(12.0)

    def test_flat_band_at_k_pi(self):
        # equal masses at k = (pi, pi, pi): dispersion is constant 6/m
        m = MassPair(1, 1)
        for q in [RelativeMomentum(0.3, -1.0, 2.2), RelativeMomentum(0, 0, 0)]:
            assert dispersion(m, k_pi(), q) == pytest.approx(6.0, abs=1e-12)

    @given(masses_st, k_st, q_st)
    @settings(max_examples=150)
    def test_separable_form_matches(self, m, k, q):
        geo = band_geometry(m, k)
        direct = dispersion(m, k, q)
        assert direct == pytest.approx(geo.evaluate(q), abs=1e-12 * max(1.0, geo.center))

    @given(masses_st, k_st, q_st)
    @settings(max_examples=100)
    def test_within_band(self, m, k, q):
        geo = band_geometry(m, k)
        e = dispersion(m, k, q)
        slack = 1e-12 * max(1.0, geo.center)
        assert geo.e_min - slack <= e <= geo.e_max + slack

    @given(k_st, q_st)
    @settings(max_examples=50)
    def test_equal_mass_evenness(self, k, q):
        m = MassPair(1.3, 1.3)
        assert dispersion(m, k, q) == pytest.approx(dispersion(m, k, -q), abs=1e-12)


class TestBandGeometry:
    def test_equal_masses_k_zero(self):
        geo = band_geometry(MassPair(1, 1), Quasimomentum(0, 0, 0))
        assert geo.r == (2.0, 2.0, 2.0)
        assert geo.w_jb == (4.0, 4.0, 4.0)
        assert geo.w_b == 12.0
        assert geo.e_min == 0.0
        assert geo.e_max == 12.0

    def test_band_collapse_at_k_pi(self):
        geo = band_geometry(MassPair(1, 1), k_pi())
        assert geo.w_b == pytest.approx(0.0, abs=1e-12)
        assert geo.e_min == pytest.approx(6.0)
        assert geo.e_max == pytest.approx(6.0)

    def test_unequal_masses_example(self):
        geo = band_geometry(MassPair(1, 2), Quasimomentum(math.pi, 0, 0))
        assert geo.a[0] == pytest.approx(0.0, abs=1e-12)
        assert geo.b[0] == pytest.approx(-0.5)
        assert geo.r[0] == pytest.approx(0.5)
        assert geo.r[1] == pytest.approx(1.5)
        assert geo.r[2] == pytest.approx(1.5)
        assert geo.w_b == pytest.approx(7.0)
        assert geo.e_min == pytest.approx(1.0)
        assert geo.e_max == pytest.approx(8.0)

    def test_edges_match_scan_oracle(self):
        m = MassPair(1, 2)
        k = Quasimomentum(math.pi, 0, 0)
        geo = band_geometry(m, k)
        e_min, e_max = scanned_band_edges(m, k)
        assert geo.e_min == pytest.approx(e_min, abs=1e-9)
        assert geo.e_max == pytest.approx(e_max, abs=1e-9)

    @given(masses_st, k_st)
    @settings(max_examples=100)
    def test_width_decomposition(self, m, k):
        geo = band_geometry(m, k)
        assert geo.w_b == sum(geo.w_jb)  # exact by construction
        assert geo.e_max - geo.e_min == pytest.approx(geo.w_b, abs=1e-12)
        for j in range(3):
            assert geo.r[j] == pytest.approx(math.hypot(geo.a[j], geo.b[j]))
            assert geo.w_jb[j] == 2.0 * geo.r[j]

    @given(masses_st, st.floats(-math.pi + 1e-6, math.pi - 1e-6))
    @settings(max_examples=50)
    def test_directional_width_even_positive_interior(self, m, kj):
        plus = band_geometry(m, Quasimomentum(kj, 0, 0)).w_jb[0]
        minus = band_geometry(m, Quasimomentum(-kj, 0, 0)).w_jb[0]
        assert plus == pytest.approx(minus, abs=1e-12)
        assert plus > 0.0


class TestDegenerateDirections:
    def test_equal_masses_axis_pi(self):
        assert degenerate_directions(MassPair(1, 1), Quasimomentum(math.pi, 0, 0)) == {0}

    def test_unequal_masses_never_degenerate(self):
        assert degenerate_directions(MassPair(1, 2), k_pi()) == set()

    def test_k_zero_not_degenerate(self):
        assert degenerate_directions(MassPair(1, 1), Quasimomentum(0, 0, 0)) == set()
