"""Tests for the finite-torus operator builders."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lattice_spectra
from lattice_spectra import (
    MassPair,
    MomentumGrid,
    Potential,
    Quasimomentum,
    band_geometry,
    bs_support_eigenvalues,
    build_h0,
    count_above,
    count_below,
    default_tie_tol,
    dispersion_on_grid,
    fiber_count_above,
    fiber_count_below,
    fiber_eigenvalues,
    potential_spectrum,
    weyl_bracket,
)
from lattice_spectra import analysis, model, operators
from lattice_spectra.errors import (
    DenseTooLargeError,
    GridTooSmallError,
    NegativePotentialError,
    NumericalFailure,
    ZNotBelowBandError,
)
from lattice_spectra.sampling import random_masses, random_potential, random_quasimomentum
from lattice_spectra.spectral import fiber_count_below_dense

import oracles
from conftest import axis_profile, k_pi, point_potential
from oracles import (
    build_bs,
    build_h,
    build_v,
    build_vhalf,
    parity_blocks_of_v,
    parity_nodes,
    position_box_values,
)

K0 = Quasimomentum(0, 0, 0)


def block_rows(m, k, pot, grid):
    """Rows of each diagonal block of H(k), before deflation."""
    return [len(diag) for diag, _, _ in operators._fiber_parts(m, k, pot, grid)[0]]


def spectrum_multiset(pot, grid):
    """``potential_spectrum`` padded with V's N^3 - r zeros, ascending."""
    values = potential_spectrum(pot, grid)
    return np.sort(np.concatenate([values, np.zeros(grid.dim - values.size)]))


def test_dense_oracles_are_not_library_api():
    # the dense V, V^{1/2}, H and G builders are test oracles (tests/oracles.py)
    for module in (lattice_spectra, operators, analysis):
        for name in ("_convolution_matrix", "build_v", "build_vhalf", "build_h", "build_bs"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def test_test_only_helpers_are_not_library_api():
    # no library, CLI or script caller runs these; they are in tests/oracles.py
    for module in (lattice_spectra, operators, analysis, model):
        for name in ("continuity_exponent", "ContinuityReport", "bs_difference_norm",
                     "_difference_kernel", "momentum_kernel", "save_potential"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestBuildH0:
    def test_scalar_at_k_pi(self):
        op = build_h0(MassPair(1, 1), k_pi(), MomentumGrid(3))
        assert np.allclose(op.matrix, 6.0 * np.eye(27), atol=1e-12)

    def test_coarse_grid_values(self):
        # N=2, offset 0: components in {-pi, 0}, so 2*eps in {0, 4, 8, 12}
        op = build_h0(MassPair(1, 1), K0, MomentumGrid(2, offset=0.0))
        diag = np.sort(np.diag(op.matrix))
        assert set(np.round(diag, 12)) <= {0.0, 4.0, 8.0, 12.0}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_range_containment(self, seed):
        rng = np.random.default_rng(seed)
        m = random_masses(rng)
        k = random_quasimomentum(rng)
        geo = band_geometry(m, k)
        diag = np.diag(build_h0(m, k, MomentumGrid(5)).matrix)
        assert diag.min() >= geo.e_min - 1e-12
        assert diag.max() <= geo.e_max + 1e-12


class TestBuildV:
    def test_point_interaction_rank_one(self):
        grid = MomentumGrid(3)
        op = build_v(point_potential(2.5), grid)
        assert np.allclose(op.matrix, 2.5 / 27 * np.ones((27, 27)))
        eigs = np.sort(np.linalg.eigvalsh(op.matrix))
        assert eigs[-1] == pytest.approx(2.5)
        assert np.allclose(eigs[:-1], 0.0, atol=1e-12)

    def test_circulant_structure(self):
        grid = MomentumGrid(5)
        mat = build_v(Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0}), grid).matrix
        n = 5
        # entry depends only on the index difference mod N per axis
        for (i, j) in [(3, 17), (40, 54), (100, 114)]:
            assert mat[i, j] == pytest.approx(mat[(i + n**2) % n**3, (j + n**2) % n**3])

    def test_spectrum_matches_position_values(self):
        grid = MomentumGrid(5)
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0})
        eigs = np.sort(np.linalg.eigvalsh(build_v(pot, grid).matrix))
        assert np.allclose(eigs, spectrum_multiset(pot, grid), atol=1e-9)

    @pytest.mark.parametrize("seed,n", [(0, 4), (1, 5), (2, 6), (3, 7)])
    def test_fourier_duality_random(self, seed, n):
        rng = np.random.default_rng(seed)
        pot = random_potential(rng, radius=1, nonnegative=False)
        grid = MomentumGrid(n, offset=float(rng.uniform(0, 1)))
        eigs = np.sort(np.linalg.eigvalsh(build_v(pot, grid).matrix))
        assert np.allclose(eigs, spectrum_multiset(pot, grid), atol=1e-9)

    def test_grid_too_small(self):
        pot = Potential({(2, 0, 0): 1.0})
        with pytest.raises(GridTooSmallError):
            build_v(pot, MomentumGrid(4))
        build_v(pot, MomentumGrid(5))  # 2R+1 = 5 is allowed

    def test_radius_too_long_to_print(self):
        # 2R+1 has more digits than repr converts; the refusal echoes it
        pot = Potential({(10**5000, 0, 0): 1.0})
        for call in [
            lambda: potential_spectrum(pot, MomentumGrid(4)),
            lambda: fiber_count_below(MassPair(1.0, 1.0), K0, pot, -1.0, MomentumGrid(4)),
        ]:
            with pytest.raises(GridTooSmallError, match="2R\\+1=<a value too large") as info:
                call()
            assert len(str(info.value)) < 100


class TestPotentialSpectrum:
    def test_point(self):
        values = potential_spectrum(point_potential(2.0), MomentumGrid(3))
        assert list(values) == [2.0]

    def test_axis_pair(self):
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0})
        spec = spectrum_multiset(pot, MomentumGrid(3))
        assert list(spec) == [0.0] * 24 + [1.0, 1.0, 2.0]

    def test_positive_count(self):
        pot = Potential({(1, 0, 0): 3.0, (0, 1, 0): 1.0})
        values = potential_spectrum(pot, MomentumGrid(5))
        assert count_above(0.0, values, 0.0) == 4

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_multiset_matches_position_box(self, n):
        # the r support values, ascending, are the nonzero values of the box
        # of N^3, and with N^3 - r zeros the whole box, odd and even N,
        # whenever N >= 2R + 1
        rng = np.random.default_rng(n)
        for radius in range(1, (n - 1) // 2 + 1):
            for nonnegative in (True, False):
                pot = random_potential(rng, radius=radius, nonnegative=nonnegative)
                grid = MomentumGrid(n, float(rng.uniform(0, 1)))
                values = potential_spectrum(pot, grid)
                box = position_box_values(pot, grid)
                assert values.size == len(pot.entries)
                assert np.array_equal(values, box[box != 0.0])
                assert np.array_equal(spectrum_multiset(pot, grid), box)

    def test_full_box_has_no_zero(self):
        span = range(-1, 2)
        pot = Potential({(a, b, c): 1.0 for a in span for b in span for c in span})
        values = potential_spectrum(pot, MomentumGrid(3))
        assert list(values) == [1.0] * 27
        assert count_below(0.5, values, 0.0) == 0

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmallError):
            potential_spectrum(Potential({(2, 0, 0): 1.0}), MomentumGrid(4))


class TestBuildH:
    def test_scalar_case(self):
        h = build_h(MassPair(1, 1), k_pi(), point_potential(2.0), MomentumGrid(3))
        eigs = np.sort(np.linalg.eigvalsh(h.matrix))
        expected = np.array([4.0] + [6.0] * 26)
        assert np.allclose(eigs, expected, atol=1e-9)

    def test_empty_potential_is_h0(self):
        m, k, grid = MassPair(1, 2), Quasimomentum(0.4, -0.7, 1.0), MomentumGrid(4)
        h = build_h(m, k, Potential({}), grid)
        assert np.allclose(h.matrix, build_h0(m, k, grid).matrix)


class TestBuildBS:
    def test_rank_one_eigenvalue(self):
        m, grid, lam, z = MassPair(1, 1), MomentumGrid(4), 3.0, -0.5
        g = build_bs(m, K0, point_potential(lam), z, grid)
        diag = dispersion_on_grid(m, K0, grid)
        expected = lam * np.mean(1.0 / (diag - z))
        eigs = np.sort(np.linalg.eigvalsh(g.matrix))
        assert eigs[-1] == pytest.approx(expected, rel=1e-12)
        assert np.allclose(eigs[:-1], 0.0, atol=1e-10)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            m = random_masses(rng)
            k = random_quasimomentum(rng)
            pot = random_potential(rng, radius=1, nonnegative=True)
            z = band_geometry(m, k).e_min - 1.0
            g = build_bs(m, k, pot, z, MomentumGrid(5))
            assert np.linalg.eigvalsh(g.matrix).min() >= -1e-10

    def test_negative_potential_rejected(self):
        with pytest.raises(NegativePotentialError):
            build_bs(MassPair(1, 1), K0, Potential({(1, 0, 0): -1.0}), -1.0, MomentumGrid(4))
        with pytest.raises(NegativePotentialError):
            build_vhalf(Potential({(0, 0, 0): -1.0}), MomentumGrid(4))

    def test_z_above_band_rejected(self):
        with pytest.raises(ZNotBelowBandError):
            build_bs(MassPair(1, 1), K0, point_potential(1.0), 3.0, MomentumGrid(4))

    def test_support_eigenvalues_match_dense(self):
        rng = np.random.default_rng(11)
        m = random_masses(rng)
        k = random_quasimomentum(rng)
        pot = random_potential(rng, radius=1, nonnegative=True)
        z = band_geometry(m, k).e_min - 0.3
        grid = MomentumGrid(5)
        dense = np.linalg.eigvalsh(build_bs(m, k, pot, z, grid).matrix)
        small = bs_support_eigenvalues(m, k, pot, z, grid)
        # nonzero spectra coincide; the dense matrix pads with zeros
        assert np.allclose(
            np.sort(dense[dense > 1e-8]), np.sort(small[small > 1e-8]), atol=1e-9
        )

    def test_monotone_in_z(self):
        m, grid = MassPair(1, 1), MomentumGrid(4)
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0})
        e1 = np.sort(np.linalg.eigvalsh(build_bs(m, K0, pot, -2.0, grid).matrix))
        e2 = np.sort(np.linalg.eigvalsh(build_bs(m, K0, pot, -0.5, grid).matrix))
        assert np.all(e1 <= e2 + 1e-12)


class TestBSIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = random_masses(rng)
        k = random_quasimomentum(rng)
        pot = random_potential(rng, radius=1, nonnegative=True)
        grid = MomentumGrid(6)
        z = band_geometry(m, k).e_min - 1.0
        eigs_h = np.sort(np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix))
        eigs_g = np.sort(np.linalg.eigvalsh(build_bs(m, k, pot, z, grid).matrix))
        assert int((eigs_h < z).sum()) == int((eigs_g > 1.0).sum())


@st.composite
def gram_instances(draw):
    """Unequal masses, random k, a nonnegative potential of radius 1 or 2,
    a grid with N >= 2R + 1 and a spectral parameter below the band."""
    radius = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(max(4, 2 * radius + 1), 10))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]))
    m1 = draw(st.floats(0.4, 3.0))
    m2 = draw(st.floats(0.4, 3.0).filter(lambda x: abs(x - m1) > 0.05))
    k = Quasimomentum(*draw(st.tuples(*[st.floats(-math.pi, math.pi)] * 3)))
    span = st.integers(-radius, radius)
    entries = draw(
        st.dictionaries(st.tuples(span, span, span), st.floats(0.05, 3.0),
                        min_size=1, max_size=5)
    )
    # one value per +-pair of sites, so the even extension has no conflicts
    pot = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    m = MassPair(m1, m2)
    z = band_geometry(m, k).e_min - draw(st.floats(0.01, 2.0))
    return m, k, pot, z, MomentumGrid(n, offset)


class TestSupportGram:
    @settings(max_examples=25, deadline=None)
    @given(gram_instances())
    def test_matches_dense_nonzero_spectrum(self, inst):
        m, k, pot, z, grid = inst
        small = bs_support_eigenvalues(m, k, pot, z, grid)
        dense = np.linalg.eigvalsh(build_bs(m, k, pot, z, grid).matrix)
        r = len(pot.entries)
        assert small.shape == (r,)
        # the dense matrix has rank r; its remaining eigenvalues are zero
        scale = dense[-1]
        assert np.allclose(small, dense[-r:], rtol=0.0, atol=1e-10 * scale)
        assert np.allclose(dense[:-r], 0.0, atol=1e-10 * scale)

    @staticmethod
    def _fft_gram_eigenvalues(m, k, pot, z, grid):
        """Gram eigenvalues from the FFT of 1/(E(q) - z) over the grid nodes."""
        n = grid.n_per_dim
        diag = dispersion_on_grid(m, k, grid).reshape(n, n, n)
        green = np.fft.ifftn(1.0 / (diag - z))
        theta = -math.pi + grid.offset * (2.0 * math.pi / n)  # node at index 0
        sites = np.array(pot.sorted_sites())
        d = sites[None, :, :] - sites[:, None, :]  # (r, r, 3): y - x
        g = green[d[..., 0] % n, d[..., 1] % n, d[..., 2] % n]
        g = g * np.exp(1j * theta * d.sum(axis=-1))
        root = np.sqrt([pot.entries[tuple(s)] for s in sites])
        gram = root[:, None] * g * root[None, :]
        return np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))

    @pytest.mark.parametrize("m, k, offset", [
        (MassPair(1.0, 1.0), K0, 0.5),
        (MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8), 0.25),
    ])
    def test_pinned_against_fft_at_n128(self, m, k, offset):
        pot = Potential({
            (0, 0, 0): 2.0, (1, 2, 0): 0.5, (0, -1, 2): 0.7, (2, 1, -1): 0.3,
        })
        assert len(pot.entries) == 7
        grid = MomentumGrid(128, offset)
        z = band_geometry(m, k).e_min - 0.05
        small = bs_support_eigenvalues(m, k, pot, z, grid)
        ref = self._fft_gram_eigenvalues(m, k, pot, z, grid)
        assert np.allclose(small, ref, rtol=1e-12, atol=0.0)


def fft_gram(m, k, pot, z, grid):
    """The Gram of 1/(E - z) from ifftn of the kernel over the whole grid,
    gathered at the site differences y - x."""
    n = grid.n_per_dim
    diag = dispersion_on_grid(m, k, grid).reshape(n, n, n)
    green = np.fft.ifftn(1.0 / (diag - z))
    theta = -math.pi + grid.offset * (2.0 * math.pi / n)  # node at index 0
    sites = np.array(pot.sorted_sites())
    d = sites[None, :, :] - sites[:, None, :]
    g = green[d[..., 0] % n, d[..., 1] % n, d[..., 2] % n]
    g = g * np.exp(1j * theta * d.sum(axis=-1))
    root = np.sqrt([pot.entries[tuple(s)] for s in sites])
    gram = root[:, None] * g * root[None, :]
    return 0.5 * (gram + gram.conj().T)


@st.composite
def streamed_gram_instances(draw):
    """A ``gram_instances`` draw at N = 90 (whose last slab of planes is
    partial at the default cap) or at N up to 10 with a slab cap that
    leaves from one to a few planes per slab, some slabs partial."""
    m, k, pot, z, grid = draw(gram_instances())
    if draw(st.booleans()):
        return m, k, pot, z, MomentumGrid(90, grid.offset), operators.GRAM_SLAB_NODES
    n = grid.n_per_dim
    cap = draw(st.sampled_from([1, n * n + 1, 3 * n * n - 1, operators.GRAM_SLAB_NODES]))
    return m, k, pot, z, grid, cap


class TestStreamedGram:
    @settings(max_examples=30, deadline=None)
    @given(streamed_gram_instances())
    def test_matches_fft_reference(self, inst):
        # the slab-by-slab contraction against an FFT over the whole grid:
        # unequal masses and generic k, so the Gram is complex
        m, k, pot, z, grid, cap = inst
        factors = operators._axis_factors(m, k, grid)
        with mock.patch.object(operators, "GRAM_SLAB_NODES", cap):
            gram = operators._support_gram(factors, operators._resolvent_kernel(z), pot, grid)
        ref = fft_gram(m, k, pot, z, grid)
        assert np.abs(gram - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_partial_last_slab_at_n90(self):
        n = 90
        planes = operators.GRAM_SLAB_NODES // (n * n)
        assert 1 < planes < n and n % planes != 0

    def test_peak_memory_is_below_one_eighth_of_an_n3_array(self):
        # one N^3 array of float64 takes 8 N^3 bytes; the streamed Gram
        # routes stay under N^3 bytes at N = 128
        m, k = MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8)
        pot = Potential({(0, 0, 0): 2.0, (1, 2, 0): 0.5, (0, -1, 2): 0.7, (2, 1, -1): 0.3})
        grid = MomentumGrid(128)
        z = band_geometry(m, k).e_min - 0.05
        routes = [
            lambda: bs_support_eigenvalues(m, k, pot, z, grid),
            lambda: oracles.bs_difference_norm(m, k, pot, z + 0.01, z, grid),
            lambda: fiber_count_below(m, k, pot, z, grid),
            lambda: analysis.resonance_analysis(MassPair(1.0, 1.0), pot, grid),
        ]
        for route in routes:
            tracemalloc.start()
            try:
                route()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < grid.dim

    @pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
    def test_band_check_at_the_sampled_edges(self, offset):
        # the band check uses the extremes of the summed axis factors,
        # (e_1 + e_2) + e_3: z exactly at an edge is refused, the next
        # float outside it is not
        m, k, grid = MassPair(1.0, 2.5), Quasimomentum(0.3, -1.1, 2.0), MomentumGrid(7, offset)
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5})
        e1, e2, e3 = (axis_profile(m, kj)(grid.axis_nodes()) for kj in k.components)
        samples = e1[:, None, None] + e2[None, :, None] + e3[None, None, :]
        low, high = float(samples.min()), float(samples.max())
        below, above = np.nextafter(low, -math.inf), np.nextafter(high, math.inf)
        for call, edge, outside in [
            (lambda z: bs_support_eigenvalues(m, k, pot, z, grid), low, below),
            (lambda z: fiber_count_below(m, k, pot, z, grid), low, below),
            (lambda z: fiber_count_above(m, k, pot, z, grid), high, above),
            (lambda z: oracles.bs_difference_norm(m, k, pot, z, z - 1.0, grid), low, below),
        ]:
            with pytest.raises(ZNotBelowBandError):
                call(edge)
            call(outside)

    def test_does_not_import_numpy_ma(self):
        # np.unique imports numpy.ma on first use, a cost paid by every run
        src = os.path.dirname(os.path.dirname(os.path.abspath(lattice_spectra.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        code = (
            "import sys\n"
            "from lattice_spectra import *\n"
            "pot = Potential({(0, 0, 0): 2.0, (1, 2, 0): 0.5, (0, -1, 2): 0.7})\n"
            "bs_support_eigenvalues(MassPair(1, 2), Quasimomentum(0.3, 0.2, 0.1), pot,"
            " -1.0, MomentumGrid(8))\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_gram_routes_build_no_node_array(self, monkeypatch):
        # no N^3 x 3 node array and no N^3 dispersion samples on the Gram
        # routes, the checks of the three analysis functions included
        def refuse(*args, **kwargs):
            raise AssertionError("N^3 sampling on a Gram route")

        monkeypatch.setattr(MomentumGrid, "nodes", refuse)
        # the package attribute lattice_spectra.dispersion is the function
        # dispersion, so the module is taken from sys.modules
        for module in (sys.modules["lattice_spectra.dispersion"], operators, analysis):
            if hasattr(module, "dispersion_on_grid"):
                monkeypatch.setattr(module, "dispersion_on_grid", refuse)
        pot, grid = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5}), MomentumGrid(8)
        m, k = MassPair(1.0, 2.0), Quasimomentum(0.3, -1.1, 2.0)
        analysis.resonance_analysis(MassPair(1.0, 1.0), pot, grid)
        oracles.continuity_exponent(m, k, pot, grid)
        analysis.critical_coupling(m, pot, grid, refine=True)
        analysis.threshold_count(m, k, pot, grid)
        rep = analysis.verify_cheksiz(MassPair(1.0, 1.0), Quasimomentum(math.pi, 0.4, 0.2),
                                      pot, grid)
        assert rep.axis == 0


@st.composite
def fold_instances(draw):
    """An instance whose axis factors are all or partly even, with a flag
    per axis: equal masses at a random k (all even), or unequal masses with
    one to three k_j = 0 (even) and the others at least 0.05 from 0; offset
    0 or 1/2, odd or even N, a signed potential, and the resolvent kernel
    below the band or the difference kernel."""
    radius = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(max(4, 2 * radius + 1), 9))
    offset = draw(st.sampled_from([0.0, 0.5]))
    m1 = draw(st.floats(0.4, 3.0))
    if draw(st.booleans()):
        m2 = m1
        k = draw(st.tuples(*[st.floats(-math.pi, math.pi)] * 3))
        even = (True, True, True)
    else:
        m2 = draw(st.floats(0.4, 3.0).filter(lambda x: abs(x - m1) > 0.05))
        generic = st.floats(0.05, math.pi).flatmap(lambda x: st.sampled_from([x, -x]))
        k = draw(st.tuples(*[st.one_of(st.just(0.0), generic)] * 3).filter(lambda k: 0.0 in k))
        even = tuple(kj == 0.0 for kj in k)
    span = st.integers(-radius, radius)
    value = st.floats(0.05, 12.0).flatmap(lambda v: st.sampled_from([v, -v]))
    entries = draw(st.dictionaries(st.tuples(span, span, span), value, min_size=1, max_size=5))
    pot = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    m, k, grid = MassPair(m1, m2), Quasimomentum(*k), MomentumGrid(n, offset)
    factors = operators._axis_factors(m, k, grid)
    low = operators._sampled_band(factors)[0]
    z = low - draw(st.floats(0.01, 2.0))
    if draw(st.booleans()):
        kernel = operators._resolvent_kernel(z)
    else:
        kernel = oracles._difference_kernel(low - 0.005, z)
    return factors, even, pot, grid, kernel


def kernel_nodes(factors, pot, grid, kernel):
    """The Gram of ``_support_gram`` and the number of nodes its kernel saw."""
    seen = []

    def counted(e):
        seen.append(e.size)
        kernel(e)

    return operators._support_gram(factors, counted, pot, grid), sum(seen)


def gram_bound(factors, pot, kernel):
    """max |v| times the mean of |K| over the grid: a bound on every entry
    of the Gram, and the scale of the rounding of its sums."""
    e1, e2, e3 = factors
    e = (e1[:, None, None] + e2[None, :, None]) + e3[None, None, :]
    kernel(e)
    return max(abs(v) for v in pot.entries.values()) * float(np.abs(e).mean())


class TestFoldedGram:
    @settings(max_examples=60, deadline=None)
    @given(fold_instances())
    def test_matches_unfolded(self, inst):
        # against the sum over every node, with each even factor replaced
        # by the pair means that the fold uses, so that the two differ by
        # the rounding of the sums alone (the means move E by at most half
        # the PARITY_TOL defect, as on the dense path)
        factors, even, pot, grid, kernel = inst
        folded, nodes = kernel_nodes(factors, pot, grid, kernel)
        mirror = operators._axis_mirror(grid)
        exact = tuple(0.5 * (e + e[mirror]) if ev else e for e, ev in zip(factors, even))
        with mock.patch.object(operators, "_axis_mirror", lambda grid: None):
            unfolded, all_nodes = kernel_nodes(exact, pot, grid, kernel)
        assert all_nodes == grid.dim and nodes < grid.dim
        assert np.abs(folded - unfolded).max() <= 1e-13 * gram_bound(exact, pot, kernel)

    @pytest.mark.parametrize("masses, k, n, offset, expected", [
        ((1.0, 1.0), (0.0, 0.0, 0.0), 64, 0.5, 32**3),
        ((1.0, 1.0), (0.7, -1.9, 2.8), 8, 0.5, 4**3),
        ((1.0, 2.5), (0.0, 0.0, 0.0), 7, 0.5, 4**3),
        ((1.0, 2.5), (0.0, 0.0, 0.0), 8, 0.0, 5**3),
        ((1.0, 2.5), (0.0, -1.9, 0.0), 8, 0.5, 4 * 8 * 4),
        ((1.0, 2.5), (0.7, -1.9, 2.8), 8, 0.5, 8**3),
        ((1.0, 1.0), (0.0, 0.0, 0.0), 8, 0.25, 8**3),
    ])
    def test_nodes_the_kernel_sees(self, masses, k, n, offset, expected):
        pot = Potential({(0, 0, 0): 2.0, (1, 2, 0): 0.5, (0, -1, 2): 0.7})
        m, k, grid = MassPair(*masses), Quasimomentum(*k), MomentumGrid(n, offset)
        z = band_geometry(m, k).e_min - 0.5
        factors = operators._axis_factors(m, k, grid)
        assert kernel_nodes(factors, pot, grid, operators._resolvent_kernel(z))[1] == expected


@st.composite
def fiber_instances(draw):
    """Equal or unequal masses, k = 0 or random, a signed potential of radius
    1 or 2, and a grid with N >= 2R + 1 at offset 0, 1/4 or 1/2."""
    radius = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2 * radius + 1, 9))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]))
    m1 = draw(st.floats(0.4, 3.0))
    m2 = draw(st.one_of(st.just(m1), st.floats(0.4, 3.0)))
    k = draw(st.one_of(
        st.just((0.0, 0.0, 0.0)), st.tuples(*[st.floats(-math.pi, math.pi)] * 3)
    ))
    span = st.integers(-radius, radius)
    entries = draw(
        st.dictionaries(st.tuples(span, span, span), st.floats(-3.0, 3.0),
                        min_size=1, max_size=5)
    )
    pot = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    return MassPair(m1, m2), Quasimomentum(*k), pot, MomentumGrid(n, offset)


class TestFiberEigenvalues:
    @settings(max_examples=60, deadline=None)
    @given(fiber_instances())
    def test_matches_dense_h(self, inst):
        m, k, pot, grid = inst
        ref = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        eigs = fiber_eigenvalues(m, k, pot, grid)
        assert eigs.shape == (grid.dim,)
        assert np.all(np.diff(eigs) >= 0.0)
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.allclose(eigs, ref, rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize("n, offset, fixed", [
        (3, 0.0, 1), (3, 0.5, 1), (5, 0.0, 1), (4, 0.0, 8), (6, 0.0, 8),
        (4, 0.5, 0), (6, 0.5, 0),
    ])
    def test_parity_block_sizes(self, n, offset, fixed):
        grid = MomentumGrid(n, offset)
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5})
        even, odd = (grid.dim + fixed) // 2, (grid.dim - fixed) // 2
        v_even, v_odd = parity_blocks_of_v(pot, grid)
        assert v_even.shape == (even, even) and v_odd.shape == (odd, odd)
        for m, k in [(MassPair(1, 1), Quasimomentum(0.7, -1.9, 2.8)),
                     (MassPair(1, 2.5), K0)]:
            assert block_rows(m, k, pot, grid) == [even, odd]
        # unequal masses at k != 0: the dispersion is not even, one block
        assert block_rows(MassPair(1, 2.5), Quasimomentum(0.7, -1.9, 2.8), pot,
                          grid) == [grid.dim]

    def test_factor_built_once_per_call(self, monkeypatch):
        calls = []
        build = operators._plane_wave_factor

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(operators, "_plane_wave_factor", counted)
        pot, grid = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5}), MomentumGrid(4)
        k = Quasimomentum(0.7, -1.9, 2.8)
        for i, (m, q) in enumerate(
                [(MassPair(1, 2.5), k), (MassPair(1, 1), k), (MassPair(1, 2.5), K0)], 1):
            fiber_eigenvalues(m, q, pot, grid)
            assert len(calls) == i

    def test_threads_share_one_fiber_potential(self):
        pot, grid = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5}), MomentumGrid(4)
        start = threading.Barrier(4)
        results = []

        def solve():
            start.wait(timeout=10)
            results.append([fiber_eigenvalues(m, k, pot, grid) for m, k in [
                (MassPair(1, 1), K0), (MassPair(1, 2.5), Quasimomentum(0.7, -1.9, 2.8))]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solve) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4
        assert all(np.array_equal(a, b) for r in results for a, b in zip(r, results[0]))

    @pytest.mark.parametrize("n, offset", [(3, 0.0), (4, 0.0), (5, 0.25), (6, 0.5)])
    def test_factor_reproduces_v(self, n, offset):
        # V = C diag(w) C^T + S diag(w') S^T, and its parity blocks are those
        # of the circulant V
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): -0.5, (0, 1, 1): 0.75})
        grid = MomentumGrid(n, offset)
        v = build_v(pot, grid).matrix
        f, w, _ = operators._plane_wave_factor(pot, grid)
        assert f.shape == (grid.dim, len(pot.entries))
        assert np.allclose((f * w) @ f.T, v, rtol=0.0, atol=1e-14)
        mirror = operators._parity_map(grid)
        if mirror is None:
            return
        # <e|V|e'> = c c' (V(q, q') + V(q, -q')), c = 1 at the pair
        # representatives and 1/sqrt(2) at the fixed nodes
        nodes, pairs = parity_nodes(grid)
        c = np.where(np.arange(len(nodes)) < len(pairs), 1.0, math.sqrt(0.5))
        even = v[np.ix_(nodes, nodes)] + v[np.ix_(nodes, mirror[nodes])]
        odd = v[np.ix_(pairs, pairs)] - v[np.ix_(pairs, mirror[pairs])]
        v_even, v_odd = parity_blocks_of_v(pot, grid)
        assert np.allclose(v_even, np.outer(c, c) * even, rtol=0.0, atol=1e-14)
        assert np.allclose(v_odd, odd, rtol=0.0, atol=1e-14)

    def test_holds_rank_r_arrays_and_peaks_below_one_dense_v(self):
        pot = Potential({(0, 0, 0): 3.6, (0, 0, 1): 0.86, (0, 1, 0): 0.79})
        grid, r = MomentumGrid(10), 5
        m, k = MassPair(1, 1), Quasimomentum(0.3, 0.3, 0.3)
        tracemalloc.start()
        try:
            fiber_eigenvalues(m, k, pot, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        parts, _ = operators._fiber_parts(m, k, pot, grid)
        arrays = [a for part in parts for a in part]
        assert len(arrays) == 6
        assert all(a.size <= grid.dim * r for a in arrays)
        assert peak < 8 * grid.dim**2

    def test_quarter_offset_is_one_block(self):
        grid = MomentumGrid(5, 0.25)
        assert operators._parity_map(grid) is None
        assert block_rows(MassPair(1, 1), K0, point_potential(2.0), grid) == [125]


def summed(e1, e2, e3):
    """E over the nodes in C order, summed from axis factors as the Gram sums it."""
    return ((e1[:, None, None] + e2[None, :, None]) + e3[None, None, :]).ravel()


class TestOneSampledE:
    """The dense blocks sample E from the axis factors of the Gram and split
    by the Gram's evenness rule."""

    @pytest.mark.parametrize("m, k, grid, n_blocks", [
        (MassPair(1.0, 1.0), Quasimomentum(0.7, -1.9, 2.8), MomentumGrid(6), 2),
        (MassPair(1.0, 2.5), K0, MomentumGrid(5, 0.0), 2),
        (MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8), MomentumGrid(6), 1),
        (MassPair(1.0, 1.0), K0, MomentumGrid(5, 0.25), 1),
    ])
    def test_dense_path_samples_no_node_array(self, monkeypatch, m, k, grid, n_blocks):
        # the factor of V is built from the nodes (here once, ahead); E is
        # never sampled through the N^3 x 3 node array
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5, (0, 1, -1): -0.7})
        factor = operators._plane_wave_factor(pot, grid)
        monkeypatch.setattr(operators, "_plane_wave_factor", lambda *args: factor)

        def refuse(*args, **kwargs):
            raise AssertionError("E sampled through the node array")

        monkeypatch.setattr(MomentumGrid, "nodes", refuse)
        for module in (sys.modules["lattice_spectra.dispersion"], operators):
            monkeypatch.setattr(module, "dispersion_on_grid", refuse)
        eigs = fiber_eigenvalues(m, k, pot, grid)
        assert eigs.shape == (grid.dim,)
        i = int(np.argmax(np.diff(eigs[:8])))  # a level in a clear gap
        level = 0.5 * (eigs[i] + eigs[i + 1])
        assert fiber_count_below_dense(m, k, pot, level, grid) == i + 1
        rows = block_rows(m, k, pot, grid)
        assert sum(rows) == grid.dim
        assert len(rows) == n_blocks

    @settings(max_examples=60, deadline=None)
    @given(fiber_instances())
    # masses equal but for one ulp, and k = 0 but for 1.4e-13: the factors
    # are even within PARITY_TOL, not exactly
    @example((MassPair(0.4000000000000001, 0.4), Quasimomentum(0, 0, 1), Potential({}),
              MomentumGrid(3, 0.0)))
    @example((MassPair(0.5, 1.0), Quasimomentum(0, 0, 1.4344081478157023e-13), Potential({}),
              MomentumGrid(3, 0.0)))
    def test_diagonal_is_the_gram_sum(self, inst):
        # bit for bit: (e1 + e2) + e3 of the axis factors, each replaced by
        # its pair means when the parity blocks are taken, which is when
        # every factor equals its mirror image within PARITY_TOL times
        # max(1, largest sample)
        m, k, pot, grid = inst
        parts, _ = operators._fiber_parts(m, k, pot, grid)
        factors = operators._axis_factors(m, k, grid)
        mirror = operators._axis_mirror(grid)
        tol = operators.PARITY_TOL * max(1.0, float(summed(*factors).max()))
        even = mirror is not None and all(
            np.abs(ej - ej[mirror]).max() <= tol for ej in factors)
        assert len(parts) == (2 if even else 1)
        if not even:
            assert np.array_equal(parts[0][0], summed(*factors))
            return
        e = summed(*(0.5 * (ej + ej[mirror]) for ej in factors))
        even_nodes, odd_nodes = parity_nodes(grid)
        assert np.array_equal(parts[0][0], e[even_nodes])
        assert np.array_equal(parts[1][0], e[odd_nodes])

    @pytest.mark.parametrize("masses, k, n, offset, gram_nodes", [
        ((1.0, 1.0), (0.7, -1.9, 2.8), 8, 0.5, 4**3),
        ((1.0, 2.5), (0.0, 0.0, 0.0), 7, 0.5, 4**3),
        ((1.0, 2.5), (0.0, 0.0, 0.0), 8, 0.0, 5**3),
        ((1.0, 2.5), (0.0, -1.9, 0.0), 8, 0.5, 4 * 8 * 4),
        ((1.0, 2.5), (0.7, -1.9, 2.8), 8, 0.5, 8**3),
        ((1.0, 1.0), (0.0, 0.0, 0.0), 8, 0.25, 8**3),
    ])
    def test_splits_exactly_when_the_gram_folds_every_axis(self, masses, k, n, offset,
                                                          gram_nodes):
        pot = Potential({(0, 0, 0): 2.0, (1, 2, 0): 0.5, (0, -1, 2): 0.7})
        m, k, grid = MassPair(*masses), Quasimomentum(*k), MomentumGrid(n, offset)
        z = band_geometry(m, k).e_min - 0.5
        factors = operators._axis_factors(m, k, grid)
        seen = kernel_nodes(factors, pot, grid, operators._resolvent_kernel(z))[1]
        assert seen == gram_nodes
        mirror = operators._axis_mirror(grid)
        kept = n if mirror is None else int(np.count_nonzero(np.arange(n) <= mirror))
        folds_all = seen == kept**3 < grid.dim
        assert len(block_rows(m, k, pot, grid)) == (2 if folds_all else 1)

    @pytest.mark.parametrize("m, k, rows", [
        (MassPair(1.0, 1.0), Quasimomentum(0.7, 0.7, 0.7), [108, 108]),
        (MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8), [216]),
    ])
    def test_memory_guard_once_per_block(self, monkeypatch, m, k, rows):
        guarded = []
        guard = operators._require_dense_fits

        def counted(n, grid):
            guarded.append(n)
            guard(n, grid)

        pot, grid = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5}), MomentumGrid(6)
        monkeypatch.setattr(operators, "_require_dense_fits", counted)
        fiber_eigenvalues(m, k, pot, grid)
        assert guarded == rows
        guarded.clear()
        operators._fiber_parts(m, k, pot, grid)
        assert guarded == rows


@st.composite
def inertia_instances(draw):
    """Equal or unequal masses, random k, a signed potential of radius 1 or 2
    (values up to 12 in size, so that both band edges bind), and a grid
    with N in 4..8, N >= 2R + 1, at offset 0, 1/4 or 1/2."""
    radius = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(max(4, 2 * radius + 1), 8))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]))
    m1 = draw(st.floats(0.4, 3.0))
    m2 = draw(st.one_of(st.just(m1), st.floats(0.4, 3.0)))
    k = Quasimomentum(*draw(st.tuples(*[st.floats(-math.pi, math.pi)] * 3)))
    span = st.integers(-radius, radius)
    entries = draw(
        st.dictionaries(st.tuples(span, span, span), st.floats(-12.0, 12.0),
                        min_size=1, max_size=5)
    )
    pot = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    return MassPair(m1, m2), k, pot, MomentumGrid(n, offset)


class TestFiberCounts:
    @settings(max_examples=60, deadline=None)
    @given(inertia_instances())
    def test_match_dense_counts(self, inst):
        m, k, pot, grid = inst
        eigs = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        lo, hi = weyl_bracket(m, k, pot)
        scale = max(abs(lo), abs(hi))
        slack = 1e-12 * max(1.0, scale)  # rounding of the dense eigensolver
        assert scale + slack >= float(np.abs(eigs).max())
        assert lo - slack <= eigs[0] and eigs[-1] <= hi + slack
        tol = default_tie_tol(eigs)
        geo = band_geometry(m, k)
        assert fiber_count_below(m, k, pot, geo.e_min - tol, grid) == count_below(
            geo.e_min, eigs, tol)
        assert fiber_count_above(m, k, pot, geo.e_max + tol, grid) == count_above(
            geo.e_max, eigs, tol)

    def test_both_signs_counted(self):
        # a deep well binds below the band and a high barrier above it
        pot = Potential({(0, 0, 0): 20.0, (1, 0, 0): -15.0})
        m, k, grid = MassPair(1.0, 2.0), Quasimomentum(0.3, -1.1, 2.0), MomentumGrid(5)
        eigs = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        geo = band_geometry(m, k)
        below = fiber_count_below(m, k, pot, geo.e_min, grid)
        above = fiber_count_above(m, k, pot, geo.e_max, grid)
        assert below == count_below(geo.e_min, eigs) >= 1
        assert above == count_above(geo.e_max, eigs) >= 1

    def test_empty_potential(self):
        m, grid = MassPair(1.0, 1.0), MomentumGrid(4)
        assert fiber_count_below(m, K0, Potential({}), -1.0, grid) == 0
        assert fiber_count_above(m, K0, Potential({}), 13.0, grid) == 0

    @pytest.mark.parametrize("edge", ["min", "max"])
    def test_level_inside_band_rejected(self, edge):
        pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): -1.0})
        m, k, grid = MassPair(1.0, 2.0), Quasimomentum(0.3, -1.1, 2.0), MomentumGrid(6)
        e = dispersion_on_grid(m, k, grid)
        inside = [e.min() + 1e-9, 0.5 * (e.min() + e.max()), e.max() - 1e-9]
        count = fiber_count_below if edge == "min" else fiber_count_above
        for z in inside:
            with pytest.raises(ZNotBelowBandError):
                count(m, k, pot, z, grid)


@st.composite
def two_sided_instances(draw):
    """Equal or unequal masses, random k, a signed or nonnegative potential
    of radius 1, a grid with N in 3..6 at offset 0, 0.3 or 1/2, and a level
    below or above the sampled band, 1e-6 to 1 of the scale away from it."""
    n = draw(st.integers(3, 6))
    offset = draw(st.sampled_from([0.0, 0.3, 0.5]))
    m1 = draw(st.floats(0.5, 3.0))
    m2 = draw(st.one_of(st.just(m1), st.floats(0.5, 3.0)))
    k = Quasimomentum(*draw(st.tuples(*[st.floats(-math.pi, math.pi)] * 3)))
    low = draw(st.sampled_from([-12.0, 0.0]))
    span = st.integers(-1, 1)
    entries = draw(
        st.dictionaries(st.tuples(span, span, span), st.floats(low, 12.0),
                        min_size=1, max_size=5)
    )
    pot = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    side = draw(st.sampled_from([-1.0, 1.0]))
    gap = 10.0 ** draw(st.floats(-6.0, 0.0))
    return MassPair(m1, m2), k, pot, MomentumGrid(n, offset), side * gap


class TestCountsOnBothSides:
    """``fiber_count_below`` answers z on either side of the sampled band,
    and ``fiber_count_above`` is N^3 minus it."""

    @settings(max_examples=60, deadline=None)
    @given(two_sided_instances())
    def test_match_dense_counts(self, inst):
        m, k, pot, grid, gap = inst
        e1, e2, e3 = (axis_profile(m, kj)(grid.axis_nodes()) for kj in k.components)
        samples = e1[:, None, None] + e2[None, :, None] + e3[None, None, :]
        lo, hi = weyl_bracket(m, k, pot)
        scale = max(1.0, abs(lo), abs(hi))
        z = (float(samples.min()) if gap < 0 else float(samples.max())) + gap * scale
        eigs = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
        assume(float(np.abs(eigs - z).min()) > 1e-8 * scale)
        below = fiber_count_below(m, k, pot, z, grid)
        above = fiber_count_above(m, k, pot, z, grid)
        assert below == int(np.count_nonzero(eigs < z))
        assert above == int(np.count_nonzero(eigs > z))
        assert below + above == grid.dim


class TestGuardsBeforeGridArrays:
    """The memory guards refuse from the grid's axes alone: the dense guard
    before any N^3 array, the Gram's before any array of the grid."""

    POT = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5})

    @pytest.mark.parametrize("m, k, grid", [
        (MassPair(1.0, 1.0), K0, MomentumGrid(16, 0.0)),  # parity blocks, 8 fixed nodes
        (MassPair(1.0, 1.0), K0, MomentumGrid(15)),  # parity blocks, 1 fixed node
        (MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8), MomentumGrid(16)),  # one block
    ])
    def test_dense_guard_before_node_arrays(self, monkeypatch, m, k, grid):
        rows = max(block_rows(m, k, self.POT, grid))
        monkeypatch.setattr(operators, "_physical_memory", lambda: 1.0)

        def refuse(*args, **kwargs):
            raise AssertionError("an N^3 array built before the guard")

        monkeypatch.setattr(operators, "_plane_wave_factor", refuse)
        monkeypatch.setattr(MomentumGrid, "nodes", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(DenseTooLargeError, match=f"a dense {rows} x {rows} matrix"):
                fiber_eigenvalues(m, k, self.POT, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid.dim

    def test_gram_guard_before_axis_arrays(self, monkeypatch):
        m, grid = MassPair(1.0, 1.0), MomentumGrid(64)
        need = 8.0 * (64**2 + max(64**2, operators.GRAM_SLAB_NODES))
        monkeypatch.setattr(operators, "_physical_memory", lambda: need)
        assert fiber_count_below(m, K0, self.POT, -1.0, grid) == 0
        monkeypatch.setattr(operators, "_physical_memory", lambda: 0.5 * need)

        def refuse(*args, **kwargs):
            raise AssertionError("an array of the grid built before the guard")

        monkeypatch.setattr(operators, "_axis_factors", refuse)
        monkeypatch.setattr(operators, "_support_gram", refuse)
        for call in [
            lambda: bs_support_eigenvalues(m, K0, self.POT, -1.0, grid),
            lambda: fiber_count_below(m, K0, self.POT, -1.0, grid),
            lambda: fiber_count_above(m, K0, self.POT, 13.0, grid),
            lambda: analysis.resonance_analysis(m, self.POT, grid),
        ]:
            with pytest.raises(DenseTooLargeError, match="the Gram's planes of E"):
                call()

    def test_gram_guard_at_a_grid_beyond_numpy(self):
        # np.arange(N) alone would raise ValueError here
        grid = MomentumGrid(10**20)
        with pytest.raises(DenseTooLargeError, match="the Gram's planes of E"):
            bs_support_eigenvalues(MassPair(1.0, 1.0), K0, self.POT, -1.0, grid)


class TestCountAtANodeOfE:
    """A level within rounding of a sampled node of E.  Equal masses at k = 0
    on the offset-0 grid have a node at q = 0 with E = 0, and H(k) has four
    eigenvalues below -1e-15: -2.256, -1.629, -0.00916 and -0.00791.  The
    node's term |v| / (N^3 (E - z)) makes G~(z) huge there, and the inertia
    of S - G~ loses the sign of a small eigenvalue (ROADMAP.md, "Certified
    r x r counts at the band edge")."""

    M, GRID = MassPair(1.0, 1.0), MomentumGrid(4, 0.0)
    POT = Potential({
        (1, 1, 1): 3.3417597302726874, (1, 0, 1): 3.2380346562457074,
        (-1, 1, 0): 1.9943965606957594, (-1, 1, 1): 3.313319079764831,
        (0, 1, 1): 5.658847758546568, (0, 1, 0): 4.1289937834584425,
        (0, 0, 1): 5.274963253642701,
    })

    @pytest.mark.xfail(strict=True, reason=(
        "known defect: the r x r inertia count returns 2, not 4, when z lies "
        "within rounding of a node of E; the fix is a bordered count over the "
        "near nodes"))
    def test_inertia_count_within_rounding_of_a_node(self):
        assert fiber_count_below(self.M, K0, self.POT, -1e-15, self.GRID) == 4

    def test_inertia_count_clear_of_the_node(self):
        assert fiber_count_below(self.M, K0, self.POT, -1e-13, self.GRID) == 4

    def test_dense_count_within_rounding_of_a_node(self):
        eigs = np.linalg.eigvalsh(build_h(self.M, K0, self.POT, self.GRID).matrix)
        assert int(np.count_nonzero(eigs < -1e-15)) == 4
        assert fiber_count_below_dense(self.M, K0, self.POT, -1e-15, self.GRID) == 4


class TestNonFiniteZAndLapackFailure:
    POT = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5})
    M, GRID = MassPair(1.0, 1.0), MomentumGrid(4)

    def calls(self, z):
        m, pot, grid = self.M, self.POT, self.GRID
        return [
            lambda: bs_support_eigenvalues(m, K0, pot, z, grid),
            lambda: fiber_count_below(m, K0, pot, z, grid),
            lambda: fiber_count_above(m, K0, pot, z, grid),
            lambda: build_bs(m, K0, pot, z, grid),
        ]

    def test_nan_z_rejected(self):
        # NaN compares false, so each side check is written to fail on it
        for call in self.calls(math.nan):
            with pytest.raises(ZNotBelowBandError):
                call()

    def test_lapack_failure_is_numerical(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        m, pot, grid = self.M, self.POT, self.GRID
        below, above = -1.0, 13.0
        for call in [
            lambda: bs_support_eigenvalues(m, K0, pot, below, grid),
            lambda: oracles.bs_difference_norm(m, K0, pot, below, below - 1.0, grid),
            lambda: fiber_count_below(m, K0, pot, below, grid),
            lambda: fiber_count_above(m, K0, pot, above, grid),
            lambda: build_bs(m, K0, pot, below, grid),
        ]:
            with pytest.raises(NumericalFailure, match="did not converge"):
                call()

    def test_inertia_solve_failure_is_numerical(self, monkeypatch):
        # the second eigvalsh of a count (the inertia of S - G~) is mapped too
        original, seen = np.linalg.eigvalsh, []

        def second_fails(a):
            seen.append(a)
            if len(seen) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", second_fails)
        with pytest.raises(NumericalFailure):
            fiber_count_below(self.M, K0, self.POT, -1.0, self.GRID)


class TestOverflowingKernel:
    """At offset 0 the grid has a node with E = 0, and 1/(E - z) overflows
    for a denormal z below it: the Gram holds NaN, whose eigenvalues no
    PSD floor refuses by comparison."""

    M, POT, GRID = MassPair(1.0, 1.0), Potential({(0, 0, 0): 3.0}), MomentumGrid(4, 0.0)

    def test_count_clear_of_the_overflow(self):
        assert fiber_count_below(self.M, K0, self.POT, -1e-12, self.GRID) == 1

    @pytest.mark.parametrize("call", [fiber_count_below, bs_support_eigenvalues])
    def test_overflow_is_numerical_failure(self, call):
        with np.errstate(all="ignore"), pytest.raises(NumericalFailure, match="non-finite"):
            call(self.M, K0, self.POT, -1e-320, self.GRID)

    def test_non_finite_eigenvalue_refused(self):
        with pytest.raises(NumericalFailure, match="non-finite"):
            operators._require_psd(np.array([np.nan, 1.0]))
        with pytest.raises(NumericalFailure, match="non-finite"):
            operators._require_psd(np.array([0.5, np.inf]))
