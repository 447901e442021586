"""Deflation of degenerate dispersion levels in the dense H(k) solve.

On a level of m nodes with equal dispersion, H(k) = H0(k) - V has m - r
eigenvalues equal to the level (r the rank of the block's share of V), and
``fiber_eigenvalues`` solves only the r rows of the level that V sees.  The
oracle is ``eigvalsh`` of the dense ``build_h``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_spectra import (
    MassPair,
    MomentumGrid,
    Potential,
    Quasimomentum,
    fiber_eigenvalues,
    spectral,
)
from lattice_spectra import operators
from lattice_spectra.errors import DenseTooLargeError
from lattice_spectra.spectral import eig_sym

from oracles import build_h, deflate_per_run

PI = math.pi
EQUAL = MassPair(1.0, 1.0)
# radius 1: 9 sites, so r = 9 (5 cosine and 4 sine columns)
NINE_SITES = Potential({(0, 0, 0): 4.0, (1, 0, 0): 1.2, (0, 1, 1): 0.7,
                        (1, -1, 0): 2.1, (1, 1, 1): 0.9})
# signed, radius 2: 11 sites, so r = 11 (6 cosine and 5 sine columns)
SIGNED = Potential({
    (0, 0, 0): 3.0, (1, 0, 0): -1.5, (0, 1, 0): 0.8, (0, 0, 1): 1.1,
    (1, 1, 0): -0.6, (0, 2, 1): 0.9,
})


def assert_matches_dense(m, k, pot, grid):
    ref = np.linalg.eigvalsh(build_h(m, k, pot, grid).matrix)
    eigs = fiber_eigenvalues(m, k, pot, grid)
    assert eigs.shape == ref.shape
    assert np.all(np.diff(eigs) >= 0.0)
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.abs(eigs - ref).max() <= 1e-12 * scale


def reduced_dims(m, k, pot, grid):
    """Rows of each reduced block and the number of copies split off it."""
    return [(h.shape[0], len(c)) for h, c in operators.fiber_blocks(m, k, pot, grid)]


@pytest.mark.parametrize("offset", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("m, k", [
    (EQUAL, Quasimomentum(0.7, 0.7, 0.7)),      # zone diagonal
    (EQUAL, Quasimomentum(-1.3, -1.3, -1.3)),
    (EQUAL, Quasimomentum(PI, 0.4, -2.2)),      # degenerate direction k1 = pi
    (MassPair(1.0, 2.5), Quasimomentum(PI, PI, 0.9)),
    (EQUAL, Quasimomentum(PI, PI, PI)),         # flat band
    (MassPair(0.7, 2.0), Quasimomentum(0.0, 0.0, 0.0)),
])
@pytest.mark.parametrize("pot", [
    Potential({(0, 0, 0): 4.0, (1, 0, 0): 1.2, (0, 1, 1): 0.7}),
    SIGNED,
])
def test_degenerate_k_matches_dense(offset, m, k, pot):
    grid = MomentumGrid(6, offset)
    assert_matches_dense(m, k, pot, grid)
    dims = reduced_dims(m, k, pot, grid)
    assert sum(d + c for d, c in dims) == grid.dim
    if pot is not SIGNED:
        # rank <= 3 per block, and each of these k has longer levels
        assert sum(c for _, c in dims) > 0


@pytest.mark.parametrize("n", [3, 4, 5, 7, 10])
def test_grid_sizes_up_to_ten(n):
    pot = Potential({(0, 0, 0): 2.5, (1, 0, 0): 0.9})
    grid = MomentumGrid(n)
    for k in (Quasimomentum(0.3, 0.3, 0.3), Quasimomentum(PI, 1.0, -0.5)):
        assert_matches_dense(EQUAL, k, pot, grid)


def test_more_sites_than_level_nodes():
    # 19 sites on N = 5: most levels on the diagonal have fewer nodes than
    # the rank and pass through, the largest ones still deflate
    span = range(-2, 3)
    sites = [(a, b, c) for a in span for b in span for c in span if (a, b, c) > (0, 0, 0)]
    rng = np.random.default_rng(3)
    chosen = [sites[i] for i in rng.choice(len(sites), size=9, replace=False)]
    pot = Potential({(0, 0, 0): 1.7, **{s: float(rng.uniform(-4, 4)) for s in chosen}})
    grid = MomentumGrid(5, 0.0)
    for m, k in [(EQUAL, Quasimomentum(0.9, 0.9, 0.9)), (EQUAL, Quasimomentum(PI, PI, PI)),
                 (MassPair(0.6, 1.9), Quasimomentum(0, 0, 0))]:
        assert_matches_dense(m, k, pot, grid)


@st.composite
def degenerate_instances(draw):
    """Equal or unequal masses at k = 0, on the diagonal, or with one or more
    components at pi; signed potentials of radius 1 or 2; N up to 8."""
    radius = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(max(3, 2 * radius + 1), 8))
    offset = draw(st.sampled_from([0.0, 0.25, 0.5]))
    m1 = draw(st.floats(0.4, 3.0))
    m = MassPair(m1, draw(st.one_of(st.just(m1), st.floats(0.4, 3.0))))
    t = draw(st.floats(-PI, PI))
    k = draw(st.sampled_from([
        (0.0, 0.0, 0.0), (t, t, t), (PI, t, -t), (PI, PI, t), (PI, PI, PI),
    ]))
    span = st.integers(-radius, radius)
    entries = draw(st.dictionaries(st.tuples(span, span, span), st.floats(-6.0, 6.0),
                                   min_size=1, max_size=8))
    pot = Potential({max(s, (-s[0], -s[1], -s[2])): v for s, v in entries.items()})
    return m, Quasimomentum(*k), pot, MomentumGrid(n, offset)


@settings(max_examples=40, deadline=None)
@given(degenerate_instances())
def test_degenerate_property(inst):
    assert_matches_dense(*inst)


@pytest.mark.parametrize("m, k, pot, grid", [
    # unequal masses at a generic k: one full block, distinct levels
    (MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8), SIGNED, MomentumGrid(5)),
    # parity blocks whose levels (pairs of nodes) are shorter than the rank
    (EQUAL, Quasimomentum(0.3, -1.1, 2.0), SIGNED, MomentumGrid(6)),
])
def test_no_long_run_is_bit_identical(m, k, pot, grid):
    deflated = list(operators.fiber_blocks(m, k, pot, grid))
    plain = [operators._block(*part) for part in operators._fiber_parts(m, k, pot, grid)[0]]
    assert len(deflated) == len(plain)
    for (h, copies), ref in zip(deflated, plain):
        assert copies.size == 0 and np.array_equal(h, ref)
    expected = np.sort(np.concatenate([eig_sym(h) for h in plain]))
    assert np.array_equal(fiber_eigenvalues(m, k, pot, grid), expected)


def test_one_eig_sym_per_block_even_when_empty(monkeypatch):
    # flat band with only an origin site: the odd block has rank 0 and
    # deflates to nothing, the even one to 1 x 1
    sizes = []
    solve = spectral._eigvalsh

    def counted(a):
        sizes.append(np.shape(a)[0])
        return solve(a)

    monkeypatch.setattr(spectral, "_eigvalsh", counted)
    grid = MomentumGrid(4)
    eigs = fiber_eigenvalues(EQUAL, Quasimomentum(PI, PI, PI),
                             Potential({(0, 0, 0): 2.0}), grid)
    assert sizes == [1, 0]
    assert eigs.shape == (64,)
    assert np.allclose(eigs, np.r_[4.0, np.full(63, 6.0)], rtol=0, atol=1e-13)


def test_memory_guard_on_undeflated_rows(monkeypatch):
    # the reduced blocks fit in 1 MB, the 500-row parity blocks (2 MB) do not
    pot, grid = Potential({(0, 0, 0): 4.0, (1, 0, 0): 1.2}), MomentumGrid(10)
    k = Quasimomentum(0.5, 0.5, 0.5)
    assert max(d for d, _ in reduced_dims(EQUAL, k, pot, grid)) ** 2 * 8 < 1e6
    monkeypatch.setattr(operators, "_physical_memory", lambda: 1e6)
    with pytest.raises(DenseTooLargeError):
        fiber_eigenvalues(EQUAL, k, pot, grid)


@pytest.mark.parametrize("blocks, refused", [(1.5, True), (2.0, False)])
def test_memory_guard_counts_the_solvers_copy(monkeypatch, blocks, refused):
    # a solve holds the block and the eigensolver's copy of it: one 64-row
    # block here, unequal masses at a generic k, needs two blocks of memory
    m, k, grid = MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8), MomentumGrid(4)
    pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 0.5})
    assert [len(diag) for diag, _, _ in operators._fiber_parts(m, k, pot, grid)[0]] == [64]
    monkeypatch.setattr(operators, "_physical_memory", lambda: blocks * 8.0 * 64**2)
    if refused:
        with pytest.raises(DenseTooLargeError):
            fiber_eigenvalues(m, k, pot, grid)
        with pytest.raises(DenseTooLargeError):
            spectral.fiber_count_below_dense(m, k, pot, 0.0, grid)
    else:
        assert fiber_eigenvalues(m, k, pot, grid).shape == (64,)


@pytest.mark.parametrize("blocks, refused", [(0.5, True), (1.5, False)])
def test_memory_guard_builds_h0_at_one_block(monkeypatch, blocks, refused):
    # build_h0 holds its one matrix and hands it to no eigensolver
    m, k, grid = MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8), MomentumGrid(4)
    monkeypatch.setattr(operators, "_physical_memory", lambda: blocks * 8.0 * 64**2)
    if refused:
        with pytest.raises(DenseTooLargeError):
            operators.build_h0(m, k, grid)
    else:
        assert operators.build_h0(m, k, grid).matrix.shape == (64, 64)


def test_spectrum_dense_path_block_sizes():
    # nine sites (five cosine, four sine columns), N = 10 on the zone
    # diagonal: the 500-row parity blocks shrink to at most rank rows per level
    dims = reduced_dims(EQUAL, Quasimomentum(0.6, 0.6, 0.6), NINE_SITES, MomentumGrid(10))
    assert dims == [(121, 379), (100, 400)]
    k = Quasimomentum(0.6, 0.6, 0.6)
    assert operators.fiber_solve_rows(EQUAL, k, NINE_SITES, MomentumGrid(10)) == 121


@settings(max_examples=40, deadline=None)
@given(degenerate_instances())
def test_solve_rows_are_the_deflated_rows(inst):
    # counted from the diagonal alone, before any block is built
    assert operators.fiber_solve_rows(*inst) == max(d for d, _ in reduced_dims(*inst))


@pytest.mark.parametrize("m, k, grid, rows", [
    (MassPair(1.0, 2.5), Quasimomentum(0.7, -1.9, 2.8), MomentumGrid(5), 125),  # one block
    (EQUAL, Quasimomentum(0.3, -1.1, 2.0), MomentumGrid(6), 108),  # parity blocks, no run
    (EQUAL, Quasimomentum(PI, PI, PI), MomentumGrid(6), 6),  # flat band: one level
])
def test_solve_rows_of_a_block(m, k, grid, rows):
    assert operators.fiber_solve_rows(m, k, SIGNED, grid) == rows
    assert rows == max(d for d, _ in reduced_dims(m, k, SIGNED, grid))


@pytest.mark.parametrize("pot", [NINE_SITES, SIGNED, Potential({(0, 0, 0): 2.0})])
@pytest.mark.parametrize("m, k, offset", [
    (EQUAL, Quasimomentum(0.6, 0.6, 0.6), 0.0),       # zone diagonal
    (EQUAL, Quasimomentum(-1.3, -1.3, -1.3), 0.5),
    (EQUAL, Quasimomentum(PI, 1.1, 0.5), 0.0),        # degenerate direction k1 = pi
    (MassPair(0.7, 2.0), Quasimomentum(0.0, 0.0, 0.0), 0.5),
])
def test_stacked_qr_is_the_per_run_qr(pot, m, k, offset):
    # runs of several lengths, each length shared by many runs: one QR
    # call per length gives the R, and so the blocks, of one call per run
    parts, tol = operators._fiber_parts(m, k, pot, MomentumGrid(10, offset))
    lengths = []
    for diag, f, _ in parts:
        stacked, per_run = operators._deflate(diag, f, tol), deflate_per_run(diag, f, tol)
        assert all(np.array_equal(a, b) for a, b in zip(stacked, per_run))
        lengths += [b - a for a, b in operators._long_runs(np.sort(diag), tol, f.shape[1])]
    assert len(set(lengths)) > 1 and len(lengths) > len(set(lengths))


class TestRuns:
    TOL = 1e-10

    def chained(self, m, levels=12, base=3.0):
        """m nodes on each of `levels` levels spaced tol/2 apart, shuffled."""
        values = np.repeat(base + 0.5 * self.TOL * np.arange(levels), m)
        return np.random.default_rng(0).permutation(values)

    @pytest.mark.parametrize("rank", [0, 1, 2, 5])
    def test_runs_never_chain_past_tol(self, rank):
        s = np.sort(self.chained(3))
        runs = list(operators._long_runs(s, self.TOL, rank))
        assert runs, "a chain of 36 samples has runs longer than rank <= 5"
        for a, b in runs:
            assert b - a > rank
            assert s[b - 1] - s[a] <= self.TOL
            if b < len(s):
                assert s[b] - s[a] > self.TOL  # maximal
        assert all(b0 <= a1 for (_, b0), (a1, _) in zip(runs, runs[1:]))
        assert s[-1] - s[0] > 5 * self.TOL  # the chain itself spans far more

    def test_deflated_chain_matches_dense(self):
        # chained levels with a rank-2 factor: Weyl bounds the error by tol
        diag = self.chained(4)
        rng = np.random.default_rng(1)
        f, w = rng.standard_normal((len(diag), 2)), np.array([1.3, -0.4])
        dense = np.diag(diag) - (f * w) @ f.T
        red_diag, red_f, copies = operators._deflate(diag, f, self.TOL)
        reduced = np.diag(red_diag) - (red_f * w) @ red_f.T
        assert len(red_diag) + len(copies) == len(diag) and copies.size > 0
        assert len(red_diag) < len(diag)
        eigs = np.sort(np.concatenate([np.linalg.eigvalsh(reduced), copies]))
        assert np.abs(eigs - np.linalg.eigvalsh(dense)).max() <= 2 * self.TOL

    def test_untouched_rows_keep_their_order(self):
        # one level of 4 nodes (rank 2) among distinct values
        diag = np.array([5.0, 1.0, 7.0, 1.0, 2.0, 1.0, 9.0, 1.0])
        f = np.arange(16.0).reshape(8, 2)
        red_diag, red_f, copies = operators._deflate(diag, f, 1e-12)
        kept = [0, 2, 4, 6]
        assert np.array_equal(red_diag[:4], diag[kept])
        assert np.array_equal(red_f[:4], f[kept])
        assert np.array_equal(red_diag[4:], [1.0, 1.0]) and np.array_equal(copies, [1.0, 1.0])
        # R carries the Gram matrix of the level's rows
        rows = f[[1, 3, 5, 7]]
        assert np.allclose(red_f[4:].T @ red_f[4:], rows.T @ rows, rtol=1e-14)
