"""Acceptance gate: one test per headline guarantee of the library.

Each test prints a single PASS/FAIL line (visible with pytest -s or in
the captured output of failing tests) and then asserts, so the suite
doubles as a human-readable report.
"""

import math

import numpy as np
import pytest

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
    eig_sym,
    verify_cheksiz,
    verify_counting_theorem,
    verify_existence,
    verify_neraven,
)
from lattice_spectra.sampling import (
    random_low_rank_symmetric,
    random_masses,
    random_potential,
    random_quasimomentum,
    random_symmetric,
)

from conftest import (
    k_pi,
    point_potential,
    scanned_band_edges,
    watson_closed_form,
    watson_integral,
)
from oracles import build_h, build_v, continuity_exponent

M11 = MassPair(1.0, 1.0)


def report(label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {label}: {status}{suffix}")
    return ok


def test_01_scalar_case_exactness():
    pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): -1.0})
    grid = MomentumGrid(5)
    eigs = eig_sym(build_h(M11, k_pi(), pot, grid))
    expected = np.sort(6.0 - np.array([2.0, -1.0, -1.0] + [0.0] * (5**3 - 3)))
    spectrum_ok = bool(np.allclose(np.sort(eigs), expected, atol=1e-9))
    # n_-(6, H) = n_+(0, V) and n_+(6, H) = n_-(0, V), each side a count of
    # a dense spectrum, and the library's counts below and outside the band
    eigs_v = eig_sym(build_v(pot, grid))
    tol = default_tie_tol(eigs)
    ints = (count_below(6.0, eigs, tol), count_above(0.0, eigs_v, tol),
            count_above(6.0, eigs, tol), count_below(0.0, eigs_v, tol))
    rep = verify_neraven(M11, k_pi(), pot, grid)
    ints_ok = ints == (1, 1, 2, 2) and (rep.lhs, rep.corollary_lhs) == (1, 3) and rep.all_ok
    ok = report("1 scalar-case exact spectrum and integer equalities",
                spectrum_ok and ints_ok)
    assert ok


def test_02_band_geometry_closed_form():
    rng = np.random.default_rng(20)
    worst = 0.0
    exact_ok = True
    for _ in range(100):
        m = random_masses(rng)
        k = random_quasimomentum(rng)
        geo = band_geometry(m, k)
        e_min, e_max = scanned_band_edges(m, k)
        worst = max(worst, abs(geo.e_min - e_min), abs(geo.e_max - e_max))
        exact_ok = exact_ok and geo.w_b == sum(geo.w_jb)
    ok = report("2 band edges vs per-axis scan oracle, 100 draws",
                worst <= 1e-9 and exact_ok, f"max edge error {worst:.2e}")
    assert ok


def test_03_birman_schwinger_identity():
    rng = np.random.default_rng(30)
    sizes = (4, 6, 8)
    hits = 0
    for t in range(50):
        m = random_masses(rng)
        k = random_quasimomentum(rng)
        pot = random_potential(rng, radius=1, nonnegative=True)
        grid = MomentumGrid(sizes[t % 3])
        z = band_geometry(m, k).e_min - 1.0
        hits += bs_check(m, k, pot, z, grid).equal
    ok = report("3 Birman-Schwinger counting identity", hits == 50, f"{hits}/50")
    assert ok


def test_04_abstract_counting_theorem():
    rng = np.random.default_rng(40)
    hits = 0
    for _ in range(200):
        dim = int(rng.integers(2, 51))
        a = random_symmetric(rng, dim)
        v = random_low_rank_symmetric(rng, dim, int(rng.integers(1, min(10, dim) + 1)))
        hits += verify_counting_theorem(a, v).all_hold
    ok = report("4 spectral-width counting inequality, mirrored and |V| forms",
                hits == 200, f"{hits}/200")
    assert ok


def test_05_critical_coupling_vs_quadrature_oracle():
    w3 = watson_integral()
    # frozen sanity pin for the oracle itself
    assert w3 == pytest.approx(0.5054620197, abs=1e-9)
    target = 2.0 / w3
    errs = []
    for n in (8, 12):
        lam = critical_coupling(M11, point_potential(1.0), MomentumGrid(n),
                                refine=True).richardson
        errs.append(abs(lam - target) / target)
    ok = report("5 refined critical coupling vs lattice-resolvent quadrature",
                max(errs) <= 1e-3, f"rel errors {errs[0]:.2e}, {errs[1]:.2e}")
    assert ok


def test_watson_quadrature_matches_the_closed_form():
    # the quadrature reads 5.9e-11 relative above the closed form
    assert watson_closed_form() == pytest.approx(0.5054620197173261, rel=1e-15, abs=0)
    assert watson_integral() == pytest.approx(watson_closed_form(), rel=1e-10, abs=0)


EMERGENCE_KS = [
    Quasimomentum(math.pi / 2, 0, 0),
    Quasimomentum(math.pi / 2, math.pi / 2, 0),
    Quasimomentum(math.pi / 2, math.pi / 2, math.pi / 2),
]


def test_06a_eigenvalue_emergence_at_critical_coupling():
    grid = MomentumGrid(10)
    lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
    rep = verify_existence(M11, point_potential(lam_star), EMERGENCE_KS, grid)
    detail = "counts " + ",".join(str(r.count) for r in rep.per_k)
    ok = report("6a below-band eigenvalue at each k at critical coupling",
                rep.required == 1 and rep.all_ok, detail)
    assert ok


def _critical_coupling_at(k: Quasimomentum, grid: MomentumGrid) -> float:
    """Binding threshold lambda*(k) of the unit point potential at fiber k.

    The reciprocal of the top eigenvalue of G(k, e_min(k)); at k = 0 this is
    what critical_coupling returns.
    """
    e_min = band_geometry(M11, k).e_min
    return 1.0 / float(
        bs_support_eigenvalues(M11, k, point_potential(1.0), e_min, grid)[-1]
    )


def test_06b_subcritical_control_count_zero():
    # A 10% subcritical control on the k of 06a: below lambda*(k) the
    # below-band spectrum of H(k) is empty, above it one eigenvalue binds.
    # The threshold is taken per k because it is not the k = 0 one: for
    # equal masses E_k(q) - e_min(k) <= E_0(q), so G(k, e_min(k)) >= G(0, 0)
    # and lambda*(k) < lambda*(0) away from k = 0 (06c); 0.9 * lambda*(0)
    # still binds at all three k.  The count is taken from the dense H(k),
    # since a Birman-Schwinger count at 0.9 * lambda*(k) only restates that
    # G is linear in the coupling.
    grid = MomentumGrid(10)
    counts = {0.9: [], 1.1: []}
    for k in EMERGENCE_KS:
        e_min = band_geometry(M11, k).e_min
        lam_k = _critical_coupling_at(k, grid)
        for factor, found in counts.items():
            eigs = eig_sym(build_h(M11, k, point_potential(factor * lam_k), grid))
            found.append(count_below(e_min, eigs, default_tie_tol(eigs)))
    ok = report("6b subcritical control has empty below-band spectrum",
                counts[0.9] == [0, 0, 0] and counts[1.1] == [1, 1, 1],
                f"counts {counts[0.9]} at 0.9 lambda*(k), "
                f"{counts[1.1]} at 1.1 lambda*(k)")
    assert ok


def test_06c_binding_threshold_falls_away_from_k_zero():
    # Why 06b takes lambda*(k) per k: 0.9 * lambda*(0) binds at its k.  For
    # equal masses E_k(q) - e_min(k) = 2 sum_j cos(k_j / 2) (1 - cos q_j),
    # which at k = (pi/2, pi/2, pi/2) is E_0(q) / sqrt(2) node by node, so
    # G(k, e_min(k)) = sqrt(2) G(0, 0) and lambda*(k) = lambda*(0) / sqrt(2)
    # exactly on the same grid.
    grid = MomentumGrid(10)
    lam0 = critical_coupling(M11, point_potential(1.0), grid).lambda_star
    ratios = [_critical_coupling_at(k, grid) / lam0 for k in EMERGENCE_KS]
    sqrt2_ok = ratios[-1] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12, abs=0)
    ok = report("6c binding threshold lambda*(k) < lambda*(0), sqrt(2) on the diagonal",
                all(r < 1.0 for r in ratios) and sqrt2_ok,
                "ratios " + ", ".join(f"{r:.4f}" for r in ratios))
    assert ok


def test_07_positivity_transfer():
    rng = np.random.default_rng(70)
    grid = MomentumGrid(6)
    lam_star = critical_coupling(M11, point_potential(1.0), grid).lambda_star
    pot = point_potential(lam_star)
    eigs0 = eig_sym(build_h(M11, Quasimomentum(0, 0, 0), pot, grid))
    pos_tol = 1e-8 * float(np.abs(eigs0).max())
    assert eigs0[0] >= -pos_tol  # premise: H(0) is positive
    mins = [
        float(eig_sym(build_h(M11, random_quasimomentum(rng), pot, grid))[0])
        for _ in range(20)
    ]
    ok = report("7 positivity at k = 0 transfers to 20 random k",
                all(lo >= -pos_tol for lo in mins), f"min {min(mins):.2e}")
    assert ok


def test_08_degenerate_direction_counting():
    pot = Potential({(0, 0, 0): 4.0, (1, 0, 0): 4.0})
    rep = verify_cheksiz(M11, Quasimomentum(math.pi, 0, 0), pot, MomentumGrid(10))
    ok = report(
        "8 collapsed-direction lower bound of 3 with non-decreasing counts",
        rep.target == 3 and rep.final_count >= 3 and rep.monotone,
        f"counts {list(rep.counts)}",
    )
    assert ok


def test_09_threshold_continuity_exponent():
    pot = Potential({(0, 0, 0): 2.0, (1, 0, 0): 1.0})
    rep = continuity_exponent(
        M11, Quasimomentum(1.1, 0.6, -0.8), pot, MomentumGrid(12)
    )
    ok = report("9 threshold-resolvent continuity exponent >= 0.45",
                rep.exponent >= 0.45, f"exponent {rep.exponent:.3f}")
    assert ok
