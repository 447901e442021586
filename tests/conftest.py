"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from lattice_spectra import MassPair, MomentumGrid, Potential, Quasimomentum


@pytest.fixture
def equal_masses():
    return MassPair(1.0, 1.0)


@pytest.fixture
def grid8():
    return MomentumGrid(8)


def point_potential(lam: float) -> Potential:
    return Potential({(0, 0, 0): lam})


def k_pi() -> Quasimomentum:
    return Quasimomentum(math.pi, math.pi, math.pi)


def axis_profile(m: MassPair, kj: float):
    """Per-axis dispersion contribution t -> (1-cos(kj/2+t))/m1 + (1-cos(kj/2-t))/m2."""

    def f(t):
        return (1.0 - np.cos(0.5 * kj + t)) / m.m1 + (1.0 - np.cos(0.5 * kj - t)) / m.m2

    return f


def _refined_extremum(f, sign: float, n_scan: int) -> float:
    """Scan n_scan points on [-pi, pi), then Brent-refine around the best one."""
    ts = np.linspace(-np.pi, np.pi, n_scan, endpoint=False)
    vals = sign * f(ts)
    i = int(np.argmin(vals))
    h = 2.0 * np.pi / n_scan
    res = minimize_scalar(
        lambda t: sign * f(t), bounds=(ts[i] - h, ts[i] + h), method="bounded",
        options={"xatol": 1e-12},
    )
    return float(sign * res.fun)


def scanned_band_edges(m: MassPair, k: Quasimomentum, n_scan: int = 10_000):
    """Band edges by brute-force per-axis 1D scans, independent of the closed form.

    The dispersion is a sum of per-axis profiles, so the global extrema are
    sums of per-axis extrema; each 1D extremum comes from a dense scan with
    local refinement.
    """
    e_min = 0.0
    e_max = 0.0
    for kj in k.components:
        f = axis_profile(m, kj)
        e_min += _refined_extremum(f, +1.0, n_scan)
        e_max += _refined_extremum(f, -1.0, n_scan)
    return e_min, e_max


def watson_closed_form() -> float:
    """The simple-cubic Watson integral in the Glasser-Zucker closed form
    (Glasser & Zucker 1977, PNAS 74, 1800):
    W_3 = sqrt(6) / (96 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)."""
    gammas = math.prod(math.gamma(a / 24.0) for a in (1, 5, 7, 11))
    return math.sqrt(6.0) / (96.0 * math.pi**3) * gammas


def watson_integral(n_quad_cap: float = np.inf) -> float:
    """Independent quadrature oracle for the simple-cubic Watson integral.

    Uses the exponential representation of the lattice resolvent at the
    band bottom: the triple torus integral collapses to a 1D integral of
    the cubed scaled Bessel function exp(-t) I0(t).
    """
    from scipy.integrate import quad
    from scipy.special import ive

    head, _ = quad(lambda t: ive(0, t) ** 3, 0.0, 200.0, limit=400)
    tail, _ = quad(lambda t: ive(0, t) ** 3, 200.0, np.inf, limit=400)
    return head + tail
