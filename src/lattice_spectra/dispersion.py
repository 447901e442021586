"""Closed-form dispersion and band geometry of the free fiber operator.

The dispersion splits per axis as center - sum_j r_j cos(q_j - phase_j),
so band edges and widths come in closed form; no grid scans anywhere.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .model import MassPair, MomentumGrid, Quasimomentum, RelativeMomentum, TorusVector


def eps(q: TorusVector) -> float:
    """Single-particle lattice kinetic symbol: sum_j (1 - cos q_j)."""
    return float(np.sum(1.0 - np.cos(q.as_array())))


def dispersion(m: MassPair, k: Quasimomentum, q: RelativeMomentum) -> float:
    """Two-particle dispersion eps(k/2 + q)/m1 + eps(k/2 - q)/m2."""
    ka = k.as_array()
    qa = q.as_array()
    return float(
        np.sum(1.0 - np.cos(0.5 * ka + qa)) / m.m1
        + np.sum(1.0 - np.cos(0.5 * ka - qa)) / m.m2
    )


def dispersion_on_grid(m: MassPair, k: Quasimomentum, grid: MomentumGrid) -> np.ndarray:
    """Dispersion sampled at all grid nodes, shape (N^3,), C index order."""
    ka = k.as_array()
    q = grid.nodes()
    return (
        np.sum(1.0 - np.cos(0.5 * ka[None, :] + q), axis=1) / m.m1
        + np.sum(1.0 - np.cos(0.5 * ka[None, :] - q), axis=1) / m.m2
    )


class BandGeometry(namedtuple("BandGeometry", "center a b r phase e_min e_max w_b w_jb")):
    """Per-axis cosine representation of the dispersion and its band:
    E(q) = center - sum_j r_j cos(q_j - phase_j) = center - sum_j (a_j cos
    q_j + b_j sin q_j), with band [e_min, e_max] of width w_b = sum_j w_jb."""

    __slots__ = ()

    def evaluate(self, q: TorusVector) -> float:
        """Dispersion via the separable form (cross-check of the two closed forms)."""
        qa = q.as_array()
        return self.center - float(
            np.sum(np.array(self.r) * np.cos(qa - np.array(self.phase)))
        )


def band_geometry(m: MassPair, k: Quasimomentum) -> BandGeometry:
    """Closed-form band edges and directional widths for given masses and k."""
    a = []
    b = []
    r = []
    phase = []
    for kj in k.components:
        aj = m.inv_sum * math.cos(0.5 * kj)
        bj = -m.inv_diff * math.sin(0.5 * kj)
        rj = math.hypot(aj, bj)
        a.append(aj)
        b.append(bj)
        r.append(rj)
        phase.append(math.atan2(bj, aj) if rj > 0.0 else 0.0)
    center = 3.0 * m.inv_sum
    rsum = sum(r)
    w_jb = tuple(2.0 * rj for rj in r)
    return BandGeometry(
        center=center,
        a=tuple(a),
        b=tuple(b),
        r=tuple(r),
        phase=tuple(phase),
        e_min=center - rsum,
        e_max=center + rsum,
        w_b=sum(w_jb),
        w_jb=w_jb,  # w_b == sum(w_jb) by construction
    )


def degenerate_directions(m: MassPair, k: Quasimomentum) -> set[int]:
    """Axes j (0-based) along which the directional band width is <= 1e-12."""
    geo = band_geometry(m, k)
    return {j for j in range(3) if geo.w_jb[j] <= 1e-12}
