"""Seeded random instance generators for the randomized verification suites.

Kept in the library (not the tests) so the CLI verify suites and the test
suite draw from the same distributions and reproduce byte-identically for
a fixed seed.
"""

from __future__ import annotations

import numpy as np

from .model import MassPair, MomentumGrid, Potential, Quasimomentum


def random_masses(rng: np.random.Generator) -> MassPair:
    return MassPair(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0)))


def random_quasimomentum(rng: np.random.Generator) -> Quasimomentum:
    k = rng.uniform(-np.pi, np.pi, size=3)
    return Quasimomentum(float(k[0]), float(k[1]), float(k[2]))


def random_potential(
    rng: np.random.Generator,
    radius: int = 1,
    nonnegative: bool = True,
) -> Potential:
    """Random even potential on the sup-norm ball of given radius, v in [0, 2) or [-1, 1)."""
    entries = {}
    span = range(-radius, radius + 1)
    for s1 in span:
        for s2 in span:
            for s3 in span:
                s = (s1, s2, s3)
                if s > (-s1, -s2, -s3):
                    continue  # one representative per +-pair
                if rng.random() < 0.5:
                    continue
                v = float(rng.uniform(0.0, 2.0))
                if not nonnegative:
                    v -= 1.0
                entries[s] = v  # Potential fills in -s
    if not entries:
        entries[(0, 0, 0)] = float(rng.uniform(0.1, 2.0))
    return Potential(entries)


def random_symmetric(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.standard_normal((dim, dim))
    return 0.5 * (a + a.T)


def random_low_rank_symmetric(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    b = rng.standard_normal((dim, rank))
    signs = rng.choice([-1.0, 1.0], size=rank)
    return (b * signs[None, :]) @ b.T
