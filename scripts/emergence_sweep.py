#!/usr/bin/env python3
"""Below-band eigenvalue along a quasi-momentum path at critical coupling.

Tunes a point interaction exactly onto the zero-energy resonance at k = 0,
then walks k from the origin to the corner of the Brillouin zone and
prints the gap between the band bottom and the deepest eigenvalue.  The
gap vanishes at k = 0 (the bound state is absorbed into the threshold)
and grows monotonically along the diagonal.

Usage: python3 scripts/emergence_sweep.py [--grid 10] [--points 9]
"""

import argparse
import math

# lattice_spectra before numpy, so that its BLAS thread policy applies
from lattice_spectra import (  # isort: skip
    MassPair,
    MomentumGrid,
    Potential,
    Quasimomentum,
    band_geometry,
    critical_coupling,
    fiber_eigenvalues,
)

import numpy as np  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=10)
    parser.add_argument("--points", type=int, default=9)
    args = parser.parse_args()

    m = MassPair(1.0, 1.0)
    grid = MomentumGrid(args.grid)
    lam = critical_coupling(m, Potential({(0, 0, 0): 1.0}), grid).lambda_star
    pot = Potential({(0, 0, 0): lam})
    print(f"critical coupling on N={args.grid}: lambda* = {lam:.10f}")
    print(f"{'t/pi':>8} {'e_min':>12} {'lowest eig':>14} {'binding gap':>14}")
    for t in np.linspace(0.0, math.pi, args.points):
        k = Quasimomentum(t, t, t)
        e_min = band_geometry(m, k).e_min
        lowest = float(fiber_eigenvalues(m, k, pot, grid)[0])
        print(f"{t / math.pi:>8.3f} {e_min:>12.6f} {lowest:>14.8f} {e_min - lowest:>14.3e}")


if __name__ == "__main__":
    main()
