#!/usr/bin/env python3
"""Grid-size convergence study of the critical coupling.

For the point interaction with equal masses the exact infinite-volume
value is known in closed form up to a classical lattice integral, so this
sweep shows how fast the raw finite-grid value and its Richardson
refinement approach it.

Usage: python3 scripts/critical_coupling_convergence.py [--sizes 4,6,8,12,16]
"""

import argparse
import math

from lattice_spectra import MassPair, MomentumGrid, Potential, critical_coupling

# the lattice resolvent integral at the band bottom in the Glasser-Zucker
# closed form, sqrt(6) / (96 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24)
# Gamma(11/24) (Glasser & Zucker 1977; tests/conftest.py::watson_integral
# is an independent quadrature of it)
W3 = (math.sqrt(6.0) / (96.0 * math.pi**3)
      * math.prod(math.gamma(a / 24.0) for a in (1, 5, 7, 11)))
TARGET = 2.0 / W3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="4,6,8,12,16")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    pot = Potential({(0, 0, 0): 1.0})
    m = MassPair(1.0, 1.0)
    print(f"target lambda* = {TARGET:.12f}  (point interaction, equal masses)")
    print(f"{'N':>4} {'raw':>16} {'rel err':>10} {'refined':>16} {'rel err':>10}")
    for n in sizes:
        res = critical_coupling(m, pot, MomentumGrid(n), refine=True)
        raw_err = abs(res.lambda_star - TARGET) / TARGET
        ref_err = abs(res.richardson - TARGET) / TARGET
        print(
            f"{n:>4} {res.lambda_star:>16.10f} {raw_err:>10.2e} "
            f"{res.richardson:>16.10f} {ref_err:>10.2e}"
        )


if __name__ == "__main__":
    main()
