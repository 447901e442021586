"""Spectral analysis of two-particle discrete Schroedinger operators on Z^3.

Fiber operators H(k) = H0(k) - V are realized exactly on finite momentum
grids; band geometry is evaluated in closed form; eigenvalues outside the
band are counted both directly and through the Birman-Schwinger operator;
zero-energy thresholds are classified as resonances or zero eigenvalues.
"""

# first, before any module that imports numpy: sets the BLAS thread policy
from . import parallel  # noqa: F401  # isort: skip
from .analysis import (
    BSCheck,
    CheksizReport,
    CriticalCoupling,
    ExistenceReport,
    NeravenReport,
    PositivityReport,
    ThresholdCount,
    ThresholdReport,
    ZSchedule,
    bs_check,
    count_below_band,
    critical_coupling,
    positivity_check,
    resonance_analysis,
    threshold_count,
    verify_cheksiz,
    verify_existence,
    verify_neraven,
)
from .dispersion import (
    BandGeometry,
    band_geometry,
    degenerate_directions,
    dispersion,
    dispersion_on_grid,
    eps,
)
from .model import (
    MassPair,
    MomentumGrid,
    Potential,
    Quasimomentum,
    RelativeMomentum,
    load_potential,
)
from .operators import (
    GridOperator,
    bs_support_eigenvalues,
    build_h0,
    fiber_count_above,
    fiber_count_below,
    potential_spectrum,
    weyl_bracket,
)
from .spectral import (
    CountingCheck,
    count_above,
    count_below,
    default_tie_tol,
    eig_sym,
    fiber_eigenvalues,
    verify_counting_theorem,
)

__version__ = "0.1.0"
