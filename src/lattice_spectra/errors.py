"""Exception hierarchy shared across the package.

Input/configuration problems derive from ``InputError`` (CLI exit code 2),
failed numerical sanity checks from ``NumericalFailure`` (CLI exit code 3).
Failed theorem assertions are reported, not raised.
"""


class InputError(ValueError):
    """Malformed or inconsistent user input."""


class PotentialFormatError(InputError):
    """Potential file does not parse or violates the schema."""


class EvennessError(PotentialFormatError):
    """A site and its negative carry conflicting values."""


class GridTooSmallError(InputError):
    """Grid cannot faithfully represent the potential support (N < 2R+1)."""


class ZNotBelowBandError(InputError):
    """Spectral parameter z lies inside the grid-sampled band [min E, max E],
    or, for the Birman-Schwinger spectrum, not below it."""


class ZeroPotentialError(InputError):
    """Operation requires a not-identically-zero potential."""


class PreconditionError(InputError):
    """A documented operation precondition does not hold for these inputs."""


class NegativePotentialError(PreconditionError):
    """Every Birman-Schwinger argument requires a nonnegative potential."""


class DenseTooLargeError(InputError):
    """A dense array would not fit in the machine's physical memory: a block
    of H(k), up to N^3 x N^3, or the Gram's N x N planes of E."""


class NumericalFailure(RuntimeError):
    """A numerical invariant (symmetry, positivity, convergence) failed."""


class NonSymmetricError(NumericalFailure):
    """Matrix handed to the symmetric eigensolver is not symmetric."""
