"""Error taxonomy shared across the package.

Everything derives from ValueError so callers that do not care about the
fine-grained class can catch the builtin.
"""


class ThermwitError(ValueError):
    """Base class for all package-specific errors."""


# --- numerics ---------------------------------------------------------------

class NotHermitian(ThermwitError):
    """Matrix fails the Hermiticity tolerance."""


class DimensionTooLarge(ThermwitError):
    """Dense-matrix operation requested above the supported dimension cap."""


class BadDimensionFactorization(ThermwitError):
    """Matrix dimension does not factor into the supplied local dimensions."""


class NoSignChange(ThermwitError):
    """Bisection bracket does not straddle a root."""


# --- systems ----------------------------------------------------------------

class BadExcitationCount(ThermwitError):
    """Symmetric-state excitation number outside 0..n."""


class GraphTooLarge(ThermwitError):
    """Explicit construction requested for a graph above the site cap."""


# --- thermal ----------------------------------------------------------------

class IndexOutOfRange(ThermwitError):
    """Level index outside the spectrum."""


class DegenerateGround(ThermwitError):
    """Operation requires a unique ground state."""


class AlphaZero(ThermwitError):
    """Gamma-integral form undefined at alpha = 0."""


# --- entanglement -----------------------------------------------------------

class BadPartition(ThermwitError):
    """Partition blocks do not tile the sites as required."""


class SeparableCase(ThermwitError):
    """Requested robustness of a product state (it is zero, not a witness)."""


class OddN(ThermwitError):
    """Half-filling asymptotics need an even number of sites."""


class NegativeEntanglement(ThermwitError):
    """Entanglement input below zero."""


class BadDimension(ThermwitError):
    """Matrix has the wrong shape for the requested quantity."""


# --- witness ----------------------------------------------------------------

class ThresholdUnreachable(ThermwitError):
    """Degenerate-gap condition holds at every temperature; no finite crossing."""


class NonpositiveEntanglement(ThermwitError):
    """Threshold formula needs strictly positive entanglement input."""


class AlphaOutOfRange(ThermwitError):
    """Spacing exponent outside (0, 1]."""


class RatioOutOfRange(ThermwitError):
    """Per-site entanglement ratio outside the formula's domain."""


class EmptyGrid(ThermwitError):
    """Temperature grid with fewer than two points."""
