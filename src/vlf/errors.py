"""Exception types shared across the package.

Every deliberate failure mode raises a ``VlfError``, so callers can tell
contract violations from plain bugs.  A subclass exists only where a caller
treats its failures apart: ``Infeasible`` (with ``EpsTooSmall`` and
``HorizonTooSmall`` under it) is a well-posed target no parameter choice
meets, the CLI's exit 2; every other ``VlfError`` is a bad input, exit 1.
"""


class VlfError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(VlfError):
    """Inputs that must share a shape do not, or an input is empty."""


class NotADistribution(VlfError):
    """A probability law or a parameter is not valid: negative entries, a sum
    off 1, or a value outside its domain."""


class NonPositiveDrift(VlfError):
    """A walk whose mean step must be positive is not (zero, negative or NaN)."""


class Infeasible(VlfError):
    """No parameter choice meets the requested targets."""


class HorizonTooSmall(Infeasible):
    """Schedule horizon too small for the asymptotic parameter recipe."""


class EpsTooSmall(Infeasible):
    """Target error probability below the schedule's time-sharing floor."""


class InsufficientTraining(VlfError):
    """Channel estimation requested with too short a training sequence."""


class StateExplosion(VlfError):
    """Exact lattice analysis would need more states than the configured cap."""
