"""Exception types shared across the package.

Every deliberate failure mode raises one of these, so callers can tell
contract violations (bad inputs, infeasible targets) from plain bugs.
"""


class VlfError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(VlfError):
    """Vectors or matrices that must share a shape do not."""


class NotADistribution(VlfError):
    """Probability vector does not sum to 1 within tolerance, or has negatives."""


class AbsoluteContinuityViolation(VlfError):
    """KL divergence undefined: p puts mass where q has none."""


class NonConvergence(VlfError):
    """Iterative routine hit its iteration cap before reaching tolerance."""


class ZeroOutputMass(VlfError):
    """Information density requested at an output symbol with zero marginal."""


class LengthMismatch(VlfError):
    """Paired sequences have different lengths."""


class EmptySequence(VlfError):
    """An operation that needs at least one sample got none."""


class DegenerateSequence(VlfError):
    """Correlation undefined: a sequence has zero energy."""


class NonIntegerType(VlfError):
    """A type (empirical distribution) scaled by n is not integral."""


class NonPositiveDrift(VlfError):
    """Overshoot constant requested for a walk with non-positive mean step."""


class Infeasible(VlfError):
    """No parameter choice meets the requested targets."""


class HorizonTooSmall(VlfError):
    """Schedule horizon too small for the asymptotic parameter recipe."""


class EpsTooSmall(VlfError):
    """Target error probability below the schedule's time-sharing floor."""


class InsufficientTraining(VlfError):
    """Channel estimation requested with too short a training sequence."""


class InvalidWorkerCount(VlfError):
    """A Monte Carlo run asked for fewer than one worker process."""


class StateExplosion(VlfError):
    """Exact lattice analysis would need more states than the configured cap."""


class PrefactorUndefined(VlfError):
    """Correlation tail prefactor undefined at this threshold (4*lambda^2 >= 1)."""
