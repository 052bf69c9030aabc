"""Exception types raised across the package.

``LilysegError`` is the common base; ``InternalConsistencyError`` groups
failures that indicate a broken solver invariant rather than bad input.
"""


class LilysegError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(LilysegError, ValueError):
    """A value passed in or read from a file is out of range or of the wrong type."""


class IdenticalGerms(LilysegError):
    """Two marked points share the same germ location."""


class NegativeRadius(LilysegError):
    """A segment radius below zero was requested."""


class RadiiMismatch(LilysegError):
    """A radii assignment does not match its point set in length."""


class InputTooLarge(LilysegError):
    """A point set would not fit in physical memory: its near list and the
    fixed-point solves reading it, or the dense pair table the oracle solvers build."""


class InvalidIntensity(LilysegError):
    """Point-process intensity must be a positive finite number."""


class InvalidWindow(LilysegError):
    """Sampling window has non-positive area or ill-ordered bounds."""


class NotEnoughPoints(LilysegError):
    """A selection asked for more points than the set contains."""


class ConditionDViolation(LilysegError):
    """The genericity condition on growth distances fails.

    Carries the offending :class:`~lilyseg.geometry.ConditionDReport`
    as the ``report`` attribute, or ``None`` when the raiser has no report.
    """

    def __init__(self, report, message="growth distances are not mutually distinct"):
        super().__init__(message)
        self.report = report


class InternalConsistencyError(LilysegError):
    """A solver or structure invariant broke; indicates a bug, not bad input."""


class NonConvergence(InternalConsistencyError):
    """Fixed-point iteration failed to reach an exact fixed point in bound."""


class AlgorithmDivergence(InternalConsistencyError):
    """Chain chasing exceeded its step budget."""


class AmbiguousStop(InternalConsistencyError):
    """Two indices realize a stopping contact within tolerance."""


class StructureInconsistency(InternalConsistencyError):
    """A cluster/cycle/doublet invariant failed on a solved system."""


class VerificationFailed(InternalConsistencyError):
    """A freshly solved system failed its own verification report."""


class InsufficientTail(LilysegError):
    """Too few finite radii (or degenerate data) for a tail fit."""


class InsufficientSizes(LilysegError):
    """A trend fit needs three window sizes with non-empty windows and distinct mean point counts."""


class AbortRateExceeded(LilysegError):
    """More than the tolerated fraction of Monte Carlo replications aborted."""
