"""Semantic exception hierarchy shared across the package.

Public functions raise these instead of bare ValueError so callers can
distinguish contract violations (bad arguments) from model-level problems
(degenerate channels, infeasible targets, unmet hypotheses).
"""


class SemRdpError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SemRdpError, ValueError):
    """An argument lies outside the documented domain of an operation."""


class LabelError(SemRdpError, ValueError):
    """Unknown, duplicated, or overlapping axis labels on a joint distribution."""


class DegenerateChannelError(SemRdpError):
    """A side-information branch has zero probability, so the conditionals
    of the model on that branch are undefined."""


class HypothesisError(SemRdpError):
    """A model does not satisfy the symmetry hypotheses a closed form needs."""


class InfeasibleError(SemRdpError):
    """No admissible point meets the requested distortion/perception targets."""


class ResourceLimitError(SemRdpError):
    """A requested experiment exceeds the desk-scale resource bounds."""
