"""Exception taxonomy shared by all ylab modules.

Exit-code mapping used by the CLI: ConfigError (MassUndefinedError
included) and ParameterError (GridMismatchError included) -> 2, numerical
failures (the SolveErrors ConvergenceError and NonPositiveYamabeError, and
FlowSingularityError) -> 3, audit failures -> 4.  Any other ylab error an
audit raises (FitDomainError, say) is that audit's failing verdict, so it
also ends in 4.
"""

from __future__ import annotations


class YlabError(Exception):
    """Base class for all ylab errors."""


class ConfigError(YlabError):
    """Bad configuration: rejected parameters, unknown keys, malformed files."""


class ParameterError(YlabError, ValueError):
    """An operation received an argument outside its contract."""


class GridMismatchError(ParameterError):
    """Fields that must share a grid do not."""


class PositivityError(YlabError):
    """A field required to be positive is not."""


class SupportError(YlabError):
    """A compactly supported test function touches the truncation radius."""


class HypothesisViolationError(YlabError):
    """Input violates the hypotheses of the solve (e.g. target curvature above background)."""


class SolveError(YlabError):
    """An elliptic solve failed; carries its last solution and SolveReport when it has them."""

    def __init__(self, message: str, solution=None, report=None):
        super().__init__(message)
        self.solution = solution
        self.report = report


class ConvergenceError(SolveError):
    """Newton stagnated or ran out of iterations, a scalar-flat factor underflowed,
    or the best Yamabe trial quotient is not a finite float64.

    The scalar-flat one carries the solution and its SolveReport.
    """


class NonPositiveYamabeError(SolveError):
    """The scalar-flat solve found no positive factor that passes the round-off test.

    Unless the system was singular, carries the solution and its SolveReport.
    """


class FlowSingularityError(YlabError):
    """A flow could not continue: a step failed at its dt and ten halvings of it, or
    a monitored quantity of valid data overflowed float64."""


class MassUndefinedError(ConfigError):
    """The far-field fit window is degenerate or its basis underflows; no mass can be read off.

    A grid property, so the CLI treats it as a configuration error.
    """


class FitDomainError(YlabError):
    """The data cannot support this audit or fit (too few points, nonpositive or zero values)."""
