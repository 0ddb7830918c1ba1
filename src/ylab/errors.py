"""Exception taxonomy shared by all ylab modules.

Exit-code mapping used by the CLI: ConfigError (MassUndefinedError
included) and ParameterError -> 2, numerical failures
(ConvergenceError, NonPositiveYamabeError, FlowSingularityError) -> 3,
audit failures -> 4.
"""

from __future__ import annotations


class YlabError(Exception):
    """Base class for all ylab errors."""


class ConfigError(YlabError):
    """Bad configuration: rejected parameters, unknown keys, malformed files."""


class ParameterError(YlabError, ValueError):
    """An operation received an argument outside its contract."""


class GridMismatchError(YlabError):
    """Fields that must share a grid do not."""


class PositivityError(YlabError):
    """A field required to be positive is not."""


class SupportError(YlabError):
    """A compactly supported test function touches the truncation radius."""


class HypothesisViolationError(YlabError):
    """Input violates the hypotheses of the solve (e.g. target curvature above background)."""


class ConvergenceError(YlabError):
    """Newton iteration stagnated or exceeded its iteration budget."""


class NonPositiveYamabeError(YlabError):
    """The scalar-flat solve produced no positive solution.

    Carries the offending solution so callers can inspect or certify it.
    """

    def __init__(self, message: str, solution=None, report=None):
        super().__init__(message)
        self.solution = solution
        self.report = report


class FlowSingularityError(YlabError):
    """The time stepper could not continue (positivity loss or dt collapse)."""

    def __init__(self, message: str, state=None, reason: str = ""):
        super().__init__(message)
        self.state = state
        self.reason = reason or message


class MassUndefinedError(ConfigError):
    """The far-field fit window is degenerate; no mass can be read off.

    A grid property, so the CLI treats it as a configuration error.
    """


class FitDomainError(YlabError):
    """Nonpositive values inside a log-log fit window."""


class UndefinedFitError(YlabError):
    """A decay fit was requested on an identically vanishing tail."""


class SchemaError(YlabError):
    """A series or file is missing required columns."""
