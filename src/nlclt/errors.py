"""Exception hierarchy shared across the package."""


class NlcltError(Exception):
    """Base class for all package errors."""


class InvalidParams(NlcltError, ValueError):
    """Inputs violate a documented precondition or type invariant.

    The CLI reports this class and its subclasses as a config error (exit
    2), and every other NlcltError as a numerical failure (exit 1).
    """


def require_at_least(name: str, value, least) -> None:
    """The precondition `name >= least`, as InvalidParams."""
    if value < least:
        raise InvalidParams(f"need {name} >= {least}")


class NonConvergence(NlcltError):
    """Quadrature refinement budget exhausted before reaching the tolerance.

    Carries the best estimate so callers can still inspect it.
    """

    def __init__(self, message, estimate, err_estimate, evaluations):
        super().__init__(message)
        self.estimate = estimate
        self.err_estimate = err_estimate
        self.evaluations = evaluations


class UnsupportedCombination(InvalidParams):
    """A (side, envelope, convexity) combination not covered by the limit theorems."""


class InvalidTheta(InvalidParams):
    """S-shape ratio theta outside (0, 1]."""


class UnstableResolution(NlcltError):
    """Requested time step violates the explicit-scheme stability bound."""


class GridTooCoarse(NlcltError):
    """Estimated interpolation error of the statistic grid exceeds the tolerance."""


class PolicyMismatch(NlcltError, ValueError):
    """An adversary policy does not match the model it is replayed against."""


class ConfigError(InvalidParams):
    """CLI configuration is malformed or violates an operation precondition."""
