"""Exception types raised across the package.

Validation errors carry the offending channel index where one exists so
that config-level diagnostics can point at the right entry.
"""


class ProblemValidationError(ValueError):
    """Base class for problem-data validation failures."""

    def __init__(self, message, channel=None):
        super().__init__(message)
        self.channel = channel


class NonSymmetric(ProblemValidationError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class NotPositiveDefinite(ProblemValidationError):
    """A matrix required to be positive definite is not: it has a non-finite
    entry, or its Cholesky factorization fails. Every input covariance and
    every matrix a closed form factors is checked by this one rule, and the
    message names the matrix."""


class DimensionMismatch(ProblemValidationError):
    """Array shapes are inconsistent with the problem dimension."""


class NonPositiveWeight(ProblemValidationError):
    """A channel weight is not a finite positive number."""


class NegativeRadius(ProblemValidationError):
    """The divergence-ball radius is not a finite nonnegative number."""


class NoConvergence(ArithmeticError):
    """An iteration hit its cap before reaching tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class BracketFailure(ArithmeticError):
    """Never raised (a failed solve is NoConvergence); kept because the
    benchmark under perfbench/ still counts it among solve failures."""


class FisherUndefined(ValueError):
    """The prior has no finite Fisher information."""


class DegenerateWeights(ArithmeticError):
    """Importance weights collapsed; the proposal is a bad fit."""

    def __init__(self, message, bad_fraction=None):
        super().__init__(message)
        self.bad_fraction = bad_fraction


class NoiseLost(ArithmeticError):
    """Observations y = x + n rounded the drawn noise away: the prior's
    draws are too large against the noise for double precision."""


class ConfigError(ValueError):
    """A problem config file is malformed or violates the schema."""
