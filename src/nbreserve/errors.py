"""Exception types shared across the package.

Every error carries a short machine-readable ``kind`` string (the class
name without the ``Error`` suffix) so the command line tools can emit
structured error reports.
"""

from __future__ import annotations


class ReservingError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def kind(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


class TriangleError(ReservingError):
    """Invalid triangle data or layout."""


class RaggedRowsError(TriangleError):
    """Rows of inconsistent length, or a non-square triangle."""


class NegativeCountError(TriangleError):
    """A cell holds a negative count."""


class NonIntegerCountError(TriangleError):
    """A cell holds a non-integer value and rounding was not requested."""


class CountTooLargeError(TriangleError):
    """A cell holds a count of 2**53 or more, which float64 fits cannot hold exactly."""


class NoResidualDofError(TriangleError, ValueError):
    """The model has as many parameters as observed cells, so no residual degrees of freedom."""


class MissingCellError(TriangleError):
    """An observed cell (accident year i, development year j with i + j <= I) is absent."""


class FutureCellError(TriangleError):
    """A future cell (i + j > I) holds a value."""


class ZeroColumnSumError(ReservingError):
    """A development-factor denominator column sums to zero."""


class SeparationError(TriangleError):
    """A factor level has all-zero counts, or the likelihood has no finite maximum: an input problem in a user's triangle.

    The first makes that level's coefficient diverge. The second holds
    when no strictly positive table on the observed cells has their
    accident- and development-year totals, also with every level holding
    counts. :func:`nbreserve.glm._poisson_fit` raises both.
    """


class NotConvergedError(ReservingError):
    """Iterative fitting failed to converge within the iteration budget."""


class FlatProfileError(ReservingError):
    """The profile log-likelihood has no usable curvature at its optimum."""


class SingularInformationError(ReservingError):
    """The observed information matrix is singular where a determinant is needed."""


class BaseFitFailedError(ReservingError):
    """The base model fit behind a bootstrap run failed."""


class ExcessiveFailuresError(ReservingError):
    """Too large a share of bootstrap replicates failed to refit."""


class TooFewDrawsError(ReservingError):
    """Not enough bootstrap draws to support the requested summary."""


class ConfigError(ReservingError):
    """Invalid simulation or command configuration."""
