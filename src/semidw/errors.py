"""Exception types shared across the package.

All errors derive from :class:`SemidwError` so callers can catch the whole
family. The CLI maps :class:`ParseError` to exit code 2, precondition
failures (everything deriving from :class:`PreconditionError`) to exit
code 3 and any other :class:`SemidwError` to exit code 1. Exit code 4 (a
failed record, closed-form check or suite property) is returned, not raised.
"""


class SemidwError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SemidwError):
    """Raised when JSON input cannot be parsed into a matrix or block."""


class PreconditionError(SemidwError):
    """Base class for violated operation preconditions."""


class EmptyMatrix(PreconditionError):
    """Raised when a matrix input is empty or not two-dimensional."""


class DimensionMismatch(PreconditionError):
    """Raised when operand dimensions are incompatible."""


class NotHermitian(PreconditionError):
    """Raised when a metric candidate is not Hermitian within tolerance."""


class NotPositiveSemidefinite(PreconditionError):
    """Raised when a metric candidate has a genuinely negative eigenvalue."""


class NotInBA(PreconditionError):
    """Raised when an operator does not admit an A-adjoint (range test fails)."""


class NotABounded(PreconditionError):
    """Raised when an operator is not A-bounded (does not kill the null space)."""


class RankTooLarge(PreconditionError):
    """Raised when the sampling oracle is asked for a compressed rank above its guard."""


class ZeroT(PreconditionError):
    """Raised when a balance parameter t has ``t^2`` or ``1/t^2`` zero or nonfinite."""


class DegenerateNorm(PreconditionError):
    """Raised when a corollary requires a nonzero seminorm that vanishes."""


class NonpositiveB(PreconditionError):
    """Raised when the cubic angle recipe is evaluated at b <= 0."""


class BOutOfRange(PreconditionError):
    """Raised when a closed form in b = ||X||_A is not finite in double precision."""


class NormOutOfRange(PreconditionError):
    """Raised when ||T||_A is too large for dw_A and its bounds to stay finite."""


class NonFiniteReference(SemidwError):
    """Raised when a report's reference dw is not finite, so no record could fail."""
