"""Exception types shared across the package.

Library code raises these instead of bare ValueError whenever the failure is a
mathematical precondition rather than a malformed input, so the CLI can map the
two classes to different exit codes.
"""


class QalgError(Exception):
    """Base class for mathematical precondition failures."""


class InternalError(AssertionError):
    """A defect in this package, not bad input. Raised explicitly, so the check
    holds under ``python -O``; not a QalgError, so the CLI does not report it
    as a failed precondition."""


class NoSolutionError(QalgError):
    """Linear system has no solution (right-hand side outside the column space)."""


class BadPrimeError(QalgError):
    """Prime unusable for a modular factorization step (divides the leading
    coefficient or a denominator, or the reduction is not squarefree)."""


class ValidationError(QalgError):
    """Structure constants fail associativity or the unit laws.

    Carries the first violated basis triple (i, j, k) in ``triple`` when the
    failure is an associativity defect, else ``triple`` is None.
    """

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.triple = triple


class MalformedTableError(QalgError):
    """Group multiplication table is not a group table (not a Latin square,
    or no two-sided identity)."""


class NotAnIdealError(QalgError):
    """Subspace is not a two-sided ideal of the algebra."""


class NotSemisimpleError(QalgError):
    """Operation requires a semisimple algebra but the radical is nonzero."""


class NotSimpleError(QalgError):
    """Operation requires a simple algebra."""


class NotIdempotentError(QalgError):
    """Element or matrix expected to be idempotent is not."""


class NotNilpotentError(QalgError):
    """Ideal expected to be nilpotent is not."""


class UnknownIndexError(QalgError):
    """A factor's matrix size is Unknown and no index was asserted for it."""


class NotDivisorError(QalgError):
    """Divisibility precondition fails (for example d must divide the degree)."""


class RankNotRealizableError(QalgError):
    """Requested rank is not realizable for the given algebra or degree."""


class AlgebraMismatchError(QalgError):
    """Operands are defined over different algebras."""
