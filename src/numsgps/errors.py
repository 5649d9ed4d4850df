"""Exception types raised by the library.

Everything derives from SemigroupError so callers can catch domain errors
in one clause while programming errors (TypeError, ValueError) stay loud;
InvalidArgumentError is both, for arguments outside an operation's domain.
"""

from __future__ import annotations

# the least count of more digits than Python writes in decimal by default
_COUNT_LIMIT = 10**4300


class SemigroupError(Exception):
    """Base class for all domain errors."""


class EmptyGeneratorsError(SemigroupError):
    """No generators were supplied."""


class GcdNotOneError(SemigroupError):
    """The generators have a common divisor larger than one."""


class GeneratorTooLargeError(SemigroupError):
    """A generator exceeds the supported magnitude (2**31), or an Apery
    set would have more entries than core.MULTIPLICITY_LIMIT (2**20)."""


class InvalidArgumentError(SemigroupError, ValueError):
    """An argument lies outside what the operation accepts: a generator
    that is not positive, a negative depth, an unknown claim name, a
    vector index out of range.  Also a ValueError, which these inputs
    raised before they had a domain error of their own."""


class NotAMemberError(SemigroupError):
    """An argument required to lie in the semigroup does not."""


class NotPseudoFrobeniusError(SemigroupError):
    """An argument required to be a pseudo-Frobenius number is not one."""


class NotNearlyGorensteinError(SemigroupError):
    """The semigroup admits no nearly Gorenstein vector."""


class VectorEntryError(SemigroupError):
    """The pseudo-Frobenius number coincides with an entry of the vector,
    so no row-factorization matrix of the subtractive kind exists for it."""


class MismatchedPairError(SemigroupError):
    """The vector paired with the semigroup is not one of its nearly
    Gorenstein vectors."""


class EnumerationCapError(SemigroupError):
    """An enumeration (of matrices, or of NG-vectors) would exceed its cap.

    The exact count is still computed and carried on the exception.
    """

    def __init__(self, count: int, cap: int, items: str = "matrices") -> None:
        super().__init__(
            f"enumeration would produce {printable_count(count)} {items}, cap is {cap}"
        )
        self.count = count
        self.cap = cap


def printable_count(count: int) -> int | str:
    """count while it has at most 4,300 digits, the most Python writes in
    decimal by default; above that the string "D.DDDDe+E", count rounded
    to five significant digits (decimal.Decimal, which has no such limit,
    writes it)."""
    if count < _COUNT_LIMIT:
        return count
    from decimal import Decimal

    return f"{Decimal(count):.4e}"


class NotOddError(SemigroupError):
    """The duplication offset b must be odd."""


class NotAnIdealError(SemigroupError):
    """The supplied element set is not an ideal of the semigroup."""


class FamilyPreconditionError(SemigroupError):
    """A family precondition fails, every family bound included (backelin's
    T >= 2, family_dim6's T >= 1); `condition` names the violated one."""

    def __init__(self, condition: str, value: object = None) -> None:
        message = condition if value is None else f"{condition} (got {value})"
        super().__init__(message)
        self.condition = condition
        self.value = value


class FamilyPropertyError(SemigroupError):
    """A property the family construction guarantees failed to verify."""


class NotAlmostSymmetricError(SemigroupError):
    """The operation needs an almost symmetric seed."""
