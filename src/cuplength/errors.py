"""Exception types shared across the package."""


class CupLengthError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateSimplex(CupLengthError):
    pass


class MissingFace(CupLengthError):
    pass


class NonMonotoneGrades(CupLengthError):
    pass


class NonFiniteGrade(CupLengthError):
    pass


class NonFiniteDistance(NonFiniteGrade):
    """A distance matrix cell is nan or infinite; Vietoris-Rips grades are distances."""


class UnknownSimplex(CupLengthError):
    pass


class InvalidSimplex(CupLengthError, ValueError):
    """A vertex tuple that is empty, has a negative id or is not strictly
    increasing, or a listed simplex whose ids are not ints or whose grade is
    not a number."""


class AsymmetricMatrix(CupLengthError):
    pass


class NegativeDistance(CupLengthError):
    pass


class SimplexNotAlive(CupLengthError):
    pass


class NotCriticalValue(CupLengthError):
    pass


class ParseError(CupLengthError):
    pass
