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


class UnknownSimplex(CupLengthError):
    pass


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
