"""Exception types shared across the library."""


class LensCertError(Exception):
    """Base class for all library errors."""


class DivisionByIntervalContainingZero(LensCertError):
    pass


class NonPositiveBase(LensCertError):
    pass


class DomainViolation(LensCertError):
    pass


class DivergentParameters(LensCertError):
    pass


class InvalidGeometry(LensCertError):
    pass


class PrecisionExhausted(LensCertError):
    pass


class NoValidPair(LensCertError):
    pass


class UnsupportedDimension(LensCertError):
    pass


class InvalidArgument(LensCertError, ValueError):
    """An argument outside the range the library accepts."""
