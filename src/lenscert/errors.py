"""Exception types shared across the library."""


class LensCertError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(LensCertError):
    """An enclosure at this precision does not decide something the
    computation needs (a sign, a domain, a tail bound or a series budget);
    more bits may decide it."""


class InvalidArgument(LensCertError, ValueError):
    """An argument outside the range the library accepts at any precision."""
