"""Arbitrary-precision binary floats with exact rounding-error reporting.

A BigFloat is sign * man * 2**exp with a normalized (odd) mantissa, so every
representable value has exactly one representation.  All arithmetic helpers
return a pair (result, err) where err is an exact BigFloat bound on
|result - true value|; err is ZERO whenever the operation was exact.  The
ball layer absorbs these bounds into radii, so nothing here depends on
directed-rounding semantics being available from the platform.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "BigFloat",
    "ZERO",
    "ONE",
    "bf_from_int",
    "bf_from_fraction",
    "bf_neg",
    "bf_abs",
    "bf_cmp",
    "bf_shift",
    "bf_round",
    "bf_add",
    "bf_add_exact",
    "bf_mul",
    "bf_mul_rat",
    "bf_two_power",
    "bf_msb_exp",
    "rup",
    "rup_add",
    "rup_mul",
    "rup_mul_rat",
    "RADIUS_PREC",
]

# Radii only need a handful of bits; they are always rounded upward.
RADIUS_PREC = 30


class BigFloat:
    """Immutable normalized binary float: sign * man * 2**exp, man odd."""

    __slots__ = ("sign", "man", "exp")

    def __init__(self, sign: int, man: int, exp: int):
        self.sign = sign
        self.man = man
        self.exp = exp

    def __repr__(self):
        if self.sign == 0:
            return "BigFloat(0)"
        return "BigFloat(%d * %d * 2**%d)" % (self.sign, self.man, self.exp)

    def __eq__(self, other):
        return (
            isinstance(other, BigFloat)
            and self.sign == other.sign
            and self.man == other.man
            and self.exp == other.exp
        )

    def __hash__(self):
        return hash((self.sign, self.man, self.exp))


ZERO = BigFloat(0, 0, 0)
ONE = BigFloat(1, 1, 0)


def _norm(sign: int, man: int, exp: int) -> BigFloat:
    if man == 0 or sign == 0:
        return ZERO
    t = (man & -man).bit_length() - 1  # trailing zero bits
    if t:
        man >>= t
        exp += t
    return BigFloat(sign, man, exp)


def bf_from_int(n: int) -> BigFloat:
    if n == 0:
        return ZERO
    return _norm(1 if n > 0 else -1, abs(n), 0)


def bf_neg(a: BigFloat) -> BigFloat:
    if a.sign == 0:
        return ZERO
    return BigFloat(-a.sign, a.man, a.exp)


def bf_abs(a: BigFloat) -> BigFloat:
    if a.sign >= 0:
        return a
    return BigFloat(1, a.man, a.exp)


def bf_msb_exp(a: BigFloat) -> int:
    """e with 2**(e-1) <= |a| < 2**e.  Undefined for zero."""
    return a.exp + a.man.bit_length()


def bf_two_power(e: int) -> BigFloat:
    return BigFloat(1, 1, e)


def bf_shift(a: BigFloat, k: int) -> BigFloat:
    """Exact multiplication by 2**k."""
    if a.sign == 0:
        return ZERO
    return BigFloat(a.sign, a.man, a.exp + k)


def bf_cmp(a: BigFloat, b: BigFloat) -> int:
    """Exact comparison: -1, 0, or +1, the sign of the exact difference."""
    return bf_add_exact(a, bf_neg(b)).sign


def bf_round(sign: int, man: int, exp: int, prec: int) -> tuple[BigFloat, BigFloat]:
    """Round sign*man*2**exp to prec bits, nearest (ties to even).

    Returns (value, err) with err the exact absolute rounding error.
    """
    if man == 0 or sign == 0:
        return ZERO, ZERO
    drop = man.bit_length() - prec
    if drop <= 0:
        return _norm(sign, man, exp), ZERO
    rem = man & ((1 << drop) - 1)
    hi = man >> drop
    if rem == 0:
        return _norm(sign, hi, exp + drop), ZERO
    half = 1 << (drop - 1)
    if rem > half or (rem == half and (hi & 1)):
        hi += 1
        err_man = (1 << drop) - rem
    else:
        err_man = rem
    return _norm(sign, hi, exp + drop), _norm(1, err_man, exp)


def bf_add_exact(a: BigFloat, b: BigFloat) -> BigFloat:
    """Exact sum (arbitrary mantissa growth).  Used for ball endpoints."""
    if a.sign == 0:
        return b
    if b.sign == 0:
        return a
    e = min(a.exp, b.exp)
    m = (a.sign * a.man << (a.exp - e)) + (b.sign * b.man << (b.exp - e))
    if m == 0:
        return ZERO
    return _norm(1 if m > 0 else -1, abs(m), e)


def bf_add(a: BigFloat, b: BigFloat, prec: int) -> tuple[BigFloat, BigFloat]:
    s = bf_add_exact(a, b)
    return bf_round(s.sign, s.man, s.exp, prec)


def bf_mul(a: BigFloat, b: BigFloat, prec: int) -> tuple[BigFloat, BigFloat]:
    return bf_round(a.sign * b.sign, a.man * b.man, a.exp + b.exp, prec)


def bf_mul_rat(a: BigFloat, p: int, q: int, prec: int) -> tuple[BigFloat, BigFloat]:
    """a * p / q for integers p, q > 0; err bound exact."""
    if a.sign == 0 or p == 0:
        return ZERO, ZERO
    sign = a.sign * (1 if p > 0 else -1)
    num = a.man * abs(p)
    if q == 1:
        return bf_round(sign, num, a.exp, prec)
    return _div_mans(sign, num, q, a.exp, prec)


def _div_mans(sign: int, num: int, den: int, exp: int, prec: int) -> tuple[BigFloat, BigFloat]:
    """Round sign * (num/den) * 2**exp to prec bits with exact error bound."""
    shift = prec + 3 - (num.bit_length() - den.bit_length())
    if shift < 0:
        shift = 0
    quo, rem = divmod(num << shift, den)
    if rem == 0:
        return bf_round(sign, quo, exp - shift, prec)
    # quo underestimates by < 1 unit in 2**(exp-shift); force the sticky bit
    # so nearest-rounding of quo stays within one ulp of the true quotient
    quo |= 1
    r, e = bf_round(sign, quo, exp - shift, prec)
    return r, bf_add_exact(e, bf_two_power(exp - shift))


def bf_from_fraction(fr: Fraction, prec: int) -> tuple[BigFloat, BigFloat]:
    num, den = fr.numerator, fr.denominator
    if num == 0:
        return ZERO, ZERO
    sign = 1 if num > 0 else -1
    return _div_mans(sign, abs(num), den, 0, prec)


# ---------------------------------------------------------------------------
# radius arithmetic: nonnegative BigFloats, every result >= exact value
# ---------------------------------------------------------------------------


def rup(a: BigFloat) -> BigFloat:
    """Round a nonnegative value up to RADIUS_PREC bits."""
    if a.sign == 0:
        return ZERO
    drop = a.man.bit_length() - RADIUS_PREC
    if drop <= 0:
        return a
    return _norm(1, (a.man >> drop) + 1, a.exp + drop)


def _ceil_to(a: BigFloat, exp: int) -> int:
    """Smallest integer k with a <= k * 2**exp (a >= 0)."""
    if a.sign == 0:
        return 0
    if a.exp >= exp:
        return a.man << (a.exp - exp)
    shift = exp - a.exp
    return (a.man >> shift) + (1 if a.man & ((1 << shift) - 1) else 0)


def rup_add(a: BigFloat, b: BigFloat) -> BigFloat:
    if a.sign == 0:
        return rup(b)
    if b.sign == 0:
        return rup(a)
    top = max(a.exp + a.man.bit_length(), b.exp + b.man.bit_length())
    cut = top - RADIUS_PREC - 4
    return rup(_norm(1, _ceil_to(a, cut) + _ceil_to(b, cut), cut))


def rup_mul(a: BigFloat, b: BigFloat) -> BigFloat:
    if a.sign == 0 or b.sign == 0:
        return ZERO
    return rup(_norm(1, a.man * b.man, a.exp + b.exp))


def rup_mul_rat(a: BigFloat, p: int, q: int) -> BigFloat:
    """Upper bound for a * p / q, p >= 0, q > 0."""
    if a.sign == 0 or p == 0:
        return ZERO
    num = a.man * p
    shift = RADIUS_PREC + 2 - (num.bit_length() - q.bit_length())
    if shift < 0:
        shift = 0
    quo = (num << shift) // q + 1
    return rup(_norm(1, quo, a.exp - shift))
