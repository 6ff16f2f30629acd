"""Certified special functions.

Half-integer gamma values are exact, a rational or a rational times
sqrt(pi), and give the unit-ball volumes.
Every hypergeometric series, terminating or not, needs its arguments
certainly inside the unit disc and follows one tail rule: from an index N
past which every term ratio is at most some q < 1 in absolute value (q = |z|
from the exact `_ratio_threshold` on), the series stops at the first term t
with |t| q / (1 - q) <= tol and is widened by that bound; a terminating
series that reaches its last term first is complete.  Appell F1, for
c >= a > 0 and a non-positive integer b1, follows the iterated reduction,
whose outer series obeys the same rule with every inner 2F1 bounded by
U = (1 + |x|)^(-b1).

The 2F1 series and the F1 outer series run on the fixed-point kernel of
`ball`: terms are int pairs (m +/- r) 2**-W, each costing one exact rational
scaling and one product with z (or y), sums are int adds, and the tail test
compares ints with floor(tol 2**W).  The scale is W = w + _FX_GUARD plus a
headroom that keeps the rounding floor of a term's radius from outliving
the tail test.  For 2F1 that radius settles near (1+|z|)/(1-|z|) ulps and
the tail multiplies it by |z|/(1-|z|), so the headroom is
log2((1+|z|)/(1-|z|)^2) + 1 bits; for the F1 outer series the tail
multiplies the coefficient's radius by U, so it is log2 U bits.  The
midpoint needs no headroom: the first term is 1 and tol is absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bigfloat import (
    BigFloat,
    bf_from_int,
    bf_msb_exp,
    bf_shift,
    bf_to_fraction,
    bf_two_power,
    rup,
    rup_mul_rat,
)
from .ball import (
    _FX_GUARD,
    Ball,
    _fx_from_ball,
    _fx_mul,
    _fx_mul_rat,
    _fx_tail,
    _fx_to_ball,
    ball_mul_rat,
    ball_pow_int,
    ball_round,
    pi_ball,
)
from .errors import DivergentParameters, DomainViolation, InvalidC, PrecisionExhausted

__all__ = [
    "HalfGamma",
    "gamma_half",
    "unit_ball_volume",
    "SeriesTail",
    "gauss_2f1",
    "gauss_2f1_detailed",
    "appell_f1",
]


# ---------------------------------------------------------------------------
# exact gamma at half-integer arguments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HalfGamma:
    """Value q * sqrt(pi)**s with q rational and s in {0, 1}."""

    q: Fraction
    s: int


def gamma_half(two_x: int) -> HalfGamma:
    """Gamma(two_x / 2) for two_x >= 1, exactly."""
    if two_x < 1:
        raise ValueError("argument must be a positive half-integer")
    if two_x % 2 == 0:
        m = two_x // 2
        return HalfGamma(Fraction(math.factorial(m - 1)), 0)
    m = (two_x - 1) // 2
    q = Fraction(math.factorial(2 * m), 4**m * math.factorial(m))
    return HalfGamma(q, 1)


def unit_ball_volume(m: int, prec: int) -> Ball:
    """Volume of the unit ball in R**m: pi**(m/2) / Gamma(m/2 + 1)."""
    if m < 1:
        raise ValueError("dimension must be positive")
    g = gamma_half(m + 2)
    # for odd m the explicit sqrt(pi) of Gamma cancels one half-power of pi
    w = prec + 8
    out = ball_mul_rat(ball_pow_int(pi_ball(w), m // 2, w), g.q.denominator, g.q.numerator, w)
    return ball_round(out, prec)


# ---------------------------------------------------------------------------
# Gauss 2F1 with certified tails
# ---------------------------------------------------------------------------


@dataclass
class SeriesTail:
    """Truncation record: tail >= |last_term| * q / (1 - q)."""

    n_terms: int
    ratio: Fraction
    last_term: BigFloat
    tail: BigFloat


def _fr_ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _is_nonpos_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def _scaled(a: Fraction, b: Fraction, c: Fraction) -> tuple[int, int, int, int]:
    """(ia, ib, ic, d) with a, b, c = ia/d, ib/d, ic/d over their least
    common denominator d."""
    d = math.lcm(a.denominator, b.denominator, c.denominator)
    return int(a * d), int(b * d), int(c * d), d


def _term_ratio(ia: int, ib: int, ic: int, d: int, m: int) -> tuple[int, int]:
    """(a+m)(b+m) / ((c+m)(m+1)) for a, b, c = ia/d, ib/d, ic/d, as the
    (numerator, denominator) that Fraction gives: lowest terms, denominator
    positive."""
    md = m * d
    p = (ia + md) * (ib + md)
    q = (ic + md) * (m + 1) * d
    g = math.gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def _ratio_threshold(a: Fraction, b: Fraction, c: Fraction) -> int:
    """Smallest N with |(a+m)(b+m) / ((c+m)(m+1))| <= 1 for every m >= N (for
    a terminating series, every m below its order).  From `top` on all four
    factors are nonnegative and (a+b-c-1) m + ab - c <= 0; below it each m is
    decided exactly, by an integer comparison with the denominators cleared."""
    order = _terminating_order(a, b)
    if order is not None:
        top = order
    else:
        t = a + b - c - 1
        if t > 0:
            raise DivergentParameters("term-ratio bound unavailable: a+b > c+1")
        if t == 0 and c - a * b < 0:
            raise DivergentParameters("term-ratio bound unavailable")
        n_lin = 0 if t == 0 else _fr_ceil((a * b - c) / -t)
        top = max(0, n_lin, _fr_ceil(-a), _fr_ceil(-b), _fr_ceil(-c))
    ia, ib, ic, q = _scaled(a, b, c)
    for m in range(top - 1, -1, -1):
        mq = m * q
        if abs((ia + mq) * (ib + mq)) > abs((ic + mq) * (m + 1) * q):
            return m + 1
    return 0


def _default_tol(prec: int) -> BigFloat:
    return bf_two_power(-prec - 12)


def _terminating_order(a: Fraction, b: Fraction) -> int | None:
    orders = [int(-p) for p in (a, b) if _is_nonpos_int(p)]
    if not orders:
        return None
    return min(orders)


def gauss_2f1_detailed(
    a, b, c, z: Ball, prec: int, tol: BigFloat | None = None
) -> tuple[Ball, SeriesTail | None]:
    """2F1(a, b; c; z) for |z| certainly below 1, with its tail record; the
    record is None when a terminating series ends before its tail test."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if _is_nonpos_int(c):
        raise InvalidC("c must not be a non-positive integer")
    zsup = Fraction(bf_to_fraction(z.mag_sup()))
    if zsup >= 1:
        raise DivergentParameters("|z| must be certainly below 1")
    tol = tol or _default_tol(prec)
    w = prec + 8
    order = _terminating_order(a, b)
    n1 = _ratio_threshold(a, b, c)
    tail_factor = zsup / (1 - zsup)
    # headroom log2((1+|z|)/(1-|z|)^2) + 1, rounded up: for x = p/q,
    # log2 x < bitlen(p) - bitlen(q) + 1
    room = (1 + zsup) / (1 - zsup) ** 2
    W = w + _FX_GUARD + room.numerator.bit_length() - room.denominator.bit_length() + 2
    zx = _fx_from_ball(z, W)
    limit = _fx_from_ball(Ball.point(tol, w), W)[0]  # floor(tol * 2**W)
    term = (1 << W, 0)
    sum_m, sum_r = term
    m = 0
    budget = order if order is not None else n1 + 64 * (prec + 16) + 256
    ia, ib, ic, d = _scaled(a, b, c)
    while m != order:
        p, q = _term_ratio(ia, ib, ic, d, m)
        term = _fx_mul(_fx_mul_rat(term, p, q), zx, W)
        sum_m += term[0]
        sum_r += term[1]
        m += 1
        if n1 <= m != order:
            tail = _fx_tail(term, tail_factor.numerator, tail_factor.denominator, limit)
            if tail is not None:
                last = bf_shift(bf_from_int(abs(term[0]) + term[1]), -W)
                record = SeriesTail(m + 1, zsup, last, bf_shift(bf_from_int(tail), -W))
                return _fx_to_ball((sum_m, sum_r + tail), W, prec), record
        if m > budget:
            raise PrecisionExhausted("2F1 series did not reach its tail tolerance")
    return _fx_to_ball((sum_m, sum_r), W, prec), None


def gauss_2f1(a, b, c, z: Ball, prec: int, tol: BigFloat | None = None) -> Ball:
    return gauss_2f1_detailed(a, b, c, z, prec, tol)[0]


# ---------------------------------------------------------------------------
# Appell F1
# ---------------------------------------------------------------------------


def _abs_pochhammer_bound(b: Fraction, tsup: Fraction, w: int) -> BigFloat:
    """Upper bound for sum_m |(b)_m| / m! tsup^m = sum_m C(-b, m) tsup^m =
    (1 + tsup)^(-b), for a non-positive integer b."""
    return rup(Ball.from_fraction((1 + tsup) ** int(-b), w).mag_sup())


def appell_f1(a, b1, b2, c, x: Ball, y: Ball, prec: int, tol: BigFloat | None = None) -> Ball:
    """First Appell function F1(a; b1, b2; c; x, y) for c >= a > 0, b1 a
    non-positive integer and x, y certainly inside the unit disc, by the
    iterated reduction

        sum_n [(a)_n (b2)_n / ((c)_n n!)] y^n 2F1(a+n, b1; c+n; x).

    Every inner value is at most U = (1 + |x|)^(-b1), so once the outer term
    ratio stays below |y| the rest of the sum is at most
    |coef_n| U (1 + |y| / (1 - |y|)).  Each inner value comes from the module
    attribute `gauss_2f1`, so a wrapper that counts or times it sees every
    call, and is converted to fixed point once.
    """
    a, b1, b2, c = Fraction(a), Fraction(b1), Fraction(b2), Fraction(c)
    if not (c >= a > 0 and _is_nonpos_int(b1)):
        raise DivergentParameters("F1 tail bound needs c >= a > 0 and b1 a non-positive integer")
    xsup = Fraction(bf_to_fraction(x.mag_sup()))
    ysup = Fraction(bf_to_fraction(y.mag_sup()))
    if xsup >= 1 or ysup >= 1:
        raise DomainViolation("F1 arguments must lie certainly inside the unit disc")
    tol = tol or _default_tol(prec)
    w = prec + 8
    order = int(-b2) if _is_nonpos_int(b2) else None
    n1 = _ratio_threshold(a, b2, c)
    u_bound = _abs_pochhammer_bound(b1, xsup, w)
    # the tail multiplies the coefficient's radius by U
    W = w + _FX_GUARD + bf_msb_exp(u_bound)
    tail_factor = bf_to_fraction(u_bound) * (1 + ysup / (1 - ysup))
    inner_tol = rup_mul_rat(tol, 1, 64)
    yx = _fx_from_ball(y, W)
    limit = _fx_from_ball(Ball.point(tol, w), W)[0]  # floor(tol * 2**W)
    sum_m = sum_r = 0
    coef = (1 << W, 0)
    n = 0
    budget = order if order is not None else n1 + 64 * w + 256
    ia, ib2, ic, d = _scaled(a, b2, c)
    while True:
        inner = _fx_from_ball(gauss_2f1(a + n, b1, c + n, x, w, inner_tol), W)
        term_m, term_r = _fx_mul(coef, inner, W)
        sum_m += term_m
        sum_r += term_r
        if n == order:
            return _fx_to_ball((sum_m, sum_r), W, prec)
        p, q = _term_ratio(ia, ib2, ic, d, n)
        coef = _fx_mul(_fx_mul_rat(coef, p, q), yx, W)
        n += 1
        if n1 <= n != order:
            tail = _fx_tail(coef, tail_factor.numerator, tail_factor.denominator, limit)
            if tail is not None:
                return _fx_to_ball((sum_m, sum_r + tail), W, prec)
        if n > budget:
            raise PrecisionExhausted("F1 outer series did not converge")
