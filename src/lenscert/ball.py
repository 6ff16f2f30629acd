"""Midpoint-radius ball arithmetic with guaranteed enclosure semantics.

Every operation returns a Ball that contains {f(x, y) : x in a, y in b}.
Midpoints are rounded to the working precision and the exact rounding error
is absorbed into the radius, so soundness never relies on directed hardware
rounding.  The fixed-point kernel (`_fx_*`) keeps int midpoint-radius pairs at
scale 2**-W, each rounding covered by the radius; division, square roots
(from `math.isqrt`), integer powers, sin, cos and atan run on it, each
operand read at a scale 2**-(W - g) that gives it W bits.  exp and log
sum Taylor series in Ball arithmetic after argument reduction.  A rational
power takes one q-th root for both bounds: a float and integer Newton steps
propose it, and an exact fixed-point power check accepts each bound.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction

from .bigfloat import (
    BigFloat,
    ZERO,
    RADIUS_PREC,
    bf_abs,
    bf_add,
    bf_add_exact,
    bf_cmp,
    bf_from_fraction,
    bf_from_int,
    bf_mul,
    bf_mul_rat,
    bf_msb_exp,
    bf_neg,
    bf_round,
    bf_shift,
    bf_to_float,
    bf_two_power,
    rup,
    rup_add,
    rup_mul,
    rup_mul_rat,
)
from .errors import InvalidArgument, PrecisionExhausted

__all__ = [
    "Ball",
    "TriBool",
    "ball_add",
    "ball_sub",
    "ball_neg",
    "ball_mul",
    "ball_mul_rat",
    "ball_div",
    "ball_pow_int",
    "ball_round",
    "ball_hull",
    "ball_widen",
    "ball_from_endpoints",
    "certainly_positive",
    "intersects",
    "pi_ball",
    "ln2_ball",
    "sqrt_ball",
    "exp_ball",
    "log_ball",
    "atan_ball",
    "asin_ball",
    "sin_ball",
    "cos_ball",
    "pow_rational",
    "ball_to_str",
    "ball_str_decimals",
    "ball_from_str",
]


class TriBool(Enum):
    CERTAINLY_TRUE = "CertainlyTrue"
    CERTAINLY_FALSE = "CertainlyFalse"
    UNKNOWN = "Unknown"


class Ball:
    """Certified enclosure mid +/- rad at a working precision (bits)."""

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid: BigFloat, rad: BigFloat, prec: int):
        if rad.sign < 0:
            raise ValueError("negative radius")
        self.mid = mid
        self.rad = rad
        self.prec = prec

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, prec: int) -> "Ball":
        return cls(bf_from_int(n), ZERO, prec)

    @classmethod
    def from_fraction(cls, fr, prec: int) -> "Ball":
        mid, err = bf_from_fraction(Fraction(fr), prec)
        return cls(mid, rup(err), prec)

    @classmethod
    def point(cls, mid: BigFloat, prec: int) -> "Ball":
        return cls(mid, ZERO, prec)

    # -- exact queries -----------------------------------------------------

    def sup(self) -> BigFloat:
        return bf_add_exact(self.mid, self.rad)

    def inf(self) -> BigFloat:
        return bf_add_exact(self.mid, bf_neg(self.rad))

    def mag_sup(self) -> BigFloat:
        """Upper bound for |x| over the ball."""
        return rup_add(rup(bf_abs(self.mid)), self.rad)

    def __repr__(self):
        return "Ball(%s)" % ball_to_str(self, max_digits=12)

    # -- operators: Ball +, -, * Ball, and Ball * Fraction ------------------
    # their only caller is `oracle._arc_poly_integrals` for the test reference
    # `oracle.polynomial_m_value`; they go with it

    def __add__(self, other: "Ball") -> "Ball":
        return ball_add(self, other, max(self.prec, other.prec))

    def __sub__(self, other: "Ball") -> "Ball":
        return ball_sub(self, other, max(self.prec, other.prec))

    def __mul__(self, other: "Ball | Fraction") -> "Ball":
        if isinstance(other, Fraction):
            return ball_mul_rat(self, other.numerator, other.denominator, self.prec)
        return ball_mul(self, other, max(self.prec, other.prec))


# ---------------------------------------------------------------------------
# core arithmetic
# ---------------------------------------------------------------------------


def ball_add(a: Ball, b: Ball, prec: int) -> Ball:
    mid, err = bf_add(a.mid, b.mid, prec)
    return Ball(mid, rup_add(rup_add(a.rad, b.rad), err), prec)


def ball_neg(a: Ball) -> Ball:
    return Ball(bf_neg(a.mid), a.rad, a.prec)


def ball_sub(a: Ball, b: Ball, prec: int) -> Ball:
    return ball_add(a, ball_neg(b), prec)


def ball_mul(a: Ball, b: Ball, prec: int) -> Ball:
    mid, err = bf_mul(a.mid, b.mid, prec)
    rad = err
    if b.rad.sign:
        rad = rup_add(rad, rup_mul(rup(bf_abs(a.mid)), b.rad))
    if a.rad.sign:
        rad = rup_add(rad, rup_mul(rup(bf_abs(b.mid)), a.rad))
        if b.rad.sign:
            rad = rup_add(rad, rup_mul(a.rad, b.rad))
    return Ball(mid, rad, prec)


def ball_mul_rat(a: Ball, p: int, q: int, prec: int) -> Ball:
    """a * p/q for integers p, q with q > 0."""
    if q <= 0:
        raise ValueError("q must be positive")
    mid, err = bf_mul_rat(a.mid, p, q, prec)
    rad = err
    if a.rad.sign:
        rad = rup_add(rad, rup_mul_rat(a.rad, abs(p), q))
    return Ball(mid, rad, prec)


def ball_div(a: Ball, b: Ball, prec: int) -> Ball:
    """a / b by `_fx_div`, with a and b each read at the scale that gives it
    W bits; raises as `_fx_div` does when b reaches 0."""
    W = prec + _FX_GUARD
    ga, gb = bf_msb_exp(a.mid if a.mid.sign else a.rad), bf_msb_exp(b.mid)
    return _fx_to_ball(_fx_div(_fx_from_ball(a, W - ga), _fx_from_ball(b, W - gb), W), W - ga + gb, prec)


def ball_pow_int(a: Ball, n: int, prec: int) -> Ball:
    """a**n for n >= 0: with 2**g <= a.mag_sup() < 2**(g+1), a read at scale
    2**-(W - g) encloses a * 2**-g at scale 2**-W; its n-th power read at
    scale 2**-(W - g*n) is that power times 2**(g*n)."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    W = prec + 16 + _FX_GUARD
    g = bf_msb_exp(a.mag_sup()) - 1
    return _fx_to_ball(_fx_pow(_fx_from_ball(a, W - g), n, W), W - g * n, prec)


def ball_round(a: Ball, prec: int) -> Ball:
    """Re-round to a (typically lower) precision, widening as needed."""
    mid, err = bf_round(a.mid.sign, a.mid.man, a.mid.exp, prec)
    return Ball(mid, rup_add(a.rad, err), prec)


def ball_widen(a: Ball, extra: BigFloat) -> Ball:
    if extra.sign < 0:
        raise ValueError("widening must be nonnegative")
    return Ball(a.mid, rup_add(a.rad, extra), a.prec)


def ball_hull(a: Ball, b: Ball, prec: int) -> Ball:
    lo_a, lo_b = a.inf(), b.inf()
    hi_a, hi_b = a.sup(), b.sup()
    lo = lo_a if bf_cmp(lo_a, lo_b) <= 0 else lo_b
    hi = hi_a if bf_cmp(hi_a, hi_b) >= 0 else hi_b
    return ball_from_endpoints(lo, hi, prec)


def ball_from_endpoints(lo: BigFloat, hi: BigFloat, prec: int) -> Ball:
    if bf_cmp(lo, hi) > 0:
        raise ValueError("endpoints out of order")
    center = bf_shift(bf_add_exact(lo, hi), -1)
    half = bf_shift(bf_add_exact(hi, bf_neg(lo)), -1)
    mid, err = bf_round(center.sign, center.man, center.exp, prec)
    return Ball(mid, rup_add(rup(half), err), prec)


# ---------------------------------------------------------------------------
# fixed-point kernel: (m +/- r) * 2**-W as a pair of plain ints, r >= 0
# ---------------------------------------------------------------------------

# guard bits of a fixed-point loop beyond its working precision
_FX_GUARD = 16


def _fx_from_ball(x: Ball, W: int) -> tuple[int, int]:
    """Fixed-point (m, r) with x inside (m +/- r) * 2**-W.

    The midpoint is cut toward zero, with one ulp of radius for any dropped
    bits, and the radius is rounded up.
    """
    mid, rad = x.mid, x.rad
    m = r = 0
    if mid.sign:
        e = mid.exp + W
        m = mid.man << e if e >= 0 else mid.man >> -e
        if e < 0 and m << -e != mid.man:
            r = 1
        m *= mid.sign
    if rad.sign:
        e = rad.exp + W
        r += rad.man << e if e >= 0 else -(-rad.man >> -e)
    return m, r


def _fx_to_ball(x: tuple[int, int], W: int, w: int) -> Ball:
    """Ball at precision w enclosing the fixed-point value x."""
    m, r = x
    mid, err = bf_round(1 if m > 0 else -1, abs(m), -W, w)
    return Ball(mid, rup_add(err, bf_shift(bf_from_int(r), -W)), w)


def _fx_add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] + b[0], a[1] + b[1]


def _fx_sub(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] - b[0], a[1] + b[1]


def _fx_mul(a: tuple[int, int], b: tuple[int, int], W: int) -> tuple[int, int]:
    """Fixed-point product: the midpoint is (a*b) >> W, and the radius covers
    the input radii plus one ulp for that floor."""
    (am, ar), (bm, br) = a, b
    return (am * bm) >> W, -(-(abs(am) * br + abs(bm) * ar + ar * br) >> W) + 1


def _fx_mul_rat(x: tuple[int, int], p: int, q: int) -> tuple[int, int]:
    """x * p/q for integers p, q with q > 0: the midpoint is (m*p) // q, and
    the radius is ceil(r*|p|/q) plus one ulp for that floor."""
    m, r = x
    return (m * p) // q, -(-(r * abs(p)) // q) + 1


def _fx_pow(x: tuple[int, int], k: int, W: int) -> tuple[int, int]:
    """x**k for k >= 0 by binary powering in fixed point."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else _fx_mul(out, x, W)
        k >>= 1
        if k:
            x = _fx_mul(x, x, W)
    return out or (1 << W, 0)


def _fx_pow_mid(x: int, k: int, W: int) -> int:
    """The midpoint of `_fx_pow((x, 0), k, W)`, without its radius: the
    same products, each floored at scale W."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else (out * x) >> W
        k >>= 1
        if k:
            x = (x * x) >> W
    return 1 << W if out is None else out


def _fx_div(a: tuple[int, int], b: tuple[int, int], W: int) -> tuple[int, int]:
    """Fixed-point quotient: the midpoint is floor(am * 2**W / bm), and the
    radius (ar |bm| + |am| br) 2**W / (|bm| (|bm| - br)) >= |x/y - am/bm| 2**W,
    rounded up, plus one ulp for that floor.  Raises InvalidArgument when b
    is exactly 0, PrecisionExhausted when its enclosure reaches 0."""
    (am, ar), (bm, br) = a, b
    low = abs(bm) - br
    if low <= 0:
        raise (PrecisionExhausted if br else InvalidArgument)("fixed-point divisor reaches zero")
    return (am << W) // bm, -(-((ar * abs(bm) + abs(am) * br) << W) // (abs(bm) * low)) + 1


def _fx_sqrt(x: tuple[int, int]) -> tuple[int, int]:
    """The root at scale 2**-W of x = (m +/- r) * 2**-2W, any W: it lies in
    [isqrt(m - r), isqrt(m + r) + 1].  Raises InvalidArgument when x is a
    point below 0, PrecisionExhausted when its enclosure reaches below 0."""
    m, r = x
    if m < r:
        raise (PrecisionExhausted if r else InvalidArgument)("square root of a value reaching below zero")
    lo, hi = math.isqrt(m - r), math.isqrt(m + r) + 1
    return (lo + hi) >> 1, (hi - lo + 1) >> 1


def _fx_tail(x: tuple[int, int], p: int, q: int, limit: int) -> int | None:
    """ceil((|m| + r) * p/q), a bound in ulps on |x| * p/q over the whole
    pair (p >= 0, q > 0), when it is at most `limit`; None otherwise."""
    m, r = x
    scaled = (abs(m) + r) * p
    if scaled > limit * q:
        return None
    return -(-scaled // q)


# ---------------------------------------------------------------------------
# comparison predicates
# ---------------------------------------------------------------------------


def certainly_positive(a: Ball) -> bool:
    return a.inf().sign > 0


def intersects(a: Ball, b: Ball) -> bool:
    d = bf_abs(bf_add_exact(a.mid, bf_neg(b.mid)))
    return bf_cmp(d, bf_add_exact(a.rad, b.rad)) <= 0


# ---------------------------------------------------------------------------
# certified constants
# ---------------------------------------------------------------------------

_PI_CACHE: dict[int, Ball] = {}
_LN2_CACHE: dict[int, Ball] = {}


def _atan_recip_scaled(m: int, w: int, alternate: bool = True) -> tuple[int, int]:
    """(value, err_units) with |f(1/m)*2**w - value| <= err_units for an
    integer m >= 2, where f is atan, or atanh when `alternate` is False."""
    scale = 1 << w
    power = m
    m2 = m * m
    acc = 0
    terms = 0
    j = 0
    while True:
        t = scale // (power * (2 * j + 1))
        if t == 0:
            break
        acc += t if not alternate or (j & 1) == 0 else -t
        terms += 1
        power *= m2
        j += 1
    # each computed term is truncated toward zero (< 1 unit each), and the
    # first omitted term is below 1 unit.  An alternating tail is below that
    # term; otherwise each term ratio is below 1/m**2 <= 1/4, so the tail is
    # below 4/3 units.
    return acc, terms + (1 if alternate else 2)


def pi_ball(prec: int) -> Ball:
    """Enclosure of pi by Machin's formula 16*atan(1/5) - 4*atan(1/239)."""
    cached = _PI_CACHE.get(prec)
    if cached is not None:
        return cached
    w = prec + 16
    acc = 0
    err_units = 0
    for coeff, m in ((16, 5), (-4, 239)):
        v, e = _atan_recip_scaled(m, w)
        acc += coeff * v
        err_units += abs(coeff) * e
    mid, rnd = bf_round(1, acc, -w, prec)
    rad = rup_add(rup(bf_shift(bf_from_int(err_units), -w)), rnd)
    out = Ball(mid, rad, prec)
    _PI_CACHE[prec] = out
    return out


def _fx_pi(W: int) -> tuple[int, int]:
    """pi at scale 2**-W, read from `pi_ball` at W rounded up to a multiple
    of 64 bits, so that the fixed-point passes at nearby scales share one
    cached evaluation.  The reading's radius is one ulp for the cut bits
    plus that ball's radius, a few ulps at the multiple P >= W."""
    return _fx_from_ball(pi_ball(-(-W // 64) * 64), W)


def ln2_ball(prec: int) -> Ball:
    """Enclosure of ln 2 = 2 atanh(1/3)."""
    cached = _LN2_CACHE.get(prec)
    if cached is not None:
        return cached
    w = prec + 16
    v, e = _atan_recip_scaled(3, w, alternate=False)
    mid, rnd = bf_round(1, 2 * v, -w, prec)
    out = Ball(mid, rup_add(rup(bf_shift(bf_from_int(2 * e), -w)), rnd), prec)
    _LN2_CACHE[prec] = out
    return out


# ---------------------------------------------------------------------------
# elementary functions
# ---------------------------------------------------------------------------


def _tol(prec: int) -> BigFloat:
    return bf_two_power(-prec - 8)


def sqrt_ball(a: Ball, prec: int) -> Ball:
    """sqrt(a) by `_fx_sqrt`, a read at scale 2**-(2W - 2j) for
    2**(2j-2) <= a.sup() < 2**2j.  For a.inf() >= 0 that pair reaches below
    0 only by its rounding, so it is cut to one that covers [0, m + r]."""
    if a.inf().sign < 0:
        raise (PrecisionExhausted if a.rad.sign else InvalidArgument)("sqrt of a ball reaching below zero")
    W = prec + _FX_GUARD
    j = (bf_msb_exp(a.sup()) + 1) // 2
    m, r = _fx_from_ball(a, 2 * (W - j))
    return _fx_to_ball(_fx_sqrt((max(m, r), r)), W - j, prec)


def _exp_thin(x: BigFloat, prec: int) -> Ball:
    w = prec + 16
    fx = bf_to_float(x)
    if abs(fx) > 1 << 40:
        raise InvalidArgument("exp argument out of supported range")
    k = int(round(fx * 1.4426950408889634))
    t = Ball.point(x, w)
    if k:
        t = ball_sub(t, ball_mul_rat(ln2_ball(w), k, 1, w), w)
    if bf_cmp(t.mag_sup(), BigFloat(1, 3, -2)) > 0:
        raise PrecisionExhausted("exp argument reduction failed")
    # |t| <= 3/4; sum exp(t) with factorial tail bound
    tol = _tol(prec)
    term = Ball.from_int(1, w)
    total = term
    j = 0
    while True:
        j += 1
        term = ball_mul_rat(ball_mul(term, t, w), 1, j, w)
        total = ball_add(total, term, w)
        m = term.mag_sup()
        if bf_cmp(m, tol) <= 0 and j >= 2:
            # ratio |t|/(j+1) <= 1/2 from here on, so tail <= 2*|term|
            tail = rup_add(bf_shift(m, 1), ZERO)
            total = ball_widen(total, tail)
            break
        if j > 4 * w:
            raise PrecisionExhausted("exp series failed to converge")
    result = Ball(bf_shift(total.mid, k), bf_shift(total.rad, k), w)
    return ball_round(result, prec)


def exp_ball(a: Ball, prec: int) -> Ball:
    return ball_hull(_exp_thin(a.inf(), prec), _exp_thin(a.sup(), prec), prec)


def _log_thin(x: BigFloat, prec: int) -> Ball:
    if x.sign <= 0:
        raise InvalidArgument("log of a nonpositive value")
    w = prec + 16
    s = bf_msb_exp(x)  # x in [2**(s-1), 2**s)
    y = bf_shift(x, -s)  # y in [1/2, 1)
    if bf_cmp(y, BigFloat(1, 3, -2)) < 0:  # y < 3/4: renormalize to [1, 1.5)
        y = bf_shift(y, 1)
        s -= 1
    yb = Ball.point(y, w)
    u = ball_div(ball_sub(yb, Ball.from_int(1, w), w), ball_add(yb, Ball.from_int(1, w), w), w)
    # |u| <= 1/5; ln(y) = 2 * sum u^(2j+1)/(2j+1)
    u2 = ball_mul(u, u, w)
    u2_sup = u2.mag_sup()
    if bf_cmp(u2_sup, BigFloat(1, 1, -1)) >= 0:
        raise PrecisionExhausted("log argument reduction failed")
    term = u
    total = ball_mul_rat(u, 1, 1, w)
    j = 0
    tol = _tol(prec)
    while True:
        j += 1
        term = ball_mul(term, u2, w)
        contrib = ball_mul_rat(term, 1, 2 * j + 1, w)
        total = ball_add(total, contrib, w)
        m = contrib.mag_sup()
        if bf_cmp(m, tol) <= 0:
            # geometric tail with ratio u2 < 1/2: at most 2 m u2
            tail = bf_shift(rup_mul(m, u2_sup), 1)
            total = ball_widen(total, tail)
            break
        if j > 4 * w:
            raise PrecisionExhausted("log series failed to converge")
    total = ball_mul_rat(total, 2, 1, w)
    if s:
        total = ball_add(total, ball_mul_rat(ln2_ball(w), s, 1, w), w)
    return ball_round(total, prec)


def log_ball(a: Ball, prec: int) -> Ball:
    lo = a.inf()
    if lo.sign <= 0:
        raise PrecisionExhausted("log of a ball reaching below zero")
    return ball_hull(_log_thin(lo, prec), _log_thin(a.sup(), prec), prec)


def _fx_atan(x: int, W: int) -> tuple[int, int]:
    """atan(x * 2**-W) at scale 2**-W for an integer x.

    For |x| above one the series runs on 1/|x| from `_fx_div`, its floor
    with one ulp of radius, and atan |x| = pi/2 - atan(1/|x|).  Two halvings
    atan y = 2 atan(y / (1 + sqrt(1 + y**2))) by `_fx_sqrt` and `_fx_div`
    bring the argument below tan(pi/16) < 0.2, where the alternating series
    runs at the pair's midpoint, widened by its radius as atan is
    1-Lipschitz.  The remainder is at most the first omitted term, and the
    loop stops once that term's bound is at most 2**_FX_GUARD ulps (the
    `_fx_tail` test).
    """
    one, ax = 1 << W, abs(x)
    y = _fx_div((one, 0), (ax, 0), W) if ax > one else (ax, 0)
    for _ in range(2):
        ym, yr = y
        root = _fx_sqrt(((one << W) + ym * ym, (2 * abs(ym) + yr) * yr))
        y = _fx_div(y, _fx_add((one, 0), root), W)
    m, r = y
    x2 = _fx_mul((m, 0), (m, 0), W)
    power, total_m, total_r = (m, 0), m, r
    j = 0
    while True:
        j += 1
        power = _fx_mul(power, x2, W)
        term = _fx_mul_rat(power, 1, 2 * j + 1)
        tail = _fx_tail(term, 1, 1, 1 << _FX_GUARD)
        if tail is not None:
            break
        total_m += -term[0] if j & 1 else term[0]
        total_r += term[1]
    total = 4 * total_m, 4 * (total_r + tail)
    if ax > one:
        total = _fx_sub(_fx_pi(W - 1), total)
    return (total[0] if x >= 0 else -total[0]), total[1]


def atan_ball(a: Ball, prec: int) -> Ball:
    """atan(a) from one fixed-point evaluation, at the midpoint.  a read at
    scale 2**-W is m +/- r, r covering a's radius and the bits dropped from
    its midpoint; `_fx_atan` encloses atan m, and by the mean value theorem
    atan moves by at most r / (1 + max(|m| - r, 0)**2) over the ball, as
    1 / (1 + t**2) is largest where |t| is least.  That bound, rounded up
    by `_fx_tail` (it never exceeds r, the test's limit), widens the
    radius; for r up to 1/8 it is at most 1.13 times the radius of the
    exact hull."""
    W = prec + 16 + _FX_GUARD
    m, r = _fx_from_ball(a, W)
    low = max(abs(m) - r, 0)
    slope = _fx_tail((0, r), 1 << 2 * W, (1 << 2 * W) + low * low, r)
    am, ar = _fx_atan(m, W)
    return _fx_to_ball((am, ar + slope), W, prec)


def asin_ball(a: Ball, prec: int) -> Ball:
    w = prec + 8
    one = Ball.from_int(1, w)
    inner = ball_sub(one, ball_mul(a, a, w), w)
    if not certainly_positive(inner):
        raise PrecisionExhausted("asin argument must lie certainly inside (-1, 1)")
    return ball_round(atan_ball(ball_div(a, sqrt_ball(inner, w), w), w), prec)


def _fx_sin_cos(x: tuple[int, int], W: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(sin x, cos x) in fixed point for x = (m +/- r) * 2**-W, |m| <= 8 * 2**W.

    The series runs at the midpoint: its terms x**k / k! go to cos for even
    k and to sin for odd k, with the sign (-1)**(k // 2).  Once
    |x| / (k + 1) <= 1/2 the terms after the k-th add up to at most the
    k-th, so what either sum drops is at most the last term's bound; the
    loop stops once that bound is at most one ulp at W - _FX_GUARD (the
    `_fx_tail` test) and widens both sums by it, and by r, as sin and cos
    are 1-Lipschitz.
    """
    m, r = x
    if abs(m) > 8 << W:
        raise InvalidArgument("sin/cos argument out of supported range (|x| <= 8)")
    term = (1 << W, 0)
    sums = [[1 << W, 0], [0, 0]]  # cos, sin
    k = 0
    while True:
        k += 1
        term = _fx_mul_rat(_fx_mul(term, (m, 0), W), 1, k)
        part = sums[k & 1]
        part[0] += -term[0] if k & 2 else term[0]
        part[1] += term[1]
        if 2 * abs(m) <= (k + 1) << W:
            tail = _fx_tail(term, 1, 1, 1 << _FX_GUARD)
            if tail is not None:
                (cm, cr), (sm, sr) = sums
                return (sm, sr + tail + r), (cm, cr + tail + r)


def sin_ball(a: Ball, prec: int) -> Ball:
    W = prec + 16 + _FX_GUARD
    return _fx_to_ball(_fx_sin_cos(_fx_from_ball(a, W), W)[0], W, prec)


def cos_ball(a: Ball, prec: int) -> Ball:
    W = prec + 16 + _FX_GUARD
    return _fx_to_ball(_fx_sin_cos(_fx_from_ball(a, W), W)[1], W, prec)


def pow_rational(a: Ball, p: int, q: int, prec: int) -> Ball:
    """a**(p/q) for a certainly positive ball; p >= 0 and q > 0.

    x**(p/q) is increasing on x > 0, so the lower bound comes from a.inf()
    and the upper one from a.sup().  With 2**g <= a.inf() < 2**(g+1), each
    endpoint x is f * 2**g with f >= 1, F = f**p is enclosed in fixed point
    at W bits by _fx_pow, and 2**h with h >= 0 is certainly at most the F
    of a.inf().  With g*p + h = q*s + t and 0 <= t < q,

        x**(p/q) = z**(1/q) * 2**s,  z = F * 2**(t - h) >= 1,

    where z lies in _fx_mul_rat(F, 2**t, 2**h).  Integers whose fixed-point
    q-th powers are certainly below every z of a.inf(), and above every z of
    a.sup(), times 2**(s - W), bound a**(p/q).

    One Newton solve, at the mean zm of the two midpoints, serves both.  To
    an end em the root moves by the factor (em/zm)**(1/q), em/zm <= 2, which
    a float gives to about 50 bits (by log1p near 1, where logs cancel).
    Each bound starts there, one step outward, the step covering the end's
    radius, c * er / (q zm), the float's error and four ulps for the error
    of c and the floors of the power.  Only the fixed-point power of a
    candidate, radius included, decides (`_root_bound`); a rejected one
    steps outward, the step doubling each time.  Upward, with C = c * 2**-W,
    the power's midpoint is about C**q * 2**W ulps and its radius, made only
    of the floors of products of the exact c, about q * C**(q-1) ulps, so the
    gap grows without bound and some step clears it.  Downward, any c <= 2**W
    is a lower bound, as z >= 1, so c stops there at the latest.
    """
    if p < 0 or q <= 0:
        raise ValueError("p must be non-negative and q positive")
    if not certainly_positive(a):
        raise PrecisionExhausted("pow_rational base must be certainly positive")
    W = prec + 16 + _FX_GUARD
    g = bf_msb_exp(a.inf()) - 1
    F = [_fx_pow(_fx_from_ball(Ball.point(x, W), W - g), p, W) for x in (a.inf(), a.sup())]
    h = max(0, (F[0][0] - F[0][1]).bit_length() - 1 - W)
    s, t = divmod(g * p + h, q)
    ends = [_fx_mul_rat(f, 1 << t, 1 << h) for f in F]
    zm = (ends[0][0] + ends[1][0]) >> 1
    lc = (math.log2(zm) - W) / q + W
    k = int(lc)
    c = (int(2.0 ** (lc - k) * 2.0**52) << k) >> 52
    # Newton on c**q = zm * 2**(W*(q-1)); the float gives about 45 bits, and
    # once a step d has q d**2 <= c the next one would be below half an ulp
    for _ in range(W.bit_length()):
        d = ((q - 1) * c + (zm << W) // _fx_pow_mid(c, q - 1, W)) // q - c
        c += d
        if q * d * d <= c:
            break
    bounds = []
    for (em, er), upper in zip(ends, (False, True)):
        log_ratio = math.log1p((em - zm) / zm) if 2 * em > zm else math.log(em) - math.log(zm)
        man, ex = math.frexp(math.expm1(log_ratio / q))
        move = c * int(man * 2.0**53) >> (53 - ex)
        step = c * er // (q * zm) + (abs(move) >> 48) + 4
        b = _root_bound(c + move, step, (em, er), q, W, upper)
        bounds.append(bf_shift(bf_from_int(b), s - W))
    return ball_from_endpoints(*bounds, prec)


def _root_bound(b: int, step: int, end: tuple[int, int], q: int, W: int, upper: bool) -> int:
    """The first of b + step, b + 3 step, b + 7 step, ... (upper), or of
    b - step, b - 3 step, ... floored at 2**W, whose fixed-point q-th power at
    W bits lies certainly above (below) every value of the fixed-point end."""
    (em, er), one = end, 1 << W
    while True:
        b = b + step if upper else max(b - step, one)
        pm, pr = _fx_pow((b, 0), q, W)
        if (pm - pr >= em + er) if upper else (b <= one or pm + pr <= em - er):
            return b
        step *= 2


# ---------------------------------------------------------------------------
# decimal serialization:  "<mid> +/- <rad>", read back exactly
# ---------------------------------------------------------------------------


def _times10(num: int, den: int, k: int) -> tuple[int, int]:
    """(num / den) * 10**k as a ratio of integers."""
    return (num * 10**k, den) if k >= 0 else (num, den * 10**-k)


def _floor_log10(num: int, den: int) -> int:
    """floor(log10(num / den)) for positive integers num and den: a float
    estimate, corrected on integers (10**e <= num / den when the ratio
    den 10**e / num is at most 1)."""
    e = math.floor(math.log10(num) - math.log10(den))
    while (r := _times10(den, num, e + 1))[0] <= r[1]:
        e += 1
    while (r := _times10(den, num, e))[0] > r[1]:
        e -= 1
    return e


def _format_decimal(q: int, e10: int) -> str:
    """Scientific string for q * 10**e10 with q an integer."""
    s = str(abs(q))
    return "%s%s%se%+d" % ("-" if q < 0 else "", s[0], "." + s[1:] if s[1:] else "", e10 + len(s) - 1)


def ball_to_str(b: Ball, max_digits: int | None = None) -> str:
    """"<mid> +/- <rad>": mid rounded half away from zero to the digits
    that reach about rad/8, and rad rounded up to two digits after adding
    the rounding error of mid, on the integers of the dyadic mid and rad."""
    # |mid| = mn / den and the radius to write tn / td
    e = min(b.mid.exp, b.rad.exp, 0)
    mn, tn, td = b.mid.man << (b.mid.exp - e), b.rad.man << (b.rad.exp - e), 1 << -e
    if not mn:
        mid_str = "0"
    else:
        e10 = _floor_log10(mn, td)
        if tn:
            # print down to roughly rad/8 so the widening stays marginal
            digits = max(1, e10 - _floor_log10(tn, 8 * td) + 1)
        else:
            digits = int(b.prec * 0.30103) + 2
        if max_digits is not None:
            digits = min(digits, max_digits)
        shift = digits - 1 - e10
        num, den = _times10(mn, td, shift)
        q = (2 * num + den) // (2 * den)
        mid_str = _format_decimal(q if b.mid.sign > 0 else -q, -shift)
        # add the rounding error |mid - q 10**-shift|
        dn, dd = _times10(abs(num - q * den), den, -shift)
        tn, td = tn * dd + dn * td, td * dd
    if not tn:
        return "%s +/- 0" % mid_str
    er = _floor_log10(tn, td)
    num, den = _times10(tn, td, 1 - er)
    return "%s +/- %s" % (mid_str, _format_decimal(-(-num // den), er - 1))


# the largest decimal exponent a parsed ball string may carry; at the 8192-bit
# precision cap `ball_to_str` writes exponents of about 2500 at most
MAX_DECIMAL_EXPONENT = 100_000

# sign, digits, an optional point and digits, an optional exponent, twice
_DECIMAL = r"([-+]?[0-9]+)(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?"
_BALL_STR = re.compile(r"\s*%s\s*\+/-\s*%s\s*" % (_DECIMAL, _DECIMAL))


def ball_str_decimals(s: str) -> tuple[int, int, int]:
    """The exact midpoint and radius of a "<mid> +/- <rad>" string, whose
    parts are decimals of the grammar above, as integers over one power of
    ten: (mid, rad, den) for mid/den +/- rad/den.  A negative radius is a
    ValueError, and so is an exponent beyond MAX_DECIMAL_EXPONENT in
    magnitude, before a short string can expand a huge power of ten."""
    match = _BALL_STR.fullmatch(s)
    if match is None:
        raise ValueError("not a ball string: %r" % (s,))
    im, fm, xm, ir, fr, xr = match.groups("")
    mid, rad, em, er = int(im + fm), int(ir + fr), int(xm or 0), int(xr or 0)
    if rad < 0 or max(abs(em), abs(er)) > MAX_DECIMAL_EXPONENT:
        raise ValueError("negative radius or exponent beyond %d in %r" % (MAX_DECIMAL_EXPONENT, s))
    em, er = em - len(fm), er - len(fr)
    e = min(em, er, 0)
    return mid * 10 ** (em - e), rad * 10 ** (er - e), 10**-e


def ball_from_str(s: str, prec: int) -> Ball:
    """A ball at precision prec that encloses the string's ball.  The parse
    rounds outward, by an amount that depends on prec, so verdicts never use
    it: `certify.strictness` compares the exact values instead."""
    mid, rad, den = ball_str_decimals(s)
    mid_bf, err = bf_from_fraction(Fraction(mid, den), prec)
    rad_bf, rad_err = bf_from_fraction(Fraction(rad, den), RADIUS_PREC + 4)
    return Ball(mid_bf, rup_add(rup_add(rup(rad_bf), rup(rad_err)), err), prec)
