"""Certified special functions.

Half-integer gamma values are exact rationals times a power of sqrt(pi).
Every hypergeometric series, terminating or not, follows one tail rule: from
an index N past which every term ratio is at most some q < 1 in absolute
value (q = |z| from the exact `_ratio_threshold` on), the series stops at
the first term t with |t| q / (1 - q) <= tol and is widened by that bound.
Only a terminating series with no such bound runs to its last term, and a
terminating 2F1 at a point argument is summed exactly in rationals.  Appell
F1 follows the iterated reduction, whose outer series obeys the same rule
with every inner 2F1 bounded by U = sum |(b1)_m| / m! |x|^m; its c = a+1
case collapses to the separable double sum a * sum P_m Q_n / (a+m+n).

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

from . import oracle
from .bigfloat import (
    BigFloat,
    ZERO,
    ONE,
    bf_cmp,
    bf_from_int,
    bf_msb_exp,
    bf_shift,
    bf_to_fraction,
    bf_two_power,
    rup,
    rup_add,
    rup_div,
    rup_mul,
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
    ball_add,
    ball_div,
    ball_mul,
    ball_mul_rat,
    ball_pow_int,
    ball_round,
    ball_sub,
    ball_widen,
    asin_ball,
    pi_ball,
    sqrt_ball,
)
from .errors import DivergentParameters, DomainViolation, InvalidC, PrecisionExhausted

__all__ = [
    "HalfGamma",
    "gamma_half",
    "gamma_half_product",
    "unit_ball_volume",
    "SeriesTail",
    "gauss_2f1",
    "gauss_2f1_detailed",
    "ClosedForm2F1",
    "closed_form_recursion",
    "eval_closed_form",
    "appell_f1",
    "appell_f1_quadrature",
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


def gamma_half_product(num_two_xs, den_two_xs, extra_sqrt_pi: int = 0):
    """Exact (rational, sqrt_pi_power) for prod Gamma(n_i/2) / prod Gamma(d_j/2).

    The returned power counts net factors of sqrt(pi) (plus extra_sqrt_pi).
    """
    q = Fraction(1)
    s = extra_sqrt_pi
    for t in num_two_xs:
        g = gamma_half(t)
        q *= g.q
        s += g.s
    for t in den_two_xs:
        g = gamma_half(t)
        q /= g.q
        s -= g.s
    return q, s


def sqrt_pi_power_ball(q: Fraction, s: int, prec: int) -> Ball:
    """Enclosure of q * sqrt(pi)**s (s any integer)."""
    w = prec + 8
    out = Ball.from_fraction(q, w)
    if s:
        p = ball_pow_int(pi_ball(w), abs(s) // 2, w)
        if abs(s) % 2:
            p = ball_mul(p, sqrt_ball(pi_ball(w), w), w)
        out = ball_mul(out, p, w) if s > 0 else ball_div(out, p, w)
    return ball_round(out, prec)


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
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if _is_nonpos_int(c):
        raise InvalidC("c must not be a non-positive integer")
    tol = tol or _default_tol(prec)
    w = prec + 8

    order = _terminating_order(a, b)
    if order is not None and z.is_exact():
        # dyadic midpoint: the whole sum is an exact rational
        zf = bf_to_fraction(z.mid)
        coef = Fraction(1)
        total = Fraction(1)
        zp = Fraction(1)
        for m in range(order):
            coef *= (a + m) * (b + m) / ((c + m) * (m + 1))
            zp *= zf
            total += coef * zp
        return Ball.from_fraction(total, prec), None

    W = w + _FX_GUARD
    zsup = Fraction(bf_to_fraction(z.mag_sup()))
    if zsup < 1:
        n1 = _ratio_threshold(a, b, c)
        tail_factor = zsup / (1 - zsup)
        # headroom log2((1+|z|)/(1-|z|)^2) + 1, rounded up: for x = p/q,
        # log2 x < bitlen(p) - bitlen(q) + 1
        room = (1 + zsup) / (1 - zsup) ** 2
        W += room.numerator.bit_length() - room.denominator.bit_length() + 2
    elif order is None:
        raise DivergentParameters("|z| must be certainly below 1")
    else:
        n1 = order  # no tail bound: sum every term
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
# exact closed forms for 2F1(1/2, m/2; 3/2; z), m odd <= 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm2F1:
    """sqrt(1-z) * P(z) + c * arcsin(sqrt(z)) / sqrt(z), P rational."""

    coeffs: tuple[Fraction, ...]  # P, ascending degree
    c: Fraction


def closed_form_recursion(m: int) -> ClosedForm2F1:
    """Exact (P, c) for 2F1(1/2, m/2; 3/2; z) built by lowering b from 1/2."""
    if m % 2 == 0 or m > 1:
        raise ValueError("m must be odd and at most 1")
    coeffs: list[Fraction] = []
    c = Fraction(1)
    b = Fraction(1, 2)
    while 2 * b > m:
        # P_new = (z(1-z)P' + (3/2 - b - z)P + c/2) / (3/2 - b)
        new = [Fraction(0)] * (len(coeffs) + 2)
        for i, p in enumerate(coeffs):
            if i >= 1:
                new[i] += i * p       # z P'
                new[i + 1] -= i * p   # -z^2 P'
            new[i] += (Fraction(3, 2) - b) * p
            new[i + 1] -= p           # -z P
        new[0] += c / 2
        denom = Fraction(3, 2) - b
        coeffs = [x / denom for x in new]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        c = c * (1 - b) / denom
        b -= 1
    return ClosedForm2F1(tuple(coeffs), c)


def eval_closed_form(cf: ClosedForm2F1, z: Ball, prec: int) -> Ball:
    w = prec + 8
    pz = Ball.from_int(0, w)
    for coeff in reversed(cf.coeffs):
        pz = ball_add(ball_mul(pz, z, w), Ball.from_fraction(coeff, w), w)
    one = Ball.from_int(1, w)
    out = ball_mul(sqrt_ball(ball_sub(one, z, w), w), pz, w)
    sz = sqrt_ball(z, w)
    arc = ball_div(asin_ball(sz, w), sz, w)
    out = ball_add(out, ball_mul_rat(arc, cf.c.numerator, cf.c.denominator, w), w)
    return ball_round(out, prec)


# ---------------------------------------------------------------------------
# Appell F1
# ---------------------------------------------------------------------------


def _pochhammer_series_threshold(b: Fraction, xsup: Fraction) -> tuple[int, Fraction]:
    """(N, q): for m >= N, |(b+m)/(m+1)| * xsup <= q < 1 for sum (b)_m x^m / m!."""
    if xsup >= 1:
        raise DivergentParameters("|x| must be certainly below 1")
    if b <= 1:
        return _ratio_threshold(Fraction(1), b, Fraction(1)), xsup
    q = (1 + xsup) / 2
    # (b+m)/(m+1) decreases in m for b > 1; find the first admissible m
    n = max(0, _fr_ceil((b * xsup - q) / (q - xsup)))
    while (b + n) * xsup > (n + 1) * q:
        n += 1
    return n, q


def _pochhammer_series(
    b: Fraction, x: Ball, w: int, tol: BigFloat
) -> tuple[list[Ball], BigFloat, BigFloat]:
    """Terms P_m = (b)_m x^m / m! as balls.

    Returns (terms, tail, abs_sum) where tail bounds sum of |P_m| beyond the
    list and abs_sum bounds sum of |P_m| over the whole series.
    """
    order = int(-b) if _is_nonpos_int(b) else None
    xsup = Fraction(bf_to_fraction(x.mag_sup()))
    if order is None or xsup < 1:
        n1, q = _pochhammer_series_threshold(b, xsup)
        tf = q / (1 - q)
    else:
        n1 = order  # no tail bound: sum every term
    terms = [Ball.from_int(1, w)]
    abs_sum = rup(ONE)
    m = 0
    budget = order if order is not None else n1 + 64 * w + 256
    # (b+m)/(m+1) is the 2F1 term ratio with a = c = 1
    one, ib, _, d = _scaled(Fraction(1), b, Fraction(1))
    while m != order:
        p, q = _term_ratio(one, ib, one, d, m)
        terms.append(ball_mul(ball_mul_rat(terms[-1], p, q, w), x, w))
        m += 1
        mag = terms[-1].mag_sup()
        abs_sum = rup_add(abs_sum, mag)
        if n1 <= m != order:
            tail = rup_mul_rat(mag, tf.numerator, tf.denominator)
            if bf_cmp(tail, tol) <= 0:
                return terms, tail, rup_add(abs_sum, tail)
        if m > budget:
            raise PrecisionExhausted("series did not reach its tail tolerance")
    return terms, ZERO, abs_sum


def _abs_pochhammer_bound(b: Fraction, tsup: Fraction, w: int) -> BigFloat:
    """Upper bound for sum_m |(b)_m| / m! * tsup^m; the sum is finite for
    non-positive integer b, otherwise tsup < 1 is required."""
    if _is_nonpos_int(b):
        # |(b)_m| / m! is the binomial coefficient C(-b, m)
        return rup(Ball.from_fraction((1 + tsup) ** int(-b), w).mag_sup())
    if tsup >= 1:
        raise DivergentParameters("bound requires |t| < 1")
    if b > 0:
        raise DivergentParameters("uniform bound implemented for b <= 0 only")
    total = coef = tp = Fraction(1)
    for m in range(_fr_ceil(-b) + 1):
        coef *= abs(Fraction(b + m, m + 1))
        tp *= tsup
        total += coef * tp
    # beyond ceil(-b)+1 every factor |(b+m)/(m+1)| <= 1, geometric in tsup
    total += coef * tp * tsup / (1 - tsup)
    return rup(Ball.from_fraction(total, w).mag_sup())


def appell_f1(a, b1, b2, c, x: Ball, y: Ball, prec: int, tol: BigFloat | None = None) -> Ball:
    """First Appell function F1(a; b1, b2; c; x, y).

    Arguments must lie certainly inside the unit disc, except that a
    direction whose b-parameter is a non-positive integer terminates and
    places no constraint on its argument.
    """
    a, b1, b2, c = Fraction(a), Fraction(b1), Fraction(b2), Fraction(c)
    if _is_nonpos_int(c):
        raise InvalidC("c must not be a non-positive integer")
    xsup = Fraction(bf_to_fraction(x.mag_sup()))
    ysup = Fraction(bf_to_fraction(y.mag_sup()))
    if xsup >= 1 and not _is_nonpos_int(b1):
        raise DomainViolation("F1 x-argument must lie certainly inside the unit disc")
    if ysup >= 1 and not _is_nonpos_int(b2):
        raise DomainViolation("F1 y-argument must lie certainly inside the unit disc")
    tol = tol or _default_tol(prec)
    w = prec + 8

    if c == a + 1 and a > 0 and xsup < 1:
        return _appell_f1_separable(a, b1, b2, x, y, w, prec, tol)
    return _appell_f1_iterated(a, b1, b2, c, x, y, w, prec, tol)


def _appell_f1_separable(a, b1, b2, x, y, w, prec, tol) -> Ball:
    """F1(a, b1, b2, a+1; x, y) = a * sum_{m,n} P_m Q_n / (a+m+n)."""
    tol_q = rup_mul_rat(tol, 1, 16)
    q_terms, q_tail, q_abs = _pochhammer_series(b2, y, w, tol_q)
    # choose the x-series tolerance against the y-side mass
    denom = q_abs if q_abs.sign else ONE
    tol_p = rup_mul_rat(rup_div(tol, denom), 1, 16)
    p_terms, p_tail, _ = _pochhammer_series(b1, x, w, tol_p)

    # suffix[n] bounds sum of |Q_i| for i >= n (including the off-list tail)
    nq = len(q_terms)
    suffix = [q_tail] * (nq + 1)
    for n in range(nq - 1, -1, -1):
        suffix[n] = rup_add(suffix[n + 1], q_terms[n].mag_sup())

    total = Ball.from_int(0, w)
    slack = rup_mul(p_tail, q_abs) if p_tail.sign else ZERO
    row_tol = rup_mul_rat(tol, 1, 4 * len(p_terms))
    for m, pm in enumerate(p_terms):
        pmag = pm.mag_sup()
        n = 0
        while n < nq:
            # a/(a+m+n) <= 1, so the rest of this row is below pmag*suffix[n]
            if n and bf_cmp(rup_mul(pmag, suffix[n]), row_tol) <= 0:
                break
            qn = q_terms[n]
            af = Fraction(a, a + m + n)
            total = ball_add(
                total, ball_mul_rat(ball_mul(pm, qn, w), af.numerator, af.denominator, w), w
            )
            n += 1
        slack = rup_add(slack, rup_mul(pmag, suffix[n]))
    total = ball_widen(total, slack)
    return ball_round(total, prec)


def _appell_f1_iterated(a, b1, b2, c, x, y, w, prec, tol) -> Ball:
    """Literal iterated reduction: sum_n [(a)_n (b2)_n / ((c)_n n!)] y^n 2F1(a+n, b1; c+n; x).

    With c >= a > 0 and b1 <= 0 every inner value is at most
    U = sum_m |(b1)_m| / m! |x|^m, so once the outer term ratio stays below
    |y| < 1 the rest of the sum is at most |coef_n| U (1 + |y| / (1 - |y|)).
    A terminating b2 without that bound sums every term.  Each inner value
    comes from the module attribute `gauss_2f1`, so a wrapper that counts or
    times it sees every call, and is converted to fixed point once.
    """
    order = int(-b2) if _is_nonpos_int(b2) else None
    ysup = Fraction(bf_to_fraction(y.mag_sup()))
    bounded = c >= a > 0 and b1 <= 0 and ysup < 1
    if order is None and not bounded:
        raise DivergentParameters("iterated F1 tail bound needs c >= a > 0 and b1 <= 0")
    inner_tol = rup_mul_rat(tol, 1, 64)
    W = w + _FX_GUARD
    if bounded:
        n1 = _ratio_threshold(a, b2, c)
        xsup = Fraction(bf_to_fraction(x.mag_sup()))
        u_bound = _abs_pochhammer_bound(b1, xsup, w)
        # the tail multiplies the coefficient's radius by U
        W += bf_msb_exp(u_bound)
        tail_factor = bf_to_fraction(u_bound) * (1 + ysup / (1 - ysup))
    else:
        n1 = order  # no tail bound: sum every term
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


def appell_f1_quadrature(
    a,
    b1,
    b2,
    c,
    x: Ball,
    y: Ball,
    prec: int,
    target_width: BigFloat | None = None,
    budget: int = 200_000,
) -> Ball:
    """F1 via the Euler-type integral a-la Picard; cross-check path.

    Needs c - a a positive integer and a >= 1 so the integrand
    t^(a-1) (1-t)^(c-a-1) (1-x t)^(-b1) (1-y t)^(-b2) is smooth on [0, 1].
    """
    a, b1, b2, c = Fraction(a), Fraction(b1), Fraction(b2), Fraction(c)
    diff = c - a
    if diff.denominator != 1 or diff < 1:
        raise DomainViolation("quadrature path requires c - a a positive integer")
    if a < 1:
        raise DomainViolation("quadrature path requires a >= 1")
    xsup = Fraction(bf_to_fraction(x.mag_sup()))
    ysup = Fraction(bf_to_fraction(y.mag_sup()))
    if xsup >= 1 or ysup >= 1:
        raise DomainViolation("F1 arguments must lie certainly inside the unit disc")
    w = prec + 8
    if target_width is None:
        # cross-check-oracle scale; tight widths come from the series path
        target_width = bf_two_power(-20)
    integrand = oracle.picard_integrand(a, b1, b2, int(diff), x, y, w)
    task = oracle.QuadratureTask(
        integrand=integrand,
        lower=Ball.from_int(0, w),
        upper=Ball.from_int(1, w),
        prec=w,
    )
    integral = oracle.verified_integral(task, target_width, budget)
    # Gamma(c) / (Gamma(a) Gamma(c-a)) = (a)_(c-a) / Gamma(c-a), both exact here
    rising = Fraction(1)
    for i in range(int(diff)):
        rising *= a + i
    factor = rising / math.factorial(int(diff) - 1)
    out = ball_mul_rat(integral, factor.numerator, factor.denominator, w)
    return ball_round(out, prec)
