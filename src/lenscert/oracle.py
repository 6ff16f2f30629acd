"""Second evaluation paths for the certificate's agreement check, and the
exact values behind the `exact` reports.

Contains the verified fixed-point five-point Gauss-Legendre quadrature of
the competitor's arc integrands, the exact cosine-power recursion for the
lens quantities, the polynomial evaluation of the competitor energy for odd
index pairs, and exact arithmetic in the field Q(sqrt2, sqrt3) for the
balanced odd case.  One integrand polynomial per arc, `_arc_poly_integrals`,
serves both the ball-valued polynomial path and the exact field path.  The
competitor paths share `geom.lawson_constants` and `geom.assemble_competitor`
with the special-function path they check, so they are independent in the
arc integrals only; the references that share no code with lenscert are the
mpmath evaluations in the tests.

Normalization rule for the exact balanced-case field elements: the numerator
and denominator of M(k,k) are each scaled by the least positive rational that
turns all four coordinates into coprime integers.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .bigfloat import (
    BigFloat,
    ONE,
    ZERO,
    bf_add_exact,
    bf_from_int,
    bf_neg,
    bf_shift,
    bf_to_fraction,
    rup,
    rup_add,
    rup_mul,
    rup_mul_rat,
)
from .ball import (
    _FX_GUARD,
    Ball,
    _fx_from_ball,
    _fx_mul,
    _fx_pow,
    _fx_sin_cos,
    _fx_to_ball,
    ball_add,
    ball_div,
    ball_mul,
    ball_mul_rat,
    ball_round,
    ball_sub,
    ball_widen,
    pi_ball,
    pow_rational,
    sqrt_ball,
)
from .errors import DomainViolation, QuadratureBudgetExceeded
from .specfun import unit_ball_volume, unit_ball_volume_product

__all__ = [
    "arc_profile_quadrature",
    "LensExact",
    "lens_exact_wallis",
    "lambda_plane_exact_ball",
    "QSqrt23",
    "SimonsExact",
    "exact_simons_m",
    "polynomial_m_value",
]


# ---------------------------------------------------------------------------
# verified quadrature of the competitor's arc integrands
# ---------------------------------------------------------------------------


# evaluations one arc quadrature may spend: 5 per Gauss-Legendre piece
QUADRATURE_BUDGET = 400_000

# c5 = (5!)^4 / (11 (10!)^3): on a piece of length h the five-point rule
# misses the integral by c5 h^11 f^(10)(xi) (Abramowitz-Stegun 25.4.29-30)
GAUSS5_REMAINDER = Fraction(math.factorial(5) ** 4, 11 * math.factorial(10) ** 3)


def arc_profile_quadrature(
    radius: Ball,
    offset: Ball,
    kk: int,
    jj: int,
    lower: Ball,
    upper: Ball,
    w: int,
    target_width: BigFloat,
) -> tuple[Ball, Ball]:
    """Five-point Gauss-Legendre quadrature of (radius sin t - offset)^kk cos(t)^j
    for j = jj and j = jj + 2: the pair (J_jj, J_jj+2), both from one pass.

    One pass of the fixed-point node kernel `_arc_gauss5_pass` (fixed-point
    sin/cos series, exact integer sums, one ulp per product) runs at the
    smallest node count n whose remainder bound c5 max(d10) L^11 / n^10,
    from a global bound d10 on the tenth derivative over the length L, is at
    most a quarter of the target width.  The result is sound whether or not
    it meets the target; a caller that needs a narrower one asks again with a
    smaller target.  A pass that would spend more than QUADRATURE_BUDGET
    evaluations raises QuadratureBudgetExceeded.

    The pass integrates from lower.mid to upper.mid; every result is widened
    by (lower.rad + upper.rad) * bmax^kk, with bmax = |radius - offset|,
    for the integral over the endpoint bands.  Like d10, that bound on |f|
    rests on |radius sin t - offset| <= bmax: on the arc range the value
    lies in [0, bmax], and on the tiny endpoint bands it stays at most bmax
    (sin t <= 1) and falls below 0 by at most radius times the band's
    width.
    """
    a0, b0 = lower.mid, upper.mid
    total_len = bf_add_exact(b0, bf_neg(a0))
    if total_len.sign < 0:
        raise ValueError("integration endpoints out of order")

    # on the arc range radius*sin(t) - offset stays within [0, radius - offset]
    bmax = ball_sub(radius, offset, w).mag_sup()
    d10_bounds = [_arc_derivative_bound(radius, bmax, kk, j, 10) for j in (jj, jj + 2)]
    # bmax^kk, the order-0 bound, holds for every j as |cos t| <= 1
    slop = rup_mul(rup_add(lower.rad, upper.rad), _arc_derivative_bound(radius, bmax, kk, 0, 0))

    length_fr = bf_to_fraction(total_len)
    d10_max = max(bf_to_fraction(b) for b in d10_bounds)
    n = _remainder_nodes(
        4 * GAUSS5_REMAINDER * d10_max * length_fr**11 / bf_to_fraction(target_width)
    )
    if 5 * n > QUADRATURE_BUDGET:
        raise QuadratureBudgetExceeded("arc quadrature budget exhausted")
    out = _arc_gauss5_pass(radius, offset, kk, jj, a0, length_fr, n, w, d10_bounds)
    return tuple(ball_widen(b, slop) for b in out)


def _remainder_nodes(need: Fraction) -> int:
    """Smallest n >= 1 with n**10 >= need."""
    if need <= 1:
        return 1
    n = math.ceil(2 ** ((math.log2(need.numerator) - math.log2(need.denominator)) / 10))
    while n**10 < need:
        n += 1
    while n > 1 and (n - 1) ** 10 >= need:
        n -= 1
    return n


def _arc_derivative_bound(radius: Ball, bmax: BigFloat, kk: int, j: int, order: int) -> BigFloat:
    """Upper bound for |d^order/dt^order (radius sin t - offset)^kk cos^j t|
    on a range where 0 <= radius*sin(t) - offset <= bmax: the sum over the
    terms of `_derivative_terms` of |K| R^(kk-p) bmax^p max |cos^q sin^r|.
    Summing absolute values keeps this an overestimate of the true
    derivative magnitude."""
    rmag = rup(radius.mag_sup())
    bmax = rup(bmax)
    bpows = [rup(ONE)]
    for _ in range(kk):
        bpows.append(rup_mul(bpows[-1], bmax))
    rpows = [rup(ONE)]
    for _ in range(order):
        rpows.append(rup_mul(rpows[-1], rmag))
    total = ZERO
    for (p, q, r), coef in _derivative_terms(kk, j, order):
        mag = rup_mul_rat(rup_mul(bpows[p], rpows[kk - p]), abs(coef), 1)
        mag = rup_mul(mag, _trig_product_bound(q, r))
        total = rup_add(total, mag)
    return total


@functools.lru_cache(maxsize=None)
def _derivative_terms(kk: int, j: int, order: int) -> tuple:
    """The terms ((p, q, r), K) of d^order/dt^order b^kk cos^j t, each
    K R^(kk-p) b^p cos^q sin^r: the term algebra differentiated symbolically
    (b' = R cos, cos' = -sin, sin' = cos) with integer coefficients K.
    Exponents of cos/sin never go negative because the lowering paths carry
    factors q resp. r, and p never exceeds kk."""
    terms = {(kk, j, 0): 1}
    for _ in range(order):
        new: dict = {}
        for (p, q, r), coef in terms.items():
            for key, c2 in (
                ((p - 1, q + 1, r), coef * p),
                ((p, q - 1, r + 1), -coef * q),
                ((p, q + 1, r - 1), coef * r),
            ):
                if c2:
                    new[key] = new.get(key, 0) + c2
        terms = new
    return tuple(terms.items())


@functools.lru_cache(maxsize=None)
def _trig_product_bound(q: int, r: int) -> BigFloat:
    """Upper bound for max |cos^q t sin^r t| = sqrt(q^q r^r / (q+r)^(q+r))."""
    if q <= 0 or r <= 0:
        return rup(ONE)
    m2 = Fraction(q**q * r**r, (q + r) ** (q + r))
    # upper bound of the square root of an exact rational
    scale = 1 << 40
    num = m2.numerator * scale * scale
    root = math.isqrt(num // m2.denominator) + 1
    return rup(bf_shift(bf_from_int(root), -40))


def _gauss5_rule(w: int) -> tuple[tuple[Ball, Ball], tuple[Ball, Ball, Ball]]:
    """Five-point Gauss-Legendre on [-1, 1] as balls at w: the nodes x1 < x2
    of 0, +/-x1, +/-x2, x1,2 = sqrt(5 -/+ 2 sqrt(10/7)) / 3, and the weights
    w0 = 128/225 at 0 and w1,2 = (322 +/- 13 sqrt70) / 900 at +/-x1,2."""
    s70 = sqrt_ball(Ball.from_int(70, w), w)
    five, two_r = Ball.from_int(5, w), ball_mul_rat(s70, 2, 7, w)  # 2 sqrt(10/7)
    x1, x2 = (ball_mul_rat(sqrt_ball(op(five, two_r, w), w), 1, 3, w) for op in (ball_sub, ball_add))
    base, spread = Ball.from_int(322, w), ball_mul_rat(s70, 13, 1, w)
    w1, w2 = (ball_mul_rat(op(base, spread, w), 1, 900, w) for op in (ball_add, ball_sub))
    return (x1, x2), (Ball.from_fraction(Fraction(128, 225), w), w1, w2)


# weight class (0: centre, 1: inner, 2: outer) of the five nodes of a piece
_NODE_CLASS = (2, 1, 0, 1, 2)


def _arc_gauss5_pass(radius, offset, kk, jj, a0, length_fr, n, w, d10_bounds):
    """Five-point Gauss-Legendre on n uniform pieces, run in fixed point.

    The node loop works on midpoint-radius pairs of plain ints, (m +/- r) *
    2**-W with W = w + _FX_GUARD: sums are exact, and each product carries
    the input radii plus one ulp for its floored midpoint (`_fx_mul`).
    `radius`, `offset` and four angles, the first node and the three
    rotation steps, are converted once per pass, `_fx_sin_cos` gives their
    sin and cos, and node trig values advance by the angle-addition
    recurrence.  At each node cos^(jj+2) = cos^jj cos^2, and both integrands
    add to the accumulators of the node's weight class; the three pairs of
    accumulators go back to balls once, before the Gauss weights.
    """
    delta = Ball.from_fraction(length_fr / n, w)
    half = ball_mul_rat(delta, 1, 2, w)
    (x1, x2), weights = _gauss5_rule(w)
    # the nodes of a piece sit at half * (1 - x2, 1 - x1, 1, 1 + x1, 1 + x2),
    # so the steps are outer, inner, inner, outer, then across to the next piece
    gap = ball_sub(Ball.from_int(1, w), x2, w)
    theta = ball_add(Ball.point(a0, w), ball_mul(half, gap, w), w)
    angles = (ball_mul(half, ball_sub(x2, x1, w), w), ball_mul(half, x1, w), ball_mul(delta, gap, w))

    W = w + _FX_GUARD
    rad_fx, (om, orad) = _fx_from_ball(radius, W), _fx_from_ball(offset, W)
    s, c = _fx_sin_cos(_fx_from_ball(theta, W), W)
    outer, inner, across = (_fx_sin_cos(_fx_from_ball(b, W), W) for b in angles)
    steps = (outer, inner, inner, outer, across)

    accs = [[(0, 0), (0, 0)] for _ in weights]
    for i in range(5 * n):
        pos = i % 5
        bm, br = _fx_mul(rad_fx, s, W)
        bk = _fx_pow((bm - om, br + orad), kk, W)
        acc = accs[_NODE_CLASS[pos]]
        cj = _fx_pow(c, jj, W)
        cj2 = _fx_mul(cj, _fx_mul(c, c, W), W)
        for idx, cpow in enumerate((cj, cj2)):
            tm, tr = _fx_mul(bk, cpow, W)
            am, ar = acc[idx]
            acc[idx] = (am + tm, ar + tr)
        if i + 1 < 5 * n:
            sd, cd = steps[pos]
            (sc_m, sc_r), (cs_m, cs_r) = _fx_mul(s, cd, W), _fx_mul(c, sd, W)
            (cc_m, cc_r), (ss_m, ss_r) = _fx_mul(c, cd, W), _fx_mul(s, sd, W)
            s, c = (sc_m + cs_m, sc_r + cs_r), (cc_m - ss_m, cc_r + ss_r)
    # n pieces of remainder c5 delta^11 |f^(10)|
    dsup = delta.mag_sup()
    scale = rup_mul_rat(dsup, n * GAUSS5_REMAINDER.numerator, GAUSS5_REMAINDER.denominator)
    for _ in range(10):
        scale = rup_mul(scale, dsup)
    out = []
    for idx, d10 in enumerate(d10_bounds):
        parts = [ball_mul(wt, _fx_to_ball(acc[idx], W, w), w) for wt, acc in zip(weights, accs)]
        total = ball_add(ball_add(parts[0], parts[1], w), parts[2], w)
        out.append(ball_widen(ball_mul(total, half, w), rup_mul(d10, scale)))
    return out


# ---------------------------------------------------------------------------
# exact lens quantities through the cosine-power recursion
# ---------------------------------------------------------------------------


class LensExact:
    """Exact value a + b*sqrt(3) + c*pi."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction):
        self.a, self.b, self.c = a, b, c

    def __sub__(self, other: "LensExact") -> "LensExact":
        return LensExact(self.a - other.a, self.b - other.b, self.c - other.c)

    def scale(self, f) -> "LensExact":
        f = Fraction(f)
        return LensExact(self.a * f, self.b * f, self.c * f)

    def to_ball(self, prec: int) -> Ball:
        w = prec + 8
        out = Ball.from_fraction(self.a, w)
        if self.b:
            s3 = sqrt_ball(Ball.from_int(3, w), w)
            out = ball_add(out, ball_mul_rat(s3, self.b.numerator, self.b.denominator, w), w)
        if self.c:
            out = ball_add(out, ball_mul_rat(pi_ball(w), self.c.numerator, self.c.denominator, w), w)
        return ball_round(out, prec)


def _cos_power_integrals(n_max: int) -> list[LensExact]:
    """I_m = integral of cos(t)**m over [pi/6, pi/2], m = 0..n_max, exact."""
    out = [LensExact(Fraction(0), Fraction(0), Fraction(1, 3)), LensExact(Fraction(1, 2), Fraction(0), Fraction(0))]
    for m in range(2, n_max + 1):
        # m I_m = (m-1) I_{m-2} - (sqrt3/2)^(m-1) / 2
        out.append(out[m - 2].scale(Fraction(m - 1, m)) - _sqrt3_half_power(m - 1).scale(Fraction(1, 2 * m)))
    return out


def lens_exact_wallis(n: int) -> tuple[LensExact, LensExact]:
    """Exact (cap_area / omega_{n-1}, lens_volume / omega_{n-1})."""
    if n < 3:
        raise ValueError("dimension must be at least 3")
    table = _cos_power_integrals(n)
    cap = table[n - 2].scale(n - 1)
    vol = table[n].scale(2)
    return cap, vol


def _sqrt3_half_power(e: int) -> LensExact:
    """(sqrt(3)/2)**e as an exact element."""
    mag = Fraction(3, 4) ** (e // 2)
    if e % 2 == 0:
        return LensExact(mag, Fraction(0), Fraction(0))
    return LensExact(Fraction(0), mag / 2, Fraction(0))


def lambda_plane_exact_ball(n: int, cap: LensExact, vol: LensExact, prec: int) -> Ball:
    """Renormalized lens energy assembled from the exact cosine-power parts
    (cap, vol) = lens_exact_wallis(n)."""
    w = prec + 16
    num = cap.scale(2) - _sqrt3_half_power(n - 1)
    omega = unit_ball_volume(n - 1, w)
    out = ball_mul(num.to_ball(w), pow_rational(omega, 1, n, w), w)
    out = ball_div(out, pow_rational(vol.to_ball(w), n - 1, n, w), w)
    return ball_round(out, prec)


# ---------------------------------------------------------------------------
# exact arithmetic in Q(sqrt2, sqrt3)
# ---------------------------------------------------------------------------


class QSqrt23:
    """a + b*sqrt2 + c*sqrt3 + d*sqrt6 with rational coordinates."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction, d: Fraction):
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def from_rational(cls, x) -> "QSqrt23":
        return cls(Fraction(x), Fraction(0), Fraction(0), Fraction(0))

    def __add__(self, other):
        other = _lift_q23(other)
        return QSqrt23(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        return self + (-_lift_q23(other))

    def __neg__(self):
        return QSqrt23(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other):
        o = _lift_q23(other)
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return QSqrt23(
            a1 * a2 + 2 * b1 * b2 + 3 * c1 * c2 + 6 * d1 * d2,
            a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + 2 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
        )

    def to_ball(self, prec: int) -> Ball:
        w = prec + 8
        out = Ball.from_fraction(self.a, w)
        for coeff, base in ((self.b, 2), (self.c, 3), (self.d, 6)):
            if coeff:
                root = sqrt_ball(Ball.from_int(base, w), w)
                out = ball_add(out, ball_mul_rat(root, coeff.numerator, coeff.denominator, w), w)
        return ball_round(out, prec)


def _lift_q23(x) -> QSqrt23:
    if isinstance(x, QSqrt23):
        return x
    return QSqrt23.from_rational(Fraction(x))


def _normalize_q23(x: QSqrt23) -> tuple[QSqrt23, Fraction]:
    """Scale to coprime integer coordinates; returns (element, scale used)."""
    denom_lcm = 1
    for co in (x.a, x.b, x.c, x.d):
        denom_lcm = denom_lcm * co.denominator // math.gcd(denom_lcm, co.denominator)
    nums = [int(co * denom_lcm) for co in (x.a, x.b, x.c, x.d)]
    g = 0
    for v in nums:
        g = math.gcd(g, abs(v))
    if g == 0:
        return x, Fraction(1)
    scale = Fraction(denom_lcm, g)
    return QSqrt23(*(Fraction(v // g) for v in nums)), scale


# ---------------------------------------------------------------------------
# polynomial competitor-energy paths
# ---------------------------------------------------------------------------


def _arc_poly_integrals(radius, offset, kk: int, m: int, lower, upper) -> tuple:
    """The integrals over [lower, upper] of u^kk q^(m-1) and u^kk q^m, with
    q = radius^2 - (u + offset)^2 = c0 + c1 u - u^2.

    The coefficients of q^j come from those of q^(j-1) times c0 + c1 u - u^2,
    and each antiderivative u^(kk+1) sum_t q_t u^t / (kk+t+1) is evaluated
    at both ends by Horner.  Works for any commutative value type with +, -,
    * and * Fraction: the leading coefficient of q^j, (-1)^j, stays a
    Fraction, and every product keeps a value of the type on its left.
    """
    c0, c1 = radius * radius - offset * offset, offset * Fraction(-2)
    ends = []
    for u in (lower, upper):
        u_pow = u
        for _ in range(kk):
            u_pow = u_pow * u
        ends.append((u, u_pow))

    def times_q(p):
        # p (c0 + c1 u), then minus p u^2
        lin = [c0 * p[0]] + [c0 * a + c1 * b for a, b in zip(p[1:], p)] + [c1 * p[-1]]
        return lin[:2] + [x - y for x, y in zip(lin[2:], p)] + [-p[-1]]

    def integral(p):
        scaled = [c * Fraction(1, kk + t + 1) for t, c in enumerate(p)]
        lo, up = (u_pow * horner(scaled, u) for u, u_pow in ends)
        return up - lo

    def horner(a, u):
        acc = a[-1]
        for c in reversed(a[:-1]):
            acc = u * acc + c
        return acc

    poly = [Fraction(1)]
    for _ in range(m - 1):
        poly = times_q(poly)
    return integral(poly), integral(times_q(poly))


def polynomial_m_value(k: int, l: int, prec: int):
    """Competitor energy for odd k, l from the polynomial arc integrands.

    For odd indices each arc integrand u^kk q^j is a polynomial, expanded
    once per arc by `_arc_poly_integrals`; only the geometric constants
    and the rounding of the ball operations carry enclosure radii.
    """
    from . import geom

    if k % 2 == 0 or l % 2 == 0:
        raise DomainViolation("polynomial path requires both indices odd")
    consts = geom.lawson_constants(k, l, prec + 16)
    w = prec + 16
    rho, d, r, h = consts.rho, consts.d, consts.r, consts.h
    s1p, s1v = _arc_poly_integrals(rho, d, k, (l + 1) // 2, consts.lambda_, ball_sub(rho, d, w))
    if k == l:
        s2p, s2v = s1p, s1v
    else:
        s2p, s2v = _arc_poly_integrals(r, h, l, (k + 1) // 2, Ball.from_int(1, w), ball_sub(r, h, w))
    return geom.assemble_competitor(consts, s1v, s2v, s1p, s2p, prec)


class SimonsExact:
    """Exact balanced-case competitor energy data for odd k (n = 2k + 2)."""

    __slots__ = ("k", "num", "den", "num_scale", "den_scale")

    def __init__(self, k: int, num: QSqrt23, den: QSqrt23, num_scale: Fraction, den_scale: Fraction):
        self.k, self.num, self.den = k, num, den
        self.num_scale, self.den_scale = num_scale, den_scale

    def assembled(self, prec: int) -> Ball:
        """M(k,k) at prec bits: the outer rational powers and the volume
        prefactor applied to the raw elements num / num_scale and
        den / den_scale."""
        n, w = 2 * self.k + 2, prec + 16
        ww = unit_ball_volume_product((self.k + 1, self.k + 1), w)
        num_raw, den_raw = self.num * (1 / self.num_scale), self.den * (1 / self.den_scale)
        m = ball_mul(pow_rational(ww, 1, n, w), num_raw.to_ball(w), w)
        m = ball_div(m, pow_rational(den_raw.to_ball(w), n - 1, n, w), w)
        return ball_round(m, prec)


def exact_simons_m(k: int) -> SimonsExact:
    """M(k,k) for odd k, exactly in Q(sqrt2, sqrt3) up to the outer radicals.

    num/den are the scaled coprime-integer field elements (see the module
    docstring for the normalization rule); `assembled(prec)` encloses M(k,k).
    """
    if k % 2 == 0 or k < 1:
        raise DomainViolation("balanced exact path requires odd k")
    r = QSqrt23(Fraction(0), Fraction(1), Fraction(0), Fraction(1))  # sqrt2 + sqrt6
    h = QSqrt23(Fraction(1), Fraction(0), Fraction(1), Fraction(0))  # 1 + sqrt3
    one = QSqrt23.from_rational(1)
    # the perimeter integral carries one factor r beyond q^((k-1)/2)
    s_p, s_v = _arc_poly_integrals(r, h, k, (k + 1) // 2, one, r - h)

    sqrt2 = QSqrt23(Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    num_raw = s_p * r * Fraction(2 * (k + 1) ** 2) - sqrt2 * Fraction((k + 1) ** 2, 2 * k + 1)
    den_raw = one + s_v * Fraction(2 * (k + 1))

    num, num_scale = _normalize_q23(num_raw)
    den, den_scale = _normalize_q23(den_raw)
    return SimonsExact(k, num, den, num_scale, den_scale)
