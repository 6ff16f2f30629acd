"""The second evaluation path of the certificate's agreement check, and the
exact values behind the `exact` reports.

Contains the competitor's arc integrals from exact trigonometric moments on
the fixed-point kernel, the agreement value of
`geom.competitor_energy_quadrature`; the exact cosine-power lens recursion;
and exact arithmetic in Q(sqrt2, sqrt3) for the balanced odd case, whose arc
integrals are one polynomial per arc (`_arc_poly_integrals`).  In balls that
polynomial is `polynomial_m_value`, a test reference that no certificate
uses, kept while `bench/layers.py` names it.  The moment path shares
`geom.lawson_constants` and `geom.assemble_competitor` with the path it
checks, so it is independent in the arc integrals only; the references that
share no code with lenscert are the mpmath evaluations in the tests.

Normalization rule for the exact balanced-case field elements: the numerator
and denominator of M(k,k) are each scaled by the least positive rational that
turns all four coordinates into coprime integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ball import (
    _FX_GUARD,
    Ball,
    _fx_from_ball,
    _fx_mul,
    _fx_mul_rat,
    _fx_sin_cos,
    _fx_to_ball,
    ball_add,
    ball_div,
    ball_mul,
    ball_mul_rat,
    ball_round,
    ball_sub,
    pi_ball,
    pow_rational,
    sqrt_ball,
)
from .errors import InvalidArgument
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
# the competitor's arc integrals from exact trigonometric moments
# ---------------------------------------------------------------------------


def arc_profile_quadrature(
    radius: Ball, offset: Ball, kk: int, jj: int, lower: Ball, w: int
) -> tuple[Ball, Ball]:
    """The integrals over [a, pi/2], a in the ball `lower`, of
    (radius sin t - offset)^kk cos(t)^j for j = jj and j = jj + 2: the pair
    (J_jj, J_jj+2), exactly from the moments I(i, j) of sin^i cos^j over
    [a, pi/2] (Gradshteyn-Ryzhik 2.511).  With s = sin a and c = cos a,

        J_j = sum_p C(kk, p) radius^p (-offset)^(kk-p) I(p, j),
        I(0, 0) = pi/2 - a,   I(0, 1) = 1 - s,   I(1, j) = c^(j+1) / (j+1),
        j I(0, j) = (j-1) I(0, j-2) - s c^(j-1),
        (i+j) I(i, j) = (i-1) I(i-2, j) + s^(i-1) c^(j+1).

    All of it runs on the fixed-point kernel at W = w + _FX_GUARD, so the
    only rounding is one ulp per product and quotient.  s and c come from
    `_fx_sin_cos` of `lower`, whose radius thereby reaches every moment, and
    never from radius or offset.  The binomial sum cancels about
    kk log2((radius + offset) / (radius - offset)) bits and the I(0, j)
    recursion about (jj + 2) log2(1/c) bits; the caller sizes w for both.
    """
    W = w + _FX_GUARD
    one = (1 << W, 0)

    def powers(x, e):
        out = [one]
        for _ in range(e):
            out.append(_fx_mul(out[-1], x, W))
        return out

    def step(prev, coef, term, div):
        # (coef * prev + term) / div
        return _fx_mul_rat((coef * prev[0] + term[0], coef * prev[1] + term[1]), 1, div)

    am, ar = _fx_from_ball(lower, W)
    s, c = _fx_sin_cos((am, ar), W)
    spow, cpow = powers(s, kk - 1), powers(c, jj + 3)
    # I(0, j) along the parity of jj, up to jj + 2
    if jj % 2:
        cos_moments = {1: (one[0] - s[0], s[1])}
    else:
        hm, hr = _fx_from_ball(ball_mul_rat(pi_ball(w), 1, 2, w), W)
        cos_moments = {0: (hm - am, hr + ar)}
    for j in range(jj % 2 + 2, jj + 3, 2):
        cos_moments[j] = step(cos_moments[j - 2], j - 1, _fx_mul((-s[0], s[1]), cpow[j - 1], W), j)

    om, orad = _fx_from_ball(offset, W)
    rpow, opow = powers(_fx_from_ball(radius, W), kk), powers((-om, orad), kk)
    coefs = []
    for p in range(kk + 1):
        m, r = _fx_mul(rpow[p], opow[kk - p], W)
        coefs.append((math.comb(kk, p) * m, math.comb(kk, p) * r))

    out = []
    for j in (jj, jj + 2):
        moments = [cos_moments[j], _fx_mul_rat(cpow[j + 1], 1, j + 1)]
        for i in range(2, kk + 1):
            moments.append(step(moments[i - 2], i - 1, _fx_mul(spow[i - 1], cpow[j + 1], W), i + j))
        total_m = total_r = 0
        for coef, moment in zip(coefs, moments):
            tm, tr = _fx_mul(coef, moment, W)
            total_m, total_r = total_m + tm, total_r + tr
        out.append(_fx_to_ball((total_m, total_r), W, w))
    return tuple(out)


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
    num = cap.scale(2) - _sqrt3_half_power(n - 1)
    return _exact_energy(lambda w: unit_ball_volume(n - 1, w), num, vol, n, prec)


def _exact_energy(scale, num, den, n: int, prec: int) -> Ball:
    """Both exact energies: scale(w)^(1/n) num / den^((n-1)/n), w = prec + 16."""
    w = prec + 16
    m = ball_mul(pow_rational(scale(w), 1, n, w), num.to_ball(w), w)
    return ball_round(ball_div(m, pow_rational(den.to_ball(w), n - 1, n, w), w), prec)


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
# the arc integrals as polynomials: the Simons path and a test reference
# ---------------------------------------------------------------------------


def _arc_poly_integrals(radius, offset, kk: int, m: int, lower, upper) -> tuple:
    """The integrals over [lower, upper] of u^kk q^(m-1) and u^kk q^m, with
    q = radius^2 - (u + offset)^2 = c0 + c1 u - u^2.

    The coefficients of q^j come from those of q^(j-1) times c0 + c1 u - u^2,
    and each antiderivative u^(kk+1) sum_t q_t u^t / (kk+t+1) is evaluated
    at both ends by Horner, in `QSqrt23` (`exact_simons_m`) or, for the test
    reference `polynomial_m_value`, `Ball`: the leading coefficient of q^j,
    (-1)^j, stays a Fraction, and every product keeps a value of the type
    on its left.
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
    """Competitor energy for odd k, l from the polynomial arc integrands, one
    `_arc_poly_integrals` expansion per arc: a test reference that no
    certificate uses.  The moment path catches every fault this one does,
    at most 8.6e-19 wide at 64 bits against up to 3.6e-16 here; this, and
    with it the `Ball` operators, goes when `bench/layers.py` drops it.
    """
    from . import geom

    if k % 2 == 0 or l % 2 == 0:
        raise InvalidArgument("polynomial path requires both indices odd")
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
        """M(k,k) at prec bits from the raw elements num / num_scale and
        den / den_scale."""
        ww = lambda w: unit_ball_volume_product((self.k + 1, self.k + 1), w)
        num, den = self.num * (1 / self.num_scale), self.den * (1 / self.den_scale)
        return _exact_energy(ww, num, den, 2 * self.k + 2, prec)


def exact_simons_m(k: int) -> SimonsExact:
    """M(k,k) for odd k, exactly in Q(sqrt2, sqrt3) up to the outer radicals.

    num/den are the scaled coprime-integer field elements (see the module
    docstring for the normalization rule); `assembled(prec)` encloses M(k,k).
    """
    if k % 2 == 0 or k < 1:
        raise InvalidArgument("balanced exact path requires odd k")
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
