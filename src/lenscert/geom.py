"""Lens and Lawson-competitor energy functionals.

The renormalized lens energy comes from one Gauss hypergeometric series with
positive terms, an incomplete beta value moved from z = 3/4 to z = 1/4 by a
quadratic transformation; the competitor energy comes from the arc
construction whose circular-arc constants are produced here.  Around the
series all of it runs on the fixed-point kernel of `ball`, with one
conversion to Ball for each value handed on.  The arc integrals are
evaluated in two corner passes, one per arc: on the special-function route,
and for the agreement check, its one second path, from exact trigonometric
moments.  The agreement value is not checked where it is computed:
`certify.certify_dimension` holds it to one width-and-intersection rule.
Both share `lawson_constants` and `assemble_competitor` (the ledger of
`tests/test_independence.py` lists all they share), so they cross-check
the arc integrals only; the references that share no code with
lenscert are the mpmath evaluations in the tests.  The moment path's
`oracle` is imported at its first call, so a certificate run without the
agreement check never loads it.
"""

from __future__ import annotations

import math

from . import specfun
from .ball import (
    _FX_GUARD,
    Ball,
    _fx_add,
    _fx_div,
    _fx_from_ball,
    _fx_mul,
    _fx_mul_rat,
    _fx_pi,
    _fx_pow,
    _fx_read,
    _fx_sqrt,
    _fx_sub,
    _fx_to_ball,
    atan_ball,
    ball_mul_rat,
    certainly_positive,
    pow_rational,
)
from .errors import InvalidArgument, PrecisionExhausted

__all__ = [
    "LensQuantities",
    "lens_quantities",
    "LawsonConstants",
    "lawson_constants",
    "CompetitorEnergy",
    "competitor_energy_specfun",
    "competitor_energy_quadrature",
    "assemble_competitor",
    "default_pairs",
    "table_pairs",
    "all_pairs",
]


# ---------------------------------------------------------------------------
# lens quantities
# ---------------------------------------------------------------------------


class LensQuantities:
    __slots__ = ("n", "lambda_plane")

    def __init__(self, n: int, lambda_plane: Ball):
        self.n, self.lambda_plane = n, lambda_plane


def _root_power(p: int, q: int, root: tuple[int, int], e: int, W: int) -> tuple[tuple[int, int], int]:
    """(x, S): sqrt(p/q)**e for e >= 0 in fixed point at scale 2**-S, given
    root = sqrt(p/q) at scale 2**-W: (p/q)**(e/2) for even e, root
    (p/q)**((e-1)/2) for odd e, the power taken of p/q in lowest terms (for
    k = l that is 1).  S = W - floor(log2 sqrt(p/q)**e), so x is about
    2**W."""
    S = W - math.floor(e * math.log2(p / q) / 2)
    g = math.gcd(p, q)
    p, q = (p // g) ** (e // 2) << max(S - W, 0), (q // g) ** (e // 2) << max(W - S, 0)
    return _fx_mul_rat(root if e % 2 else (1 << W, 0), p, q), S


def lens_quantities(n: int, prec: int) -> LensQuantities:
    """Certified renormalized lens energy lambda_plane, from the lens volume.

    With I_m the integral of sin^m over [0, pi/3], the volume is
    2 omega_{n-1} I_n, and I_n is the incomplete beta value B_{3/4}((n+1)/2,
    1/2) / 2 written as a 2F1 with positive terms (DLMF §8.17):

        2 I_n = 2 (sqrt3/2)^(n+1) / (n+1) 2F1(1/2, (n+1)/2; (n+3)/2; 3/4).

    As c = a + b + 1/2, the quadratic transformation
    F(a, b; a+b+1/2; 4z(1-z)) = F(2a, 2b; a+b+1/2; z) (DLMF §15.8) at
    z = 1/4 turns that 2F1 into 2F1(1, n+1; (n+3)/2; 1/4), the series of
    `specfun.gauss_2f1(n, w)`, whose terms are still positive and whose term
    ratio (n+1+j) / ((n+3)/2+j) / 4 is at most 1/2, against 3/4 in the limit
    at z = 3/4: at n = 116 the 128-bit lens sums 114 terms, where the
    z = 3/4 form needs 362.

    The energy is (2 cap - disc) / V^((n-1)/n), with the cap area
    (n-1) omega_{n-1} I_{n-2} and disc = omega_{n-1} (sqrt3/2)^(n-1).  The
    Wallis reduction n I_n = (n-1) I_{n-2} - (sqrt3/2)^(n-1) / 2 gives
    2 cap - disc = n V, so lambda_plane is n V^(1/n).  V is a fixed-point
    product of positive values, with omega_{n-1} read at scale 2**-(W - g)
    for 2**(g-1) <= omega_{n-1} < 2**g, so each factor carries W bits.
    """
    if n < 3:
        raise ValueError("dimension must be at least 3")
    w = prec + 16
    W = w + _FX_GUARD
    omega = specfun.unit_ball_volume(n - 1, w)
    f = specfun.gauss_2f1(n, w)
    disc, S = _root_power(3, 4, _fx_sqrt((3 << 2 * W - 2, 0)), n - 1, W)
    om, g = _fx_read(omega, W)
    disc = _fx_mul(om, disc, W)
    # omega (sqrt3/2)^(n+1) 2 / (n+1) = disc * 3 / (2 (n+1)), at scale 2**-(S - g)
    vol = _fx_mul_rat(_fx_mul(disc, _fx_from_ball(f, W), W), 3, 2 * (n + 1))
    lam = ball_mul_rat(pow_rational(_fx_to_ball(vol, S - g, w), 1, n, w), n, 1, prec)
    if not certainly_positive(lam):
        raise PrecisionExhausted("lens quantity not certainly positive at %d bits" % prec)
    return LensQuantities(n, lam)


# ---------------------------------------------------------------------------
# competitor construction constants
# ---------------------------------------------------------------------------


class LawsonConstants:
    __slots__ = ("k", "l", "lambda_", "h", "r", "d", "rho", "prec")

    def __init__(self, k: int, l: int, lambda_: Ball, h: Ball, r: Ball, d: Ball, rho: Ball, prec: int):
        self.k, self.l, self.lambda_, self.prec = k, l, lambda_, prec
        self.h, self.r, self.d, self.rho = h, r, d, rho

    @property
    def theta(self) -> Ball:
        """The corner angle atan(lambda) at lambda's precision, prec + 8
        bits: one fixed-point `atan_ball` evaluation at lambda's midpoint,
        widened by the mean value theorem.  Only the moment path reads it,
        once per pair."""
        return atan_ball(self.lambda_, self.prec + 8)


def lawson_constants(k: int, l: int, prec: int) -> LawsonConstants:
    """Arc constants of the competitor slice, in closed form; raises
    InvalidArgument when the construction degenerates (index ratio outside
    (1/3, 3), which also excludes indices below 1).

    With theta = atan(lambda), lambda = sqrt(k/l), the arc constants are
    d = tan(pi/6 + theta) - lambda, rho = sec(pi/6 + theta),
    h = lambda tan(2pi/3 - theta) - 1 and r = lambda sec(2pi/3 - theta).
    With s = sqrt(k), t = sqrt(l), u = sqrt(k+l) the angle-sum formulas
    (cos theta = t/u, sin theta = s/u) turn them into

        lambda = sqrt(k/l),   D_u = t (sqrt3 t - s),   rho = 2tu / D_u,   d = (k+l) / D_u,
                              D_v = t (sqrt3 s - t),   r   = 2su / D_v,   h = (k+l) / D_v.

    The construction is valid when d, rho, h, r > 0, lambda < rho - d and
    1 < r - h, which is exactly the integer rule `_valid_ratio(k, l)`:

    - D_u = t (3l - k) / (sqrt3 t + s) and D_v = t (3k - l) / (sqrt3 s + t),
      so D_u > 0 iff 3l > k and D_v > 0 iff 3k > l; then d, rho, h, r > 0.
    - Given both, lambda < rho - d iff s D_u < t (2tu - (k+l)) iff
      sqrt3 s + t < 2u iff 2 sqrt3 st < k + 3l iff (k - 3l)^2 > 0, which
      3l > k makes true; and 1 < r - h iff sqrt3 t + s < 2u iff
      (3k - l)^2 > 0, which 3k > l makes true.

    The code evaluates the quotient forms

        rho = 2u (sqrt3 t + s) / (3l - k),         d = (k+l) (sqrt3 t + s) / (t (3l - k)),
        r = 2 lambda u (sqrt3 s + t) / (3k - l),   h = (k+l) (sqrt3 s + t) / (t (3k - l)),

    in fixed point (s, t, u, sqrt3 and lambda from `_fx_sqrt`); they subtract
    nothing, so each constant is certainly positive at every precision.
    """
    if not _valid_ratio(k, l):
        raise InvalidArgument("(%d,%d): index ratio outside (1/3, 3)" % (k, l))
    W = prec + 16 + _FX_GUARD
    s, t, u, sqrt3 = (_fx_sqrt((m << 2 * W, 0)) for m in (k, l, k + l, 3))
    lam = _fx_sqrt(_fx_mul_rat((1 << 2 * W, 0), k, l))
    e_u = _fx_add(_fx_mul(sqrt3, t, W), s)
    e_v = _fx_add(_fx_mul(sqrt3, s, W), t)
    rho = _fx_mul_rat(_fx_mul(u, e_u, W), 2, 3 * l - k)
    d = _fx_mul_rat(_fx_div(e_u, t, W), k + l, 3 * l - k)
    r = _fx_mul_rat(_fx_mul(_fx_mul(lam, u, W), e_v, W), 2, 3 * k - l)
    h = _fx_mul_rat(_fx_div(e_v, t, W), k + l, 3 * k - l)
    return LawsonConstants(k, l, *(_fx_to_ball(x, W, prec + 8) for x in (lam, h, r, d, rho)), prec)


# ---------------------------------------------------------------------------
# competitor energy
# ---------------------------------------------------------------------------


class CompetitorEnergy:
    __slots__ = ("k", "l", "m_value")

    def __init__(self, k: int, l: int, m_value: Ball):
        self.k, self.l, self.m_value = k, l, m_value


def assemble_competitor(
    consts: LawsonConstants, s1v: Ball, s2v: Ball, s1p: Ball, s2p: Ball, prec: int
) -> CompetitorEnergy:
    """Common final assembly from the two corner passes: M = (perimeter -
    cone disc) / volume^((n-1)/n), in the factored form

        M = ww^(1/n) (P' - C') / V'^((n-1)/n),

    where ww = omega_{k+1} omega_{l+1}, and P', C' and V' are the
    perimeter, cone disc and volume without ww:

        V' = lambda^(k+1) + (k+1) s1v + (l+1) s2v,
        P' = (k+1) (l+1) (rho s1p + r s2p),
        C' = (k+1) (l+1) / (k+l+1) sqrt(k^k (k+l) / l^(k+1)).

    s1v/s1p are the volume and perimeter integrals of the u-arc pass
    (without the leading rho of the perimeter form), s2v/s2p those of the
    v-arc pass.  P', C' and V' are near lambda^(k+1) in size, so they run in
    fixed point at the scale 2**-S that `_root_power` picks for it; ww
    enters through one rational power.
    """
    k, l = consts.k, consts.l
    n = k + l + 2
    w = prec + 16
    W = w + _FX_GUARD
    lam_pow, S = _root_power(k, l, _fx_from_ball(consts.lambda_, W), k + 1, W)
    s1v, s2v, s1p, s2p = (_fx_from_ball(b, S) for b in (s1v, s2v, s1p, s2p))
    vol = _fx_add(lam_pow, _fx_add(_fx_mul_rat(s1v, k + 1, 1), _fx_mul_rat(s2v, l + 1, 1)))
    rho, r = _fx_from_ball(consts.rho, W), _fx_from_ball(consts.r, W)
    per = _fx_mul_rat(_fx_add(_fx_mul(rho, s1p, W), _fx_mul(r, s2p, W)), (k + 1) * (l + 1), 1)
    cone_sq = _fx_mul_rat((1, 0), k**k * (k + l) << max(2 * S, 0), l ** (k + 1) << max(-2 * S, 0))
    cone = _fx_mul_rat(_fx_sqrt(cone_sq), (k + 1) * (l + 1), k + l + 1)
    # (P' - C') / V'^((n-1)/n): both at scale 2**-S, so the quotient is at 2**-W
    quo = _fx_div(_fx_sub(per, cone), _fx_from_ball(pow_rational(_fx_to_ball(vol, S, w), n - 1, n, w), S), W)
    ww = specfun.unit_ball_volume_product((k + 1, l + 1), w)
    m = _fx_mul(quo, _fx_from_ball(pow_rational(ww, 1, n, w), W), W)
    return CompetitorEnergy(k, l, _fx_to_ball(m, W, prec))


def competitor_energy_specfun(k: int, l: int, prec: int) -> CompetitorEnergy:
    """Competitor energy through the special-function representation, in
    two corner passes of one Appell F1 call each (one pass when k = l).

    Each arc integral is recentered at its corner before applying the
    Euler-type integral identity, which keeps every hypergeometric series
    sign-stable; the textbook two-term composition, a complete 2F1 value
    minus an Appell F1 value, is mathematically identical but cancels
    catastrophically as the indices grow.
    """
    consts = lawson_constants(k, l, prec)
    w = prec + 16
    W = w + _FX_GUARD
    lam = _fx_from_ball(consts.lambda_, W)
    s1p, s1v = _arc_corner(k, l - 1, consts.rho, consts.d, lam, (1, 1), _root_power(k, l, lam, k, W), W, w)
    s2p, s2v = (s1p, s1v) if k == l else _arc_corner(
        l, k - 1, consts.r, consts.h, (1 << W, 0), (k, l), _root_power(k, l, lam, k - 1, W), W, w
    )
    return assemble_competitor(consts, s1v, s2v, s1p, s2p, prec)


def _arc_corner(
    kk: int, e2: int, radius: Ball, offset: Ball, corner: tuple, ld: tuple[int, int], cpow: tuple, W: int, w: int
) -> tuple[Ball, Ball]:
    """The perimeter and volume integrals of one arc: the integrals of
    u^kk (radius^2 - (u+offset)^2)^(f/2) from `corner` to radius - offset
    for f = e2 and f = e2 + 2, via the corner-centered Appell representation

        L^(e+1) corner^kk D^e F1(1, -kk, -e; e+2; -L/corner, -L/D) / (e+1)

    with L = radius - offset - corner, D = radius + offset + corner, e = f/2.
    One `specfun.appell_f1(kk, e2, x, y, w)` call gives both F1 values, as
    e + 1 turns (-e, e+2) into (-e-1, e+3), and the volume prefactor is the
    perimeter's times L D, over e + 2.  All series terms are nonnegative, so
    no precision is lost to cancellation.

    Both arcs pass through the corner (lambda, 1), so L D = radius^2 -
    (offset + corner)^2 is an exact rational, ld = (p, q) for p/q, the
    prefactor is L cpow with cpow = (p/q)^e corner^kk, and
    -L/D = -L^2 q / p.  By the closed forms
    of `lawson_constants` (s = sqrt k, t = sqrt l, u = sqrt(k+l)):

    - u-arc: d + lambda = (l + sqrt3 st)/D_u, rho = 2tu/D_u and
      D_u^2 = 3l^2 + kl - 2 sqrt3 l st = 4 t^2 u^2 - (l + sqrt3 st)^2,
      so L D = 1, and cpow = lambda^k for e2 = l - 1;
    - v-arc: h + 1 = (k + sqrt3 st)/D_v, r = 2su/D_v, and
      4 s^2 u^2 - (k + sqrt3 st)^2 = k (3k + l - 2 sqrt3 st) while
      D_v^2 = l (3k + l - 2 sqrt3 st), so L D = k/l, and with corner 1 and
      e2 = k - 1, cpow = (k/l)^((k-1)/2) = lambda^(k-1).

    `corner` is fixed point at scale 2**-W and cpow = (pair, S) is from
    `_root_power`; x and y reach `appell_f1` as balls.
    """
    (p, q), (cpow, S) = ld, cpow
    length = _fx_sub(_fx_sub(_fx_from_ball(radius, W), _fx_from_ball(offset, W)), corner)
    x = _fx_div((-length[0], length[1]), corner, W)
    y = _fx_mul_rat(_fx_mul(length, length, W), -q, p)
    pre = _fx_mul(length, cpow, W)
    f1, f2 = specfun.appell_f1(kk, e2, _fx_to_ball(x, W, w), _fx_to_ball(y, W, w), w)
    per = _fx_mul_rat(_fx_mul(pre, _fx_from_ball(f1, W), W), 2, e2 + 2)
    vol = _fx_mul_rat(_fx_mul(pre, _fx_from_ball(f2, W), W), 2 * p, (e2 + 4) * q)
    return _fx_to_ball(per, S, w), _fx_to_ball(vol, S, w)


def competitor_energy_quadrature(k: int, l: int, prec: int) -> CompetitorEnergy:
    """Competitor energy with the arc integrals, after the substitutions
    u + d = rho sin(phi) and v + h = r sin(phi), taken from exact
    trigonometric moments (`oracle.arc_profile_quadrature`) in one pass.

    The arcs start at the corner angles pi/6 + theta and 2pi/3 - theta, with
    theta = atan(lambda), and never at an angle derived from rho, d, r or h:
    that is what lets this path catch a fault in those constants.  The
    constants and angles are taken at the pass precision ws, which covers
    the bits `_moment_bits` says the moments lose.  The angles, and the
    integrals rho^l J, rho^(l+2) J, r^k J and r^(k+2) J that the moments J
    scale to (`_radius_powers`), are formed on the fixed-point kernel, with
    one ball for each value handed to `oracle.arc_profile_quadrature` and
    `assemble_competitor`.  The width of the result is not checked here:
    `certify.certify_dimension` holds it to one agreement width.
    """
    # imported here, so that a run without the agreement check never compiles it
    from . import oracle

    ws = prec + 32 + math.ceil(max(_moment_bits(k, l), _moment_bits(l, k)))
    W = ws + 16 + _FX_GUARD
    consts = lawson_constants(k, l, ws)
    pi, theta = _fx_pi(W), _fx_from_ball(consts.theta, W)
    angle_u = _fx_to_ball(_fx_add(_fx_mul_rat(pi, 1, 6), theta), W, ws)
    j1p, j1v = oracle.arc_profile_quadrature(consts.rho, consts.d, k, l, angle_u, ws)
    if k == l:
        j2p, j2v = j1p, j1v
    else:
        angle_v = _fx_to_ball(_fx_sub(_fx_mul_rat(pi, 2, 3), theta), W, ws)
        j2p, j2v = oracle.arc_profile_quadrature(consts.r, consts.h, l, k, angle_v, ws)
    s1p, s1v = _radius_powers(consts.rho, l, j1p, j1v, W, ws)
    s2p, s2v = _radius_powers(consts.r, k, j2p, j2v, W, ws)
    return assemble_competitor(consts, s1v, s2v, s1p, s2p, prec)


def _radius_powers(radius: Ball, e: int, jp: Ball, jv: Ball, W: int, w: int) -> tuple[Ball, Ball]:
    """(radius^e jp, radius^(e+2) jv) in fixed point: with
    2**g <= radius < 2**(g+1), radius read at scale 2**-(W - g) is
    radius 2**-g at scale 2**-W, in [1, 2), so its powers by `_fx_pow` keep
    W bits, and each J read at the scale that gives it W bits; a product's
    scale is the sum of its factors' scales less W."""
    # `_fx_read` gives g + 1, for 2**g <= radius < 2**(g+1); W + 1 makes up for it
    x, g = _fx_read(radius, W + 1)
    g -= 1
    power = _fx_pow(x, e, W)
    out = []
    for p, f, j in ((power, e, jp), (_fx_mul(power, _fx_mul(x, x, W), W), e + 2, jv)):
        jx, gj = _fx_read(j, W)
        out.append(_fx_to_ball(_fx_mul(p, jx, W), W - g * f - gj, w))
    return tuple(out)


def _moment_bits(kk: int, jj: int) -> float:
    """The bits `oracle.arc_profile_quadrature` loses on the arc of pair
    index kk and cosine power jj: kk log2((R+o)/(R-o)) in the binomial sum
    and (jj+2) log2(1/cos a) in the cosine recursion.  By the closed forms
    of `lawson_constants`, (R+o)/(R-o) = (2 sqrt(jj) + sqrt(kk+jj)) /
    (2 sqrt(jj) - sqrt(kk+jj)) and cos a = (sqrt(3 jj) - sqrt(kk)) /
    (2 sqrt(kk+jj)) on both arcs."""
    e, u = math.sqrt(jj), math.sqrt(kk + jj)
    return kk * math.log2((2 * e + u) / (2 * e - u)) + (jj + 2) * math.log2(
        2 * u / (math.sqrt(3 * jj) - math.sqrt(kk))
    )


# ---------------------------------------------------------------------------
# pair selection
# ---------------------------------------------------------------------------


def _valid_ratio(k: int, l: int) -> bool:
    return 3 * k > l and k < 3 * l


def default_pairs(n: int) -> list[tuple[int, int]]:
    """Central pairs: even n -> (k,k) plus (k-1,k+1) from n >= 8; odd -> (k-1,k)."""
    if n < 4:
        raise InvalidArgument("no competitor pairs below dimension 4")
    if n % 2 == 0:
        k = n // 2 - 1
        pairs = [(k, k)]
        if n >= 8:
            pairs.append((k - 1, k + 1))
        return pairs
    k = (n - 1) // 2
    return [(k - 1, k)]


def table_pairs(n: int) -> list[tuple[int, int]]:
    """Rows of the reference table: the odd-odd companion appears only when
    the central index is even and the companion's geometry is valid."""
    pairs = default_pairs(n)[:1]
    k = n // 2 - 1
    if n % 2 == 0 and k % 2 == 0 and _valid_ratio(k - 1, k + 1):
        pairs.append((k - 1, k + 1))
    return pairs


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(k, n - 2 - k) for k in range(1, n - 2) if _valid_ratio(k, n - 2 - k)]
