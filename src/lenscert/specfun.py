"""Certified special functions.

Unit-ball volumes are exact: a power of pi over a rational.

lenscert sums two hypergeometric series, both with a = 1 and integer
parameters: the lens series 2F1(1, n+1; (n+3)/2; 1/4) for n >= 1
(`gauss_2f1(n, prec)`), and for each competitor arc the pair
F1(1; -kk, -e; e+2; x, y), F1(1; -kk, -e-1; e+3; x, y) with e = e2/2
(`appell_f1(kk, e2, x, y, prec)`, integers kk, e2 >= 0, x and y
certainly inside the unit disc).  Both follow one tail rule, after
Johansson, "Computing hypergeometric functions rigorously" (ACM TOMS
45(3), 2019): the tail is bounded from the actual term ratios, which with
a = 1 are r_j z with r_j = (b+j)/(c+j), through one bound R >= |r_j| for
every j >= 0 (for a terminating series, every j below its order) with
q = |z| R <= (1 + |z|)/2.  So each |t_(j+1)| <= q |t_j|, the terms past
t_m sum to at most |t_m| q / (1 - q), and the series stops at the first m
where that is at most the tolerance tol = 2**(-prec-12) and is widened by
it; a terminating series that reaches its last term first is complete.

R.  The lens series has b = n+1 >= c = (n+3)/2, so r_j = 1 + (b-c)/(c+j)
does not increase and R = r_0: q = (n+1)/(2n+6) < 1/2, and the tail factor
q/(1-q) is (n+1)/(n+5).  The F1 sides (`_tail_ratio`) have b <= 0 < c =
e+2.  The x side (b = -kk) and, for integer e, the y side (b = -e)
terminate, and up to their order |b+j| falls while c + j grows, so
R = |b|/c: the x side gets q = |x| kk/(e+2), which at the exact x stays at
least 0.3 below (1 + |x|)/2 on every valid pair up to n = 2700 (an x ball
only a few bits wide may not fit, and then the side raises
PrecisionExhausted).  For half-integer e the y side does not terminate,
and |j - e| < e + 2 + j gives R = 1, q = |y|.

Appell F1 is one convolution of its x and y series; each side stops by the
same rule on its terms weighted by s! / (c)_s, with the tail also
multiplied by a bound on the other side's absolute sum,
U = (1 + |x|)^kk or V = (1 - |y|)^(-ceil e).  The same convolution also
gives the second value.

The 2F1 series and the F1 sides run on the fixed-point kernel of `ball`:
terms are int pairs (m +/- r) 2**-W, each costing one exact rational
scaling and one product with z (or x, y), sums are int adds, and the tail
test compares ints with tol 2**W, a power of two, as W - prec - 12 >= 12
in both series.  The scaling and the product are
the steps of `_fx_mul_rat` and `_fx_mul`, written out on bare ints in each
loop, with the same floors and the same added ulps, as are the C' shift
and the Horner passes of `appell_f1`; for the lens, z = 1/4 is exact, so
its product is a shift by two bits.  `_fx_tail` is the one call per term,
the stopping test.  `tests/test_specfun.py::TestKernelEquality` holds
every one of these loops to the kernel calls, int for int.  The set-up of
both series runs on ints: the lens's factors are fixed by n; for F1, |x|
and |y| are bounded by dyadics (`ball._mag_sup`), R from `_tail_ratio` is
an int pair, and the tail factors are int pairs in no lowest terms, which
changes neither the `_fx_tail` test nor its ceiling.  The scale is
W = w + _FX_GUARD plus a headroom that keeps the rounding floor of a
term's radius from outliving the tail test.  For 2F1 that radius settles
near (1+z)/(1-q) ulps once the terms fall, and the tail multiplies it by
q/(1-q) < 1/(1-q), so the headroom is log2((1+z)/(1-q)^2) + 1 bits; the F1
tails multiply it by U or V, so there it is log2 max(U, V) bits.  The
midpoint needs no headroom: the first term is 1 and tol is absolute.
"""


from __future__ import annotations

import math
from fractions import Fraction

from .ball import (
    _FX_GUARD,
    Ball,
    _fx_from_ball,
    _fx_pow,
    _fx_tail,
    _fx_to_ball,
    _mag_sup,
    ball_mul_rat,
    ball_pow_int,
    ball_round,
    pi_ball,
)
from .errors import PrecisionExhausted

__all__ = ["unit_ball_volume", "unit_ball_volume_product", "gauss_2f1", "appell_f1"]


# ---------------------------------------------------------------------------
# unit-ball volumes
# ---------------------------------------------------------------------------


def unit_ball_volume(m: int, prec: int) -> Ball:
    """Volume of the unit ball in R**m: pi**(m/2) / Gamma(m/2 + 1)."""
    return unit_ball_volume_product((m,), prec)


def unit_ball_volume_product(dims: tuple[int, ...], prec: int) -> Ball:
    """The product of omega_m over m in dims as one power of pi over one
    rational: omega_m = pi**(m//2) / q_m for Gamma(m/2 + 1) = q_m sqrt(pi)**(m % 2)
    (DLMF §5.19(iii)), as for odd m that sqrt(pi) cancels a half-power of pi.
    q_m is (m/2)! for even m and m!! / 2**((m+1)/2) for odd m, so the product
    of the q_m is an integer over a power of two, in lowest terms once the
    common power of two is taken out."""
    if min(dims) < 1:
        raise ValueError("dimension must be positive")
    num = math.prod(math.factorial(m // 2) if m % 2 == 0 else math.prod(range(1, m + 1, 2)) for m in dims)
    e = sum((m + 1) // 2 for m in dims if m % 2)
    t = min(e, (num & -num).bit_length() - 1)  # the power of two num and 2**e share
    w = prec + 8
    out = ball_pow_int(pi_ball(w), sum(m // 2 for m in dims), w)
    return ball_round(ball_mul_rat(out, 1 << (e - t), num >> t, w), prec)


# ---------------------------------------------------------------------------
# the lens series 2F1(1, n+1; (n+3)/2; 1/4)
# ---------------------------------------------------------------------------


def _default_tol(prec: int) -> int:
    """The exponent e of the tail tolerance tol = 2**e."""
    return -prec - 12


def gauss_2f1(n: int, prec: int) -> Ball:
    """The lens series 2F1(1, n+1; (n+3)/2; 1/4) for n >= 1, with the tail
    factor (n+1)/(n+5) of the module docstring."""
    w = prec + 8
    # headroom log2((1+z)/(1-q)^2) + 1 = log2(5 (n+3)^2 / (n+5)^2) + 1,
    # rounded up: for x = p/q in lowest terms, log2 x < bitlen(p) - bitlen(q) + 1
    num, den = 5 * (n + 3) ** 2, (n + 5) ** 2
    g = math.gcd(num, den)
    W = w + _FX_GUARD + (num // g).bit_length() - (den // g).bit_length() + 2
    limit = 1 << W + _default_tol(prec)  # tol * 2**W
    tm, tr = sum_m, sum_r = 1 << W, 0
    m = 0
    budget = 64 * (prec + 16) + 256
    while True:
        # the (positive) term times (n+1+m)/((n+3)/2+m), then times 1/4:
        # `_fx_mul_rat`, then `_fx_mul` by the exact 2**(W-2), on bare ints
        p, q = 2 * (n + 1 + m), n + 3 + 2 * m
        um, ur = (tm * p) // q, -(-(tr * p) // q) + 1
        tm, tr = um >> 2, -(-ur >> 2) + 1
        sum_m += tm
        sum_r += tr
        m += 1
        tail = _fx_tail((tm, tr), n + 1, n + 5, limit)
        if tail is not None:
            return _fx_to_ball((sum_m, sum_r + tail), W, prec)
        if m > budget:
            raise PrecisionExhausted("2F1 series did not reach its tail tolerance")


# ---------------------------------------------------------------------------
# Appell F1
# ---------------------------------------------------------------------------


def _tail_ratio(bc: tuple[int, int, int], zsup: tuple[int, int]) -> tuple[int, int]:
    """R = (rn, rd) with |r_j| <= R for every j >= 0 (for a terminating
    side, every j below its order), where r_j = (b+j)/(c+j) is the term
    ratio of an F1 side, b and c = (ib, ic, d) over their common denominator
    d, b <= 0 < c and b + c > 0: |b|/c when b is an integer, 1 otherwise (see
    the module docstring); and q = zsup R <= (1 + zsup)/2 for
    zsup = (zn, zd).  Raises PrecisionExhausted when q exceeds
    (1 + zsup)/2."""
    (ib, ic, d), (zn, zd) = bc, zsup
    rn, rd = (-ib, ic) if ib % d == 0 else (1, 1)
    if 2 * zn * rn > (zd + zn) * rd:
        b, c, z = Fraction(ib, d), Fraction(ic, d), Fraction(zn, zd)
        raise PrecisionExhausted("no tail ratio from j = 0 for b = %s, c = %s, |z| <= %s" % (b, c, z))
    return rn, rd


def _pow_sup(base: int, k: int, w: int) -> int:
    """An upper bound at scale w for (base 2**-w)**k (base >= 2**w,
    k >= 0): the top m + r of its fixed-point power."""
    m, r = _fx_pow((base, 0), k, w)
    return m + r


def _f1_side(bc: tuple[int, int, int], z: Ball, zsup: tuple[int, int], other: int, tol: int, W: int, w: int):
    """One side of the F1 double sum, for b and c = bc = (ib, ic, d) over
    their common denominator d, |z| at most zsup = (zn, zd), `other` at
    scale w and the tolerance 2**tol: the unweighted terms
    (b)_j z^j / j! at scale W, as lists of midpoints and radii, and the tail
    bound in ulps of scale W on what the side drops (0 when a terminating
    side is complete).

    The side stops at the first j whose weighted term
    t_j = w_j (b)_j z^j / j!, with w_j = j! / (c)_j, passes the `_fx_tail`
    test with factor other / (1 - q), q = |z| R for the tail ratio R of
    (b; c), where `other` bounds the absolute sum of the other side's
    unweighted terms.  For the competitor's x side (b = -kk) that is
    q = |x| kk/(e+2), so it stops as soon as its weighted terms are small
    enough (85 terms at the balanced pair of n = 2700, not the (kk - e)/2
    it takes for |r_j| to fall to 1).  The factor is an int pair in no
    lowest terms, which changes neither the test nor its ceiling.

    That test multiplies the radius of a term by `other`, so the one term
    sequence runs at scale W plus bitlen(other) - w >= log2(other 2**-w)
    bits of headroom, and each term is stored at scale W with its midpoint
    floored and its radius rounded up, plus one ulp for the floor.  The test
    takes t_j as the term times wm 2**-we >= w_j, where each factor
    (1+j)/(c+j) <= 1 multiplies wm, shifted left to leave a quotient above
    2**64, and the quotient is rounded up; so the bound is at most
    (1 + 2**-64)**j w_j.

    Each term step is `_fx_mul_rat` by (b+j)/(j+1), then `_fx_mul` by z,
    written out on bare ints with the same floors and ulps;
    `tests/test_specfun.py::TestKernelEquality` holds it to those calls int
    for int.
    """
    (ib, ic, d), (zn, zd) = bc, zsup
    order = -ib // d if ib % d == 0 else None  # where a terminating side ends
    rn, rd = _tail_ratio(bc, zsup)
    fn, fd = other * zd * rd, (zd * rd - zn * rn) << w  # other / (1 - q)
    room = other.bit_length() - w
    Wt = W + room
    limit = 1 << Wt + tol  # 2**tol * 2**Wt
    zm, zr = _fx_from_ball(z, Wt)
    azm = abs(zm)
    budget = order if order is not None else 64 * w + 256
    tm, tr, wm, we = 1 << Wt, 0, 1 << 64, 64
    mids, rads = [1 << W], [0]
    j = 0
    while j != order:
        p, q = ib + j * d, (j + 1) * d
        um, ur = (tm * p) // q, -(-(tr * abs(p)) // q) + 1
        tm, tr = (um * zm) >> Wt, -(-(abs(um) * zr + azm * ur + ur * zr) >> Wt) + 1
        num, den = wm * q, ic + j * d
        shift = max(0, 65 + den.bit_length() - num.bit_length())
        wm, we = -(-(num << shift) // den), we + shift
        j += 1
        if j != order:
            tail = _fx_tail((tm, tr), wm * fn, fd << we, limit)
            if tail is not None:
                return mids, rads, -(-tail >> room)
        mids.append(tm >> room)
        rads.append(-(-tr >> room) + 1)
        if j > budget:
            raise PrecisionExhausted("F1 series did not reach its tail tolerance")
    return mids, rads, 0


def _pack(values: list[int], size: int) -> int:
    """sum v_i 2**(8 size i) for |v_i| < 2**(8 size - 1), built from
    two's-complement slots of `size` bytes: each slot holds v_i less a
    borrow of 1 when the slot below it holds a negative value, as the
    two's complement of the whole int does (the inverse of `_unpack`)."""
    out, borrow = [], 0
    for v in values:
        v -= borrow
        out.append(v.to_bytes(size, "little", signed=True))
        borrow = v < 0
    return int.from_bytes(b"".join(out), "little", signed=True)


def _unpack(z: int, size: int, count: int) -> list[int]:
    """The values c_s of z = sum_{s < count} c_s 2**(8 size s), each
    |c_s| < 2**(8 size - 1): slot s of the two's complement of z reads
    c_s less a borrow of 1 when the part of z below it is negative, which
    it is exactly when slot s - 1 reads negative."""
    data = z.to_bytes(size * count, "little", signed=True)
    out, borrow = [], 0
    for i in range(0, size * count, size):
        v = int.from_bytes(data[i : i + size], "little", signed=True)
        out.append(v + borrow)
        borrow = v < 0
    return out


def _diagonal_sums(am: list[int], ar: list[int], bm: list[int], br: list[int], W: int):
    """(C_s, its radius) at scale W for s from 0 to na + nb - 2, for the
    sides (A_m +/- rA_m) 2**-W and (B_n +/- rB_n) 2**-W: the midpoints from
    one product of packed ints (Kronecker substitution), the radii from two
    more, as set out under Rounding in `appell_f1`.  A slot holds a sum of
    min(na, nb) products and a sign bit: the bits of the largest operands
    plus bitlen(min(na, nb)) + 1, and one more for the radius, which adds
    two such sums."""
    def top(values: list[int]) -> int:
        return max(map(abs, values)).bit_length()

    count, spread = len(am) + len(bm) - 1, min(len(am), len(bm)).bit_length() + 1
    size = (top(am) + top(bm) + spread + 7) // 8
    mids = _unpack(_pack(am, size) * _pack(bm, size), size, count)
    t = max(W - 40, 0)
    asup = [-(-(abs(v) + r) >> t) for v, r in zip(am, ar)]
    bsup = [-(-abs(v) >> t) for v in bm]
    size = (max(top(asup) + top(br), top(ar) + top(bsup)) + spread + 8) // 8
    rads = _pack(asup, size) * _pack(br, size) + _pack(ar, size) * _pack(bsup, size)
    return [(m >> W, -(-r >> (W - t)) + 1) for m, r in zip(mids, _unpack(rads, size, count))]


def appell_f1(kk: int, e2: int, x: Ball, y: Ball, prec: int) -> tuple[Ball, Ball]:
    """The pair F1(1; b1, b2; c; x, y), F1(1; b1, b2-1; c+1; x, y) of first
    Appell functions for b1 = -kk, b2 = -e and c = e + 2, e = e2/2, with
    integers kk, e2 >= 0 and x, y certainly inside the unit disc: the
    perimeter and volume integrals of one competitor arc
    (`geom._arc_corner`).  Both come from one convolution of two truncated
    series:

        F1 = sum_s w_s C_s,  C_s = sum_{m+n=s} A_m B_n,

    with w_s = s! / (c)_s, A_m = (b1)_m x^m / m! and B_n = (b2)_n y^n / n!.
    As c >= 2, each factor (1+j)/(c+j) of w lies in (0, 1], so w_s is in
    (0, 1] and w_{m+n} <= min(w_m, w_n).  Over their common denominator
    d = 1 + (e2 & 1), b1, b2 and c are the int triples of the two sides.

    Tails.  Since |(b)_n| <= (|b|)_n, the absolute sums of the two sides are
    at most U = sum_m C(kk, m) |x|^m = (1 + |x|)^kk and
    V = (1 - |y|)^(-e) <= (1 - |y|)^(-ceil e), both rounded up.  Each
    side keeps its indices below M (x) or N (y); everything dropped lies in
    {m >= M} or in {n >= N}.  As w_{m+n} <= w_m, the first part is at most
    sum_{m>=M} w_m |A_m| sum_n |B_n| <= V sum_{m>=M} |t_m|, with
    t_m = w_m A_m the weighted x term.  Its ratio t_{m+1} / t_m is r_m x,
    with r_m the term ratio of (b1; c), so if R is the tail ratio of that
    series (module docstring), |t_{m+1} / t_m| <= q = |x| R < 1 for every
    m >= 0, and the first part is at most V |t_M| / (1 - q):
    the `_fx_tail` bound of `_f1_side`, at most tol.  As w_{m+n} <= w_n, the
    second part is at most U |t_N| / (1 - q'), with q' = |y| R' from the
    tail ratio of (b2; c), in the same way.  A terminating side that
    reaches its last term drops nothing.

    The second value.  Its y side, as a series in t, is sum_n (b2-1)_n
    (y t)^n / n! = (1 - y t)^(-b2) (1 - y t), so its diagonal sums are
    C'_s = C_s - y C_{s-1} (C_{-1} = 0, s up to one past the last C_s),
    weighted by
    w'_s = s! / (c+1)_s = w_s c / (c+s) in a second Horner pass.  It drops
    sum w'_{m+n} A_m B_n - y sum w'_{m+n+1} A_m B_n over the same set, and
    w'_{s+1} = w_s c (1+s) / ((c+s) (c+1+s)) with c (1+s) <= (c+s)^2, so both
    w'_s and w'_{s+1} are at most w_s: its tail is (1 + |y|) times the first.

    Rounding.  The sides are fixed-point enclosures (A_m +/- rA_m) 2**-W,
    with A_0 = B_0 = 2**W exact.  `_diagonal_sums` sums every C_s exactly at
    scale 2**-2W, from one product of two packed ints, and floors it to
    scale W.  Its radius bounds sum (|A_m| + rA_m) rB_n + rA_m |B_n|, which
    bounds every product error |A B - A_m B_n|, with the operands
    |A_m| + rA_m and |B_n| rounded up to multiples of 2**(W-40); it is
    rounded up to scale W, with one more ulp for the floor.  Rounding the
    operands adds less than 2**(W-40) (rB_n + rA_m) per pair, and as
    w_{m+n} <= min(w_m, w_n) at most 2**(W-40) (na sum_n w_n rB_n +
    nb sum_m w_m rA_m) over all s once weighted, while the pairs with m = 0
    or n = 0 alone make the weighted exact radius at least
    2**W (sum_n w_n rB_n + sum_m w_m rA_m): so it widens the radius by at
    most (na + nb) 2**-40 of itself.  The operands are rounded by the
    absolute 2**(W-40), not relative to the largest one: at n = 2700 the
    largest A_m is about 2**204 times A_0.  C'_s takes y C_{s-1} as
    `_fx_mul` does, on the enclosure of y.  Horner in s then applies
    (1+s)/(c+s), or (1+s)/(c+1+s), as `_fx_mul_rat` does, flooring and
    adding an ulp, so every C_s, its radius included, ends weighted by w_s
    (or w'_s).  Both steps are written out on bare ints.

    The sides are stored and summed at W = w + _FX_GUARD with no headroom.
    Rounding leaves A_m and B_n a few ulps of relative error while they grow
    and a few ulps of absolute error after, so it reaches the result as the
    same small relative error in sum w_{m+n} |A_m| |B_n|, which is |F1|
    when all terms share a sign, as at the competitor's arguments.  Only the
    tail tests multiply a radius by U or V, so only the term sequence of
    each side runs with log2 V or log2 U more bits (see `_f1_side`).
    """
    (xn, xd), (yn, yd) = xsup, ysup = _mag_sup(x), _mag_sup(y)
    if xn >= xd or yn >= yd:
        raise PrecisionExhausted("F1 arguments must lie certainly inside the unit disc")
    tol = _default_tol(prec)
    w = prec + 8
    # U and V from their bases 1 + |x| and 1 / (1 - |y|) rounded up to scale w
    u_bound = _pow_sup((1 << w) - (-(xn << w) // xd), kk, w)
    v_bound = _pow_sup(-(-(yd << w) // (yd - yn)), (e2 + 1) // 2, w)
    W = w + _FX_GUARD
    d = 1 + (e2 & 1)
    ed = e2 * d // 2  # e d, so that c = ic/d
    ic = ed + 2 * d
    am, ar, x_tail = _f1_side((-kk * d, ic, d), x, xsup, v_bound, tol, W, w)
    bm, br, y_tail = _f1_side((-ed, ic, d), y, ysup, u_bound, tol, W, w)
    sums = _diagonal_sums(am, ar, bm, br, W)[::-1]  # C_s for s from na + nb - 2 down to 0
    # C'_s = C_s - y C_{s-1} for s from na + nb - 1 down to 0, each y C_{s-1}
    # by `_fx_mul` on bare ints
    ym, yr = _fx_from_ball(y, W)
    aym, shifted, cm, cr = abs(ym), [], 0, 0
    for vm, vr in sums + [(0, 0)]:
        shifted.append((cm - ((vm * ym) >> W), cr - (-(abs(vm) * yr + aym * vr + vr * yr) >> W) + 1))
        cm, cr = vm, vr
    tail = x_tail + y_tail
    out = []
    for cs, shift, t in ((sums, 0, tail), (shifted, d, -(-tail * (yd + yn) // yd))):
        # Horner in s: each step `_fx_mul_rat` by (1+s)/(c+shift+s), on bare ints
        acc_m = acc_r = 0
        p, q = len(cs) * d, ic + shift + (len(cs) - 1) * d
        for cm, cr in cs:
            acc_m = (acc_m * p) // q + cm
            acc_r = -(-(acc_r * p) // q) + 1 + cr
            p -= d
            q -= d
        out.append(_fx_to_ball((acc_m, acc_r + t), W, prec))
    return tuple(out)
