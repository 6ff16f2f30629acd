import math
import random
import sys
from fractions import Fraction

import pytest

from lenscert import ball, certify, reports
from lenscert.ball import (
    Ball,
    _FX_GUARD,
    _fx_atan,
    _fx_exp,
    _fx_log,
    _fx_to_ball,
    asin_ball,
    atan_ball,
    ball_add,
    ball_mul,
    ball_mul_rat,
    cos_ball,
    exp_ball,
    intersects,
    log_ball,
    pi_ball,
    pow_rational,
    sin_ball,
    sqrt_ball,
)
from lenscert.bigfloat import bf_cmp, bf_msb_exp, bf_round, bf_two_power
from lenscert.errors import PrecisionExhausted

from helpers import bf_to_fraction, widen


def _contains(b, x) -> bool:
    """b encloses the rational x"""
    return abs(Fraction(x) - bf_to_fraction(b.mid)) <= bf_to_fraction(b.rad)


# pi to 100 decimals, truncated: below pi by less than 1e-100
PI_100 = Fraction(
    "3.1415926535897932384626433832795028841971693993751058209749445923078164062862089986280348253421170679"
)


def test_pi_width_and_independent_formula():
    """the Machin enclosure is narrow and holds a 100-digit decimal of pi"""
    for prec in (64, 256):
        p = pi_ball(prec)
        assert bf_cmp(p.rad, bf_two_power(5 - prec)) <= 0
        # pi lies in [PI_100, PI_100 + 1e-100]; the ball must meet that interval
        assert bf_to_fraction(p.inf()) <= PI_100 + Fraction(1, 10**100)
        assert bf_to_fraction(p.sup()) >= PI_100


def test_pi_against_arctan_of_one():
    four_atan1 = ball_mul_rat(atan_ball(Ball.from_int(1, 160), 160), 4, 1, 160)
    assert intersects(four_atan1, pi_ball(160))


# ln 2 to 100 decimals, truncated: below ln 2 by less than 1e-100
LN2_100 = Fraction(
    "0.6931471805599453094172321214581765680755001343602552541206800094933936219696947156058633269964186875"
)


def _ln2(W: int) -> tuple[int, int]:
    """the kernel's ln 2 at scale 2**-W: `_fx_log` at y = 2, the series at
    u = 1/3"""
    return _fx_log((2 << W, 0), 0, W)


@pytest.mark.parametrize("prec", [24, 64, 256, 1000])
def test_ln2_holds_decimal_value(prec):
    """the kernel's ln 2 at the scale `log_ball` works at is under
    2**(_FX_GUARD + 2) ulps wide and meets [LN2_100, LN2_100 + 1e-100]"""
    W = prec + 16 + 2 * _FX_GUARD
    m, r = _ln2(W)
    assert r < 1 << _FX_GUARD + 2
    assert Fraction(m - r, 1 << W) <= LN2_100 + Fraction(1, 10**100)
    assert Fraction(m + r, 1 << W) >= LN2_100


def test_ln2_vs_log_kernel():
    """log_ball at 2, where y = 1 and all of the value is the s ln 2 term,
    and at 1/2 and 4 meets the kernel's ln 2 times 1, -1 and 2"""
    W = 128 + 16 + 2 * _FX_GUARD
    for x, s in ((Fraction(2), 1), (Fraction(1, 2), -1), (Fraction(4), 2)):
        ln2 = _fx_to_ball(ball._fx_mul_rat(_ln2(W), s, 1), W, 128)
        assert intersects(ln2, log_ball(Ball.from_fraction(x, 128), 128)), x


def test_sqrt_identities():
    a = Ball.from_int(2, 128)
    s = sqrt_ball(a, 128)
    assert _contains(ball_mul(s, s, 128), 2)
    with pytest.raises(PrecisionExhausted):
        sqrt_ball(widen(Ball.from_int(0, 64), bf_two_power(-5)), 64)


def test_exp_log_round_trip():
    rng = random.Random(21)
    for _ in range(40):
        f = Fraction(rng.randint(1, 4000), rng.randint(1, 4000))
        x = Ball.from_fraction(f, 96)
        assert _contains(log_ball(exp_ball(x, 96), 96), f)


def _mp(mpmath, x):
    """the BigFloat x as an mpf, exact at a working precision above its bits"""
    return mpmath.ldexp(x.sign * x.man, x.exp)


# exp arguments up to the supported |x| = 2**40; log arguments from near
# 2**-600 to near 2**600, and next to 1, where the kernel's error is absolute
EXP_POINTS = [Fraction(1, 1 << 200), Fraction(1, 3), Fraction(7, 10), Fraction(1), Fraction(7, 2), Fraction(745)]
EXP_POINTS = [Fraction(0)] + [g for f in EXP_POINTS + [Fraction(2**20, 3), Fraction(2**40)] for g in (f, -f)]
LOG_POINTS = [Fraction(1), 1 + Fraction(1, 1 << 70), 1 - Fraction(1, 1 << 70), Fraction(3, 2), 2 - Fraction(1, 1 << 60)]
LOG_POINTS += [Fraction(2), Fraction(3), Fraction(1, 3), Fraction(10**6), Fraction(1, 10**30)]
LOG_POINTS += [Fraction(2**600), Fraction(5 * 2**600, 3), Fraction(1, 2**600), Fraction(7, 5 * 2**600)]


@pytest.mark.parametrize("prec", [24, 64, 256, 1000])
def test_exp_log_enclose_mpmath(prec):
    """exp_ball and log_ball hold mpmath's value, at 3 prec + 64 bits, at
    both ends of each point (rounded to prec bits) and of a ball around it,
    of radius 2**(-prec/2) for exp (up to |x| = 745) and of relative radius
    2**(-prec/2) for log; a point's result is at most one ulp at prec bits
    wide, of its value for exp and of max(|value|, 1) for log, whose kernel
    error is absolute"""
    mpmath = pytest.importorskip("mpmath")
    for fn, ref, points in ((exp_ball, mpmath.exp, EXP_POINTS), (log_ball, mpmath.log, LOG_POINTS)):
        for f in points:
            point = Ball.point(Ball.from_fraction(f, prec).mid, prec)
            balls = [point]
            if fn is log_ball:
                balls.append(widen(point, bf_two_power(bf_msb_exp(point.mid) - prec // 2)))
            elif abs(f) <= 745:
                balls.append(widen(point, bf_two_power(-prec // 2)))
            for x in balls:
                got = fn(x, prec)
                with mpmath.workprec(3 * prec + 64):
                    lo, hi = _mp(mpmath, got.inf()), _mp(mpmath, got.sup())
                    assert all(lo <= ref(_mp(mpmath, end)) <= hi for end in (x.inf(), x.sup())), (prec, f, x)
                if x is point:
                    e = bf_msb_exp(got.mid) if fn is exp_ball else max(bf_msb_exp(got.mid), 0)
                    assert bf_cmp(got.rad, bf_two_power(e - prec)) <= 0, (prec, f)


# the off-center shift, in ulps
R = 1 << 24


def _off_center(pair: tuple[int, int]) -> tuple[int, int]:
    """(m + R, r + R): still an enclosure of every value of (m, r), but no
    longer centered on it, so that a result encloses its value only if the
    pair's radius reaches it"""
    return pair[0] + R, pair[1] + R


@pytest.mark.parametrize("W", [64, 128, 256])
def test_fx_atan_with_an_off_center_halving(monkeypatch, W):
    """with `_fx_div` patched so that the second halving in `_fx_atan`
    returns its pair off center, `_fx_atan` still holds atan at 200 random
    |x| > 1, checked with mpmath at 3W + 64 bits: the halved pair's radius
    reaches the series sum"""
    mpmath = pytest.importorskip("mpmath")
    inner, calls = ball._fx_div, []

    def div(a, b, W):
        calls.append(None)
        out = inner(a, b, W)
        return _off_center(out) if len(calls) == 3 else out  # the inversion, then two halvings

    monkeypatch.setattr(ball, "_fx_div", div)
    rng = random.Random(W)
    for _ in range(200):
        x = rng.choice((-1, 1)) * rng.randint((1 << W) + 1, 1 << W + 30)
        calls.clear()
        m, r = _fx_atan(x, W)
        assert len(calls) == 3
        with mpmath.workprec(3 * W + 64):
            assert abs(mpmath.ldexp(mpmath.atan(mpmath.ldexp(x, -W)), W) - m) <= r, (W, x)


@pytest.mark.parametrize("W", [64, 128, 256])
def test_fx_exp_and_log_with_off_center_pairs(monkeypatch, W):
    """`_fx_exp` and `_fx_log` still hold their values, checked with mpmath
    at 3W + 64 bits at 200 random arguments each, when handed their input
    off center, and when the ln 2 they read (for exp's k ln 2 and log's
    s ln 2) comes back off center: both radii reach the result"""
    mpmath = pytest.importorskip("mpmath")
    inner = ball._fx_log
    rng = random.Random(W)
    for ln2_off in (False, True):

        def log(y, s, W):
            out = inner(y, s, W)
            return _off_center(out) if ln2_off and (y, s) == ((2 << W, 0), 0) else out

        monkeypatch.setattr(ball, "_fx_log", log)
        for _ in range(200):
            x = rng.choice((-1, 1)) * rng.randint(1 << W - 4, 1 << W + 20)
            y, s = rng.randint(1 << W, (2 << W) - 2 * R), rng.randint(-700, 700)
            (em, er), k = _fx_exp((x, 0) if ln2_off else _off_center((x, 0)), W)
            lm, lr = inner((y, 0) if ln2_off else _off_center((y, 0)), s, W)
            with mpmath.workprec(3 * W + 64):
                assert abs(mpmath.ldexp(mpmath.exp(mpmath.ldexp(x, -W)), W - k) - em) <= er, (W, x, ln2_off)
                value = mpmath.log(mpmath.ldexp(y, -W)) + s * mpmath.log(2)
                assert abs(mpmath.ldexp(value, W) - lm) <= lr, (W, y, s, ln2_off)


def test_arcsin_special_value():
    half = sqrt_ball(Ball.from_fraction(Fraction(1, 4), 128), 128)
    assert intersects(ball_mul_rat(asin_ball(half, 128), 6, 1, 128), pi_ball(128))


def test_arcsin_domain_error():
    with pytest.raises(PrecisionExhausted):
        asin_ball(Ball.from_int(1, 64), 64)


def test_sin_cos_pythagoras_random():
    rng = random.Random(13)
    for _ in range(50):
        f = Fraction(rng.randint(1, 600), 400)
        x = Ball.from_fraction(f, 96)
        s, c = sin_ball(x, 96), cos_ball(x, 96)
        assert _contains(ball_add(ball_mul(s, s, 96), ball_mul(c, c, 96), 96), 1)


# angles over [-8, 8] in steps of 1/8, both ends included, and tiny ones
TRIG_POINTS = [Fraction(i, 8) for i in range(-64, 65)] + [Fraction(1, 1 << 70), Fraction(-3, 1 << 200)]
# atan arguments over [-10, 10], on both sides of 1, where the argument is
# inverted, and densely inside [-1, 1], where the series runs on the argument
ATAN_POINTS = sorted(
    {Fraction(i, 4) for i in range(-40, 41)}
    | {Fraction(i, 64) for i in range(-64, 65)}
    | {Fraction(-1, 1 << 90), Fraction(99, 10)}
)


def _mp_values(mpmath, f, b: Ball) -> list[Fraction]:
    """mpmath's f at 500 bits at the exact inf, midpoint and sup of b"""
    out = []
    with mpmath.workprec(500):
        for end in (b.inf(), b.mid, b.sup()):
            v = f(mpmath.ldexp(end.sign * end.man, end.exp))
            man, exp = v.man_exp  # man is |mantissa|
            out.append((-1 if v < 0 else 1) * Fraction(man) * Fraction(2) ** exp)
    return out


def _check_against_mpmath(mpmath, points, functions, prec):
    """each (ours, ref) of functions: ours encloses ref at every point and on
    a ball of radius 2**(-prec/2) around it, and a point result is at most
    4 ulps of 2**-prec wide"""
    for f in points:
        point = Ball.from_fraction(f, prec)
        for x in (point, widen(point, bf_two_power(-prec // 2))):
            for ours, ref in functions:
                got = ours(x, prec)
                assert all(_contains(got, v) for v in _mp_values(mpmath, ref, x)), (prec, f, x, ours)
                if x is point:
                    assert bf_cmp(got.rad, bf_two_power(1 - prec)) <= 0, (prec, f, ours)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_sin_cos_enclose_mpmath(prec):
    """sin_ball and cos_ball over [-8, 8] and at tiny angles"""
    mpmath = pytest.importorskip("mpmath")
    _check_against_mpmath(mpmath, TRIG_POINTS, ((sin_ball, mpmath.sin), (cos_ball, mpmath.cos)), prec)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_atan_encloses_mpmath(prec):
    """atan_ball for |x| <= 10"""
    mpmath = pytest.importorskip("mpmath")
    _check_against_mpmath(mpmath, ATAN_POINTS, ((atan_ball, mpmath.atan),), prec)


@pytest.mark.parametrize("prec", [64, 128, 256])
def test_atan_ball_is_tight_on_wide_balls(prec):
    """atan_ball on balls of radius 2**(-prec/2), 2**-20 and 1/8 around
    ATAN_POINTS, among them balls across 0 and across 1: each result holds
    mpmath's atan at the ends and the midpoint, and its radius is at most
    1.25 times the radius of the exact hull, plus 4 ulps of 2**-prec"""
    mpmath = pytest.importorskip("mpmath")
    for f in ATAN_POINTS:
        for e in (prec // 2, 20, 3):
            x = widen(Ball.from_fraction(f, prec), bf_two_power(-e))
            got = atan_ball(x, prec)
            lo, _, hi = values = _mp_values(mpmath, mpmath.atan, x)
            assert all(_contains(got, v) for v in values), (prec, f, e)
            assert bf_to_fraction(got.rad) <= Fraction(5, 8) * (hi - lo) + Fraction(4, 1 << prec), (prec, f, e)


@pytest.mark.parametrize("W", [96, 160, 288])
def test_fixed_point_atan_encloses_mpmath(W):
    """`_fx_atan(x, W)`, the midpoint evaluation of atan_ball, holds atan of
    x * 2**-W at every point of ATAN_POINTS and at 2**-W times 1/9 and 9 of
    them (the pair, not its rounding to a ball, is checked), and its radius
    stays below 2**(_FX_GUARD + 3) ulps"""
    mpmath = pytest.importorskip("mpmath")
    for f in ATAN_POINTS:
        for g in (f, f / 9, f * 9):
            x = math.floor(g * 2**W)
            m, r = _fx_atan(x, W)
            with mpmath.workprec(W + 64):
                assert abs(mpmath.ldexp(mpmath.atan(mpmath.ldexp(x, -W)), W) - m) <= r, (W, g)
            assert r < 1 << ball._FX_GUARD + 3, (W, g)


def test_pow_rational_round_trip():
    a = Ball.from_int(2, 128)
    r = pow_rational(a, 7, 8, 128)
    assert _contains(pow_rational(r, 8, 7, 128), 2)
    assert _contains(pow_rational(a, 0, 1, 128), 1)
    assert _contains(pow_rational(Ball.from_int(4, 128), 1, 2, 128), 2)
    with pytest.raises(PrecisionExhausted):
        pow_rational(Ball.from_int(-1, 64), 1, 3, 64)
    with pytest.raises(ValueError):
        pow_rational(a, -2, 7, 64)


def test_pow_rational_two_precision():
    for p, q in ((3, 5), (2, 7), (9, 4)):
        lo = pow_rational(Ball.from_fraction(Fraction(7, 3), 64), p, q, 64)
        hi = pow_rational(Ball.from_fraction(Fraction(7, 3), 160), p, q, 160)
        assert intersects(lo, hi)
        assert bf_cmp(hi.rad, lo.rad) <= 0


# binary exponents from the n = 2700 lens volume (about 1e-3142) up to 2**600
POW_EXPONENTS = (-10437, -3000, -130, -1, 0, 1, 77, 600)
POW_PRECISIONS = (8, 24, 53, 128, 144, 256, 512)


def _assert_power_enclosed(r, x, p, q):
    """lo**q <= y**p <= hi**q on exact rationals, where y runs over the
    endpoints of x that bound x**(p/q) from below and from above"""
    lo, hi = bf_to_fraction(r.inf()), bf_to_fraction(r.sup())
    below, above = bf_to_fraction(x.inf()), bf_to_fraction(x.sup())
    assert 0 < lo and lo**q <= below**p and above**p <= hi**q


@pytest.mark.parametrize("n", [9, 57, 200])
def test_pow_rational_encloses_exact_power(n):
    """every result encloses the exact power; a point input gives a result at
    most 4 ulps wide"""
    rng = random.Random(n)
    for p in (0, 1, 2, 3, n - 1):
        for q in (1, 2, 3, 7, n):
            for g in (POW_EXPONENTS[0], POW_EXPONENTS[-1], *rng.sample(POW_EXPONENTS, 2)):
                prec = rng.choice(POW_PRECISIONS)
                # a random prec-bit midpoint in [2**g, 2**(g+1)]
                mid, _ = bf_round(1, rng.getrandbits(prec + 40) | 1 << prec + 40, g - prec - 40, prec)
                x = Ball.point(mid, prec)
                r = pow_rational(x, p, q, prec)
                _assert_power_enclosed(r, x, p, q)
                # at most four ulps wide
                assert bf_cmp(r.rad, bf_two_power(bf_msb_exp(r.mid) - prec + 1)) <= 0
                wide = widen(x, bf_two_power(bf_msb_exp(mid) - prec - rng.randint(1, 40)))
                _assert_power_enclosed(pow_rational(wide, p, q, prec), wide, p, q)


def test_pow_rational_uses_no_exp_log_or_sqrt(monkeypatch):
    """exp, log and sqrt raise when pow_rational is on the call stack, and
    the certificates that need rational powers still come out: the q = 2
    arc powers (n = 9), the agreement paths (n = 24), a 256-bit escalation
    (n = 101 at width 1e-45) and the table"""
    target = ball.pow_rational.__code__

    def forbid(orig):
        def guarded(*args):
            frame = sys._getframe(1)
            while frame is not None:
                assert frame.f_code is not target, "pow_rational called " + orig.__name__
                frame = frame.f_back
            return orig(*args)

        return guarded

    for name in ("exp_ball", "log_ball", "sqrt_ball"):
        monkeypatch.setattr(ball, name, forbid(getattr(ball, name)))
    for n in (9, 24):
        assert certify.certify_dimension(n)["verdict"] == "Proven"
    cert = certify.certify_dimension(101, target_width=1e-45)
    assert (cert["verdict"], cert["precision_bits"]) == ("Proven", 256)
    rows = reports.table_rows(range(8, 10))
    assert [r.lambda_plane_8dp for r in rows] == ["7.29128238", "7.93735360"]
