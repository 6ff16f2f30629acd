import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lenscert.ball import (
    MAX_DECIMAL_EXPONENT,
    Ball,
    _fx_div,
    _fx_from_ball,
    _fx_mul,
    _fx_mul_rat,
    _fx_pow,
    _root_bound,
    _fx_sqrt,
    _fx_tail,
    _fx_to_ball,
    ball_add,
    ball_div,
    ball_dyadics,
    ball_from_str,
    ball_mul,
    ball_pow_int,
    ball_str_decimals,
    ball_sub,
    ball_to_str,
    intersects,
    pow_rational,
)
from lenscert.bigfloat import bf_cmp, bf_from_fraction, bf_two_power
from lenscert.errors import PrecisionExhausted

from helpers import bf_to_fraction, widen


def _bf(x: float):
    """the float x as a BigFloat, exactly: 53 bits hold its mantissa"""
    return bf_from_fraction(Fraction(x), 53)[0]


def _contains(b, x) -> bool:
    """b encloses the rational x"""
    return abs(Fraction(x) - bf_to_fraction(b.mid)) <= bf_to_fraction(b.rad)


def _encloses(outer, inner) -> bool:
    """outer encloses every point of inner"""
    lo, hi = bf_to_fraction(outer.inf()), bf_to_fraction(outer.sup())
    return lo <= bf_to_fraction(inner.inf()) and bf_to_fraction(inner.sup()) <= hi


def rand_fraction(rng, bits=30):
    return Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))


def test_exact_integer_add():
    one = Ball.from_int(1, 64)
    two = ball_add(one, one, 64)
    assert two.rad.sign == 0
    assert _contains(two, 2)


def test_mul_inverse_identity():
    a = Ball.from_int(3, 64)
    inv = Ball.from_fraction(Fraction(1, 3), 64)
    assert _contains(ball_mul(a, inv, 64), 1)


@pytest.mark.parametrize(
    "am,ar,bm,br",
    [
        (Fraction(1, 1024), 1, Fraction(-3, 1024), 2),
        (0, 0.5, 0, 3),
        (Fraction(-5, 64), 4, Fraction(1, 8), 8),
    ],
)
def test_mul_wide_balls_near_zero(am, ar, bm, br):
    """for midpoints near 0 and large radii, most of the product's range
    comes from a.rad * b.rad: the product encloses every endpoint product,
    computed exactly"""
    a = widen(Ball.from_fraction(am, 64), _bf(ar))
    b = widen(Ball.from_fraction(bm, 64), _bf(br))
    out = ball_mul(a, b, 64)
    for x in (a.inf(), a.sup()):
        for y in (b.inf(), b.sup()):
            assert _contains(out, bf_to_fraction(x) * bf_to_fraction(y)), (x, y)


def test_div_two_precision_consistency():
    lo = ball_div(Ball.from_int(1, 64), Ball.from_int(3, 64), 64)
    hi = ball_div(Ball.from_int(1, 128), Ball.from_int(3, 128), 128)
    assert intersects(lo, hi)
    assert bf_cmp(hi.rad, lo.rad) <= 0


def test_division_by_zero_interval():
    z = Ball(Ball.from_int(0, 64).mid, bf_two_power(-4), 64)
    with pytest.raises(PrecisionExhausted):
        ball_div(Ball.from_int(1, 64), z, 64)


def test_soundness_identities_random():
    """exact-rational oracle on 1000 random rationals"""
    rng = random.Random(42)
    for _ in range(1000):
        f = rand_fraction(rng)
        if f == 0:
            continue
        x = Ball.from_fraction(f, 96)
        y = Ball.from_fraction(1 / f, 96)
        assert _contains(ball_mul(x, y, 96), 1)
        g = rand_fraction(rng)
        yb = Ball.from_fraction(g, 96)
        assert _contains(ball_sub(ball_add(x, yb, 96), yb, 96), f)


def test_two_precision_consistency_random_ops():
    rng = random.Random(7)
    for _ in range(200):
        f, g = rand_fraction(rng), rand_fraction(rng)
        a48, b48 = Ball.from_fraction(f, 48), Ball.from_fraction(g, 48)
        a96, b96 = Ball.from_fraction(f, 96), Ball.from_fraction(g, 96)
        for op in (ball_add, ball_sub, ball_mul):
            r48, r96 = op(a48, b48, 48), op(a96, b96, 96)
            assert intersects(r48, r96)
            assert bf_cmp(r96.rad, r48.rad) <= 0
        if not _contains(b48, 0):
            r48, r96 = ball_div(a48, b48, 48), ball_div(a96, b96, 96)
            assert intersects(r48, r96)
            assert bf_cmp(r96.rad, r48.rad) <= 0


def test_monotone_inclusion():
    """enlarging an input radius never shrinks the output hull"""
    rng = random.Random(11)
    for _ in range(200):
        f, g = rand_fraction(rng), rand_fraction(rng) + 5
        a = Ball.from_fraction(f, 64)
        b = Ball.from_fraction(g, 64)
        aw = widen(a, bf_two_power(-20))
        for op in (ball_add, ball_mul, ball_sub, ball_div):
            narrow = op(a, b, 64)
            wide = op(aw, b, 64)
            assert bf_cmp(wide.inf(), narrow.inf()) <= 0
            assert bf_cmp(wide.sup(), narrow.sup()) >= 0


def test_pow_int():
    a = Ball.from_fraction(Fraction(3, 7), 96)
    assert _contains(ball_pow_int(a, 5, 96), Fraction(3, 7) ** 5)
    assert _contains(ball_pow_int(a, 0, 96), 1)
    with pytest.raises(ValueError):
        ball_pow_int(a, -2, 96)


@pytest.mark.parametrize("scale", [Fraction(1, 10**30), Fraction(1), Fraction(10**30)])
@pytest.mark.parametrize("prec", [64, 128])
def test_pow_int_encloses_exact_endpoint_powers(scale, prec):
    """ball_pow_int(a, n) encloses x**n for every x in a, checked against the
    exact powers of a's endpoints (and 0 for even n when a contains 0), for
    negative, zero and sign-straddling midpoints, radii from 2**-100 of the
    midpoint to several times it, magnitudes near 1e-30, 1 and 1e30, and
    exponents up to 1350; a thin ball's power stays thin"""
    rng = random.Random(prec)
    for trial in range(12):
        mid = rand_fraction(rng) * scale if trial % 4 else Fraction(0)
        rad = abs(rand_fraction(rng)) * scale * Fraction(1, 2 ** rng.choice([0, 20, 100]))
        a = widen(Ball.from_fraction(mid, prec), _bf(float(rad)))
        lo, hi = bf_to_fraction(a.inf()), bf_to_fraction(a.sup())
        for n in (0, 1, 2, 3, 50, 1350):
            out = ball_pow_int(a, n, prec)
            powers = [lo**n, hi**n] + ([Fraction(0)] if n and lo < 0 < hi else [])
            assert bf_to_fraction(out.inf()) <= min(powers) and max(powers) <= bf_to_fraction(out.sup()), (a, n)
        if lo > 0 or hi < 0:
            point = Ball.from_fraction(mid, prec)
            for n in (1, 3, 50):
                out = ball_pow_int(point, n, prec)
                assert _contains(out, bf_to_fraction(point.mid) ** n), (point, n)
                assert bf_to_fraction(out.rad) <= abs(bf_to_fraction(out.mid)) * n / 2 ** (prec - 8)


def _fraction_ball_to_str(b: Ball, max_digits: int | None = None) -> str:
    """`ball_to_str` as it was written on Fractions, kept as the reference
    that the integer writer must match byte for byte"""

    def floor_log10(x: Fraction) -> int:
        num, den = x.numerator, x.denominator
        e = int((num.bit_length() - den.bit_length()) * 0.30103) - 1
        while 10 ** (e + 1) <= num / Fraction(den):
            e += 1
        while Fraction(10) ** e > x:
            e -= 1
        return e

    def fmt(q: int, e10: int) -> str:
        s = str(abs(q))
        return "%s%se%+d" % ("-" if q < 0 else "", s[0] + ("." + s[1:] if len(s) > 1 else ""), e10 + len(s) - 1)

    mid_fr, rad_fr = bf_to_fraction(b.mid), bf_to_fraction(b.rad)
    if mid_fr == 0:
        mid_str, delta = "0", Fraction(0)
    else:
        e10 = floor_log10(abs(mid_fr))
        digits = max(1, e10 - floor_log10(rad_fr / 8) + 1) if rad_fr > 0 else int(b.prec * 0.30103) + 2
        if max_digits is not None:
            digits = min(digits, max_digits)
        shift = digits - 1 - e10
        scaled = mid_fr * Fraction(10) ** shift
        q = int(scaled + Fraction(1, 2)) if scaled >= 0 else -int(-scaled + Fraction(1, 2))
        mid_str = fmt(q, -shift)
        delta = abs(mid_fr - q * Fraction(10) ** (-shift))
    total = rad_fr + delta
    if total == 0:
        return "%s +/- 0" % mid_str
    er = floor_log10(total)
    qr = total * Fraction(10) ** (1 - er)
    return "%s +/- %s" % (mid_str, fmt(-(-qr.numerator // qr.denominator), er - 1))


# the decimal grammar of a ball string part: sign, digits, an optional point
# and digits, an optional exponent, with optional whitespace around
_decimal_strings = st.builds(
    lambda ws, sign, digits, point, exp: "%s%s%s%s%s%s" % (ws, sign, digits, point, exp, ws),
    st.sampled_from(["", " ", "\t"]),
    st.sampled_from(["", "+", "-"]),
    st.text("0123456789", min_size=1, max_size=60),
    st.one_of(st.just(""), st.text("0123456789", max_size=60).map(lambda d: "." + d)),
    st.one_of(
        st.just(""),
        st.builds(
            lambda e, sign, zeros, x: "%s%s%s%d" % (e, sign, "0" * zeros, x),
            st.sampled_from("eE"),
            st.sampled_from(["", "+", "-"]),
            st.integers(0, 3),
            st.integers(0, 400),
        ),
    ),
)


class TestSerialization:
    def test_round_trip_widens(self):
        rng = random.Random(9)
        for _ in range(100):
            f = rand_fraction(rng)
            b = widen(Ball.from_fraction(f, 80), bf_two_power(rng.randint(-60, -20)))
            s = ball_to_str(b)
            assert "+/-" in s
            back = ball_from_str(s, 80)
            assert _encloses(back, b)
            assert _contains(back, f)

    def test_exact_zero_and_negative(self):
        z = Ball.from_int(0, 64)
        assert _contains(ball_from_str(ball_to_str(z), 64), 0)
        n = Ball.from_fraction(Fraction(-355, 113), 64)
        back = ball_from_str(ball_to_str(n), 64)
        assert _contains(back, Fraction(-355, 113))

    def test_higher_precision_parse_still_encloses(self):
        b = ball_div(Ball.from_int(2, 64), Ball.from_int(7, 64), 64)
        s = ball_to_str(b)
        back = ball_from_str(s, 256)
        assert _contains(back, Fraction(2, 7))

    def test_exponent_bound(self):
        """a decimal exponent of magnitude up to MAX_DECIMAL_EXPONENT parses
        exactly; one beyond it is a ValueError, in either case of "e" and in
        either part of the string, raised before any power of ten is expanded
        (parsing 1e+10000000 exactly takes seconds)"""
        top = MAX_DECIMAL_EXPONENT
        assert ball_str_decimals("1e+%d +/- 1E-%d" % (top, top)) == (10 ** (2 * top), 1, 10**top)
        for s in ("1e+%d +/- 0" % (top + 1), "1 +/- 1E-%d" % (top + 1), "1e+10000000 +/- 0"):
            t0 = time.perf_counter()
            with pytest.raises(ValueError):
                ball_str_decimals(s)
            assert time.perf_counter() - t0 < 0.5

    @given(_decimal_strings, _decimal_strings)
    @settings(max_examples=300, deadline=None)
    def test_parser_is_exact_on_its_grammar(self, mid, rad):
        """`ball_str_decimals` gives exactly the value `Fraction` reads from
        each part of every string of its grammar"""
        assume(Fraction(rad) >= 0)
        m, r, den = ball_str_decimals("%s+/-%s" % (mid, rad))
        assert (Fraction(m, den), Fraction(r, den)) == (Fraction(mid), Fraction(rad))

    def test_writer_matches_the_fraction_reference(self):
        """the integer `ball_to_str` writes the strings of its Fraction
        form: on zero, negative and exact (radius 0) balls, at 1 to 4 bits
        and at working precisions, wide and narrow, with and without
        max_digits, and at powers of ten and their neighbours, where a float
        estimate of log10 misses; and `ball_dyadics`, which it writes from,
        is the exact midpoint and radius over one power of two"""
        rng = random.Random(34)
        balls = [Ball.from_int(0, 64), widen(Ball.from_int(0, 64), bf_two_power(-7))]
        for k in range(0, 40, 3):
            for m in (10**k - 1, 10**k, -(10**k)):
                balls += [widen(Ball.from_int(m, 200), bf_two_power(-b)) for b in (5, 10, 20, 64, 150)]
        for _ in range(400):
            prec = rng.choice([1, 2, 3, 4, 53, 128, 256])
            b = Ball.from_fraction(rand_fraction(rng, rng.randint(1, 200)), prec)
            if rng.random() < 0.7:
                b = widen(b, bf_two_power(rng.randint(-300, 8)))
            balls.append(b)
        for b in balls:
            mid, rad, den = ball_dyadics(b)
            assert den & (den - 1) == 0 and rad >= 0
            assert (Fraction(mid, den), Fraction(rad, den)) == (bf_to_fraction(b.mid), bf_to_fraction(b.rad))
            for max_digits in (None, 1, 2, 12):
                assert ball_to_str(b, max_digits) == _fraction_ball_to_str(b, max_digits)


class TestFixedPointKernel:
    @staticmethod
    def _random_ball(rng, W):
        """a ball whose midpoint has up to W + 40 fractional bits, so the
        conversion may drop bits, and whose radius is zero a third of the time"""
        bits = rng.randint(1, W + 40)
        mid = Fraction(rng.randint(-(1 << (bits + 3)), 1 << (bits + 3)), 1 << bits)
        b = Ball.from_fraction(mid, bits + 8)
        if rng.random() < 2 / 3:
            b = widen(b, _bf(rng.random() * 2.0 ** -rng.randint(0, W + 8)))
        return b

    @staticmethod
    def _points(b):
        return [bf_to_fraction(x) for x in (b.mid, b.inf(), b.sup())]

    def test_conversion_encloses_ball(self):
        rng = random.Random(21)
        for _ in range(3000):
            W = rng.randint(8, 140)
            b = self._random_ball(rng, W)
            m, r = _fx_from_ball(b, W)
            assert r >= 0
            for x in self._points(b):
                assert abs(x * 2**W - m) <= r, (b, W)

    def test_product_encloses_corners(self):
        """a fixed-point product, converted back to a ball at a precision
        that drops bits, encloses the exact product at the midpoints and at
        every corner of the two balls"""
        rng = random.Random(22)
        for _ in range(3000):
            W = rng.randint(8, 140)
            a, b = self._random_ball(rng, W), self._random_ball(rng, W)
            prod = _fx_mul(_fx_from_ball(a, W), _fx_from_ball(b, W), W)
            m, r = prod
            out = _fx_to_ball(prod, W, rng.randint(4, W))
            for x in self._points(a):
                for y in self._points(b):
                    assert abs(x * y * 2**W - m) <= r, (a, b, W)
                    assert _contains(out, x * y), (a, b, W)

    def test_power_encloses(self):
        rng = random.Random(23)
        for _ in range(300):
            W = rng.randint(16, 140)
            b = self._random_ball(rng, W)
            k = rng.randint(0, 13)
            m, r = _fx_pow(_fx_from_ball(b, W), k, W)
            for x in self._points(b):
                assert abs(x**k * 2**W - m) <= r, (b, k, W)

    def test_rational_scaling_encloses(self):
        """x * p/q in fixed point encloses the exact scaled value at the
        midpoint and both ends, for either sign of p, and for q that do and
        do not divide the midpoint"""
        rng = random.Random(24)
        for _ in range(3000):
            W = rng.randint(8, 140)
            b = self._random_ball(rng, W)
            p = rng.randint(-(1 << 40), 1 << 40)
            q = rng.choice((1, 2, 3, rng.randint(1, 1 << 40)))
            m, r = _fx_mul_rat(_fx_from_ball(b, W), p, q)
            for x in self._points(b):
                assert abs(x * p / q * 2**W - m) <= r, (b, p, q, W)

    def test_tail_test_on_ints(self):
        """`_fx_tail` returns a bound on |x| p/q over the whole pair exactly
        when that bound fits under the limit, and the bound it returns is at
        most the limit"""
        rng = random.Random(25)
        for _ in range(3000):
            m = rng.randint(-(1 << 60), 1 << 60) >> rng.randint(0, 60)
            r = rng.randint(0, 1 << rng.randint(0, 20))
            p, q = rng.randint(0, 1 << 30), rng.randint(1, 1 << 30)
            limit = rng.randint(0, 1 << rng.randint(0, 70))
            tail = _fx_tail((m, r), p, q, limit)
            exact = Fraction((abs(m) + r) * p, q)
            if tail is None:
                assert exact > limit, (m, r, p, q, limit)
            else:
                assert exact <= tail <= limit, (m, r, p, q, limit)

    @staticmethod
    def _pair(data, bits: int) -> tuple[int, int]:
        """a fixed-point pair whose midpoint has up to `bits` bits, and whose
        radius is 0, a few ulps, or up to the midpoint's size"""
        m = data.draw(st.integers(-(1 << bits), 1 << bits))
        r = data.draw(st.one_of(st.just(0), st.integers(0, 8), st.integers(0, abs(m))))
        return m, r

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_div_encloses(self, data):
        """`_fx_div` encloses the exact quotient at every corner of its two
        pairs, and so on all of them, as x/y is monotone in each where y
        keeps its sign, at scales of 1 to 512 bits"""
        W = data.draw(st.integers(1, 512))
        a = self._pair(data, W + 40)
        b = self._pair(data, data.draw(st.integers(1, W + 40)))
        assume(abs(b[0]) > b[1])
        qm, qr = _fx_div(a, b, W)
        for x in (a[0] - a[1], a[0], a[0] + a[1]):
            for y in (b[0] - b[1], b[0], b[0] + b[1]):
                assert abs(Fraction(x << W, y) - qm) <= qr, (a, b, W)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_sqrt_encloses(self, data):
        """`_fx_sqrt` of (m +/- r) at scale 2**-2W encloses the root of both
        ends and of the midpoint at scale 2**-W, W from 1 to 512 bits: each
        point v has (lo)**2 <= v <= (hi)**2 for the output's ends"""
        W = data.draw(st.integers(1, 512))
        m = data.draw(st.integers(0, 1 << data.draw(st.integers(0, 2 * W + 40))))
        r = data.draw(st.one_of(st.just(0), st.integers(0, min(m, 8)), st.integers(0, m)))
        sm, sr = _fx_sqrt((m, r))
        for v in (m - r, m, m + r):
            assert max(sm - sr, 0) ** 2 <= v <= (sm + sr) ** 2, (m, r)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_pow_rational_encloses(self, data):
        """`pow_rational`, whose bounds share one root solve, encloses
        x**(p/q) at both ends and the midpoint of narrow and wide balls, at
        1 to 512 bits: lo**q <= x**p <= hi**q for its output's ends"""
        prec = data.draw(st.integers(1, 512))
        p, q = data.draw(st.integers(0, 40)), data.draw(st.integers(1, 40))
        mid = Fraction(data.draw(st.integers(1, 1 << 64)), 1 << data.draw(st.integers(0, 100)))
        a = Ball.from_fraction(mid, prec)
        a = widen(a, _bf(float(mid) * 2.0 ** -data.draw(st.integers(0, prec + 8))))
        assume(a.inf().sign > 0)
        out = pow_rational(a, p, q, prec)
        lo, hi = bf_to_fraction(out.inf()), bf_to_fraction(out.sup())
        for x in (bf_to_fraction(a.inf()), mid, bf_to_fraction(a.sup())):
            assert (lo <= 0 or lo**q <= x**p) and x**p <= hi**q, (a, p, q, prec)

    def test_root_bounds_before_rounding(self):
        """the integer root bounds of `pow_rational` before rounding, with
        the first step's margin removed: started one ulp from the exact root
        of an end's edge with a step of one ulp, so that the acceptance test
        alone decides, `_root_bound` returns a bound whose q-th power lies
        beyond the edge exactly, and whose fixed-point power lies beyond it
        certainly, radius included"""

        def iroot(n, q):
            x = 1 << -(-n.bit_length() // q)
            while (y := ((q - 1) * x + n // x ** (q - 1)) // q) < x:
                x = y
            return x

        rng = random.Random(31)
        for _ in range(300):
            W, q = rng.randint(40, 200), rng.randint(2, 9)
            scale = W * (q - 1)
            edge = rng.randint(1 << W, 1 << (W + 1)) ** q >> scale
            er = rng.choice([0, rng.randint(1, 16), rng.randint(1, 1 << (W - 8))])
            lo = edge - rng.randint(0, 4)
            b = _root_bound(iroot(lo << scale, q) + 2, 1, (lo + er, er), q, W, False)
            pm, pr = _fx_pow((b, 0), q, W)
            assert b == 1 << W or (b**q <= lo << scale and pm + pr <= lo), (W, q, lo, er)
            hi = edge + rng.randint(0, 4)
            b = _root_bound(iroot(hi << scale, q) - 1, 1, (hi - er, er), q, W, True)
            pm, pr = _fx_pow((b, 0), q, W)
            assert b**q >= hi << scale and pm - pr >= hi, (W, q, hi, er)
