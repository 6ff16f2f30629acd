import random
from fractions import Fraction

import pytest

from lenscert.ball import (
    Ball,
    asin_ball,
    atan_ball,
    ball_add,
    ball_mul,
    ball_mul_rat,
    ball_widen,
    cos_ball,
    exp_ball,
    intersects,
    ln2_ball,
    log_ball,
    pi_ball,
    pow_rational,
    sin_ball,
    sqrt_ball,
)
from lenscert.bigfloat import bf_cmp, bf_to_fraction, bf_two_power
from lenscert.errors import DomainViolation, NonPositiveBase


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
        assert bf_cmp(p.width(), bf_two_power(6 - prec)) <= 0
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


@pytest.mark.parametrize("prec", [24, 64, 256, 1000])
def test_ln2_holds_decimal_value(prec):
    """the atanh(1/3) enclosure is narrow and meets [LN2_100, LN2_100 + 1e-100]"""
    b = ln2_ball(prec)
    assert bf_cmp(b.width(), bf_two_power(2 - prec)) <= 0
    assert bf_to_fraction(b.inf()) <= LN2_100 + Fraction(1, 10**100)
    assert bf_to_fraction(b.sup()) >= LN2_100


def test_ln2_vs_log_kernel():
    assert intersects(ln2_ball(128), log_ball(Ball.from_int(2, 128), 128))


def test_sqrt_identities():
    a = Ball.from_int(2, 128)
    s = sqrt_ball(a, 128)
    assert _contains(ball_mul(s, s, 128), 2)
    with pytest.raises(DomainViolation):
        sqrt_ball(ball_widen(Ball.from_int(0, 64), bf_two_power(-5)), 64)


def test_exp_log_round_trip():
    rng = random.Random(21)
    for _ in range(40):
        f = Fraction(rng.randint(1, 4000), rng.randint(1, 4000))
        x = Ball.from_fraction(f, 96)
        assert _contains(log_ball(exp_ball(x, 96), 96), f)


def test_arcsin_special_value():
    half = sqrt_ball(Ball.from_fraction(Fraction(1, 4), 128), 128)
    assert intersects(ball_mul_rat(asin_ball(half, 128), 6, 1, 128), pi_ball(128))


def test_arcsin_domain_error():
    with pytest.raises(DomainViolation):
        asin_ball(Ball.from_int(1, 64), 64)


def test_sin_cos_pythagoras_random():
    rng = random.Random(13)
    for _ in range(50):
        f = Fraction(rng.randint(1, 600), 400)
        x = Ball.from_fraction(f, 96)
        s, c = sin_ball(x, 96), cos_ball(x, 96)
        assert _contains(ball_add(ball_mul(s, s, 96), ball_mul(c, c, 96), 96), 1)


def test_pow_rational_round_trip():
    a = Ball.from_int(2, 128)
    r = pow_rational(a, 7, 8, 128)
    assert _contains(pow_rational(r, 8, 7, 128), 2)
    assert _contains(pow_rational(a, 0, 1, 128), 1)
    assert _contains(pow_rational(Ball.from_int(4, 128), 1, 2, 128), 2)
    with pytest.raises(NonPositiveBase):
        pow_rational(Ball.from_int(-1, 64), 1, 3, 64)


def test_pow_rational_two_precision():
    for p, q in ((3, 5), (-2, 7), (9, 4)):
        lo = pow_rational(Ball.from_fraction(Fraction(7, 3), 64), p, q, 64)
        hi = pow_rational(Ball.from_fraction(Fraction(7, 3), 160), p, q, 160)
        assert intersects(lo, hi)
        assert bf_cmp(hi.width(), lo.width()) <= 0

