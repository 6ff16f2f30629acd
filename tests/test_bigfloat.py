import random
from fractions import Fraction

import pytest

from lenscert.bigfloat import (
    BigFloat,
    ZERO,
    bf_add,
    bf_add_exact,
    bf_cmp,
    bf_from_fraction,
    bf_from_int,
    bf_mul,
    bf_mul_rat,
    bf_neg,
    bf_round,
    bf_shift,
    bf_to_fraction,
    bf_to_float,
    bf_two_power,
    rup_add,
    rup_mul,
)


def err_ok(op_exact: Fraction, result: BigFloat, err: BigFloat) -> bool:
    return abs(op_exact - bf_to_fraction(result)) <= bf_to_fraction(err)


def rand_fraction(rng, bits=40):
    num = rng.randint(-(1 << bits), 1 << bits)
    den = rng.randint(1, 1 << bits)
    return Fraction(num, den)


def test_normalization_unique():
    a = bf_from_int(24)
    assert a.man % 2 == 1 and a.man == 3 and a.exp == 3
    assert bf_from_int(0) == ZERO
    assert bf_from_int(-1).sign == -1


def test_round_exact_and_error():
    v, err = bf_round(1, 0b10110111, 0, 4)
    exact = Fraction(0b10110111)
    assert err.sign >= 0
    assert abs(exact - bf_to_fraction(v)) <= bf_to_fraction(err)
    # exact case reports zero error
    v2, err2 = bf_round(1, 0b1010, 0, 8)
    assert err2 == ZERO and bf_to_fraction(v2) == 10


@pytest.mark.parametrize("prec", [24, 53, 128])
def test_arith_error_bounds_random(prec):
    rng = random.Random(1234 + prec)
    for _ in range(300):
        fa, fb = rand_fraction(rng), rand_fraction(rng)
        a, ea = bf_from_fraction(fa, prec)
        b, eb = bf_from_fraction(fb, prec)
        assert err_ok(fa, a, ea) and err_ok(fb, b, eb)
        fa2, fb2 = bf_to_fraction(a), bf_to_fraction(b)
        s, es = bf_add(a, b, prec)
        assert err_ok(fa2 + fb2, s, es)
        m, em = bf_mul(a, b, prec)
        assert err_ok(fa2 * fb2, m, em)
        p = rng.randint(-99, 99)
        q = rng.randint(1, 99)
        r, er = bf_mul_rat(a, p, q, prec)
        assert err_ok(fa2 * p / q, r, er)


def test_exact_add_and_cmp():
    a = bf_from_int(3)
    b = bf_shift(bf_from_int(1), -80)
    s = bf_add_exact(a, b)
    assert bf_to_fraction(s) == 3 + Fraction(1, 1 << 80)
    assert bf_cmp(s, a) > 0
    assert bf_cmp(bf_neg(s), bf_neg(a)) < 0
    assert bf_cmp(a, a) == 0


def test_add_gap_shortcut_sound():
    # operand far below the rounding horizon enters through the error bound
    a = bf_from_int(1)
    tiny = bf_two_power(-100000)
    s, err = bf_add(a, tiny, 64)
    assert bf_to_fraction(s) + bf_to_fraction(err) >= 1 + Fraction(1, 1 << 100000)


def test_rup_layer_upper_bounds():
    rng = random.Random(5)
    for _ in range(300):
        fa = abs(rand_fraction(rng))
        fb = abs(rand_fraction(rng)) + Fraction(1, 997)
        a, _ = bf_from_fraction(fa, 80)
        b, _ = bf_from_fraction(fb, 80)
        fa2, fb2 = bf_to_fraction(a), bf_to_fraction(b)
        assert bf_to_fraction(rup_add(a, b)) >= fa2 + fb2
        assert bf_to_fraction(rup_mul(a, b)) >= fa2 * fb2


def test_float_conversions():
    assert bf_to_float(bf_from_int(3)) == 3.0
    assert bf_to_float(bf_shift(bf_from_int(1), -2)) == 0.25
    big = bf_shift(bf_from_int(1), 5000)
    assert bf_to_float(big) == float("inf")
