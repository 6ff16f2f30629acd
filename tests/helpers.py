"""Ball fixtures shared by the test modules."""

from fractions import Fraction

from lenscert.ball import Ball
from lenscert.bigfloat import BigFloat, rup_add


def widen(a: Ball, extra: BigFloat) -> Ball:
    """a with its radius raised by extra >= 0, rounded up"""
    return Ball(a.mid, rup_add(a.rad, extra), a.prec)


def bf_to_fraction(a: BigFloat) -> Fraction:
    """the exact value of a BigFloat"""
    if a.exp >= 0:
        return Fraction(a.sign * a.man << a.exp)
    return Fraction(a.sign * a.man, 1 << -a.exp)
