"""Ball fixtures shared by the test modules."""

from lenscert.ball import Ball
from lenscert.bigfloat import BigFloat, rup_add


def widen(a: Ball, extra: BigFloat) -> Ball:
    """a with its radius raised by extra >= 0, rounded up"""
    return Ball(a.mid, rup_add(a.rad, extra), a.prec)
