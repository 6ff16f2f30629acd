"""The independence ledger: what the agreement check's second path shares
with the main path it checks.

Agreement between two paths is evidence only to the extent that they share
no code (Knight and Leveson, IEEE TSE 12(1), 1986).  `LEDGER` states every
lenscert function that both the special-function value of a pair and its
exact-moment value run, each with its reason:

- `kernel`: the ball and BigFloat layer, the `_fx_*` primitives and `pi`;
- `gap, see N`: a shared formula that ROADMAP direction N is meant to
  remove.

The test traces both paths with `sys.setprofile` and asserts that the
functions they share are exactly the ledger's: a change that adds sharing
fails it, and so does one that removes sharing without shrinking the
ledger.
"""

import os
import sys

import pytest

import lenscert
from lenscert import certify, geom

KERNEL, ASSEMBLY = "kernel", "gap, see 20"

LEDGER = {
    "ball.Ball.__init__": KERNEL,
    "ball.Ball.inf": KERNEL,
    "ball.Ball.mag_sup": KERNEL,
    "ball.Ball.point": KERNEL,
    "ball.Ball.sup": KERNEL,
    "ball._fx_add": KERNEL,
    "ball._fx_div": KERNEL,
    "ball._fx_from_ball": KERNEL,
    "ball._fx_mul": KERNEL,
    "ball._fx_mul_rat": KERNEL,
    "ball._fx_pow": KERNEL,
    "ball._fx_pow_mid": KERNEL,
    "ball._fx_sqrt": KERNEL,
    "ball._fx_sub": KERNEL,
    "ball._fx_tail": KERNEL,
    "ball._fx_to_ball": KERNEL,
    "ball._root_bound": KERNEL,
    "ball.ball_from_endpoints": KERNEL,
    "ball.ball_mul_rat": KERNEL,
    "ball.ball_pow_int": KERNEL,
    "ball.ball_round": KERNEL,
    "ball.certainly_positive": KERNEL,
    "ball.pi_ball": KERNEL,
    "ball.pow_rational": KERNEL,
    "bigfloat.BigFloat.__init__": KERNEL,
    "bigfloat._ceil_to": KERNEL,
    "bigfloat._div_mans": KERNEL,
    "bigfloat._norm": KERNEL,
    "bigfloat.bf_abs": KERNEL,
    "bigfloat.bf_add_exact": KERNEL,
    "bigfloat.bf_cmp": KERNEL,
    "bigfloat.bf_from_int": KERNEL,
    "bigfloat.bf_msb_exp": KERNEL,
    "bigfloat.bf_mul_rat": KERNEL,
    "bigfloat.bf_neg": KERNEL,
    "bigfloat.bf_round": KERNEL,
    "bigfloat.bf_shift": KERNEL,
    "bigfloat.bf_two_power": KERNEL,
    "bigfloat.rup": KERNEL,
    "bigfloat.rup_add": KERNEL,
    "bigfloat.rup_mul_rat": KERNEL,
    # the arc constants and the final assembly: a fault in the cone term or
    # the volume moves both values alike
    "geom.CompetitorEnergy.__init__": ASSEMBLY,
    "geom.LawsonConstants.__init__": ASSEMBLY,
    "geom._root_power": ASSEMBLY,
    "geom._valid_ratio": ASSEMBLY,
    "geom.assemble_competitor": ASSEMBLY,
    "geom.lawson_constants": ASSEMBLY,
    "specfun.unit_ball_volume_product": ASSEMBLY,
}


def _called(fn, *args) -> set:
    """the lenscert functions that fn(*args) runs, as module.qualname
    without the package prefix; a nested function or comprehension counts
    as the function it is in"""
    root = os.path.dirname(lenscert.__file__)
    seen = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root):
            module = frame.f_globals["__name__"].removeprefix("lenscert.")
            seen.add(module + "." + code.co_qualname.split(".<locals>")[0])

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs code.co_qualname")
def test_moment_path_shares_only_the_ledger():
    """for the unbalanced pair (7, 9) of n = 18 and the balanced (8, 8) of
    n = 18, the functions that `competitor_energy_specfun` at 128 bits and
    `competitor_energy_quadrature` at AGREEMENT_PREC both run are exactly
    the ledger's; each path runs once untraced first, so that cached
    constants (pi) are read, not computed, in both traced runs"""
    shared = set()
    for k, l in ((7, 9), (8, 8)):
        runs = (
            (geom.competitor_energy_specfun, k, l, 128),
            (geom.competitor_energy_quadrature, k, l, certify.AGREEMENT_PREC),
        )
        for fn, *args in runs:
            fn(*args)
        main, second = (_called(*run) for run in runs)
        assert "oracle.arc_profile_quadrature" in second - main
        shared |= main & second
    assert shared == set(LEDGER)
    assert set(LEDGER.values()) == {KERNEL, ASSEMBLY}
