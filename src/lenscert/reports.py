"""Table and plot-data reproduction, and the exact-value reports, each
escalating precision with `certify._escalate` until its enclosures pin what
it prints.  `cli` imports this module for the `table`, `plot` and `exact`
commands only, so a certificate run compiles neither it nor `oracle`.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from . import geom, oracle
from .ball import Ball, ball_dyadics, ball_sub, ball_to_str, intersects
from .certify import DEFAULT_PREC_MAX, DEFAULT_PREC_START, DEFAULT_TARGET_WIDTH, _escalate, _narrow, _radius
from .errors import InvalidArgument, PrecisionExhausted

__all__ = [
    "TableRow", "certified_decimal", "table_rows", "render_table",
    "PlotRow", "plot_rows", "render_plot_csv", "exact_report",
]

# the largest n of `exact --mode simons`; n = 200 needs 512 bits
EXACT_SIMONS_CAP = 200


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------


class TableRow:
    __slots__ = ("n", "k", "l", "lambda_plane_8dp", "m_8dp")

    def __init__(self, n: int, k: int, l: int, lambda_plane_8dp: str | None, m_8dp: str):
        self.n, self.k, self.l = n, k, l
        self.lambda_plane_8dp, self.m_8dp = lambda_plane_8dp, m_8dp


def _round_fixed(num: int, den: int, digits: int) -> str:
    """num/den (den > 0) with `digits` decimals, rounded half up."""
    scale = 10**digits
    q = (2 * num * scale + den) // (2 * den)
    sign = "-" if q < 0 else ""
    q = abs(q)
    return "%s%d.%0*d" % (sign, q // scale, digits, q % scale)


def certified_decimal(b: Ball, digits: int) -> str | None:
    """Fixed-point string with `digits` decimals, or None when the enclosure
    does not pin the rounding (endpoints round differently)."""
    mid, rad, den = ball_dyadics(b)
    lo, hi = (_round_fixed(end, den, digits) for end in (mid - rad, mid + rad))
    return lo if lo == hi else None


def table_rows(n_range, digits: int = 8) -> list[TableRow]:
    # no enclosure within the precision cap pins more decimals
    max_digits = int(DEFAULT_PREC_MAX * math.log10(2))
    if not 1 <= digits <= max_digits:
        raise InvalidArgument("digits must be from 1 to %d, got %r" % (max_digits, digits))
    rows = []
    # `_narrow`'s 2 rad <= width_cap is 2 rad < width_cap: no dyadic rad is 1/(4 10**digits)
    width_cap = Fraction(1, 2 * 10**digits)

    def pinned(b: Ball) -> bool:
        return certified_decimal(b, digits) is not None and _narrow(_radius(b), width_cap)

    for n in sorted(n_range):
        pair_list = geom.table_pairs(n)

        def enclosures(prec: int):
            yield geom.lens_quantities(n, prec).lambda_plane
            for k, l in pair_list:
                yield geom.competitor_energy_specfun(k, l, prec).m_value

        balls, _, done = _escalate(enclosures, pinned, DEFAULT_PREC_START, DEFAULT_PREC_MAX)
        if not done:
            raise PrecisionExhausted(
                "cannot certify %d decimals at dimension %d" % (digits, n)
            )
        lam_str, *m_strs = [certified_decimal(b, digits) for b in balls]
        for i, ((k, l), ms) in enumerate(zip(pair_list, m_strs)):
            rows.append(TableRow(n, k, l, lam_str if i == 0 else None, ms))
    return rows


def render_table(rows: list[TableRow], fmt: str = "csv") -> str:
    if fmt == "json":
        return json.dumps([{name: getattr(r, name) for name in r.__slots__} for r in rows], indent=1)
    lam = lambda r: r.lambda_plane_8dp if r.lambda_plane_8dp is not None else "---"
    if fmt == "csv":
        lines = ["n,k,l,lambda_plane,m"]
        lines += ["%d,%d,%d,%s,%s" % (r.n, r.k, r.l, lam(r), r.m_8dp) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "markdown":
        lines = ["| n | k | l | lambda_plane | M(k,l) |", "|---|---|---|---|---|"]
        lines += [
            "| %d | %d | %d | %s | %s |" % (r.n, r.k, r.l, lam(r), r.m_8dp)
            for r in rows
        ]
        return "\n".join(lines) + "\n"
    raise ValueError("unknown table format %r" % fmt)


# ---------------------------------------------------------------------------
# gap plot data
# ---------------------------------------------------------------------------


class PlotRow:
    __slots__ = ("n", "k", "l", "gap")

    def __init__(self, n: int, k: int, l: int, gap: str):
        self.n, self.k, self.l, self.gap = n, k, l, gap


def plot_rows(n_range) -> list[PlotRow]:
    rows = []
    for n in sorted(n_range):
        k, l = geom.default_pairs(n)[0]

        def enclosures(prec: int):
            lens = geom.lens_quantities(n, prec)
            en = geom.competitor_energy_specfun(k, l, prec)
            yield ball_sub(lens.lambda_plane, en.m_value, prec)

        (gap,), _, done = _escalate(
            enclosures,
            lambda g: _narrow(_radius(g), DEFAULT_TARGET_WIDTH),
            DEFAULT_PREC_START,
            DEFAULT_PREC_MAX,
        )
        if not done:
            raise PrecisionExhausted("gap width target unreachable at n=%d" % n)
        rows.append(PlotRow(n, k, l, ball_to_str(gap)))
    return rows


def render_plot_csv(rows: list[PlotRow]) -> str:
    lines = ["n,k,l,gap"]
    lines += ['%d,%d,%d,"%s"' % (r.n, r.k, r.l, r.gap) for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact-value reports
# ---------------------------------------------------------------------------


def exact_report(n: int, mode: str) -> dict:
    """Symbolic components plus a certified numeric cross-check.  The exact
    parts are computed once; both paths are then enclosed by `_escalate`
    from 128 bits, doubling while an attempt cancels or either path is wider
    than DEFAULT_TARGET_WIDTH (simons mode needs 256 bits from n = 56 on and
    512 from n = 120 on)."""
    if mode == "lens":
        if n < 3 or n > 40:
            raise InvalidArgument("exact lens mode supports 3 <= n <= 40")
        cap, vol = oracle.lens_exact_wallis(n)
        exact_ball, general = _exact_paths(
            lambda prec: (
                oracle.lambda_plane_exact_ball(n, cap, vol, prec),
                geom.lens_quantities(n, prec).lambda_plane,
            )
        )
        return {
            "mode": "lens",
            "n": n,
            "cap_over_omega": _lens_exact_dict(cap),
            "volume_over_omega": _lens_exact_dict(vol),
            "lambda_plane_exact_path": ball_to_str(exact_ball),
            "lambda_plane_general_path": ball_to_str(general),
            "paths_intersect": intersects(exact_ball, general),
        }
    if mode == "simons":
        if n < 4 or n % 4 != 0:
            raise InvalidArgument(
                "exact balanced mode needs n = 2k+2 with k odd (n divisible by 4)"
            )
        if n > EXACT_SIMONS_CAP:
            raise InvalidArgument("exact simons mode supports n <= %d" % EXACT_SIMONS_CAP)
        k = (n - 2) // 2
        ex = oracle.exact_simons_m(k)
        exact_ball, general = _exact_paths(
            lambda prec: (ex.assembled(prec), geom.competitor_energy_specfun(k, k, prec).m_value)
        )
        return {
            "mode": "simons",
            "n": n,
            "k": k,
            "numerator": _q23_dict(ex.num),
            "denominator": _q23_dict(ex.den),
            "numerator_scale": str(ex.num_scale),
            "denominator_scale": str(ex.den_scale),
            "m_exact_path": ball_to_str(exact_ball),
            "m_general_path": ball_to_str(general),
            "paths_intersect": intersects(exact_ball, general),
        }
    raise ValueError("unknown exact mode %r" % mode)


def _exact_paths(paths):
    """paths(prec), the (exact path, general path) pair of an exact report,
    from the first attempt whose enclosures do not cancel and are both at
    most DEFAULT_TARGET_WIDTH wide."""
    items, _, _ = _escalate(
        lambda prec: [paths(prec)],
        lambda pair: all(_narrow(_radius(b), DEFAULT_TARGET_WIDTH) for b in pair),
        DEFAULT_PREC_START,
        DEFAULT_PREC_MAX,
    )
    return items[0]


def _lens_exact_dict(x: oracle.LensExact) -> dict:
    return {"rational": str(x.a), "sqrt3": str(x.b), "pi": str(x.c)}


def _q23_dict(x: oracle.QSqrt23) -> dict:
    return {"1": str(x.a), "sqrt2": str(x.b), "sqrt3": str(x.c), "sqrt6": str(x.d)}
