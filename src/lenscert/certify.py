"""Certification driver: precision escalation, inequality certificates,
table and plot-data reproduction, and the exact-value reports.

Up to n = QUADRATURE_MAX_N a certificate also records, per pair, whether
the special-function value agrees with one second path, the exact-moment
value of `geom.competitor_energy_quadrature` at AGREEMENT_PREC bits.

A certificate has one form, the JSON object that `certify_dimension` builds
in file layout, and one verdict rule, `_replay`, which decides it from the
object's fields alone: the exact decimal values of its `m_value` and
`lambda_plane` strings, its `target_width`, its pairs and its
`path_agreement` flags.  `certify_dimension` sets the verdict by calling
`_replay` on the object it built and `replay_certificate` calls it on a
file's, so a replay gives the stored verdict by construction, and needs
only `json`, `fractions`, the parser `ball.ball_str_fractions` and `_replay`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__, geom, oracle
from .ball import (
    Ball,
    TriBool,
    ball_str_fractions,
    ball_sub,
    ball_to_str,
    intersects,
)
from .bigfloat import bf_to_fraction
from .errors import InvalidArgument, PrecisionExhausted

__all__ = [
    "certify_dimension",
    "certify",
    "strictness",
    "replay_certificate",
    "TableRow",
    "table_rows",
    "render_table",
    "PlotRow",
    "plot_rows",
    "render_plot_csv",
    "exact_report",
    "DEFAULT_TARGET_WIDTH",
    "DEFAULT_PREC_START",
    "DEFAULT_PREC_MAX",
    "QUADRATURE_MAX_N",
]

DEFAULT_TARGET_WIDTH = 1e-12
DEFAULT_PREC_START = 128
# the largest power of two whose ball strings (about prec log10(2) digits) fit
# the 4300-digit int/str limit of Python; also the largest cap allowed
DEFAULT_PREC_MAX = 1 << 13
QUADRATURE_MAX_N = 24
# the agreement path runs at this fixed precision, whatever the certificate's
AGREEMENT_PREC = 64
AGREEMENT_WIDTH = 1e-6
# the largest n of `exact --mode simons`; n = 200 needs 512 bits
EXACT_SIMONS_CAP = 200


def _resolve_pairs(n: int, pairs: str) -> list[tuple[int, int]]:
    """The competitor pairs certified at dimension n: "default" or "all"."""
    if n < 4:
        raise InvalidArgument("no competitor pairs below dimension 4")
    if pairs == "default":
        return geom.default_pairs(n)
    if pairs == "all":
        return geom.all_pairs(n)
    raise InvalidArgument("pairs must be 'default' or 'all', got %r" % (pairs,))


def strictness(m: tuple[Fraction, Fraction], lam: tuple[Fraction, Fraction]) -> TriBool:
    """Whether M < lambda_plane holds over two balls, each given as the exact
    (mid, rad) of its string (`ball_str_fractions`)."""
    (m_mid, m_rad), (l_mid, l_rad) = m, lam
    if m_mid + m_rad < l_mid - l_rad:
        return TriBool.CERTAINLY_TRUE
    if m_mid - m_rad > l_mid + l_rad:
        return TriBool.CERTAINLY_FALSE
    return TriBool.UNKNOWN


def _narrow(rad: Fraction, tw) -> bool:
    """The one width rule: a ball of radius rad is at most tw wide,
    2 rad <= tw, decided on the exact value of the float or int tw."""
    p, q = tw.as_integer_ratio()
    return 2 * rad.numerator * q <= p * rad.denominator


def _escalate(enclosures, ok, prec_start: int, prec_max: int):
    """Run an attempt at prec_start bits, doubling prec until an attempt is
    accepted or the next doubling would exceed prec_max.

    An attempt draws the items of the generator `enclosures(prec)`, one per
    enclosure, and is accepted when ok(item) holds for every item.  `ok` is
    the client's only acceptance test.  A non-final attempt stops at its first
    failing item, so the later items are never computed; the final attempt,
    the last one the cap allows, takes every item.  This is the only place
    that works out which attempt is final.  An attempt that raises
    PrecisionExhausted, the library's one signal that an enclosure at this
    precision does not decide something (a sign, a domain, a tail bound),
    is rejected too; on the final attempt the error propagates.  Any other
    error propagates at once, as no precision mends it.  Returns (items,
    prec, accepted).
    """
    if prec_start < 1:
        raise InvalidArgument("starting precision must be at least 1 bit, got %r" % prec_start)
    if prec_max < prec_start:
        raise InvalidArgument(
            "precision cap %r is below the starting precision %r" % (prec_max, prec_start)
        )
    if prec_max > DEFAULT_PREC_MAX:
        raise InvalidArgument(
            "precision cap %r is above %d bits, the largest a certificate can be written at"
            % (prec_max, DEFAULT_PREC_MAX)
        )
    prec = prec_start
    while True:
        final = prec * 2 > prec_max
        items, accepted = [], True
        try:
            for item in enclosures(prec):
                if not ok(item):
                    accepted = False
                    if not final:
                        break
                items.append(item)
        except PrecisionExhausted:
            if final:
                raise
        else:
            if accepted or final:
                return items, prec, accepted
        prec *= 2


def certify_dimension(
    n: int,
    pairs: str = "default",
    target_width: float = DEFAULT_TARGET_WIDTH,
    prec_start: int = DEFAULT_PREC_START,
    prec_max: int = DEFAULT_PREC_MAX,
) -> dict:
    """Certify the strict inequality at one dimension, escalating precision,
    and return the certificate: the JSON object, its keys in file layout.

    The enclosures handed to `_escalate` are the lens energy
    (`geom.lens_quantities`), then the competitor energies pair by pair
    (`geom.competitor_energy_specfun`), each written with `ball_to_str`; the
    acceptance test is that each written string meets the width rule
    `_narrow` against the exact value of the recorded `target_width` and,
    for a pair, decides strictness.  `ball_to_str` never narrows a ball, so
    a lens whose own radius fails the rule is rejected before it is written.
    Both evaluators are looked up on `geom` at call time, so a tracer or a
    test can substitute them.  Up to n = QUADRATURE_MAX_N each pair is
    checked against one second path at AGREEMENT_PREC bits, the exact-moment
    value of `geom.competitor_energy_quadrature`.  It agrees only when it is
    at most AGREEMENT_WIDTH wide and intersects the pair's enclosure; a pair
    whose value does not sets its `path_agreement` to false.  The verdict is
    `_replay` of the finished object.
    """
    pair_list = _resolve_pairs(n, pairs)
    if not 0 < target_width < math.inf:
        raise InvalidArgument("target width must be positive and finite, got %r" % target_width)
    width = float(target_width)
    cert = {
        "n": n,
        "precision_bits": None,
        "target_width": width,
        "lambda_plane": None,
        "entries": [],
        "verdict": None,
        "tool_version": __version__,
        "timestamp": None,
    }
    balls = []  # the m_value balls of the latest attempt, for the agreement rule

    def enclosures(prec: int):
        # (radius, strictness or None) per acceptance test; the lens has two,
        # its own radius and then its string's
        lens = geom.lens_quantities(n, prec).lambda_plane
        yield bf_to_fraction(lens.rad), None
        cert["lambda_plane"] = ball_to_str(lens)
        lam = ball_str_fractions(cert["lambda_plane"])
        yield lam[1], None
        entries = cert["entries"] = []
        balls.clear()
        for k, l in pair_list:
            m_ball = geom.competitor_energy_specfun(k, l, prec).m_value
            m_str = ball_to_str(m_ball)
            m = ball_str_fractions(m_str)
            strict = strictness(m, lam)
            entries.append({"k": k, "l": l, "m_value": m_str, "path_agreement": None, "strict": strict.value})
            balls.append(m_ball)
            yield m[1], strict

    def ok(item) -> bool:
        rad, strict = item
        return _narrow(rad, width) and strict is not TriBool.UNKNOWN

    cert["precision_bits"] = _escalate(enclosures, ok, prec_start, prec_max)[1]

    # independent-path agreement below the quadrature ceiling
    if n <= QUADRATURE_MAX_N:
        for m_ball, entry in zip(balls, cert["entries"]):
            other = geom.competitor_energy_quadrature(entry["k"], entry["l"], AGREEMENT_PREC).m_value
            narrow = _narrow(bf_to_fraction(other.rad), AGREEMENT_WIDTH)
            entry["path_agreement"] = narrow and intersects(m_ball, other)

    cert["verdict"] = _replay(cert)
    cert["timestamp"] = datetime.now(timezone.utc).isoformat()
    return cert


@contextlib.contextmanager
def open_output(out: str | None):
    """A function that writes the finished text to the file `out`, or to
    stdout.  The file is opened for appending at once: a path that cannot be
    written fails before anything is computed, and an existing file keeps its
    bytes until the text replaces them, so a run that fails leaves it as is.
    A file that the open created is removed again when the run fails."""
    if not out:
        yield sys.stdout.write
        return
    created = not os.path.exists(out)
    with open(out, "a") as fh:

        def replace(text: str) -> None:
            fh.truncate(0)
            fh.write(text)

        try:
            yield replace
        except BaseException:
            if created:
                os.remove(out)
            raise


def certify(
    n_range,
    pairs: str = "default",
    target_width: float = DEFAULT_TARGET_WIDTH,
    prec_start: int = DEFAULT_PREC_START,
    prec_max: int = DEFAULT_PREC_MAX,
    jobs: int | None = None,
    out: str | None = None,
) -> list[dict]:
    """Certify a range of dimensions; optionally write the JSON certificates
    to `out` (see `open_output`).

    At most min(jobs, number of dimensions, CPU count) worker processes run."""
    if jobs is not None and jobs < 1:
        raise InvalidArgument("jobs must be at least 1, got %r" % jobs)
    ns = sorted(n_range)
    one = functools.partial(
        certify_dimension, pairs=pairs, target_width=target_width, prec_start=prec_start, prec_max=prec_max
    )
    workers = min(jobs or 1, len(ns), os.cpu_count() or 1)
    with open_output(out) if out else contextlib.nullcontext() as write:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                certs = list(pool.map(one, ns, chunksize=4))
        else:
            certs = list(map(one, ns))
        if write:
            write(json.dumps(certs, indent=1) + "\n")
    return certs


def _replay(cert: dict) -> str:
    """The verdict of a certificate object, from its fields alone: the one
    verdict rule, which `certify_dimension` applies to the object it builds
    and `replay_certificate` to a file's.  Each ball string is parsed once.

    Failed: a key is missing, a field has the wrong type or a ball string
    does not parse; there are no entries; a pair is not one of the
    dimension's (k + l + 2 = n and 1/3 < k/l < 3); a `path_agreement` is not
    true up to QUADRATURE_MAX_N, where the agreement check runs (false, or
    not a boolean), or not null above it; the `target_width` is not a
    positive finite number; an enclosure of these positive values lies
    certainly at or below 0; or some M is certainly not below lambda_plane.
    Undecided: some strictness is undecided, or some enclosure fails the
    width rule against `target_width`; a certificate without that key (the
    format before it was recorded) has no width test.  Proven otherwise.
    """
    try:
        n, entries, width = cert["n"], cert["entries"], cert.get("target_width")
        lam = ball_str_fractions(cert["lambda_plane"])
        ms = [ball_str_fractions(e["m_value"]) for e in entries]
        pairs = [(e["k"], e["l"]) for e in entries]
        agreements = [e["path_agreement"] for e in entries]
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError):
        return "Failed"
    balls = [lam, *ms]
    stricts = [strictness(m, lam) for m in ms]
    if (
        type(n) is not int
        or not entries
        or not all(type(k) is int and type(l) is int and k + l + 2 == n and 0 < l < 3 * k and k < 3 * l
                   for k, l in pairs)
        # true where the agreement check runs, null above
        or any(a is not (True if n <= QUADRATURE_MAX_N else None) for a in agreements)
        or width is not None and not (type(width) in (int, float) and 0 < width < math.inf)
        # mid + rad <= 0, by the sign of its numerator
        or any(mid.numerator * rad.denominator + rad.numerator * mid.denominator <= 0 for mid, rad in balls)
        or TriBool.CERTAINLY_FALSE in stricts
    ):
        return "Failed"
    if TriBool.UNKNOWN in stricts or width is not None and not all(_narrow(rad, width) for _, rad in balls):
        return "Undecided"
    return "Proven"


def replay_certificate(cert: dict) -> str:
    """Recompute a certificate's verdict from its JSON alone, by `_replay`.
    Certification calls `_replay` itself, so that a wrapper of this function
    sees replays only."""
    return _replay(cert)


# ---------------------------------------------------------------------------
# table reproduction
# ---------------------------------------------------------------------------


class TableRow:
    __slots__ = ("n", "k", "l", "lambda_plane_8dp", "m_8dp")

    def __init__(self, n: int, k: int, l: int, lambda_plane_8dp: str | None, m_8dp: str):
        self.n, self.k, self.l = n, k, l
        self.lambda_plane_8dp, self.m_8dp = lambda_plane_8dp, m_8dp


def _round_fixed(fr: Fraction, digits: int) -> str:
    scale = 10**digits
    num = fr * scale
    q = num.numerator // num.denominator
    rem = num - q
    if rem >= Fraction(1, 2):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return "%s%d.%0*d" % (sign, q // scale, digits, q % scale)


def certified_decimal(b: Ball, digits: int) -> str | None:
    """Fixed-point string with `digits` decimals, or None when the enclosure
    does not pin the rounding (endpoints round differently)."""
    lo = _round_fixed(bf_to_fraction(b.inf()), digits)
    hi = _round_fixed(bf_to_fraction(b.sup()), digits)
    return lo if lo == hi else None


def table_rows(n_range, digits: int = 8) -> list[TableRow]:
    # no enclosure within the precision cap pins more decimals
    max_digits = int(DEFAULT_PREC_MAX * math.log10(2))
    if not 1 <= digits <= max_digits:
        raise InvalidArgument("digits must be from 1 to %d, got %r" % (max_digits, digits))
    rows = []
    width_cap = Fraction(1, 2 * 10**digits)

    def pinned(b: Ball) -> bool:
        return certified_decimal(b, digits) is not None and 2 * bf_to_fraction(b.rad) < width_cap

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
            lambda g: _narrow(bf_to_fraction(g.rad), DEFAULT_TARGET_WIDTH),
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
        lambda pair: all(_narrow(bf_to_fraction(b.rad), DEFAULT_TARGET_WIDTH) for b in pair),
        DEFAULT_PREC_START,
        DEFAULT_PREC_MAX,
    )
    return items[0]


def _lens_exact_dict(x: oracle.LensExact) -> dict:
    return {"rational": str(x.a), "sqrt3": str(x.b), "pi": str(x.c)}


def _q23_dict(x: oracle.QSqrt23) -> dict:
    return {"1": str(x.a), "sqrt2": str(x.b), "sqrt3": str(x.c), "sqrt6": str(x.d)}
