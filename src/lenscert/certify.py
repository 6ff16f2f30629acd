"""Certification driver: precision escalation and inequality certificates.
The table, plot-data and exact-value reports, which reuse the driver, are
in `reports`; this module imports neither it nor `oracle`, so that a cold
start compiles only what a certificate run needs.

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
only `json`, the parser `ball.ball_str_decimals` and `_replay`, which
decides on integers: each string's midpoint and radius over one power of
ten, and `target_width` as an integer ratio.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import sys
import time

from . import __version__, geom
from .ball import Ball, TriBool, ball_dyadics, ball_str_decimals, ball_to_str, intersects
from .errors import InvalidArgument, PrecisionExhausted

__all__ = [
    "certify_dimension",
    "certify",
    "strictness",
    "replay_certificate",
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


def _resolve_pairs(n: int, pairs: str) -> list[tuple[int, int]]:
    """The competitor pairs certified at dimension n: "default" or "all"."""
    if n < 4:
        raise InvalidArgument("no competitor pairs below dimension 4")
    if pairs == "default":
        return geom.default_pairs(n)
    if pairs == "all":
        return geom.all_pairs(n)
    raise InvalidArgument("pairs must be 'default' or 'all', got %r" % (pairs,))


def strictness(m: tuple[int, int, int], lam: tuple[int, int, int]) -> TriBool:
    """Whether M < lambda_plane holds over two balls, each given as the exact
    (mid, rad, den) of its string (`ball_str_decimals`), decided on integers
    by cross-multiplying the two denominators."""
    (m_mid, m_rad, m_den), (l_mid, l_rad, l_den) = m, lam
    if (m_mid + m_rad) * l_den < (l_mid - l_rad) * m_den:
        return TriBool.CERTAINLY_TRUE
    if (m_mid - m_rad) * l_den > (l_mid + l_rad) * m_den:
        return TriBool.CERTAINLY_FALSE
    return TriBool.UNKNOWN


def _narrow(rad: tuple[int, int], tw) -> bool:
    """The one width rule: a ball whose radius is the ratio rad of two
    integers is at most tw wide, 2 rad <= tw, decided on integers with the
    exact value of the float or int tw."""
    (num, den), (p, q) = rad, tw.as_integer_ratio()
    return 2 * num * q <= p * den


def _radius(b: Ball) -> tuple[int, int]:
    """The radius of an unwritten ball, for `_narrow`: its exact radius
    over a power of two (`ball_dyadics`)."""
    return ball_dyadics(b)[1:]


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
        # ((rad, den), strictness or None) per acceptance test; the lens has
        # two, its own radius and then its string's
        lens = geom.lens_quantities(n, prec).lambda_plane
        yield _radius(lens), None
        cert["lambda_plane"] = ball_to_str(lens)
        lam = ball_str_decimals(cert["lambda_plane"])
        yield lam[1:], None
        entries = cert["entries"] = []
        balls.clear()
        for k, l in pair_list:
            m_ball = geom.competitor_energy_specfun(k, l, prec).m_value
            m_str = ball_to_str(m_ball)
            m = ball_str_decimals(m_str)
            strict = strictness(m, lam)
            entries.append({"k": k, "l": l, "m_value": m_str, "path_agreement": None, "strict": strict.value})
            balls.append(m_ball)
            yield m[1:], strict

    def ok(item) -> bool:
        rad, strict = item
        return _narrow(rad, width) and strict is not TriBool.UNKNOWN

    cert["precision_bits"] = _escalate(enclosures, ok, prec_start, prec_max)[1]

    # independent-path agreement below the quadrature ceiling
    if n <= QUADRATURE_MAX_N:
        for m_ball, entry in zip(balls, cert["entries"]):
            other = geom.competitor_energy_quadrature(entry["k"], entry["l"], AGREEMENT_PREC).m_value
            narrow = _narrow(_radius(other), AGREEMENT_WIDTH)
            entry["path_agreement"] = narrow and intersects(m_ball, other)

    cert["verdict"] = _replay(cert)
    # UTC in the layout of `datetime.isoformat()`: microseconds only when
    # not 0, then +00:00
    seconds, ns = divmod(time.time_ns(), 10**9)
    us = ".%06d" % (ns // 1000) if ns >= 1000 else ""
    cert["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds)) + us + "+00:00"
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
    and `replay_certificate` to a file's.  Each ball string is parsed once,
    into integers (`ball_str_decimals`), and every test below compares
    integers; no Fraction is built.

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
        lam = ball_str_decimals(cert["lambda_plane"])
        ms = [ball_str_decimals(e["m_value"]) for e in entries]
        pairs = [(e["k"], e["l"]) for e in entries]
        agreements = [e["path_agreement"] for e in entries]
    except (AttributeError, KeyError, TypeError, ValueError):
        return "Failed"
    balls = [lam, *ms]
    stricts = [strictness(m, lam) for m in ms]
    if (
        type(n) is not int
        or not entries
        or not all(type(k) is int and type(l) is int and k + l + 2 == n and geom._valid_ratio(k, l)
                   for k, l in pairs)
        # true where the agreement check runs, null above
        or any(a is not (True if n <= QUADRATURE_MAX_N else None) for a in agreements)
        or width is not None and not (type(width) in (int, float) and 0 < width < math.inf)
        or any(mid + rad <= 0 for mid, rad, _ in balls)
        or TriBool.CERTAINLY_FALSE in stricts
    ):
        return "Failed"
    if TriBool.UNKNOWN in stricts or width is not None and not all(_narrow(b[1:], width) for b in balls):
        return "Undecided"
    return "Proven"


def replay_certificate(cert: dict) -> str:
    """Recompute a certificate's verdict from its JSON alone, by `_replay`.
    Certification calls `_replay` itself, so that a wrapper of this function
    sees replays only."""
    return _replay(cert)
