"""Command-line driver.

Exit codes: 0 when every requested certificate is Proven, 2 when any is
Undecided, 1 on errors (including any Failed certificate).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, certify as certify_mod
from .errors import InvalidArgument, LensCertError


def _parse_range(spec: str) -> range:
    lo, sep, hi = spec.partition("..")
    try:
        lo_i = int(lo)
        hi_i = int(hi) if sep else lo_i
    except ValueError:
        raise InvalidArgument("bad dimension %r (expected N or N..M)" % spec) from None
    if hi_i < lo_i:
        raise InvalidArgument("empty range %r" % spec)
    return range(lo_i, hi_i + 1)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lenscert",
        description="Certified enclosures and inequality certificates for the "
        "renormalized lens energy versus cone-competitor energies.",
    )
    p.add_argument("--version", action="version", version="lenscert " + __version__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("certify", help="emit inequality certificates over a range of dimensions")
    c.add_argument("--n", required=True, help="dimension or range, e.g. 8 or 8..16")
    c.add_argument("--pairs", default="default", choices=["default", "all"])
    c.add_argument("--width", type=float, default=certify_mod.DEFAULT_TARGET_WIDTH)
    c.add_argument("--prec-start", type=int, default=certify_mod.DEFAULT_PREC_START)
    c.add_argument("--prec-max", type=int, default=certify_mod.DEFAULT_PREC_MAX)
    c.add_argument("--jobs", type=int, default=None)
    c.add_argument("--long-run", action="store_true",
                   help="allow dimensions above the default desk-scale cap of 200 (up to 2700)")
    c.add_argument("--out", default=None, help="write the JSON certificates here")

    t = sub.add_parser("table", help="reproduce the reference energy table")
    t.add_argument("--n", required=True)
    t.add_argument("--digits", type=int, default=8)
    t.add_argument("--format", default="csv", choices=["csv", "json", "markdown"])
    t.add_argument("--out", default=None)

    g = sub.add_parser("plot", help="gap data (lens energy minus competitor energy) per dimension")
    g.add_argument("--n", required=True)
    g.add_argument("--out", default=None)

    e = sub.add_parser("exact", help="exact symbolic components with a numeric cross-check")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--mode", required=True, choices=["lens", "simons"])
    return p


DESK_SCALE_CAP = 200
LONG_RUN_CAP = 2700


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "exact":
            # a range, so its upper end is checked before any list is built
            ns = _parse_range(args.n)
            certify = args.command == "certify"
            cap = DESK_SCALE_CAP if certify and not args.long_run else LONG_RUN_CAP
            if ns[-1] > cap:
                hint = " (use --long-run for up to %d)" % LONG_RUN_CAP if certify else ""
                raise InvalidArgument("dimension %d above cap %d%s" % (ns[-1], cap, hint))
        if args.command == "certify":
            certs = certify_mod.certify(
                ns,
                pairs=args.pairs,
                target_width=args.width,
                prec_start=args.prec_start,
                prec_max=args.prec_max,
                jobs=args.jobs,
                out=args.out,
            )
            for c in certs:
                print("n=%d verdict=%s precision=%d" % (c["n"], c["verdict"], c["precision_bits"]))
            if any(c["verdict"] == "Failed" for c in certs):
                return 1
            if any(c["verdict"] == "Undecided" for c in certs):
                return 2
            return 0
        # imported here, so that a `certify` run never compiles the reports
        from . import reports

        if args.command == "table":
            with certify_mod.open_output(args.out) as write:
                rows = reports.table_rows(ns, digits=args.digits)
                write(reports.render_table(rows, args.format))
            return 0
        if args.command == "plot":
            with certify_mod.open_output(args.out) as write:
                write(reports.render_plot_csv(reports.plot_rows(ns)))
            return 0
        if args.command == "exact":
            report = reports.exact_report(args.n, args.mode)
            print(json.dumps(report, indent=1))
            return 0
    except (LensCertError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
