"""Print every line of src/lenscert that the command-line surface never runs.

Usage: python3 tools/reach.py

The script takes no arguments.  It installs a line tracer (`sys.settrace`)
before lenscert is imported, then runs, in this one process, through
`lenscert.cli.main`:

- `certify` over 4..24, over 4..24 with `--pairs all`, over 25..40 at width
  1e-45, over 150..200, at n = 8 with width 1e-200 and `--prec-max 512`,
  over 8..9 with `--jobs 2`, at 396, 1000 and 2700 with `--long-run`, and
  over every pair of n = 400 with `--long-run --pairs all`, whose most
  lopsided pairs have the tightest series tail bounds, and over every pair
  of n = 133 from 1 bit at width 1000, whose low-precision attempts are
  rejected on an F1 argument ball that reaches the unit circle;
- `table` over 4..16, over 8..12 with 40 digits, and in each format;
- `plot` over 8..20, and `exact` in both modes (simons at n = 12 and at
  n = 76, where the 128-bit attempt cancels);
- the command-line error inputs, among them `table` and `plot` over
  8..10^12, which end at the dimension cap before the range is built;

and `certify.replay_certificate` on every certificate written, on one
tampered certificate, and on the `HAND_EDITS` of the n = 8 one.  Worker
processes started by `--jobs 2` are not traced; the serial runs reach
every line they run.

The unreached lines are printed grouped by the function that contains them
(a module-level function, or a method as `Class.method`; nested functions
count as part of the one they are in), one `file: function (N lines)` head
and then `  line: source` per line, followed by a count per file.  A group
whose function never ran, and whose name a Python file under bench/
mentions, is marked `kept: named by bench/<file>`: the benchmark looks it
up by that name, so deleting it would break the benchmark.  Those files
are searched on each run; no list is kept by hand.  Then one pass over
the call edges of the package source (`references`) marks, to a fixed
point, a group whose function never ran and that only kept functions name
as `kept: reached only from <functions>`: it goes when they go.  A call
that names no function, such as an operator, gives no edge.  The run takes
about 11 s on a 2-core container.
"""

from __future__ import annotations

import ast
import contextlib
import copy
import dis
import io
import json
import os
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lenscert"
BENCH = ROOT / "bench"

CERTIFY_RUNS = [
    ["--n", "4..24"],
    ["--n", "4..24", "--pairs", "all"],
    ["--n", "25..40", "--width", "1e-45"],
    ["--n", "150..200"],
    ["--n", "8", "--width", "1e-200", "--prec-max", "512"],
    ["--n", "8..9", "--jobs", "2"],
    ["--n", "396", "--long-run"],
    ["--n", "1000", "--long-run"],
    ["--n", "2700", "--long-run"],
    ["--n", "400", "--long-run", "--pairs", "all"],
    ["--n", "133", "--pairs", "all", "--prec-start", "1", "--width", "1000"],
]

OTHER_RUNS = [
    ["table", "--n", "4..16"],
    ["table", "--n", "8..12", "--digits", "40"],
    ["table", "--n", "8..9", "--format", "json"],
    ["table", "--n", "8..9", "--format", "markdown"],
    ["plot", "--n", "8..20"],
    ["exact", "--n", "12", "--mode", "lens"],
    ["exact", "--n", "12", "--mode", "simons"],
    ["exact", "--n", "76", "--mode", "simons"],
]

# each ends in one `error:` line (exit 1) or an argparse usage error (exit 2)
ERROR_RUNS = [
    ["certify", "--n", "x"],
    ["certify", "--n", "9..8"],
    ["certify", "--n", "201"],
    ["certify", "--n", "2701", "--long-run"],
    ["certify", "--n", "8", "--width", "0"],
    ["certify", "--n", "8", "--width", "inf"],
    ["certify", "--n", "8", "--prec-start", "0"],
    ["certify", "--n", "8", "--prec-max", "64"],
    ["certify", "--n", "8", "--prec-max", "16384"],
    ["certify", "--n", "8", "--jobs", "0"],
    ["certify", "--n", "8", "--out", "/nonexistent-dir/certs.json"],
    ["certify", "--n", "8", "--pairs", "none"],
    ["table", "--n", "8", "--digits", "0"],
    ["table", "--n", "8", "--digits", "5000"],
    ["table", "--n", "8", "--format", "xml"],
    ["table", "--n", "8..1000000000000"],
    ["plot", "--n", "8..1000000000000"],
    ["exact", "--n", "41", "--mode", "lens"],
    ["exact", "--n", "10", "--mode", "simons"],
    ["exact", "--n", "204", "--mode", "simons"],
]


# edits of the n = 8 certificate that replay: a pair outside 1/3 < k/l < 3,
# a null path_agreement where the agreement check runs, a missing key, an
# m_value certainly below 0, a ball string without "+/-", and the format
# without target_width
HAND_EDITS = [
    lambda c: c["entries"][-1].update(k=1, l=5),
    lambda c: c["entries"][0].update(path_agreement=None),
    lambda c: c["entries"][0].pop("path_agreement"),
    lambda c: c["entries"][0].update(m_value="-5e+0 +/- 1e+0"),
    lambda c: c.update(lambda_plane="7.29e+0"),
    lambda c: c.pop("target_width"),
]


def executable_lines(path: pathlib.Path) -> set[int]:
    """The line numbers that start an instruction in any code object of the
    file, module level included."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    return lines


def functions(path: pathlib.Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each module-level function, class
    and method of the file, the first line being that of its first
    decorator, as in its code object; a method is named `Class.method` and
    listed after its class, so the last match of a line is the innermost."""

    def span(name, node):
        return name, min([node.lineno] + [d.lineno for d in node.decorator_list]), node.end_lineno

    out = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(span(node.name, node))
        if isinstance(node, ast.ClassDef):
            out += [span("%s.%s" % (node.name, f.name), f) for f in node.body if isinstance(f, ast.FunctionDef)]
    return out


def bench_names(name: str) -> list[str]:
    """The Python files under bench/ that mention the last part of name."""
    word = re.compile(r"\b%s\b" % re.escape(name.rsplit(".", 1)[-1]))
    return [str(f.relative_to(ROOT)) for f in sorted(BENCH.glob("*.py")) if word.search(f.read_text())]


def references() -> dict[str, set[tuple[str, str]]]:
    """The call edges of the package, read from its source: for each name,
    the (file, function) pairs, named as in `functions` or "<module>",
    whose code calls or otherwise names it as a variable or attribute."""
    out: dict[str, set[tuple[str, str]]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        units = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                units += [("%s.%s" % (node.name, f.name), f) for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                units.append((node.name if isinstance(node, ast.FunctionDef) else "<module>", node))
        for name, node in units:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    word = sub.id if isinstance(sub, ast.Name) else sub.attr
                    out.setdefault(word, set()).add((str(path), name))
    return out


def run_surface(tmp: str) -> None:
    from lenscert import certify, cli

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                cli.main(argv)
            except SystemExit:
                pass

    outs = []
    for i, args in enumerate(CERTIFY_RUNS):
        outs.append(os.path.join(tmp, "certs%d.json" % i))
        run(["certify", *args, "--out", outs[-1]])
    for args in OTHER_RUNS + ERROR_RUNS:
        run(args)
    # a failing run removes the --out file it created
    run(["certify", "--n", "3..9", "--out", os.path.join(tmp, "failed.json")])

    certs = [cert for path in outs for cert in json.loads(pathlib.Path(path).read_text())]
    for cert in certs:
        certify.replay_certificate(cert)
    tampered = copy.deepcopy(certs[0])
    tampered["entries"][0]["m_value"] = tampered["lambda_plane"]
    certify.replay_certificate(tampered)
    n8 = next(cert for cert in certs if cert["n"] == 8)
    for edit in HAND_EDITS:
        cert = copy.deepcopy(n8)
        edit(cert)
        certify.replay_certificate(cert)


def main() -> int:
    seen: dict[str, set[int]] = {}
    entered: set[tuple[str, int]] = set()  # (file, first line) of each code object run
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        seen.setdefault(path, set()).add(frame.f_lineno)
        entered.add((path, frame.f_code.co_firstlineno))
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_surface(tmp)
    finally:
        sys.settrace(None)

    groups: dict[tuple[str, str], tuple[int, list[int]]] = {}  # (file, function) -> (first line, lines)
    counts = []
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(executable_lines(path) - seen.get(str(path), set()))
        defs = functions(path)
        for line in missing:
            spans = [(name, first) for name, first, last in defs if first <= line <= last]
            name, first = spans[-1] if spans else ("<module>", 0)
            groups.setdefault((str(path), name), (first, []))[1].append(line)
        counts.append("%s %d" % (path.name, len(missing)))

    # only a function that never ran is kept for the benchmark alone: named
    # by a file under bench/, or named only by such kept functions
    idle = [key for key, (first, _) in groups.items() if first and (key[0], first) not in entered]
    named = {key: bench_names(key[1]) for key in idle}
    refs = references()
    reached: dict[tuple[str, str], set[tuple[str, str]]] = {}
    grown = True
    while grown:
        grown = False
        for key in idle:
            who = refs.get(key[1].rsplit(".", 1)[-1], set()) - {key}
            if not named[key] and key not in reached and who and all(named.get(w) or w in reached for w in who):
                reached[key] = who
                grown = True

    total = kept = 0
    for key, (first, lines) in groups.items():
        path = pathlib.Path(key[0])
        source = path.read_text().splitlines()
        mark = ""
        if named.get(key):
            mark = "; kept: named by %s" % ", ".join(named[key])
        elif key in reached:
            mark = "; kept: reached only from %s" % ", ".join(sorted(w[1] for w in reached[key]))
        print("%s: %s (%d lines%s)" % (path.relative_to(ROOT), key[1], len(lines), mark))
        for line in lines:
            print("  %d: %s" % (line, source[line - 1].strip()))
        total += len(lines)
        kept += len(lines) if mark else 0
    print("unreached lines: %d (%s); %d of them kept for bench/" % (total, ", ".join(counts), kept))
    return 0


if __name__ == "__main__":
    sys.exit(main())
