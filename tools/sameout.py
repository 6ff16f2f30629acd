"""Compare what the command-line surface prints and writes on two lenscert trees.

Usage: python3 tools/sameout.py PARENT CHANGE

PARENT and CHANGE are repository roots, each holding `src/lenscert`.  The
commands are those of `tools/reach.py` (`CERTIFY_RUNS`, each with `--out`,
`OTHER_RUNS`, `ERROR_RUNS`, and a failing `certify` whose `--out` file must
not be left behind), imported from it so that the list is written in one
place.  Each command runs as `python3 -m lenscert.cli` in its own process,
with PYTHONPATH set to the tree's `src` and the working directory a fresh
temporary directory per tree, so relative `--out` paths read the same on
both sides.  The script prints one line for every command whose exit code,
stdout or stderr differ, and for every `--out` file whose certificates
differ once their timestamps are removed (or that exists on one side only),
then a summary.  Under a file whose certificates differ it prints the report
of `compare_certificates`.  It exits 1 when anything differs.  It also
prints each tree's line count of `src/lenscert/*.py`, in all and without
docstrings, comments and blank lines (`line_counts`).  Only the standard
library is used; a run takes about twice the time of `tools/reach.py`.
"""

from __future__ import annotations

import ast
import collections
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tokenize


ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_module(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_reach():
    return load_module("_reach", ROOT / "tools" / "reach.py")


def _shape(cert: dict) -> tuple:
    """What two runs of the same proof must share exactly."""
    entries = [(e["k"], e["l"], e["path_agreement"]) for e in cert["entries"]]
    return cert["n"], cert["verdict"], cert["precision_bits"], entries


def _target_widths(parent: list[dict], change: list[dict]) -> str:
    """How the target_width keys compare: the same or different where both
    sides have one, added where one side has it."""
    kinds = collections.Counter()
    for a, b in zip(parent, change):
        if "target_width" in a and "target_width" in b:
            kinds["same" if a["target_width"] == b["target_width"] else "differ"] += 1
        elif "target_width" in a or "target_width" in b:
            kinds["added on the %s side" % ("parent" if "target_width" in a else "change")] += 1
    return "target_width: %s" % (", ".join("%d %s" % (v, k) for k, v in sorted(kinds.items())) or "on neither side")


def compare_certificates(parent: list[dict], change: list[dict]) -> list[str]:
    """Report lines on two lists of certificates: whether the dimensions,
    verdicts, precision_bits, pairs and path_agreement are all the same, how
    their target_width keys compare, and then how many lambda_plane and
    m_value strings are identical, whether every one intersects its
    counterpart, by the exact rational check of bench/run.py, and the
    largest ratio of a change width to its parent width."""
    same = len(parent) == len(change) and all(_shape(a) == _shape(b) for a, b in zip(parent, change))
    lines = ["dimensions, verdicts, precision_bits, pairs and path_agreement: %s" % ("same" if same else "differ")]
    lines.append(_target_widths(parent, change))
    if not same:
        return lines
    balls = []
    for a, b in zip(parent, change):
        balls.append((a["lambda_plane"], b["lambda_plane"]))
        balls += [(ea["m_value"], eb["m_value"]) for ea, eb in zip(a["entries"], b["entries"])]
    balls = [(a, b) for a, b in balls if a is not None and b is not None]
    bench = load_module("_bench_run", ROOT / "bench" / "run.py")
    apart = sum(not bench._encloses_same(a, b) for a, b in balls)
    ratios = [bench.parse_ball(b)[1] / bench.parse_ball(a)[1] for a, b in balls if bench.parse_ball(a)[1]]
    lines.append(
        "%d of %d lambda_plane and m_value strings identical, %d do not intersect their counterpart; "
        "largest width ratio change/parent %s"
        % (sum(a == b for a, b in balls), len(balls), apart, "%.4f" % max(ratios) if ratios else "none")
    )
    return lines


def commands() -> list[tuple[list[str], str | None]]:
    """(argv, the --out file it writes or None) for every command of the surface."""
    reach = load_reach()
    out = []
    for i, args in enumerate(reach.CERTIFY_RUNS):
        path = "certs%d.json" % i
        out.append((["certify", *args, "--out", path], path))
    out += [(args, None) for args in reach.OTHER_RUNS + reach.ERROR_RUNS]
    out.append((["certify", "--n", "3..9", "--out", "failed.json"], "failed.json"))
    return out


def certificates(path: pathlib.Path):
    """The certificates of an --out file without their timestamps, or None
    when the file does not exist."""
    if not path.exists():
        return None
    certs = json.loads(path.read_text())
    for cert in certs:
        cert.pop("timestamp", None)
    return certs


# tokens that alone do not make a line a code line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def line_counts(root: str) -> tuple[int, int]:
    """(all lines, code lines) of the tree's `src/lenscert/*.py`, where a
    code line holds a token that is neither a comment nor a docstring (the
    first statement of a module, class or function, when it is a string)."""
    total = code = 0
    for path in sorted(pathlib.Path(root, "src", "lenscert").glob("*.py")):
        text = path.read_text()
        docs = {
            (node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)
        }
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _NOT_CODE and not (tok.type == tokenize.STRING and tok.start in docs):
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(text.splitlines())
        code += len(lines)
    return total, code


def run_tree(root: str, cmds) -> list[tuple]:
    """(exit code, stdout, stderr, certificates) per command on one tree."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(root).resolve() / "src"))
    results = []
    with tempfile.TemporaryDirectory(prefix="sameout-") as tmp:
        for argv, out in cmds:
            r = subprocess.run(
                [sys.executable, "-m", "lenscert.cli", *argv], cwd=tmp, env=env, capture_output=True, text=True
            )
            results.append((r.returncode, r.stdout, r.stderr, out and certificates(pathlib.Path(tmp, out))))
    return results


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for side, root in zip(("parent", "change"), args):
        print("%s: src/lenscert/*.py has %d lines, %d without docstrings, comments and blank lines"
              % ((side,) + line_counts(root)))
    cmds = commands()
    parent, change = (run_tree(root, cmds) for root in args)
    fields = ("exit code", "stdout", "stderr", "certificates")
    differ = 0
    for (argv, _), p, c in zip(cmds, parent, change):
        diffs = [name for name, a, b in zip(fields, p, c) if a != b]
        if diffs:
            differ += 1
            print("differ (%s): lenscert %s" % (", ".join(diffs), " ".join(argv)))
            if "certificates" in diffs and p[3] is not None and c[3] is not None:
                for line in compare_certificates(p[3], c[3]):
                    print("    " + line)
    print("%d of %d commands differ" % (differ, len(cmds)))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
