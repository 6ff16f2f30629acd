"""Time two lenscert source trees against each other in one process.

Usage: python3 tools/abtime.py PARENT CHANGE [--workload desk]
                               [--seeds 1..10] [--rounds 3]
       python3 tools/abtime.py PARENT CHANGE --setup [--rounds 12]

PARENT and CHANGE are repository roots, each holding `src/lenscert`.  Both
packages are loaded into this one interpreter through `importlib`, as
`lenscert_parent` and `lenscert_change`, so that both sides run on the same
interpreter and under the same load of a shared machine; separate benchmark
runs of one tree on a shared 2-core host spread by 6% to 35%.  A workload's
seed sets and target width come from `bench/run.py` of the repository this
script is in (`sample_dims`, `WORKLOADS`).

Each side first certifies every seed set once, untimed, and the two
certificate lists are compared with their timestamps removed; when they
differ, the report of `compare_certificates` in `tools/sameout.py`
follows.  Then each round runs every seed set once on each side, back to
back, and the side that goes first swaps every round.  A pass is one
`certify.certify(dims, target_width=width, out=path)` call writing its JSON
to a temporary file, as in the benchmark's plain pass.  After its pass,
each side replays, with `certify.replay_certificate`, the certificates
that its own untimed pass wrote and read back from JSON, REPLAY_REPS times
over, and the time per certificate is recorded, as the benchmark's
`replay_us_p50` is.  The script prints the median change/parent ratio of
the per-pass times with its quartiles, over all pairs and per seed, each
side's median pass time, and the same ratio and medians for the replay
time per certificate.  A ratio below 1 means the change is faster.  Only
the standard library is used.

With --setup the script times the cold start instead, which one process
cannot: `--rounds` pairs (at least 10) of fresh interpreters running the
`SETUP_CODE` of `bench/run.py`, whose printed value is `setup_s`.  A pair
is `SETUP_SPAWNS_PER_PASS` interpreters per side, alternating side by side
with the side that goes first swapped every pair, and its value per side
is the median of that side's interpreters.  Each side imports a copy of its
`src/lenscert` made for this run, under PYTHONDONTWRITEBYTECODE=1, so that
no `.pyc` file of lenscert exists on either side, stale or current, as in a
fresh checkout; the standard library keeps its installed `.pyc` files, as
in the benchmark (an empty PYTHONPYCACHEPREFIX would hide those too, and
every interpreter would compile `argparse` inside the timed import).  It
prints each side's median and quartiles and the median change/parent ratio
with the number of pairs the change won.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# replays of a seed set per timing, so that one timing lasts milliseconds
REPLAY_REPS = 50


def load_tree(root: str, name: str):
    """The `certify` module of the lenscert package under root/src, loaded
    as the package `name`; its modules import each other relatively, so
    they resolve inside that package."""
    pkg = pathlib.Path(root).resolve() / "src" / "lenscert"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(name + ".certify")


def load_module(name: str, path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def certificates(certify, dims, width, path: str) -> list[dict]:
    """The certificates one pass writes, read back from its JSON file (so a
    tree whose `certify` returns other objects compares all the same),
    without their timestamps."""
    certify.certify(dims, target_width=width, out=path)
    certs = json.loads(pathlib.Path(path).read_text())
    for cert in certs:
        cert.pop("timestamp", None)
    return certs


def replay_time(certify, certs: list[dict]) -> float:
    """Seconds per certificate of replaying certs REPLAY_REPS times."""
    t0 = time.perf_counter()
    for _ in range(REPLAY_REPS):
        for cert in certs:
            certify.replay_certificate(cert)
    return (time.perf_counter() - t0) / (REPLAY_REPS * len(certs))


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
    return q1, q2, q3


def ratio_line(what: str, parent: list[float], change: list[float]) -> str:
    """The median change/parent ratio of paired times, with its quartiles."""
    ratios = [c / p for p, c in zip(parent, change)]
    q1, med, q3 = quartiles(ratios)
    return "%s change/parent: median %.3f (quartiles %.3f-%.3f), change faster in %d of %d pairs" % (
        what, med, q1, q3, sum(r < 1 for r in ratios), len(ratios))


def setup_times(bench, roots: tuple[str, str], pairs: int) -> dict[str, list[float]]:
    """Per side, the cold-start time of each pair in reference seconds (see
    --setup in the module docstring)."""
    spawns = bench.SETUP_SPAWNS_PER_PASS
    times = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="abtime-setup-") as tmp:
        envs = {}
        for side, root in zip(SIDES, roots):
            src = os.path.join(tmp, side)
            shutil.copytree(
                pathlib.Path(root) / "src" / "lenscert",
                os.path.join(src, "lenscert"),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            envs[side] = {
                **os.environ,
                "PYTHONPATH": src + os.pathsep + str(ROOT / "bench"),
                "PYTHONHASHSEED": "0",
                "PYTHONDONTWRITEBYTECODE": "1",
            }
        for pair in range(pairs):
            spawned = {side: [] for side in SIDES}
            for i in range(spawns):
                for side in SIDES if (pair + i) % 2 == 0 else SIDES[::-1]:
                    proc = subprocess.run(
                        [sys.executable, "-c", bench.SETUP_CODE],
                        env=envs[side],
                        capture_output=True,
                        text=True,
                        check=True,
                        timeout=bench.CHILD_TIMEOUT_S,
                    )
                    spawned[side].append(json.loads(proc.stdout))
            for side in SIDES:
                times[side].append(statistics.median(spawned[side]))
    return times


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", default="desk")
    ap.add_argument("--seeds", default="1..10", help="seed or range, e.g. 3 or 1..10")
    ap.add_argument(
        "--rounds", type=int, default=None, help="rounds of passes (default 3), or pairs with --setup (default 12)"
    )
    ap.add_argument("--setup", action="store_true", help="time the cold import of lenscert.cli instead")
    args = ap.parse_args(argv)

    bench = load_module("_bench_run", ROOT / "bench" / "run.py")
    if args.setup:
        pairs = 12 if args.rounds is None else args.rounds
        if pairs < 10:
            ap.error("--setup needs at least 10 pairs, got %d" % pairs)
        times = setup_times(bench, (args.parent, args.change), pairs)
        print("setup: %d pairs of %d fresh interpreters per side, no lenscert .pyc files"
              % (pairs, bench.SETUP_SPAWNS_PER_PASS))
        for side in SIDES:
            q1, med, q3 = quartiles(times[side])
            print("%-6s median setup %.4f s (quartiles %.4f-%.4f)" % (side, med, q1, q3))
        print(ratio_line("setup", times["parent"], times["change"]))
        return 0
    args.rounds = 3 if args.rounds is None else args.rounds
    if args.workload not in bench.WORKLOADS:
        ap.error("unknown workload %r; choose from %s" % (args.workload, sorted(bench.WORKLOADS)))
    width = bench.WORKLOADS[args.workload]["width"]
    seeds = seed_range(args.seeds)
    dims = {seed: bench.sample_dims(args.workload, seed) for seed in seeds}
    mods = {side: load_tree(root, "lenscert_" + side) for side, root in zip(SIDES, (args.parent, args.change))}

    with tempfile.TemporaryDirectory(prefix="abtime-") as tmp:
        path = os.path.join(tmp, "certs.json")
        certs = {
            seed: [certificates(mods[side], dims[seed], width, path) for side in SIDES] for seed in seeds
        }
        differ = [seed for seed in seeds if certs[seed][0] != certs[seed][1]]
        times = {side: {seed: [] for seed in seeds} for side in SIDES}
        replays = {side: [] for side in SIDES}
        for rnd in range(args.rounds):
            for seed in seeds:
                order = SIDES if (rnd + seed) % 2 == 0 else SIDES[::-1]
                for side in order:
                    t0 = time.perf_counter()
                    mods[side].certify(dims[seed], target_width=width, out=path)
                    times[side][seed].append(time.perf_counter() - t0)
                    replays[side].append(replay_time(mods[side], certs[seed][SIDES.index(side)]))

    ratios = {
        seed: [c / p for p, c in zip(times["parent"][seed], times["change"][seed])] for seed in seeds
    }
    every = [r for seed in seeds for r in ratios[seed]]
    print("workload %s, seeds %s, %d rounds, %d pairs" % (args.workload, args.seeds, args.rounds, len(every)))
    print("certificates: %s" % ("identical" if not differ else "differ for seeds %s" % differ))
    if differ:
        sameout = load_module("_sameout", ROOT / "tools" / "sameout.py")
        for line in sameout.compare_certificates(*([c for s in differ for c in certs[s][i]] for i in (0, 1))):
            print("  " + line)
    for seed in seeds:
        print("  seed %-4d dims %-40s ratio %.3f" % (seed, dims[seed], statistics.median(ratios[seed])))
    passes = {side: [t for seed in seeds for t in times[side][seed]] for side in SIDES}
    for side in SIDES:
        print("%-6s median pass %.4f s, replay %.2f us per certificate"
              % (side, statistics.median(passes[side]), statistics.median(replays[side]) * 1e6))
    print(ratio_line("pass", passes["parent"], passes["change"]))
    print(ratio_line("replay", replays["parent"], replays["change"]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
