"""lenscert benchmark: certification workloads through `certify.certify`.

    python3 bench/run.py --workload agree|desk|tight --seed N --seconds S --trace 0|1

Run it from the repository root. Every pass certifies the workload's seeded
dimension sample in a fresh interpreter, serially, through the same batch
call the `certify` CLI makes, with the JSON `--out` write included. Every
certificate is checked (see check_certificate) and a tampered certificate
must be rejected.

--trace 0 prints the end-to-end metrics over the passes made in --seconds
(at least MIN_PASSES), with times in reference seconds (see calib.py).
--trace 1 prints the per-layer metrics from one untraced pass, one traced
pass, one ball call-counting pass and one kernel ns/op pass. The last line
of stdout is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_SPAWNS_PER_PASS = 4
REPLAY_S = 1.0
TRACE_REPLAY_S = 0.5
CHILD_TIMEOUT_S = 150

# Strata of the agreement range n = 8..24, one dimension drawn from each.
# A stratum holds dimensions of one parity (even n certifies two pairs, odd
# n one, which also sets the replay cost per certificate) whose
# certification took about the same time when the benchmark was defined, so
# the seed changes which dimensions run but not how long a pass takes. The
# quadrature cost is not monotone in n (n = 18 and 22 cost two to four
# times n = 19 and 21), so the dearest dimensions other than n = 24, the last
# one with an agreement check, are left out to keep a pass near 6 s.
AGREE_STRATA = ((8, 10, 12, 14), (9, 11, 13), (15, 17), (24,))

WORKLOADS = {
    # the only range with the independent-path agreement check
    "agree": {"width": 1e-12, "kernel_dim": 24},
    # a width 128 bits cannot reach: one rejected attempt, then 256 bits
    # the F1 series at 128 bits, no agreement check
    "desk": {"width": 1e-12, "lo": 25, "hi": 200, "block": 44, "kernel_dim": 200},
    "tight": {"width": 1e-45, "lo": 25, "hi": 120, "block": 20, "kernel_dim": 120},
}


def sample_dims(workload: str, seed: int) -> list[int]:
    """The seeded dimension sample of a workload.

    desk and tight cut their range into blocks and take from each block one
    even and one odd dimension at mirrored positions: the even one j steps
    from the block start, the odd one j steps from its end. Even n certifies two
    pairs and odd n one, and cost grows with n, so the mirrored picks keep a
    pass's work nearly the same for every seed.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "agree":
        return sorted(rng.choice(stratum) for stratum in AGREE_STRATA)
    cfg = WORKLOADS[workload]
    dims = []
    for start in range(cfg["lo"], cfg["hi"] + 1, cfg["block"]):
        block = range(start, min(start + cfg["block"], cfg["hi"] + 1))
        evens = [n for n in block if n % 2 == 0]
        odds = [n for n in block if n % 2 == 1]
        j = rng.randrange(min(len(evens), len(odds)))
        dims += [evens[j], odds[-1 - j]]
    return sorted(dims)


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def parse_ball(s: str) -> tuple[Fraction, Fraction]:
    """(mid, rad) of a "<mid> +/- <rad>" certificate string, exactly."""
    mid, sep, rad = s.partition("+/-")
    if not sep:
        raise ValueError("not a ball string: %r" % s)
    return Fraction(mid.strip()), Fraction(rad.strip())


def _encloses_same(a: str, b: str) -> bool:
    (ma, ra), (mb, rb) = parse_ball(a), parse_ball(b)
    return abs(ma - mb) <= ra + rb


def check_certificate(cert: dict, width: float, reference: dict, replay) -> list[str]:
    """Reasons the certificate fails the benchmark's check; empty if it passes.

    The certificate must be Proven, replay to the same verdict from its JSON,
    keep every enclosure at or below the target width, and have every
    enclosure intersect the stored higher-precision reference.
    """
    problems = []
    n = cert["n"]
    if cert["verdict"] != "Proven":
        problems.append("verdict %s" % cert["verdict"])
    replayed = replay(cert)
    if replayed != cert["verdict"]:
        problems.append("replay gives %s" % replayed)
    ref = reference["dims"].get(str(n))
    if ref is None:
        return problems + ["no reference for n=%d" % n]
    target = Fraction(width)
    balls = [("lambda_plane", cert["lambda_plane"], ref["lambda_plane"])]
    expected_pairs = set(ref["m_value"])
    seen_pairs = set()
    for e in cert["entries"]:
        key = "%d,%d" % (e["k"], e["l"])
        seen_pairs.add(key)
        balls.append(("m_value(%s)" % key, e["m_value"], ref["m_value"].get(key)))
    if seen_pairs != expected_pairs:
        problems.append("pairs %s, expected %s" % (sorted(seen_pairs), sorted(expected_pairs)))
    for label, got, want in balls:
        if 2 * parse_ball(got)[1] > target:
            problems.append("%s wider than %g" % (label, width))
        if want is None or not _encloses_same(got, want):
            problems.append("%s misses the reference" % label)
    return problems


def tamper_rejected(cert: dict, width: float, reference: dict, replay) -> bool:
    """Self-test: shifting one m_value by ten times its radius must fail the check."""
    bad = json.loads(json.dumps(cert))
    entry = bad["entries"][0]
    mid, rad = parse_ball(entry["m_value"])
    shift = 10 * rad if rad else Fraction(1, 10**30)
    entry["m_value"] = "%s +/- %s" % (_decimal(mid + shift), _decimal(rad))
    return bool(check_certificate(bad, width, reference, replay))


def _decimal(x: Fraction) -> str:
    """A decimal string for a fraction with a power-of-ten denominator."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    scale = 0
    while x.denominator != 1:
        x *= 10
        scale += 1
    return "%s%de-%d" % (sign, x.numerator, scale)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + str(BENCH)
    # the same string hashing in every process, one less source of spread
    env["PYTHONHASHSEED"] = "0"
    return env


# run in a fresh interpreter: the import of lenscert.cli, timed with the
# calibration loop's speed sampled through it
SETUP_CODE = """
import json, time, calib
with calib.Sampler() as sampler:
    t0 = time.perf_counter()
    import lenscert.cli
    elapsed = time.perf_counter() - t0 - sampler.spent_s
print(json.dumps(calib.scale(elapsed, sampler.mean_speed())))
"""


def measure_setup(spawns: int) -> list[float]:
    """Set-up times of fresh interpreters, in reference seconds: each imports
    lenscert.cli, which leaves it ready to certify."""
    times = []
    for _ in range(spawns):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=child_env(),
            capture_output=True,
            text=True,
            check=True,
            timeout=CHILD_TIMEOUT_S,
        )
        times.append(json.loads(proc.stdout))
    return times


def run_worker(spec: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker %s failed:\n%s" % (spec["mode"], proc.stderr))
    return json.loads(proc.stdout.splitlines()[-1])


class Run:
    """The passes of one benchmark run and the checks on their certificates."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from lenscert import certify

        self.workload = workload
        self.width = WORKLOADS[workload]["width"]
        self.dims = sample_dims(workload, seed)
        self.workdir = workdir
        self.replay = certify.replay_certificate
        self.reference = json.loads((BENCH / "reference.json").read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tamper_ok = True
        self.proven = 0
        self.final_bits: list[int] = []
        self.pass_walls: list[float] = []
        self.pass_speeds: list[float] = []
        self._passes = 0

    def certify_pass(self, mode: str, replay_s: float) -> dict:
        self._passes += 1
        out = self.workdir / ("certs-%d.json" % self._passes)
        spec = {
            "mode": mode,
            "dims": self.dims,
            "width": self.width,
            "out": str(out),
            "replay_s": replay_s,
            "spans_out": str(self.workdir / "spans.jsonl"),
        }
        result = run_worker(spec)
        certs = json.loads(out.read_text())
        self._check(certs)
        return result

    def _check(self, certs: list[dict]) -> None:
        got = [c["n"] for c in certs]
        self.attempted += len(self.dims)
        if got != self.dims:
            self.failed += len(set(self.dims) - set(got))
            self.problems.append("certificates for %s, expected %s" % (got, self.dims))
        self.proven = 0
        self.final_bits = []
        for cert in certs:
            problems = check_certificate(cert, self.width, self.reference, self.replay)
            if problems:
                self.failed += 1
                self.problems.append("n=%d: %s" % (cert["n"], "; ".join(problems)))
            else:
                self.proven += 1
            self.final_bits.append(cert["precision_bits"])
        if certs and not tamper_rejected(certs[0], self.width, self.reference, self.replay):
            self.tamper_ok = False
            self.problems.append("self-test: a shifted m_value passed the check")


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """The end-to-end metrics over the passes that fit in `seconds`.

    Times are in reference seconds: each is scaled by the speed of the
    calibration loop of calib.py, measured in the same process at the
    same time.
    """
    setup = []
    passes = []
    t0 = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        setup += measure_setup(SETUP_SPAWNS_PER_PASS)
        passes.append(run.certify_pass("plain", REPLAY_S))
        now = time.perf_counter()
        # start another pass only if it ends within `seconds`
        if len(passes) >= MIN_PASSES and now - t0 + (now - t_pass) > seconds:
            break
    run.pass_walls = [p["wall_s"] for p in passes]
    run.pass_speeds = [p["speed"] for p in passes]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_ref_s"] for p in passes),
        "replay_us_p50": statistics.median(r for p in passes for r in p["replay_ref_s"]) * 1e6,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }


def per_layer(run: Run) -> tuple[dict[str, float], dict]:
    import layers

    plain = run.certify_pass("plain", 0.0)
    traced = run.certify_pass("trace", TRACE_REPLAY_S)
    spans = layers.read_spans(run.workdir / "spans.jsonl")
    out = layers.span_metrics(spans)
    out["certify.attempt_yield"] = run.proven / out["certify.attempts"]
    out["certify.final_bits_mean"] = statistics.mean(run.final_bits)
    out["trace.overhead_frac"] = traced["wall_ref_s"] / plain["wall_ref_s"] - 1
    counted = run.certify_pass("count", 0.0)
    out.update({k: float(v) for k, v in counted["counts"].items()})
    kernels = run_worker({"mode": "kernels", "kernel_dim": WORKLOADS[run.workload]["kernel_dim"]})
    out.update(kernels["kernels_ns"])

    # the measured split the workloads were chosen for
    quad_share = out["oracle.arc_quad.busy_s"] / traced["wall_s"]
    f1_share = out["specfun.f1.busy_s"] / traced["wall_s"]
    if run.workload == "agree":
        split_ok = quad_share > 0.5
    else:
        split_ok = out["oracle.arc_quad.calls"] == 0 and f1_share > 0.5
    split = {
        "ok": split_ok,
        "arc_quad_share": quad_share,
        "f1_share": f1_share,
        "traced_wall_s": traced["wall_s"],
    }
    return out, split


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if proc.returncode == 0:
                rev = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "lenscert").glob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": rev,
        "src_lines": src_lines,
    }


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "lenscert" / "cli.py").is_file():
        print("error: no lenscert sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # SIGTERM raises SystemExit, so subprocess.run kills and reaps the
    # running pass and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as tmp:
        run = Run(args.workload, args.seed, Path(tmp))
        split = None
        if args.trace:
            metrics, split = per_layer(run)
        else:
            metrics = end_to_end(run, args.seconds)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError("metrics %s differ from BENCHMARK.json" % sorted(set(metrics) ^ set(units)))

    failed_frac = run.failed / run.attempted
    for name in sorted(metrics):
        print("%-28s %16.6g %s" % (name, metrics[name], units[name]))
    print("%-28s %16.6g %s" % ("failed_frac", failed_frac, "ratio"))
    for problem in run.problems:
        print("check: %s" % problem)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "dims": run.dims,
        "env": environment(),
        "failed_frac": failed_frac,
        "tamper_rejected": run.tamper_ok,
        # measured seconds and calibration speeds, before scaling
        "pass_wall_s": run.pass_walls,
        "pass_speed": run.pass_speeds,
    }
    if split is not None:
        report["split"] = split
    print(json.dumps(report))
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and run.tamper_ok,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
