"""One benchmark pass in a fresh interpreter, started by bench/run.py.

    python3 bench/worker.py '<json spec>'

with PYTHONPATH pointing at src/. Modes:

- plain: certify the dimensions through `certify.certify` with `--out`,
  read the JSON back and time `replay_certificate` over it, with the
  speed of the calibration loop of calib.py sampled alongside;
- trace: the same with the span wrappers of layers.py installed; the spans
  are written to spec["spans_out"] at exit;
- count: the same with the ball call counters installed;
- kernels: ns per call of ball and bigfloat public functions at 128 and
  256 bits, on operands from the pair geometry of spec["kernel_dim"].

Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

from lenscert import ball, bigfloat, certify, geom

import calib
import layers

KERNEL_BITS = (128, 256)
KERNEL_LOOP_S = 0.02
KERNEL_LOOPS = 7
# calibration units after each replay round, about one round's time
REPLAY_UNITS = 4


def certify_pass(spec: dict) -> dict:
    tracer = counter = None
    if spec["mode"] == "trace":
        tracer = layers.Tracer()
        tracer.install()
    elif spec["mode"] == "count":
        counter = layers.Counter()
        counter.install()

    # the machine's speed is sampled all through the call (calib.Sampler);
    # wall_s is the call's time less the time the samples took
    with calib.Sampler() as sampler:
        t0 = time.perf_counter()
        certify.certify(spec["dims"], target_width=spec["width"], out=spec["out"])
        wall = time.perf_counter() - t0 - sampler.spent_s
    speed = sampler.mean_speed()

    with open(spec["out"]) as fh:
        certs = json.load(fh)
    # replay the file again and again for spec["replay_s"] seconds, each
    # round followed by a slice of the calibration loop of about the same
    # length; one sample is a round's time per certificate, in reference
    # seconds by the slice after it
    rounds = []
    t_end = time.perf_counter() + spec["replay_s"]
    while not rounds or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        for cert in certs:
            certify.replay_certificate(cert)
        elapsed = (time.perf_counter() - t0) / len(certs)
        rounds.append(calib.scale(elapsed, calib.speed(REPLAY_UNITS)))

    result = {
        "wall_s": wall,
        "wall_ref_s": calib.scale(wall, speed),
        "speed": speed,
        "replay_ref_s": rounds,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.restore()
        tracer.write(spec["spans_out"])
    if counter is not None:
        counter.restore()
        result["counts"] = counter.counts
    return result


def _ns_per_call(fn) -> float:
    calls = 1
    while True:
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        if time.perf_counter_ns() - t0 >= KERNEL_LOOP_S * 1e9:
            break
        calls *= 2
    loops = []
    for _ in range(KERNEL_LOOPS):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        loops.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(loops)


def _alternate(f, g):
    """One call per invocation, alternating between f and g."""
    state = [False]

    def call():
        state[0] = not state[0]
        return f() if state[0] else g()

    return call


def kernel_pass(spec: dict) -> dict:
    n = spec["kernel_dim"]
    k, l = geom.default_pairs(n)[-1]
    pi_cache = getattr(ball, "_PI_CACHE", {})
    out = {}
    for bits in KERNEL_BITS:
        c = geom.lawson_constants(k, l, bits)
        # operands at the working precision, with the radii the pipeline has
        a, b = ball.ball_round(c.rho, bits), ball.ball_round(c.d, bits)
        lam, theta = ball.ball_round(c.lambda_, bits), ball.ball_round(c.theta, bits)

        def pi_uncached():
            pi_cache.clear()
            return ball.pi_ball(bits)

        kernels = {
            "ball.mul.ns": lambda: ball.ball_mul(a, b, bits),
            "ball.add.ns": lambda: ball.ball_add(a, b, bits),
            "ball.div.ns": lambda: ball.ball_div(a, b, bits),
            "ball.sqrt.ns": lambda: ball.sqrt_ball(a, bits),
            "ball.pi.ns": pi_uncached,
            "ball.sincos.ns": _alternate(
                lambda: ball.sin_ball(theta, bits), lambda: ball.cos_ball(theta, bits)
            ),
            "ball.atan.ns": lambda: ball.atan_ball(lam, bits),
            "ball.explog.ns": _alternate(
                lambda: ball.exp_ball(b, bits), lambda: ball.log_ball(a, bits)
            ),
            "ball.pow_rational.ns": lambda: ball.pow_rational(a, n - 1, n, bits),
            "bigfloat.rup_add.ns": lambda: bigfloat.rup_add(a.rad, b.rad),
            "bigfloat.mul.ns": lambda: bigfloat.bf_mul(a.mid, b.mid, bits),
        }
        for name, fn in kernels.items():
            out["%s-%d" % (name, bits)] = _ns_per_call(fn)
    pi_cache.clear()
    return {"kernels_ns": out}


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = kernel_pass(spec) if spec["mode"] == "kernels" else certify_pass(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
