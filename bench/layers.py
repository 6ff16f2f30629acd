"""Spans and call counters installed from the benchmark process.

Nothing under src/ changes. Each wrapper replaces a public function at the
module attributes of the lenscert package that refer to it, which is where
the program looks the function up at call time: `geom.lens_quantities` for
the certify_dimension evaluator hooks, the module globals for calls inside
a layer.

Spans run serially in one thread, so a span's children never overlap and a
layer's self time is its span time minus its children's span time. No layer
waits on another in a serial run, so no wait times are recorded.
"""

from __future__ import annotations

import json
import time

from lenscert import ball, bigfloat, certify, geom, oracle, specfun

MODULES = (bigfloat, ball, specfun, geom, oracle, certify)

# (module that defines the function, function name, span name, rebind in).
# "all" rebinds every module attribute that refers to the function; the
# serialize pair is rebound in certify only, so it times the serialization
# that certification and replay do, not ball_to_str calls elsewhere.
SPANS = (
    (certify, "certify", "certify.batch", "all"),
    (certify, "certify_dimension", "certify.dimension", "all"),
    (certify, "replay_certificate", "certify.replay", "all"),
    (ball, "ball_to_str", "certify.serialize", (certify,)),
    (ball, "ball_from_str", "certify.serialize", (certify,)),
    (geom, "lens_quantities", "geom.lens", "all"),
    (geom, "lawson_constants", "geom.constants", "all"),
    (geom, "assemble_competitor", "geom.assemble", "all"),
    (geom, "competitor_energy_specfun", "geom.specfun", "all"),
    (geom, "competitor_energy_quadrature", "geom.quad", "all"),
    (specfun, "appell_f1", "specfun.f1", "all"),
    (specfun, "gauss_2f1", "specfun.2f1", "all"),
    (oracle, "arc_profile_quadrature", "oracle.arc_quad", "all"),
    (oracle, "polynomial_m_value", "oracle.poly", "all"),
)

# counter name -> ball functions whose calls it counts, at every call site
# (calls between ball's own functions included, so ball_sub also counts the
# ball_add it makes)
COUNTS = {
    "ball.mul.calls": ("ball_mul",),
    "ball.add.calls": ("ball_add", "ball_sub"),
    "ball.div.calls": ("ball_div",),
    "ball.elem.calls": (
        "sqrt_ball",
        "exp_ball",
        "log_ball",
        "sin_ball",
        "cos_ball",
        "atan_ball",
        "asin_ball",
        "pow_rational",
        "pi_ball",
    ),
}


class _Patches:
    """Rebinds module attributes and puts the originals back."""

    def __init__(self):
        self._undo = []

    def rebind(self, orig, new, where) -> None:
        mods = MODULES if where == "all" else where
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, new)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()


class Tracer(_Patches):
    """Records spans (name, start_ns, end_ns, parent index, dimension)."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._dim: int | None = None

    def install(self) -> None:
        for mod, fname, span_name, where in SPANS:
            orig = getattr(mod, fname)
            self.rebind(orig, self._wrap(span_name, orig), where)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        # certify_dimension(n, ...) and replay_certificate(cert) set the
        # dimension that the spans beneath them carry
        dim_of = {
            "certify.dimension": lambda args: args[0],
            "certify.replay": lambda args: args[0]["n"],
        }.get(name)

        def wrapper(*args, **kwargs):
            outer_dim = self._dim
            if dim_of is not None:
                self._dim = dim_of(args)
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self._dim])
            stack.append(idx)
            spans[idx][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
                self._dim = outer_dim

        return wrapper

    def write(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "dim")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class Counter(_Patches):
    """Counts calls to the ball functions named in COUNTS."""

    def __init__(self):
        super().__init__()
        self.counts = dict.fromkeys(COUNTS, 0)

    def install(self) -> None:
        for key, fnames in COUNTS.items():
            for fname in fnames:
                orig = getattr(ball, fname)
                self.rebind(orig, self._wrap(key, orig), "all")

    def _wrap(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def read_spans(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one traced pass: call counts, busy seconds
    (span time, outermost span of a name only) and self seconds."""
    dur = [(s["end_ns"] - s["start_ns"]) * 1e-9 for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            child[s["parent"]] += dur[i]

    def parent_name(i):
        p = spans[i]["parent"]
        return spans[p]["name"] if p >= 0 else None

    def nested_in_same(i):
        name, p = spans[i]["name"], spans[i]["parent"]
        while p >= 0:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    def select(name, under=None):
        return [
            i
            for i, s in enumerate(spans)
            if s["name"] == name and (under is None or parent_name(i) == under)
        ]

    def calls(name):
        return float(len(select(name)))

    def busy(name, under=None):
        return sum(dur[i] for i in select(name, under) if not nested_in_same(i))

    def self_s(*names):
        return sum(dur[i] - child[i] for name in names for i in select(name))

    return {
        "certify.attempts": float(len(select("geom.lens", "certify.dimension"))),
        "certify.self_s": self_s("certify.batch", "certify.dimension"),
        "certify.serialize_s": busy("certify.serialize", "certify.dimension"),
        # replay runs for a fixed time, so report one call's mean time
        "certify.replay_s": busy("certify.replay") / max(1.0, calls("certify.replay")),
        "geom.lens.calls": calls("geom.lens"),
        "geom.lens.busy_s": busy("geom.lens"),
        "geom.constants.calls": calls("geom.constants"),
        "geom.constants.busy_s": busy("geom.constants"),
        "geom.assemble.busy_s": busy("geom.assemble"),
        "geom.specfun.self_s": self_s("geom.specfun"),
        "geom.quad.self_s": self_s("geom.quad"),
        "specfun.f1.calls": calls("specfun.f1"),
        "specfun.f1.self_s": self_s("specfun.f1"),
        "specfun.f1.busy_s": busy("specfun.f1"),
        "specfun.2f1.calls": calls("specfun.2f1"),
        "specfun.2f1.busy_s": busy("specfun.2f1"),
        "oracle.arc_quad.calls": calls("oracle.arc_quad"),
        "oracle.arc_quad.busy_s": busy("oracle.arc_quad"),
        "oracle.poly.calls": calls("oracle.poly"),
        "oracle.poly.busy_s": busy("oracle.poly"),
    }
