"""The public surface: every name a module exports resolves, no module
imports a name it does not use, and no top-level definition or method is
reached from the tests alone."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import pytest

import lenscert
from lenscert import geom, oracle, reports, specfun
from lenscert.ball import Ball, _fx_div, _fx_sqrt, ball_div, exp_ball, log_ball, pow_rational, sqrt_ball
from lenscert.bigfloat import bf_two_power
from lenscert.errors import InvalidArgument, PrecisionExhausted

from helpers import widen


def _modules():
    return [lenscert] + [
        importlib.import_module("lenscert." + info.name)
        for info in pkgutil.iter_modules(lenscert.__path__)
    ]


def test_all_exports_resolve():
    missing = [
        "%s.%s" % (mod.__name__, name)
        for mod in _modules()
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_cold_start_loads_only_what_certify_runs():
    """a cold `import lenscert.cli`, which every command-line run pays, adds
    neither `dataclasses` nor `inspect` to the loaded modules, as the record
    types are plain classes, nor `datetime`, as the certificate's timestamp
    comes from `time`, nor `lenscert.oracle` and `lenscert.reports`; a
    certificate run above QUADRATURE_MAX_N loads neither of those two, and
    one with the agreement check loads `oracle` and agrees on every pair"""
    code = (
        "import json, sys; before = set(sys.modules); import lenscert.cli; "
        "cold = sorted(set(sys.modules) - before); from lenscert import certify; "
        "high = [c['verdict'] for c in certify.certify(range(25, 28))]; above = sorted(sys.modules); "
        "low = [e['path_agreement'] for c in certify.certify([8]) for e in c['entries']]; "
        "print(json.dumps([cold, high, above, low, sorted(sys.modules)]))"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(lenscert.__file__).parent.parent)}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    cold, high, above, low, after = map(set, json.loads(run.stdout))
    lazy = {"lenscert.oracle", "lenscert.reports"}
    assert "lenscert.cli" in cold
    assert cold & ({"dataclasses", "inspect", "datetime"} | lazy) == set()
    assert high == {"Proven"}
    assert above & lazy == set()
    assert low == {True}
    assert after & lazy == {"lenscert.oracle"}


def test_ball_operations_take_an_explicit_precision():
    """no function that `lenscert.ball` exports gives its `prec` parameter a
    default, so every caller states the precision it works at"""
    from lenscert import ball

    takes_prec = {
        name: inspect.signature(fn).parameters["prec"]
        for name in ball.__all__
        if inspect.isfunction(fn := getattr(ball, name)) and "prec" in inspect.signature(fn).parameters
    }
    assert {"ball_add", "ball_mul", "ball_div", "sqrt_ball", "pow_rational"} <= set(takes_prec)
    assert sorted(name for name, p in takes_prec.items() if p.default is not inspect.Parameter.empty) == []


def test_fixed_point_kernel_defined_only_in_ball():
    """every `_fx_*` helper, and the guard width, is defined in
    `lenscert.ball` alone; the modules that run fixed-point loops import the
    same objects from there"""
    from lenscert import ball, oracle, specfun

    kernel = {name for name in vars(ball) if name.startswith("_fx_")}
    assert {"_fx_from_ball", "_fx_to_ball", "_fx_mul", "_fx_mul_rat", "_fx_pow", "_fx_tail"} <= kernel
    assert all(getattr(ball, name).__module__ == "lenscert.ball" for name in kernel)
    defining = {
        path.name
        for path in pathlib.Path(lenscert.__file__).parent.glob("*.py")
        if re.search(r"^(def _fx_|_FX_GUARD\s*=)", path.read_text(), re.M)
    }
    assert defining == {"ball.py"}
    for mod in _modules():
        for name in vars(mod):
            if name.startswith("_fx_"):
                assert getattr(mod, name) is getattr(ball, name), (mod.__name__, name)
    assert {"_fx_from_ball", "_fx_mul", "_fx_to_ball"} <= set(vars(oracle))
    assert {"_fx_from_ball", "_fx_tail", "_fx_to_ball"} <= set(vars(specfun))


def test_arc_integrand_only_in_the_fixed_point_pass():
    """no function in `lenscert.oracle` calls `sin_ball`, `cos_ball` or
    `ball_pow_int`: the arc endpoint's sin and cos and every power of the
    arc moments are taken on the fixed-point kernel alone"""
    tree = ast.parse((pathlib.Path(lenscert.__file__).parent / "oracle.py").read_text())
    calls = [
        "%s:%d %s" % (func.name, node.lineno, name)
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
        in {"sin_ball", "cos_ball", "ball_pow_int"}
    ]
    assert calls == []


def test_arc_corner_takes_no_ball_powers():
    """`geom._arc_corner` calls neither `ball_pow_int` nor `pow_rational`:
    L D at the corner is an exact rational, and the caller passes the
    corner power built from integers and one root"""
    tree = ast.parse((pathlib.Path(lenscert.__file__).parent / "geom.py").read_text())
    (func,) = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_arc_corner"]
    calls = [
        "%d %s" % (node.lineno, name)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in {"ball_pow_int", "pow_rational"}
    ]
    assert calls == []


def test_series_path_builds_no_fractions():
    """`specfun.gauss_2f1`, `appell_f1` and `_f1_side`, and their callers
    `geom.lens_quantities` and `geom._arc_corner`, call no `Fraction`: both
    series take integer parameters, and their set-up runs on ints"""
    root = pathlib.Path(lenscert.__file__).parent
    guarded = {"specfun.py": {"gauss_2f1", "appell_f1", "_f1_side"}, "geom.py": {"lens_quantities", "_arc_corner"}}
    seen, calls = set(), []
    for name, funcs in guarded.items():
        for func in ast.walk(ast.parse((root / name).read_text())):
            if isinstance(func, ast.FunctionDef) and func.name in funcs:
                seen.add(func.name)
                calls += [
                    "%s:%d" % (func.name, node.lineno)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Fraction"
                ]
    assert seen == set().union(*guarded.values())
    assert calls == []


def test_elementary_functions_run_on_the_kernel_alone():
    """`sqrt_ball`, `atan_ball`, `sin_ball`, `cos_ball`, `exp_ball`,
    `log_ball` and `pi_ball` call none of `ball_add`, `ball_sub`,
    `ball_mul`, `ball_mul_rat`, `ball_div` and `ball_round`: each reads its
    argument into the fixed-point kernel and rounds its result once"""
    guarded = {"sqrt_ball", "atan_ball", "sin_ball", "cos_ball", "exp_ball", "log_ball", "pi_ball"}
    arithmetic = {"ball_add", "ball_sub", "ball_mul", "ball_mul_rat", "ball_div", "ball_round"}
    tree = ast.parse((pathlib.Path(lenscert.__file__).parent / "ball.py").read_text())
    funcs = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name in guarded]
    assert {f.name for f in funcs} == guarded
    calls = [
        "%s:%d %s" % (func.name, node.lineno, name)
        for func in funcs
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and (name := getattr(node.func, "id", None)) in arithmetic
    ]
    assert calls == []


def test_geom_imports_no_ball_arithmetic():
    """`geom` imports none of `ball_add`, `ball_sub`, `ball_mul` and
    `ball_pow_int`: its lens, arc set-ups, assembly and moment path run on
    the fixed-point kernel, with one conversion to a ball per value handed on"""
    tree = ast.parse((pathlib.Path(lenscert.__file__).parent / "geom.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported & {"ball_add", "ball_sub", "ball_mul", "ball_pow_int"} == set()


def test_no_unused_imports():
    """no module of the package, and no test module, imports a name it never
    uses; a name listed in `__all__` counts as used"""
    unused = []
    paths = pathlib.Path(lenscert.__file__).parent.glob("*.py"), pathlib.Path(__file__).parent.glob("*.py")
    for path in sorted(p for ps in paths for p in ps):
        tree = ast.parse(path.read_text())
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(ast.literal_eval(node.value))
        unused += ["%s:%d %s" % (path.name, line, name) for name, line in imported.items() if name not in used]
    assert unused == []


def _package_trees():
    src = pathlib.Path(lenscert.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(src.glob("*.py"))]


def _words_outside_package():
    """every word of the benchmark scripts and the project metadata"""
    root = pathlib.Path(__file__).resolve().parent.parent
    outside = "\n".join(p.read_text() for p in [*sorted((root / "bench").glob("*.py")), root / "pyproject.toml"])
    return set(re.findall(r"\w+", outside))


def test_every_top_level_definition_is_reached():
    """every top-level function and class of the package is named somewhere
    in the package itself (a call, a reference or an attribute), or by the
    benchmark scripts or the project metadata; a reference from the tests
    alone does not count"""
    defined = {}
    named = _words_outside_package()
    for name, tree in _package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unreached = sorted("%s %s" % (mod, name) for name, mod in defined.items() if name not in named)
    assert unreached == []


def test_every_method_is_reached():
    """every method of a package class, dunder methods aside, is named as an
    attribute in the package itself, or by the benchmark scripts or the
    project metadata; a reference from the tests alone does not count"""
    methods = []
    named = _words_outside_package()
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods += [
                    ("%s %s.%s" % (name, node.name, item.name), item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert methods
    assert sorted(label for label, method in methods if method not in named) == []


def test_no_verdict_path_parses_at_a_precision():
    """`ball_from_str` rounds its parse at a precision, so the package only
    defines it and never calls it: every verdict compares exact values"""
    src = pathlib.Path(lenscert.__file__).parent
    hits = [
        "%s: %s" % (path.name, line.strip())
        for path in sorted(src.glob("*.py"))
        for line in path.read_text().splitlines()
        if "ball_from_str(" in line
    ]
    assert hits == ["ball.py: def ball_from_str(s: str, prec: int) -> Ball:"]


def test_only_escalate_decides_the_final_attempt():
    """the doubling rule `* 2 > prec_max` that marks an attempt as the final
    one is written once, in `certify._escalate`, so no attempt works out its
    own `final`"""
    src = pathlib.Path(lenscert.__file__).parent
    rule = re.compile(r"\*\s*2\s*>\s*prec_max")
    hits = [path.name for path in sorted(src.glob("*.py")) for _ in rule.finditer(path.read_text())]
    assert hits == ["certify.py"]
    text = (src / "certify.py").read_text()
    escalate = next(
        node for node in ast.parse(text).body if isinstance(node, ast.FunctionDef) and node.name == "_escalate"
    )
    assert rule.search(ast.get_source_segment(text, escalate))


def test_only_escalate_knows_the_final_attempt():
    """attempts take only `prec`: no function in `certify.py` but `_escalate`
    has a parameter named `final`"""
    src = pathlib.Path(lenscert.__file__).parent
    tree = ast.parse((src / "certify.py").read_text())
    funcs = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.Lambda))]
    assert funcs
    taking = [
        getattr(f, "name", "<lambda>")
        for f in funcs
        for a in f.args.posonlyargs + f.args.args + f.args.kwonlyargs
        if a.arg == "final"
    ]
    assert [name for name in taking if name != "_escalate"] == []


def test_one_function_returns_the_verdicts():
    """one function of `certify.py`, the verdict rule `_replay`, returns the
    verdict strings, so certification and replay cannot decide apart"""
    tree = ast.parse((pathlib.Path(lenscert.__file__).parent / "certify.py").read_text())
    verdicts = {"Proven", "Undecided", "Failed"}
    returning = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value in verdicts
    }
    assert returning == {"_replay"}


def test_only_ball_reads_a_balls_parts():
    """no module of the package but `ball` and `bigfloat` imports from
    `lenscert.bigfloat` or reads a Ball's parts: no `.mid`, `.rad` or `.man`
    attribute and no `.inf()`, `.sup()` or `.mag_sup()` call, so that a
    change of the Ball format is a change to those two modules alone"""
    checked = []
    for name, tree in _package_trees():
        if name in ("ball.py", "bigfloat.py"):
            continue
        checked.append(name)
        found = [
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("bigfloat")
            or isinstance(node, (ast.Import, ast.ImportFrom)) and any(a.name.endswith("bigfloat") for a in node.names)
            or isinstance(node, ast.Attribute) and node.attr in ("mid", "rad", "man")
            or isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("inf", "sup", "mag_sup")
        ]
        assert found == [], name
    assert {"certify.py", "geom.py", "reports.py", "specfun.py"} <= set(checked)


def test_errors_are_two_kinds():
    """`lenscert.errors` defines the base class and its two kinds, and the
    escalation driver catches the one that more bits may mend, by name"""
    from lenscert import errors

    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert classes == {"LensCertError", "PrecisionExhausted", "InvalidArgument"}
    assert issubclass(errors.InvalidArgument, ValueError)
    assert not issubclass(errors.PrecisionExhausted, ValueError)
    text = (pathlib.Path(lenscert.__file__).parent / "certify.py").read_text()
    escalate = next(
        node for node in ast.parse(text).body if isinstance(node, ast.FunctionDef) and node.name == "_escalate"
    )
    handlers = [ast.unparse(node.type) for node in ast.walk(escalate) if isinstance(node, ast.ExceptHandler)]
    assert handlers == ["PrecisionExhausted"]


_STRADDLE = widen(Ball.from_int(0, 64), bf_two_power(-4))
_SMALL = Ball.from_fraction(Fraction(1, 5), 64)
_TO_ONE = widen(Ball.from_fraction(Fraction(3, 4), 64), bf_two_power(-2))


@pytest.mark.parametrize(
    "kind,call",
    [
        pytest.param(PrecisionExhausted, lambda: ball_div(Ball.from_int(1, 64), _STRADDLE, 64), id="ball_div"),
        pytest.param(PrecisionExhausted, lambda: pow_rational(_STRADDLE, 1, 3, 64), id="pow_rational"),
        pytest.param(
            PrecisionExhausted,
            lambda: sqrt_ball(widen(Ball.from_int(0, 64), bf_two_power(-5)), 64),
            id="sqrt_ball",
        ),
        pytest.param(PrecisionExhausted, lambda: _fx_div((1, 0), (1, 1), 64), id="_fx_div"),
        pytest.param(PrecisionExhausted, lambda: _fx_sqrt((1, 2)), id="_fx_sqrt"),
        pytest.param(PrecisionExhausted, lambda: specfun.appell_f1(3, 4, _TO_ONE, _SMALL, 64), id="appell_f1"),
        pytest.param(PrecisionExhausted, lambda: geom.competitor_energy_specfun(26, 9, 1), id="competitor_energy"),
        pytest.param(InvalidArgument, lambda: geom.lawson_constants(1, 4, 64), id="lawson_constants"),
        pytest.param(InvalidArgument, lambda: sqrt_ball(Ball.from_int(-1, 64), 64), id="sqrt_ball_point"),
        pytest.param(PrecisionExhausted, lambda: log_ball(_STRADDLE, 64), id="log_ball"),
        pytest.param(InvalidArgument, lambda: log_ball(Ball.from_int(-1, 64), 64), id="log_ball_point"),
        pytest.param(InvalidArgument, lambda: log_ball(Ball.from_int(0, 64), 64), id="log_ball_zero"),
        pytest.param(InvalidArgument, lambda: exp_ball(Ball.from_int(2**40 + 1, 64), 64), id="exp_ball"),
        pytest.param(InvalidArgument, lambda: _fx_sqrt((-1, 0)), id="_fx_sqrt_point"),
        pytest.param(InvalidArgument, lambda: _fx_div((1, 0), (0, 0), 64), id="_fx_div_point"),
        pytest.param(InvalidArgument, lambda: geom.default_pairs(3), id="default_pairs"),
        pytest.param(InvalidArgument, lambda: reports.exact_report(10, "simons"), id="exact_report"),
        pytest.param(InvalidArgument, lambda: oracle.polynomial_m_value(2, 3, 64), id="polynomial_m_value"),
        pytest.param(PrecisionExhausted, lambda: specfun._tail_ratio((-20, 5, 1), (9, 10)), id="_tail_ratio"),
    ],
)
def test_raise_site_signals_its_kind(kind, call):
    """an enclosure that does not decide raises PrecisionExhausted, which the
    escalation driver retries with more bits; an argument outside what the
    function accepts raises InvalidArgument, at any precision"""
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
