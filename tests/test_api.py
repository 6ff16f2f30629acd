"""The public surface: every name a module exports resolves."""

import importlib
import pathlib
import pkgutil
import re

import lenscert


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
    for mod in (oracle, specfun):
        assert {"_fx_from_ball", "_fx_mul", "_fx_to_ball"} <= set(vars(mod)), mod.__name__
