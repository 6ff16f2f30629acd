"""The public surface: every name a module exports resolves."""

import importlib
import pkgutil

import lenscert


def test_all_exports_resolve():
    modules = [lenscert] + [
        importlib.import_module("lenscert." + info.name)
        for info in pkgutil.iter_modules(lenscert.__path__)
    ]
    missing = [
        "%s.%s" % (mod.__name__, name)
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
