"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import cyclepoisson

_MODULES = ["cyclepoisson"] + [
    "cyclepoisson." + info.name for info in pkgutil.iter_modules(cyclepoisson.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], name
