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


def test_package_exports_are_listed_where_defined():
    # a name the package re-exports is public in its home module too
    unlisted = []
    for attr in cyclepoisson.__all__:
        if attr == "__version__":
            continue
        home = getattr(cyclepoisson, attr).__module__
        assert home.startswith("cyclepoisson."), (attr, home)
        if attr not in importlib.import_module(home).__all__:
            unlisted.append("%s.%s" % (home, attr))
    assert unlisted == []
