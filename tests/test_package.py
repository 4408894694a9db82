"""Package surface: every exported name resolves, and an import loads only what it reads."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# ----------------------------------------------------------------------
# import footprint, each in a fresh interpreter
# ----------------------------------------------------------------------

_SRC = str(Path(cyclepoisson.__file__).resolve().parent.parent)


def _fresh(code: str, cwd=None) -> str:
    """The last stdout line of `code` run in a new interpreter on this package."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


_LOADED = (
    "import json, sys; print(json.dumps(sorted("
    "m for m in sys.modules if m == 'numpy' or m.startswith('cyclepoisson.'))))"
)


def test_import_loads_no_submodule_and_no_numpy():
    assert json.loads(_fresh("import cyclepoisson; " + _LOADED)) == []


def test_star_import_binds_every_exported_name():
    code = "from cyclepoisson import *; import cyclepoisson; "
    code += "print([n for n in cyclepoisson.__all__ if n not in globals()])"
    assert _fresh(code) == "[]"


def test_dir_lists_every_exported_name():
    code = "import cyclepoisson; print(sorted(set(cyclepoisson.__all__) - set(dir(cyclepoisson))))"
    assert _fresh(code) == "[]"


def test_unknown_attribute_raises_attribute_error():
    code = "import cyclepoisson\ntry:\n    cyclepoisson.no_such_name\nexcept AttributeError as e:\n    print(e)"
    assert _fresh(code) == "module 'cyclepoisson' has no attribute 'no_such_name'"
    assert not hasattr(cyclepoisson, "no_such_name")


_NOT_TABLE = ("errprob", "pde", "series", "simulator")


# one leaf of each group, and the modules its run must not import
_RUNS = [
    (["series", "demo", "--order", "3"], ("numpy", "errprob", "pde", "simulator")),
    (["table", "build", "--m", "3", "--vmax", "3", "--out", "t.cpt"], ("numpy", *_NOT_TABLE)),
    (["stopping-sets", "count", "--m", "3", "--v", "2", "--t", "1"], ("numpy", *_NOT_TABLE)),
    (["pde", "classify", "--y", "2", "--z", "1"], ("numpy", "errprob", "series", "simulator")),
    (["errprob", "eval", "--n", "4", "--r", "1/2", "--eps", "1/10"], ("numpy", "pde", "simulator")),
    (["simulate", "--n", "4", "--r", "1/2", "--eps", "1/10", "--trials", "10", "--seed", "1"],
     ("errprob", "pde", "series")),
    (["reconcile", "--n", "4", "--trials", "10"], ("pde",)),
]


@pytest.mark.parametrize("argv, absent", [pytest.param(*run, id=run[0][0]) for run in _RUNS])
def test_cli_run_imports_only_what_its_leaf_uses(argv, absent, tmp_path):
    code = "from cyclepoisson.cli import main; assert main(%r) == 0; %s" % (
        ["--out", str(tmp_path), *argv],
        _LOADED,
    )
    loaded = set(json.loads(_fresh(code, cwd=tmp_path)))
    assert "cyclepoisson.cli" in loaded
    absent = {name if name == "numpy" else "cyclepoisson." + name for name in absent}
    assert loaded & absent == set()
