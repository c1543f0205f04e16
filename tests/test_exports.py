import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import crossnorm
from crossnorm import pipeline
from crossnorm.cli import main

_MODULES = [crossnorm] + [importlib.import_module(f"crossnorm.{info.name}")
                          for info in pkgutil.iter_modules(crossnorm.__path__)]


@pytest.mark.parametrize("module", _MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []


def test_package_exports_are_the_defining_modules_objects():
    # Each name a module defines and lists in its __all__, found without the
    # package's own map of homes.
    defined = {}
    for module in _MODULES[1:]:
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            if getattr(value, "__module__", None) == module.__name__:
                defined[name] = value
    assert crossnorm.__all__ and set(crossnorm.__all__) <= set(defined)
    namespace = {}
    exec("from crossnorm import *", namespace)
    assert [name for name in crossnorm.__all__ if namespace.get(name) is not defined[name]] == []
    assert [name for name in crossnorm.__all__
            if getattr(crossnorm, name) is not defined[name]] == []
    # A looked-up name is stored in the package, so the next lookup is a plain read.
    assert [name for name in crossnorm.__all__
            if vars(crossnorm).get(name) is not defined[name]] == []


def test_a_fresh_package_lists_and_binds_every_export():
    # In a fresh interpreter no export has been looked up yet, so dir() and
    # the star import see only what the package resolves on demand.
    probe = ("import crossnorm; listed = dir(crossnorm); namespace = {};"
             " exec('from crossnorm import *', namespace);"
             " print(sorted(set(crossnorm.__all__) - set(listed)),"
             " sorted(set(crossnorm.__all__) - set(namespace)))")
    env = dict(os.environ, PYTHONPATH=str(Path(crossnorm.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[] []\n", "")


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        crossnorm.no_such_name


def test_the_method_names_have_one_owner():
    assert crossnorm.METHODS is pipeline.METHODS
    for command in ("normalize", "test"):
        [choices] = [param.type.choices for param in main.commands[command].params
                     if param.name == "method"]
        assert tuple(choices) == crossnorm.METHODS
