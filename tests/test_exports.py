import importlib
import pkgutil

import pytest

import crossnorm

_MODULES = [crossnorm] + [importlib.import_module(f"crossnorm.{info.name}")
                          for info in pkgutil.iter_modules(crossnorm.__path__)]


@pytest.mark.parametrize("module", _MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
