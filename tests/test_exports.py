import importlib
import pkgutil

import pytest

import bornlab

MODULES = ["bornlab", *(f"bornlab.{m.name}" for m in pkgutil.iter_modules(bornlab.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry would make `import *` fail, and a tracer that wraps
    # the __all__ functions skip it silently
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    exec(f"from {name} import *", {})
