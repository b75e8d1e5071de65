import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_cli_import_loads_no_network_modules():
    # xml.sax.saxutils loads urllib.request and http.client (and with them
    # email and ssl), which every command would pay for at start-up
    src = os.path.dirname(os.path.dirname(bornlab.__file__))
    code = ("import sys, bornlab.cli; "
            "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_version_matches_pyproject():
    # the version is spelled in pyproject.toml and in bornlab.__version__; a
    # bump that changes one spelling must change the other
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == bornlab.__version__
