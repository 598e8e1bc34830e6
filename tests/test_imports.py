"""The package imports no numpy, at import time or while it eliminates, and
no module that only the tests use."""

import json
import os
import subprocess
import sys

import planarweb

SRC = os.path.dirname(os.path.dirname(planarweb.__file__))

SCRIPT = """
import importlib, json, pkgutil, sys
import planarweb
for info in pkgutil.walk_packages(planarweb.__path__, "planarweb."):
    importlib.import_module(info.name)
from planarweb.jets import rank_only
from planarweb.web import Web
assert rank_only(Web.from_expressions(["x", "y", "x+y"])) == 1
print(json.dumps(sorted(m for m in sys.modules if m.startswith("planarweb."))))
print("numpy" in sys.modules)
test_only = ("sympy", "hypothesis", "exact_oracle", "gcd_oracle", "series_oracle", "sk_oracle")
print(json.dumps([m for m in test_only if m in sys.modules]))
"""


def test_no_module_imports_numpy():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    modules = json.loads(out[0])
    assert {"planarweb.cli", "planarweb.linalg", "planarweb.hyperlog.verify"} <= set(modules)
    assert out[1] == "False"
    assert json.loads(out[2]) == []
