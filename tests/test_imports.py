"""The package imports no numpy, at import time or while it eliminates, and
no module that only the tests use; every module uses what it imports."""

import ast
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


def _unused_imports(path):
    """Names bound by the module-level imports of `path` that no Name node
    of the module reads (`from __future__` aside)."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_every_import_is_used():
    unused = {}
    for folder, _, files in os.walk(os.path.join(SRC, "planarweb")):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                names = _unused_imports(path)
                if names:
                    unused[os.path.relpath(path, SRC)] = names
    assert unused == {}
