"""Outside-in span tracer for the planarweb layers.

The tracer wraps public functions, methods and constructors of the package
without changing its sources.  A module that did ``from .linalg import
exact_nullspace`` holds its own reference, so every namespace of the package
that bound a traced object is patched, not only the defining module.

Each call records a span (id, parent id, request key, name, start, end).
Spans are kept in memory and written out once at the end of a run.  A
function's self time is its duration minus the time covered by its child
spans; its total time counts only outermost calls, so recursion is not
counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer, module inside planarweb, attribute).  "Class" traces construction,
# "Class.method" a method; the metric name uses the last dotted part.
TARGETS = [
    ("cli", "cli", "main"),
    ("parse", "parse", "parse_ratfunc"),
    ("web", "web", "singular_locus"),
    ("web", "web", "pick_generic_point"),
    ("web", "web", "Web.subweb"),
    ("web", "web", "BasePoint"),
    ("jets", "jets", "JetSystem"),
    ("jets", "jets", "abelian_rank"),
    ("jets", "jets", "rank_report"),
    ("jets", "jets", "hexagonality"),
    ("jets", "jets", "filtration_dims"),
    ("jets", "jets", "constrained_rank"),
    ("linalg", "linalg", "exact_nullspace"),
    ("linalg", "linalg", "modp_rref"),
    ("linalg", "linalg", "exact_rank_of_span"),
    ("hyperlog", "hyperlog.numeric", "WordEvaluator"),
    ("hyperlog", "hyperlog.numeric", "WordEvaluator.value_vector"),
    ("hyperlog", "hyperlog.numeric", "WordEvaluator.values_along"),
    ("hyperlog", "hyperlog.verify", "verify_afe_numeric"),
    ("hyperlog", "hyperlog.verify", "constancy_check"),
    ("abel", "abel", "derive_lde"),
    ("abel", "abel", "reduce_step"),
    ("projective", "projective", "prop7_check"),
    ("projective", "projective", "web_from_configuration"),
    ("projective", "projective", "classify_stratum"),
]

def span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.split('.')[-1]}"


def _nullspace_cells(args, kwargs) -> int:
    """rows x columns of the matrix handed to exact_nullspace(mat, n_cols)."""
    mat = args[0] if args else kwargs.get("mat", ())
    n_cols = args[1] if len(args) > 1 else kwargs.get("n_cols")
    rows = len(mat)
    if n_cols is None:
        n_cols = len(mat[0]) if rows else 0
    return rows * n_cols


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, request, name, start, end)
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        self.nullspace_cells = 0
        self.request = ""
        self.missing = []
        self._stack = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._depth = {}
        self._sites = []  # (holder, attribute, original, wrapper)
        for layer, module, attr in TARGETS:
            name = span_name(layer, attr)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
            self._depth[name] = 0
            sites = self._find_sites(module, attr)
            if not sites:
                self.missing.append(f"planarweb.{module}.{attr}")
            for holder, key, original in sites:
                self._sites.append((holder, key, original, self._wrap(name, original)))

    @staticmethod
    def _find_sites(module: str, attr: str):
        mod = sys.modules.get(f"planarweb.{module}")
        parts = attr.split(".")
        if mod is None or not hasattr(mod, parts[0]):
            return []
        if len(parts) == 2:  # a method, patched on its class
            cls = getattr(mod, parts[0])
            original = cls.__dict__.get(parts[1])
            return [(cls, parts[1], original)] if original is not None else []
        target = getattr(mod, parts[0])
        if isinstance(target, type):  # construction, patched on the class
            return [(target, "__init__", target.__dict__["__init__"])]
        # a function: every package namespace that bound it at import
        sites = []
        for mod_name, other in list(sys.modules.items()):
            if mod_name == "planarweb" or mod_name.startswith("planarweb."):
                for key, value in list(vars(other).items()):
                    if value is target:
                        sites.append((other, key, target))
        return sites

    def _wrap(self, name: str, fn):
        count_cells = name == "linalg.exact_nullspace"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_cells:
                self.nullspace_cells += _nullspace_cells(args, kwargs)
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        return traced

    def _enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._depth[name] == 0:
            self.total_s[name] += duration
        self.spans.append(
            (span_id, parent[0] if parent else None, self.request, name, start, end)
        )

    def install(self) -> None:
        for holder, key, _, wrapper in self._sites:
            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original, _ in self._sites:
            setattr(holder, key, original)

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.split(".")[0] == layer)

    def write_spans(self, path) -> None:
        keys = ("id", "parent", "request", "name", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
