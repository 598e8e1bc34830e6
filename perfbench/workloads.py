"""The benchmark workloads: their ops, their set-up and the check of every
op's output.

An op is one call of ``planarweb.cli.main(argv)`` made in-process with
stdout captured, or one call of a public library function where no CLI
command exists.  Only public planarweb names are used.  Package functions
are looked up on their modules at call time, so the tracer's wrappers are
seen when it is installed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "planarweb" / "fixtures"
GOLDEN = HERE / "golden"

# numeric settings of the verify-num / constant ops
PRECISION = 50
TOLERANCE = "1e-40"
CONSTANT_TOLERANCE = 1e-30  # fixed by the CLI's constant command
SAMPLES = 2
# arctan is native atan, cheap enough to sample widely; its residual is a few
# units in the last place, so more samples make its per-pass maximum steady
ARCTAN_SAMPLES = 16
# sk_r3 is the heaviest op, so it sets slowest_op_s.  Its cost per sample
# depends on the sample point (0.3-0.8 s at the reference speed), and a run
# holds only 4-6 passes; 4 samples per pass average that input variance
SK_R3_SAMPLES = 4
# residual margins are capped at the requested precision, so a residual of
# exactly zero, or a workload without numeric ops, reads this value
MARGIN_CAP = float(PRECISION)

# imported during set-up, so that set-up pays for every import and the tracer
# finds every namespace that bound a traced name
MODULES = (
    "cli", "parse", "linalg", "web", "jets", "abel", "projective",
    "hyperlog.numeric", "hyperlog.verify", "hyperlog.constants", "hyperlog.words",
)


class Package:
    """The planarweb modules, imported from the checkout's ``src``."""

    def __init__(self):
        if not (SRC / "planarweb" / "__init__.py").is_file():
            raise SystemExit(f"planarweb sources not found under {SRC}")
        sys.path.insert(0, str(SRC))
        pkg = importlib.import_module("planarweb")
        if Path(pkg.__file__).resolve().parent != (SRC / "planarweb").resolve():
            raise SystemExit(f"planarweb imported from {pkg.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name.replace(".", "_"), importlib.import_module(f"planarweb.{name}"))


def margin_digits(tolerance: float, residual: float) -> float:
    """log10(tolerance / residual), capped at MARGIN_CAP."""
    if residual <= 0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tolerance / residual))


class Outcome:
    def __init__(self, ok: bool, detail: str = "", margin=None):
        self.ok = ok
        self.detail = detail
        self.margin = margin


class CliOp:
    """``planarweb <argv>`` with its exit code and output checked.

    check is "golden" (stdout byte-identical to the stored golden file),
    "verify" (verify-num PASS) or "constant:<best match>".
    """

    def __init__(self, key, argv, exit_code=0, check="golden"):
        self.key = key
        self.argv = [str(FIXTURES / a) if a.endswith((".web", ".cfg", ".afe")) else a for a in argv]
        self.exit_code = exit_code
        self.check = check
        self.golden = None

    def load(self, pkg: Package, golden_dir: Path) -> None:
        self.pkg = pkg
        if self.check == "golden":
            self.golden = (golden_dir / f"{self.key}.json").read_bytes()

    def run(self, seed: int) -> Outcome:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pkg.cli.main(self.argv + ["--seed", str(seed)])
        out = buf.getvalue()
        if rc != self.exit_code:
            return Outcome(False, f"exit code {rc}, expected {self.exit_code}")
        if self.check == "golden":
            if out.encode("utf-8") != self.golden:
                return Outcome(False, "output differs from the golden file")
            return Outcome(True)
        report = json.loads(out)
        if self.check == "verify":
            samples = int(self.argv[self.argv.index("--samples") + 1])
            if not report["pass"] or len(report["rows"]) != samples:
                return Outcome(False, f"verify-num did not pass: {report['max_residual']}")
            return Outcome(True, margin=margin_digits(float(TOLERANCE), float(report["max_residual"])))
        expected = self.check.split(":", 1)[1]
        if not report["matched"] or report["best_match"] != expected:
            return Outcome(False, f"constant matched {report['best_match']!r}, expected {expected!r}")
        worst = max(float(report["spread"]), float(report["best_residual"]))
        return Outcome(True, margin=margin_digits(CONSTANT_TOLERANCE, worst))


class ConstrainedOp:
    """``constrained_rank`` of a pattern on a web, with its dimensions checked."""

    def __init__(self, key, make_web, groups, multipliers, expected):
        self.key = key
        self.make_web = make_web
        self.groups = groups
        self.multipliers = multipliers
        self.expected = expected

    def load(self, pkg: Package, golden_dir: Path) -> None:
        self.pkg = pkg
        self.web = self.make_web(pkg)
        self.pattern = pkg.jets.Pattern(self.groups, self.multipliers)

    def run(self, seed: int) -> Outcome:
        base = self.pkg.web.pick_generic_point(
            self.web, seed=seed, preferred=(Fraction(1, 3), Fraction(1, 2))
        )
        report = self.pkg.jets.constrained_rank(self.web, self.pattern, base)
        got = {k: report[k] for k in self.expected}
        if got != self.expected:
            return Outcome(False, f"constrained_rank gave {got}, expected {self.expected}")
        return Outcome(True)


def _bol_indomain(pkg: Package):
    return pkg.web.Web.from_expressions(
        ["x", "y", "x/y", "(1-y)/(1-x)", "x*(1-y)/(y*(1-x))"], name="bol-indomain"
    )


def _numeric(cmd, afe, check, samples=SAMPLES):
    return CliOp(
        f"{cmd}-{afe.split('.')[0]}",
        [cmd, afe, "--samples", str(samples), "--precision", str(PRECISION)]
        + (["--tolerance", TOLERANCE] if cmd == "verify-num" else []),
        check=check,
    )


class Workload:
    def __init__(self, name, ops, layers):
        self.name = name
        self.ops = ops
        self.layers = layers  # layers the trace must see called

    def setup(self, golden_dir: Path = GOLDEN, pkg: Package = None) -> None:
        """Imports (unless pkg is given), fixture and golden loading, and the
        hyperlog anchor series cache filled for the word pool of every .afe
        an op reads."""
        pkg = pkg or Package()
        for op in self.ops:
            op.load(pkg, golden_dir)
        afe_files = {a for op in self.ops if isinstance(op, CliOp) for a in op.argv if a.endswith(".afe")}
        for path in sorted(afe_files):
            words = pkg.hyperlog_verify.load_afe(path).word_pool()
            if words:
                pkg.hyperlog_numeric.WordEvaluator(pkg.hyperlog_words.STANDARD, words, dps=PRECISION)

# per-web recomputation for every subweb (ROADMAP item B)
SUBWEB_OPS = [
    CliOp("hexagonal-sk", ["hexagonal", "sk.web"], exit_code=1),
    CliOp("rank-bol-subwebs345", ["rank", "bol.web", "--subwebs", "3,4,5"]),
    # the preferred point (1/3, 1/2) is on config-c's locus; fix the point
    # so the reported base point does not depend on the seed
    CliOp("rank-configc", ["rank", "configc.web", "--point", "1/2,3/4"]),
]

# span ranks, the Fraction reducer and multi-point jets (items B and C)
CHARACTERIZATION_OPS = [
    ConstrainedOp(
        "constrained-bol-prop11",
        _bol_indomain,
        [[1, 2, 3, 4, 5]],
        {1: 1, 2: -1, 3: -1, 4: -1, 5: 1},
        {"dim_mod_constants": 3, "dim_mod_subsolutions": 1, "order": 7},
    ),
    ConstrainedOp(
        "constrained-bol-prop13",
        _bol_indomain,
        [[1, 2, 3, 4], [5]],
        {1: 1, 2: -1, 3: -1, 4: -1, 5: 1},
        {"dim_mod_constants": 3, "dim_mod_subsolutions": 1, "order": 7},
    ),
    CliOp("rank-bol-filtration", ["rank", "bol.web", "--filtration"]),
]

# one singular locus per web: nothing to reuse; parse, abel and projective
SYMBOLIC_OPS = (
    [CliOp(f"sigma-{w}", ["sigma", f"{w}.web"]) for w in ("arctan", "bol", "cauchy", "configc", "sk")]
    + [
        CliOp("sigma-bol-factors", ["sigma", "bol.web", "--factors", "x;y;1-x;1-y;x-y"]),
        CliOp("abel-ode-cauchy", ["abel-ode", "cauchy.web", "--target", "1"]),
        CliOp("abel-ode-arctan", ["abel-ode", "arctan.web", "--target", "1"]),
        CliOp("abel-ode-bol", ["abel-ode", "bol.web", "--target", "1"]),
        CliOp("config-web-b", ["config-web", "b.cfg"]),
        CliOp("config-web-c-classify", ["config-web", "c.cfg", "--classify"]),
        CliOp("config-web-q", ["config-web", "q.cfg"]),
        CliOp("prop7-sk", ["prop7", "sk.web"]),
    ]
)

WORKLOADS = {
    "subweb-ranks": Workload("subweb-ranks", SUBWEB_OPS, layers=("cli", "parse", "web", "jets", "linalg")),
    "characterization": Workload("characterization", CHARACTERIZATION_OPS, layers=("web", "jets", "linalg")),
    "numeric-identities": Workload(
        "numeric-identities",
        [
            _numeric("verify-num", "sk_r3.afe", "verify", SK_R3_SAMPLES),
            _numeric("verify-num", "l2_schaffer.afe", "verify"),
            _numeric("verify-num", "newman.afe", "verify"),
            _numeric("verify-num", "arctan.afe", "verify", ARCTAN_SAMPLES),
            _numeric("constant", "g21.afe", "constant:-c21"),
            _numeric("constant", "rogers_d.afe", "constant:0"),
        ],
        layers=("cli", "hyperlog"),
    ),
    "symbolic-corpus": Workload(
        "symbolic-corpus", SYMBOLIC_OPS, layers=("cli", "parse", "web", "abel", "projective")
    ),
}
