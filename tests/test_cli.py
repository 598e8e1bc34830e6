import json
import subprocess
import sys

import pytest
from conftest import fixture_path


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "planarweb.cli", *args],
        capture_output=True,
        text=True,
    )
    try:
        doc = json.loads(proc.stdout)
    except json.JSONDecodeError:
        doc = None
    return proc.returncode, doc, proc.stdout


def test_sigma_command():
    rc, doc, _ = run_cli("sigma", fixture_path("cauchy.web"))
    assert rc == 0
    assert sorted(doc["curve_components"]) == ["x", "y"]


def test_sigma_factor_check_negative_exit():
    rc, doc, _ = run_cli("sigma", fixture_path("cauchy.web"), "--factors", "x+y")
    assert rc == 1 and not doc["all_divide"]


def test_sigma_fractional_factors_print_as_typed():
    # a factor's numerator is printed divided by its denominator's leading
    # coefficient, so non-integral factors keep their rational coefficients
    rc, _, out = run_cli("sigma", fixture_path("bol.web"), "--factors", "x/2;2*y/3;(1-x)/5;1-y;x-y")
    expected = {
        "all_divide": True,
        "candidates": [
            {"divides": True, "factor": f}
            for f in ["1/2*x", "2/3*y", "-1/5*x + 1/5", "-y + 1", "x - y"]
        ],
        "computed_components": ["y - 1", "x - 1", "x - y", "y", "x"],
        "product_equal_up_to_constant": True,
        "web": "bol",
    }
    assert rc == 0
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_rank_command():
    rc, doc, _ = run_cli("rank", fixture_path("bol.web"))
    assert rc == 0
    assert doc["rank"] == 6
    assert doc["solution_space_with_constants"] == 10


def test_abel_ode_command():
    rc, doc, _ = run_cli("abel-ode", fixture_path("bol.web"), "--target", "1", "--trace")
    assert rc == 0 and doc["order"] == 4
    steps = doc["trace"]
    assert [s["pivot"] for s in steps if s["kind"] == "eliminate"] == [2, 3, 4, 5]
    assert steps[-1]["type"] == {"1": 4}


def test_abel_ode_on_a_generic_web_is_trivial(tmp_path):
    path = tmp_path / "generic.web"
    path.write_text("x\ny\nx+y^3+x^2*y\n", encoding="utf-8")
    rc, doc, _ = run_cli("abel-ode", str(path), "--target", "1")
    assert rc == 0
    assert doc == {"web": None, "target": 1, "result": "trivial", "detail": "only constant solutions (generic case)"}


def test_hexagonal_command():
    rc, doc, _ = run_cli("hexagonal", fixture_path("cauchy.web"))
    assert rc == 0 and doc["hexagonal"]


def test_config_web_command(tmp_path):
    out = tmp_path / "c.web"
    rc, doc, _ = run_cli(
        "config-web", fixture_path("c.cfg"), "--classify", "--web-out", str(out)
    )
    assert rc == 0 and doc["stratum"] == "S1" and doc["web_size"] == 8
    # the emitted web file is consumable by rank
    rc, doc, _ = run_cli("rank", str(out))
    assert rc == 0 and doc["rank"] == 21


def test_verify_num_command():
    rc, doc, _ = run_cli(
        "verify-num", fixture_path("newman.afe"), "--samples", "4", "--precision", "45"
    )
    assert rc == 0 and doc["pass"]


def test_constant_command():
    rc, doc, _ = run_cli("constant", fixture_path("rogers_d.afe"), "--samples", "4")
    assert rc == 0 and doc["matched"] and doc["best_match"] == "0"


def test_constant_subtracts_the_rhs():
    # sk_r3's left-hand side equals its rhs R3, so the difference is 0
    rc, doc, _ = run_cli("constant", fixture_path("sk_r3.afe"), "--samples", "3", "--precision", "30")
    assert rc == 0 and doc["matched"] and doc["best_match"] == "0"


def test_prop7_command():
    rc, doc, _ = run_cli("prop7", fixture_path("sk.web"))
    assert rc == 0 and doc["match"]


def test_usage_error_exit_code():
    rc, _, _ = run_cli("rank")
    assert rc == 2


def test_determinism_byte_identical():
    _, _, out1 = run_cli("rank", fixture_path("cauchy.web"), "--filtration")
    _, _, out2 = run_cli("rank", fixture_path("cauchy.web"), "--filtration")
    assert out1 == out2
    _, _, out3 = run_cli("verify-num", fixture_path("arctan.afe"), "--samples", "3",
                         "--precision", "40", "--seed", "5")
    _, _, out4 = run_cli("verify-num", fixture_path("arctan.afe"), "--samples", "3",
                         "--precision", "40", "--seed", "5")
    assert out3 == out4
    # a transported file: word values carried through the waypoint trie
    _, _, out5 = run_cli("verify-num", fixture_path("sk_r3.afe"), "--samples", "2", "--seed", "5")
    _, _, out6 = run_cli("verify-num", fixture_path("sk_r3.afe"), "--samples", "2", "--seed", "5")
    assert json.loads(out5)["pass"] and out5 == out6
    # constant prints residual digits that depend on the anchor values
    _, _, out7 = run_cli("constant", fixture_path("rogers_d.afe"), "--samples", "2", "--seed", "5")
    _, _, out8 = run_cli("constant", fixture_path("rogers_d.afe"), "--samples", "2", "--seed", "5")
    assert json.loads(out7)["matched"] and out7 == out8


def test_verify_num_keeps_the_given_tolerance():
    rc, doc, _ = run_cli(
        "verify-num", fixture_path("arctan.afe"), "--samples", "1", "--tolerance", "5e-40"
    )
    assert rc == 0 and doc["tolerance"] == "5.0e-40"


@pytest.mark.parametrize("tolerance", ["0", "-1", "-1e-40"])
def test_nonpositive_tolerance_is_usage_error(tolerance):
    # no residual can be below a tolerance <= 0, so it could never PASS
    proc = subprocess.run(
        [sys.executable, "-m", "planarweb.cli", "verify-num", fixture_path("arctan.afe"),
         "--samples", "1", "--tolerance", tolerance],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "option",
    [
        ("--point", "abc"),
        ("--stabilize", "0"),
        ("--subwebs", "abc"),
        ("--subwebs", "2"),
        ("--subwebs", "3,x"),
        ("--subwebs", "6"),
        ("--max-order", "0"),
        ("--max-order", "4"),
        # orders 5..40 cannot stabilize over 50 (without --max-order each
        # ladder's cap leaves room for --stabilize)
        ("--stabilize", "50", "--max-order", "40"),
        ("--max-order", "6", "--stabilize", "3"),
    ],
)
def test_bad_rank_argument_is_usage_error(option):
    proc = subprocess.run(
        [sys.executable, "-m", "planarweb.cli", "rank", fixture_path("bol.web"), *option],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    # argparse rejects malformed values before any report; the rest are
    # reported as InvalidParameter
    if proc.stdout:
        assert json.loads(proc.stdout)["type"] == "InvalidParameter"


@pytest.mark.parametrize(
    "options,stop_rule",
    [
        (["--stabilize", "4"], (4, None)),
        (["--stabilize", "5", "--max-order", "9"], (5, 9)),
        # a triple's default cap is 3 + 5: --stabilize alone leaves it orders 3..8
        (["--stabilize", "5"], (5, None)),
    ],
)
def test_stop_rule_options_reach_every_rank(options, stop_rule, monkeypatch, capsys):
    # the web's rank, its filtration's (the web's again and its 10 + 5 + 1
    # p-subwebs') and the 10 triples of --subwebs all take the user's rule
    import planarweb.jets as jets
    from planarweb.cli import main

    calls = []
    stabilized = jets._stabilized_dims

    def recorded(n, dim_at, failure, stabilize=3, max_order=None):
        calls.append((n, (stabilize, max_order)))
        return stabilized(n, dim_at, failure, stabilize, max_order)

    monkeypatch.setattr(jets, "_stabilized_dims", recorded)
    argv = ["rank", fixture_path("bol.web"), "--filtration", "--subwebs", "3", *options]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 6 and doc["filtration"] == {"3": 5, "4": 5, "5": 6}
    assert [e["rank"] for e in doc["subwebs"]] == [1] * 10
    assert sorted(n for n, _ in calls) == [3] * 20 + [4] * 5 + [5] * 3
    assert {rule for _, rule in calls} == {stop_rule}


@pytest.mark.parametrize("point", ["0,0", "1,1", "1/3,1/3", "2/3,1"])
def test_rank_point_on_the_singular_locus_is_usage_error(point):
    # the poles of x/y and (1-y)/(1-x), a point of the tangency line x = y
    # and one of the pole line y = 1: an explicit point is never replaced
    rc, doc, _ = run_cli("rank", fixture_path("bol.web"), "--point", point)
    assert rc == 2
    assert doc["type"] == "InvalidParameter" and f"--point {point} " in doc["error"]


def test_rank_takes_an_explicit_point_off_the_locus():
    rc, doc, _ = run_cli("rank", fixture_path("bol.web"), "--point", "2,3")
    assert rc == 0 and doc["base_point"] == ["2", "3"] and doc["rank"] == 6


@pytest.mark.parametrize("command,afe", [("verify-num", "arctan.afe"), ("constant", "rogers_d.afe")])
@pytest.mark.parametrize("option", [("--samples", "0"), ("--precision", "0")])
def test_bad_sample_or_precision_is_usage_error(command, afe, option):
    proc = subprocess.run(
        [sys.executable, "-m", "planarweb.cli", command, fixture_path(afe), *option],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_constant_on_one_sample_is_usage_error():
    # constancy cannot fail on one sample, so a pass there would be vacuous
    rc, doc, _ = run_cli("constant", fixture_path("rogers_d.afe"), "--samples", "1")
    assert rc == 2 and doc["type"] == "InvalidParameter" and "2 samples" in doc["error"]


@pytest.mark.parametrize("afe,precision", [("g21.afe", "8"), ("rogers_d.afe", "5"), ("g21.afe", "29")])
def test_constant_below_its_tolerance_is_usage_error(afe, precision):
    # constant compares at 1e-30, which a lower precision cannot deliver: g21
    # at 8 digits varied by 4.8e-28 and exited 1 as a mathematical FAIL
    rc, doc, _ = run_cli("constant", fixture_path(afe), "--samples", "3", "--precision", precision)
    assert rc == 2 and doc["type"] == "InvalidParameter"
    assert "1e-30" in doc["error"] and f"got {precision}" in doc["error"]


@pytest.mark.parametrize(
    "precision,extra,tolerance,needed",
    [("5", [], "1e-40", 40), ("39", [], "1e-40", 40), ("24", ["--tolerance", "1e-25"], "1e-25", 25)],
)
def test_verify_num_below_its_tolerance_is_usage_error(precision, extra, tolerance, needed):
    # residuals below 10^-precision are noise: arctan at 5 digits gave
    # "pass": false with exit 1, a mathematical FAIL, against 1e-40
    rc, doc, _ = run_cli("verify-num", fixture_path("arctan.afe"), "--samples", "1", "--precision", precision, *extra)
    assert rc == 2 and doc["type"] == "InvalidParameter"
    assert f"tolerance {tolerance}" in doc["error"]
    assert f"at least {needed}, got {precision}" in doc["error"]


@pytest.mark.parametrize("target", ["0", "6"])
def test_abel_ode_target_out_of_range_is_usage_error(target):
    proc = subprocess.run(
        [sys.executable, "-m", "planarweb.cli", "abel-ode", fixture_path("bol.web"), "--target", target],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert "error" in doc and doc["type"] == "InvalidParameter"


@pytest.mark.parametrize("subset", ["abc", "0", ",", "1,1,2", "1,2"])
def test_bad_prop7_subset_is_usage_error(subset):
    proc = subprocess.run(
        [sys.executable, "-m", "planarweb.cli", "prop7", fixture_path("sk.web"), "--subset", subset],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


def test_prop7_subset_past_the_configuration_reports_an_error():
    rc, doc, _ = run_cli("prop7", fixture_path("sk.web"), "--subset", "1,2,99")
    assert rc == 2 and "error" in doc and doc["type"] == "InvalidParameter"


@pytest.mark.parametrize(
    "command,name,text,extra,culprit",
    [
        ("verify-num", "a.afe", "component: 1 atan x\nbogus\n", [], "'bogus'"),
        ("verify-num", "a.afe", "component: 1/2 atan x\ncomponent: 1 atan y\n", [], "1/2 atan x"),
        ("config-web", "a.cfg", "1 0 0\n0 1 0\n0 0 1\n1 1\n", [], "'1 1'"),
        ("config-web", "a.cfg", "1 0 0\n0 1 0\n0 0 1\n2 0 0\n", [], "[1:0:0]"),
        ("sigma", "a.web", "x\ny\nx/y\n", ["--factors", "x;0"], "factor 2"),
        ("sigma", "a.web", "x\ny\nx/y\n", ["--factors", "1"], "factor 1 has the constant numerator 1"),
        ("sigma", "a.web", "x\ny\nx/y\n", ["--factors", "x;3"], "factor 2 has the constant numerator 3"),
        ("sigma", "a.web", "x\ny\nx/y\n", ["--factors", "1/x"], "factor 1 has the constant numerator 1"),
        ("sigma", "a.web", "x\ny\nx/y\n", ["--factors", "x;(y"], "factor 2 '(y'"),
        ("sigma", "a.web", "x\ny\nx/y\n", ["--factors", "x;;y"], "factor 2 ''"),
        ("sigma", "a.web", "x\ny\nx/y\n", ["--factors", ""], "factor 1 ''"),
        ("verify-num", "a.afe", "name: empty\n", [], "no component"),
        ("constant", "a.afe", "name: empty\n", [], "no component"),
        ("verify-num", "a.afe", "component: 1 {[x0 x7]} x\n", [], "'x7' not in the alphabet"),
        ("verify-num", "a.afe", "component: 1 Foo x\n", [], "unknown special function 'Foo'"),
        ("verify-num", "a.afe", "domain: bogus\ncomponent: 1 atan x\n", [], "'domain: bogus'"),
        ("verify-num", "a.afe", "rhs: bogus\ncomponent: 1 atan x\n", [], "'rhs: bogus'"),
        ("constant", "a.afe", "component: 1 Li2 x+\n", [], "'component: 1 Li2 x+': ExprSyntaxError"),
        ("verify-num", "a.afe", "component: 0 Li2 x\ncomponent: 0 Li2 y\n", [], "'component: 0 Li2 x'"),
        ("constant", "a.afe", "component: 0 Li2 x\ncomponent: 0 Li2 y\n", [], "'component: 0 Li2 x'"),
        ("rank", "a.web", "variables: u u\nu\nu+1\nu^2\n", [], "'variables: u u': ExprSyntaxError"),
        (
            "verify-num", "a.afe", "component: 1 {[x0]*[x1]} x\ncomponent: -1 Li1 x\n", [],
            "'component: 1 {[x0]*[x1]} x': InvalidParameter: the term '[x0]*[x1]' multiplies two words",
        ),
        ("verify-num", "a.afe", "component: 1 {} x\ncomponent: 1 Li2 y\n", [], "'component: 1 {} x'"),
        ("constant", "a.afe", "component: 1 {0} x\ncomponent: 1 Li2 y\n", [], "'component: 1 {0} x'"),
        (
            "verify-num", "a.afe", "component: 1 Li2 y\ncomponent: 1 {[x0] - [x0]} x\n", [],
            "'component: 1 {[x0] - [x0]} x': InvalidParameter: the word combination is zero",
        ),
    ],
    ids=[
        "afe-unknown-line", "afe-multiplier", "cfg-coordinates", "cfg-duplicate", "sigma-zero-factor",
        "sigma-unit-factor", "sigma-constant-factor", "sigma-reciprocal-factor",
        "sigma-unbalanced-factor", "sigma-empty-factor", "sigma-no-factor",
        "afe-no-component-verify-num", "afe-no-component-constant", "afe-unknown-letter",
        "afe-unknown-special", "afe-unknown-domain", "afe-unknown-rhs", "afe-bad-inner",
        "afe-zero-multiplier-verify-num", "afe-zero-multiplier-constant", "web-equal-variables",
        "afe-word-product", "afe-empty-combination", "afe-zero-combination", "afe-cancelling-combination",
    ],
)
def test_bad_input_file_or_factor_reports_the_culprit(tmp_path, command, name, text, extra, culprit):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "planarweb.cli", command, str(path), *extra],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["type"] == "InvalidParameter" and culprit in doc["error"]


@pytest.mark.parametrize("command", ["verify-num", "constant"])
@pytest.mark.parametrize(
    "text,letter",
    [("component: 1 {[x1]} 1\n", "L_('x1',) diverges at the ramification point 1"),
     ("component: 1 log x-x\n", "L_('x0',) diverges at the ramification point 0")],
    ids=["minus-log-one-minus-z-at-1", "log-at-0"],
)
def test_divergent_component_is_an_evaluation_failure(tmp_path, command, text, letter):
    # every sample puts the component at a letter where it diverges; its
    # regularized constant there is 0, which made a vacuous PASS
    path = tmp_path / "divergent.afe"
    path.write_text(text, encoding="utf-8")
    rc, doc, _ = run_cli(command, str(path), "--samples", "2")
    assert rc == 1 and doc["type"] == "EvaluationFailure"
    assert doc["error"].startswith("evaluation failed at (") and letter in doc["error"]


def test_bad_variables_line_is_a_syntax_error(tmp_path):
    path = tmp_path / "three.web"
    path.write_text("variables: x y z\nx\ny\nx+y\n", encoding="utf-8")
    rc, doc, _ = run_cli("rank", str(path))
    assert rc == 2
    assert doc["type"] == "InvalidParameter"
    assert "'variables: x y z': ExprSyntaxError" in doc["error"]


@pytest.mark.parametrize(
    "text,culprit",
    [
        ("x\ny\nx+\n", "'x+': ExprSyntaxError"),
        ("x\ny\nz\n", "'z': ExprSyntaxError"),
        ("x\ny\nx/(x-x)\n", "'x/(x-x)': ZeroDenominator"),
        ("x\ny\n3\n", "'3': ConstantInput"),
        ("x\ny\n", "TooFewFoliations"),
        ("", "TooFewFoliations"),
        ("x\nx+y\n2*x+2*y\n", "DegenerateMap"),
    ],
    ids=["syntax", "unknown-variable", "zero-denominator", "constant", "two-lines", "empty", "same-foliation"],
)
def test_malformed_web_file_is_usage_error(tmp_path, capsys, text, culprit):
    from planarweb.cli import main

    path = tmp_path / "bad.web"
    path.write_text(text, encoding="utf-8")
    assert main(["sigma", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["type"] == "InvalidParameter" and culprit in doc["error"]


@pytest.mark.parametrize("kind", ["directory", "not-utf8", "missing"])
def test_unreadable_web_file_is_usage_error(tmp_path, capsys, kind):
    from planarweb.cli import main

    path = tmp_path
    if kind == "not-utf8":
        path = tmp_path / "latin1.web"
        path.write_bytes("x\ny\nx/y # caf\u00e9\n".encode("latin-1"))
    elif kind == "missing":
        path = tmp_path / "missing.web"
    assert main(["rank", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert "error" in doc and doc["type"] == "InvalidParameter"


def run_with_closed_stdout(*args):
    # the reader goes away before the report is written, as with `| head`
    with subprocess.Popen(
        [sys.executable, "-m", "planarweb.cli", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read()
        return proc.wait(timeout=120), stderr


def test_closed_stdout_gives_no_traceback():
    rc, stderr = run_with_closed_stdout("sigma", fixture_path("sk.web"))
    assert rc == 0
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "args,code",
    [
        (["rank", "bol.web", "--max-order", "4"], 2),
        (["abel-ode", "bol.web", "--target", "0"], 2),
        (["prop7", "sk.web", "--subset", "1,2,99"], 2),
        (["rank", "missing.web"], 2),  # FileNotFoundError
        (["rank", "three.web"], 2),  # InvalidParameter (bad variables line)
        (["sigma", "cauchy.web", "--factors", "x+y"], 1),  # a mathematical FAIL
    ],
)
def test_error_report_to_closed_stdout_gives_no_traceback(args, code, tmp_path):
    bad = tmp_path / "three.web"
    bad.write_text("variables: x y z\nx\ny\nx+y\n", encoding="utf-8")
    argv = [str(bad) if a == bad.name else fixture_path(a) if a.endswith(".web") else a for a in args]
    rc, stderr = run_with_closed_stdout(*argv)
    assert rc == code
    assert "Traceback" not in stderr
