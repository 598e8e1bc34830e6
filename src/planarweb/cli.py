"""Command-line front end.

Subcommands: sigma, rank, abel-ode, hexagonal, config-web, verify-num,
constant, prop7.  Reports are deterministic JSON documents (identical runs
give byte-identical output); exit status is 0 for success/PASS, 1 for a
mathematical FAIL, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .errors import InvalidParameter, PlanarWebError
from .parse import parse_ratfunc


def _emit(report: dict, out_path=None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader has gone: send the rest to devnull so that the flush at
        # interpreter exit stays quiet, and let the command return its status
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _fraction(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def _point(text):
    x, y = text.split(",")
    return (_fraction(x), _fraction(y))


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not positive")
    return value


def _positive_fraction(text):
    value = _fraction(text)
    if value <= 0:
        raise ValueError(f"{text} is not positive")
    return value


def _indices(text):
    indices = [int(s) for s in text.split(",")]
    if min(indices) < 1:
        raise ValueError(f"indices are 1-based, got {text!r}")
    return indices


def _subweb_sizes(text):
    sizes = [int(s) for s in text.split(",")]
    if min(sizes) < 3:
        raise ValueError(f"subweb sizes must be at least 3, got {text!r}")
    return sizes


def cmd_sigma(args) -> int:
    from .web import load_web, singular_locus, verify_sigma_factors

    web = load_web(args.webfile)
    if args.factors is not None:
        cands = []
        for k, text in enumerate(args.factors.split(";"), 1):
            try:
                cands.append(parse_ratfunc(text))
            except PlanarWebError as exc:
                raise InvalidParameter(f"candidate factor {k} {text!r}: {type(exc).__name__}: {exc}") from None
        report = verify_sigma_factors(web, cands)
        _emit(report, args.output)
        return 0 if report["all_divide"] else 1
    locus = singular_locus(web)
    _emit(
        {
            "web": web.name,
            "curve_components": [str(c) for c in locus.curve_components],
            "tangency_components": [str(c) for c in locus.tangency_components],
            "indeterminacy": [
                {"num": n.str_over(d.leading_coeff()), "den": d.str_over(d.leading_coeff())}
                for n, d in locus.indeterminacy_points
            ],
        },
        args.output,
    )
    return 0


def cmd_rank(args) -> int:
    from .jets import abelian_rank, bol_bound, filtration_dims, rank_report
    from .web import DEFAULT_POINT, BasePoint, load_web, pick_generic_point, singular_locus

    web = load_web(args.webfile)
    if args.subwebs and max(args.subwebs) > web.size:
        raise InvalidParameter(f"--subwebs sizes must be at most the web size {web.size}")
    if args.point is None:
        base = pick_generic_point(web, seed=args.seed, preferred=DEFAULT_POINT)
    elif singular_locus(web).vanishes_at(*args.point):
        # an explicit point is not replaced by another one: the locus holds the poles
        raise InvalidParameter(f"--point {args.point[0]},{args.point[1]} lies on the web's singular locus")
    else:
        base = BasePoint(web, args.point)
    stop_rule = {"stabilize": args.stabilize, "max_order": args.max_order}
    rank, basis = abelian_rank(web, base, **stop_rule)
    report = {
        "web": web.name,
        "base_point": [str(base.point[0]), str(base.point[1])],
        "rank": rank,
        "solution_space_with_constants": rank + web.size - 1,
        "stabilized_order": basis.order,
        "bol_bound": bol_bound(web.size),
    }
    if args.filtration:
        report["filtration"] = {str(p): d for p, d in filtration_dims(web, base, **stop_rule).items()}
    if args.subwebs:
        report["subwebs"] = rank_report(web, args.subwebs, base, **stop_rule)["subwebs"]
    _emit(report, args.output)
    return 0


def cmd_abel_ode(args) -> int:
    from .abel import derive_lde
    from .errors import NotPurelyUnivariate, TrivialEquation
    from .web import load_web

    web = load_web(args.webfile)
    if not 1 <= args.target <= web.size:
        raise InvalidParameter(f"--target must be between 1 and {web.size}")
    try:
        ode = derive_lde(web, args.target)
    except TrivialEquation as exc:
        _emit({"web": web.name, "target": args.target, "result": "trivial", "detail": str(exc)}, args.output)
        return 0
    except NotPurelyUnivariate as exc:
        _emit({"web": web.name, "target": args.target, "result": "not-univariate", "detail": str(exc)}, args.output)
        return 1
    report = {
        "web": web.name,
        "target": args.target,
        "order": ode.order,
        "coefficients": ode.coefficient_strings(),
    }
    if args.trace:
        report["trace"] = ode.derivation_trace
    _emit(report, args.output)
    return 0


def cmd_hexagonal(args) -> int:
    from .jets import hexagonality
    from .web import load_web

    report = hexagonality(load_web(args.webfile), base_seed=args.seed)
    _emit(report, args.output)
    return 0 if report["hexagonal"] else 1


def cmd_config_web(args) -> int:
    from .projective import classify_stratum, load_configuration, web_from_configuration
    from .web import web_to_text

    config = load_configuration(args.cfgfile)
    report = {"configuration": config.name, "points": len(config)}
    if args.classify:
        stratum = classify_stratum(config)
        report["stratum"] = stratum.label
        report["collinear_triples"] = stratum.witnesses
        if stratum.pivot:
            report["pivot"] = stratum.pivot
    web = web_from_configuration(config)
    report["web_size"] = web.size
    report["integrals"] = [str(u) for u in web.integrals()]
    if args.web_out:
        with open(args.web_out, "w", encoding="utf-8") as fh:
            fh.write(web_to_text(web))
    _emit(report, args.output)
    return 0


def cmd_verify_num(args) -> int:
    from .hyperlog.verify import load_afe, verify_afe_numeric

    # residuals below 10^-precision are noise, so a tolerance under it is
    # out of reach and a FAIL there would say nothing about the identity.
    # needed is the least n with 10^-n <= tolerance: the digit counts give
    # it or one less
    tol = args.tolerance
    needed = max(0, len(str(tol.denominator)) - len(str(tol.numerator)))
    if tol.numerator * 10**needed < tol.denominator:
        needed += 1
    if args.precision < needed:
        raise InvalidParameter(
            f"verify-num compares at the tolerance {float(tol):g}, so --precision must be "
            f"at least {needed}, got {args.precision}"
        )
    instance = load_afe(args.afefile)
    report = verify_afe_numeric(
        instance,
        samples=args.samples,
        dps=args.precision,
        tolerance=args.tolerance,
        seed=args.seed,
    )
    _emit(report, args.output)
    return 0 if report["pass"] else 1


# `constant` compares samples and candidates at the tolerance 10^-CONSTANT_DIGITS,
# which a lower working precision cannot deliver
CONSTANT_DIGITS = 30


def cmd_constant(args) -> int:
    from .hyperlog.constants import SymConst
    from .hyperlog.verify import constancy_check, load_afe

    if args.precision < CONSTANT_DIGITS:
        raise InvalidParameter(
            f"constant compares at the tolerance 1e-{CONSTANT_DIGITS}, so --precision must be "
            f"at least {CONSTANT_DIGITS}, got {args.precision}"
        )
    instance = load_afe(args.afefile)
    half = Fraction(1, 2)
    candidates = {
        "0": SymConst.rational(0),
        "pi^2/6": SymConst.monomial(pi=2, coeff=Fraction(1, 6)),
        "c21 = pi^2/6 - log^2(2)/2": SymConst.monomial(pi=2, coeff=Fraction(1, 6))
        + SymConst.monomial(log2=2, coeff=-half),
        "-c21": SymConst.monomial(pi=2, coeff=Fraction(-1, 6))
        + SymConst.monomial(log2=2, coeff=half),
    }
    report = constancy_check(
        instance,
        samples=args.samples,
        dps=args.precision,
        candidates=candidates,
        tolerance=Fraction(1, 10**CONSTANT_DIGITS),
        seed=args.seed,
    )
    _emit(report, args.output)
    return 0 if report["matched"] else 1


def cmd_prop7(args) -> int:
    from .projective import Configuration, named_configuration, prop7_check
    from .web import load_web

    web = load_web(args.webfile)
    if args.config in ("b", "q", "c"):
        config = named_configuration(args.config)
    else:
        from .projective import load_configuration

        config = load_configuration(args.config)
    if args.subset:
        if max(args.subset) > len(config):
            raise InvalidParameter(f"--subset indices must be at most {len(config)}")
        config = Configuration(
            [config.points[i - 1] for i in args.subset],
            name=f"{config.name}[{','.join(map(str, args.subset))}]",
        )
    report = prop7_check(web, config)
    _emit(report, args.output)
    return 0 if report["match"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then reused."""
    p = argparse.ArgumentParser(
        prog="planarweb",
        description="exact tools for abelian functional equations and planar webs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--output", "-o", help="also write the JSON report here")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("sigma", help="singular locus of a web")
    sp.add_argument("webfile")
    sp.add_argument("--factors", help="semicolon-separated candidate factors to verify")
    common(sp)
    sp.set_defaults(fn=cmd_sigma)

    sp = sub.add_parser("rank", help="web rank by exact jet linear algebra")
    sp.add_argument("webfile")
    sp.add_argument("--point", type=_point, help="base point 'x,y', off the singular locus")
    sp.add_argument(
        "--max-order",
        type=_positive_int,
        default=None,
        help="highest jet order of every ladder the command climbs, the web's and each "
        "subweb's of --filtration and --subwebs (default N(N-1)/2 + 3 for a ladder of N "
        "foliations)",
    )
    sp.add_argument(
        "--stabilize",
        type=_positive_int,
        default=3,
        help="consecutive equal kernel dimensions that fix a rank (default 3), for every "
        "rank the command reports, the web's and each subweb's of --filtration and --subwebs",
    )
    sp.add_argument("--filtration", action="store_true")
    sp.add_argument("--subwebs", type=_subweb_sizes, help="comma-separated subweb sizes to tabulate")
    common(sp)
    sp.set_defaults(fn=cmd_rank)

    sp = sub.add_parser("abel-ode", help="derive the linear ODE of one component")
    sp.add_argument("webfile")
    sp.add_argument("--target", type=int, required=True)
    sp.add_argument("--trace", action="store_true")
    common(sp)
    sp.set_defaults(fn=cmd_abel_ode)

    sp = sub.add_parser("hexagonal", help="hexagonality via 3-subweb ranks")
    sp.add_argument("webfile")
    common(sp)
    sp.set_defaults(fn=cmd_hexagonal)

    sp = sub.add_parser("config-web", help="web generated by a point configuration")
    sp.add_argument("cfgfile")
    sp.add_argument("--classify", action="store_true")
    sp.add_argument("--web-out", help="write the generated web file here")
    common(sp)
    sp.set_defaults(fn=cmd_config_web)

    sp = sub.add_parser("verify-num", help="numeric verification of an AFE instance")
    sp.add_argument("afefile")
    sp.add_argument("--samples", type=_positive_int, default=20)
    sp.add_argument("--precision", type=_positive_int, default=50)
    sp.add_argument("--tolerance", type=_positive_fraction, default="1e-40")
    common(sp)
    sp.set_defaults(fn=cmd_verify_num)

    sp = sub.add_parser("constant", help="constancy check of an AFE left-hand side")
    sp.add_argument("afefile")
    sp.add_argument("--samples", type=_positive_int, default=12)
    sp.add_argument("--precision", type=_positive_int, default=50)
    common(sp)
    sp.set_defaults(fn=cmd_constant)

    sp = sub.add_parser("prop7", help="Cremona image versus a configuration web")
    sp.add_argument("webfile")
    sp.add_argument("--config", default="q", help="named configuration or a .cfg path")
    sp.add_argument("--subset", type=_indices, help="1-based subset of configuration points")
    common(sp)
    sp.set_defaults(fn=cmd_prop7)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except PlanarWebError as exc:
        _emit({"error": str(exc), "type": type(exc).__name__})
        return 2 if isinstance(exc, InvalidParameter) else 1
    except (OSError, UnicodeDecodeError) as exc:
        # a missing or unreadable input file, a directory, a file not in UTF-8
        _emit({"error": str(exc), "type": "InvalidParameter"})
        return 2


if __name__ == "__main__":
    sys.exit(main())
