"""Command-line interface: run division rules, check axioms on division
files, run monotonicity experiments, and reproduce the fixture tables.

All human-readable numbers are exact rationals ("p/q"); --decimal N switches
the display to N decimal places without affecting any comparison.  Exit
codes: 0 success/PASS, 1 axiom or fixture FAIL, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from .cake_measure import (
    CakeError,
    Problem,
    enlargement_from_json,
    problem_from_json,
)
from .divisions import (
    ABSOLUTE,
    ADDITIVE,
    CONNECTED,
    RELATIVE,
    Division,
    check_ef,
    check_equitable,
    check_po_connected,
    check_prop,
    check_wpo_connected,
    division_from_json,
    division_to_json,
    utilities,
)
from .monotonicity_harness import (
    FIXTURES,
    check_pm,
    check_rm,
    get_rule,
    run_fixture,
)
from .rules_monotone import max_equitable


def _fmt(x: Fraction, places: Optional[int]) -> str:
    if places is None:
        return str(x)
    with localcontext() as ctx:
        ctx.prec = places + 25
        d = Decimal(x.numerator) / Decimal(x.denominator)
        return f"{d:.{places}f}"


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CakeError(f"cannot read {path}: {e}") from e


def _load_problem(path: str) -> Problem:
    return problem_from_json(_load_json(path))


def _print_utilities(p: Problem, x: Division, mode: str, places) -> None:
    u = utilities(p, x, mode)
    for a in p.agents:
        print(f"agent {a}: absolute {_fmt(u.absolute[a], places)} "
              f"relative {_fmt(u.relative[a], places)}")


def _cmd_divide(args) -> int:
    p = _load_problem(args.problem)
    rule = get_rule(args.rule)
    if not args.ordering:
        out = rule.run(p)
    elif rule.for_ordering is None:
        raise CakeError("--ordering applies only to the equitable rules")
    else:
        out = rule.for_ordering(p, args.ordering.split(","))
    print(f"rule: {rule.name}")
    if args.ordering:
        print(f"ordering: {args.ordering}")
    if out.value is not None:
        print(f"value: {_fmt(out.value, args.decimal)}")
    if out.orderings is not None:
        print(f"orderings: {' '.join(','.join(pi) for pi in out.orderings)}")
    x = out.divisions[0]
    _print_utilities(p, x, rule.mode, args.decimal)
    payload = json.dumps(division_to_json(x))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(payload + "\n")
        except OSError as e:
            raise CakeError(f"cannot write {args.output}: {e}") from e
    else:
        print(f"division: {payload}")
    return 0


PROPERTIES = ("prop", "ef", "equitable", "wpo", "po")


def _cmd_check(args) -> int:
    p = _load_problem(args.problem)
    x = division_from_json(_load_json(args.division))
    props = args.properties.split(",")
    for name in props:
        if name not in PROPERTIES:
            raise CakeError(f"unknown property {name!r}")
    mode = args.utility_mode
    if mode != CONNECTED and {"wpo", "po"} & set(props):
        raise CakeError("wpo and po are checked over connected partitions "
                        "only; use --utility-mode connected")
    # one valuation of x, read by every check; like each check, it
    # validates x before any verdict is printed
    u = utilities(p, x, mode)
    failed = False
    for name in props:
        if name == "prop":
            ok, detail = check_prop(p, x, mode, u), ""
        elif name == "ef":
            ok, detail = check_ef(p, x, mode, u), ""
        elif name == "equitable":
            ok, stats = check_equitable(p, x, args.value_mode, mode, u)
            detail = (f" v_min={_fmt(stats.v_min, args.decimal)}"
                      f" v_max={_fmt(stats.v_max, args.decimal)}")
        else:
            result = (check_wpo_connected if name == "wpo"
                      else check_po_connected)(p, x, u)
            ok = result.ok
            detail = ""
            if not ok:
                wu = result.witness_utilities.absolute
                detail = " witness " + " ".join(
                    f"{a}={_fmt(wu[a], args.decimal)}" for a in p.agents)
        failed |= not ok
        print(f"{name}: {'PASS' if ok else 'FAIL'}{detail}")
    return 1 if failed else 0


def _cmd_monotonicity(args) -> int:
    p = _load_problem(args.problem)
    if args.axiom == "rm":
        if not args.enlargement:
            raise CakeError("rm requires --enlargement")
        lengths, rows = enlargement_from_json(_load_json(args.enlargement))
        verdicts = check_rm(args.rule, p, lengths, rows)
    else:
        if not args.remove:
            raise CakeError("pm requires --remove")
        verdicts = check_pm(args.rule, p, args.remove)
    failed = False
    for v in verdicts:
        failed |= not v.ok
        before = " ".join(f"{a}={_fmt(v.before[a], args.decimal)}"
                          for a in v.agents)
        after = " ".join(f"{a}={_fmt(v.after[a], args.decimal)}"
                         for a in v.agents)
        print(f"{v.axiom} {v.direction}: {'PASS' if v.ok else 'FAIL'} "
              f"before[{before}] after[{after}]")
    return 1 if failed else 0


def _cmd_max_equitable(args) -> int:
    p = _load_problem(args.problem)
    out = max_equitable(p, args.mode)
    print(f"mode: {args.mode}")
    print(f"value: {_fmt(out.value, args.decimal)}")
    for pi, x in zip(out.orderings, out.divisions):
        print(f"ordering {','.join(pi)}: {json.dumps(division_to_json(x))}")
    _print_utilities(p, out.divisions[0], CONNECTED, args.decimal)
    return 0


def _cmd_paper_tables(args) -> int:
    names = [args.only] if args.only else list(FIXTURES)
    failed = False
    for name in names:
        for claim in run_fixture(name):
            failed |= not claim.ok
            print(claim.line())
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: parse_args leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="cakecut",
        description="Exact connected fair cake-cutting: rules, axiom "
                    "checks, and monotonicity experiments.")
    parser.add_argument("--decimal", type=int, metavar="N", default=None,
                        help="display rationals with N decimal places "
                             "(display only)")
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("divide", help="run a division rule on a problem file")
    d.add_argument("--rule", required=True)
    d.add_argument("--problem", required=True)
    d.add_argument("--ordering", help="agent ordering for the equitable "
                                      "rules, e.g. A,B,C")
    d.add_argument("--output", help="write the division file here instead "
                                    "of stdout")
    d.set_defaults(func=_cmd_divide)

    c = sub.add_parser("check", help="check axioms on a division file")
    c.add_argument("--problem", required=True)
    c.add_argument("--division", required=True)
    c.add_argument("--properties", required=True,
                   help="comma list of " + ",".join(PROPERTIES))
    c.add_argument("--utility-mode", choices=(CONNECTED, ADDITIVE),
                   default=CONNECTED)
    c.add_argument("--value-mode", choices=(RELATIVE, ABSOLUTE),
                   default=RELATIVE, help="value scale for the equitable check")
    c.set_defaults(func=_cmd_check)

    m = sub.add_parser("monotonicity",
                       help="resource/population monotonicity experiment")
    m.add_argument("axiom", choices=("rm", "pm"))
    m.add_argument("--rule", required=True)
    m.add_argument("--problem", required=True)
    m.add_argument("--enlargement", help="enlargement file (rm)")
    m.add_argument("--remove", help="leaving agent (pm)")
    m.set_defaults(func=_cmd_monotonicity)

    e = sub.add_parser("max-equitable",
                       help="maximum equitable value over all orderings")
    e.add_argument("--problem", required=True)
    e.add_argument("--mode", choices=(RELATIVE, ABSOLUTE), required=True)
    e.set_defaults(func=_cmd_max_equitable)

    t = sub.add_parser("paper-tables",
                       help="run the scripted fixture suite")
    t.add_argument("--only", help="run a single fixture by name")
    t.set_defaults(func=_cmd_paper_tables)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.decimal is not None and args.decimal < 0:
            raise CakeError("--decimal must be nonnegative")
        return args.func(args)
    except CakeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
