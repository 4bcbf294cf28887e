"""The rule registry, executable resource- and population-monotonicity
checks for any registered rule, the scripted counterexample fixture suite
and the recomputed rule-property grid.

Monotonicity comparisons use absolute utilities, one vector per rule run:
enlarging the cake (or an agent leaving) must give every compared agent
weakly more, and the reverse change weakly less.  One vector suffices as
every registered rule is essentially single-valued (one division, or
divisions that all give the one vector the rule certifies).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

from . import rules_classic, rules_monotone
from .cake_measure import (
    CakeError,
    Interval,
    InvariantError,
    Problem,
    Rat,
    append,
    enlargement,
    merge_components,
    problem,
    remove_agent,
    total,
)
from .divisions import (
    ADDITIVE,
    CONNECTED,
    RELATIVE,
    ABSOLUTE,
    Division,
    check_ef,
    check_prop,
    check_po_connected,
    check_wpo_connected,
    greedy_fit,
    nash_product,
    pivot_max,
    utilities,
)
from .rules_monotone import RuleOutput


@dataclass(frozen=True)
class Rule:
    """A registered rule: the utility mode its outputs are valued in, the
    number of agents it requires (None: any), and, for the equitable rules,
    the same rule run in one given agent ordering."""

    name: str
    mode: str
    arity: Optional[int]
    run: Callable[[Problem], RuleOutput]
    for_ordering: Optional[Callable[[Problem, Sequence[str]], RuleOutput]] = None


def _equitable(name: str, mode: str) -> Rule:
    return Rule(name, CONNECTED, None,
                lambda p: rules_monotone.max_equitable(p, mode),
                lambda p, pi: rules_monotone.equitable_for_ordering(
                    p, pi, mode).output(p))


# the lambdas look each rule up at call time, so rebinding a module's
# function (a tracer does) reaches the registered rule too
RULES: dict[str, Rule] = {rule.name: rule for rule in (
    Rule("exact-proportional", CONNECTED, None,
         lambda p: RuleOutput([rules_monotone.exact_proportional(p)])),
    _equitable("relative-equitable", RELATIVE),
    _equitable("absolute-equitable", ABSOLUTE),
    Rule("rightmost-mark", CONNECTED, 2,
         lambda p: RuleOutput([rules_monotone.rightmost_mark_rule(p)])),
    Rule("cut-and-choose", CONNECTED, 2,
         lambda p: RuleOutput([rules_classic.cut_and_choose(p)])),
    Rule("banach-knaster", CONNECTED, None,
         lambda p: RuleOutput([rules_classic.banach_knaster(p)])),
    Rule("dubins-spanier", CONNECTED, None,
         lambda p: RuleOutput([rules_classic.dubins_spanier(p)])),
    Rule("even-paz", CONNECTED, None,
         lambda p: RuleOutput([rules_classic.even_paz(p)])),
    Rule("fink", ADDITIVE, None,
         lambda p: RuleOutput([rules_classic.fink(p)])),
    Rule("selfridge-conway", ADDITIVE, 3,
         lambda p: RuleOutput([rules_classic.selfridge_conway(p)])),
)}


def get_rule(name: str) -> Rule:
    if name not in RULES:
        raise CakeError(f"unknown rule {name!r}")
    return RULES[name]


@dataclass
class MonotonicityVerdict:
    axiom: str
    direction: str
    ok: bool
    agents: tuple[str, ...]
    before: dict[str, Rat]
    after: dict[str, Rat]
    witness_pair: Optional[tuple[Division, Division]] = None


def _run(rule: Rule, p: Problem) -> tuple[Division, dict[str, Rat]]:
    """The rule's first division with its absolute utilities: the output's
    certified vector when it has one (the equitable rules), else its one
    division valued; several divisions and no certified vector raise
    InvariantError, under python -O too."""
    out = rule.run(p)
    if out.utilities is not None:
        return out.divisions[0], out.utilities
    if len(out.divisions) != 1:
        raise InvariantError(f"rule {rule.name!r} returned {len(out.divisions)}"
                             " divisions and no certified utility vector")
    x = out.divisions[0]
    return x, utilities(p, x, rule.mode).absolute


# One-slot memo of the base problem of check_rm and check_pm: [the most
# recent base problem, held strongly so that its id cannot be reused while
# it sits here; each rule's run on it, one division and its utilities
# stored immutably; its most recent enlargement, normalised by
# cake_measure.enlargement into new containers that the caller's lists
# cannot change; append's result on it].  An enlargement is stored only
# once append has built it, so an invalid one raises on every call.
#
# check_rm then check_pm on one problem runs each rule once on it, and
# check_rm of several rules on one problem and an equal enlargement runs
# them all on one enlarged cake, whose densities build their integer
# kernels once.  The memo fills on a property of the calls, not of a
# caller: one that checks several rules on each problem and enlargement
# gains (the bench's monotonicity workload checks 7-9); compute_grid,
# which builds fresh cakes for each rule, and callers that never call
# check_rm gain nothing.
_base: list = [None, {}, None, None]


def _memo(p: Problem) -> list:
    if _base[0] is not p:
        _base[:] = [p, {}, None, None]
    return _base


def _run_base(rule: Rule, p: Problem) -> tuple[Division, Mapping[str, Rat]]:
    runs = _memo(p)[1]
    if rule not in runs:
        x, u = _run(rule, p)
        runs[rule] = x, MappingProxyType(u)
    return runs[rule]


def _enlarged(p: Problem, extra_lengths, extra_rows) -> Problem:
    """append(p, extra_lengths, extra_rows), the memo's problem when the
    enlargement equals p's most recent one."""
    memo = _memo(p)
    extra = enlargement(p, extra_lengths, extra_rows)
    if memo[2] != extra:
        memo[2:] = [extra, append(p, *extra)]
    return memo[3]


def _verdict(axiom, direction, agents, base, other, sign) -> MonotonicityVerdict:
    """pass iff the other run is weakly better (sign=+1) or weakly worse
    (sign=-1) than the base run for every compared agent; the two runs'
    divisions are the witness pair."""
    (xb, ub), (xo, uo) = base, other
    if sign > 0:
        ok = all(uo[a] >= ub[a] for a in agents)
    else:
        ok = all(uo[a] <= ub[a] for a in agents)
    return MonotonicityVerdict(axiom, direction, ok, agents, dict(ub),
                               dict(uo), (xb, xo))


def check_rm(name: str, p: Problem, extra_lengths,
             extra_rows) -> list[MonotonicityVerdict]:
    """Resource-monotonicity of the registered rule name, both directions,
    for a right-append enlargement; the base run and the enlarged cake come
    from the one-slot memo (_base) when it holds them."""
    rule = get_rule(name)
    big = _enlarged(p, extra_lengths, extra_rows)
    small_out = _run_base(rule, p)
    # an empty enlargement returns p itself
    big_out = small_out if big is p else _run(rule, big)
    return [
        _verdict("RM", "upwards", p.agents, small_out, big_out, +1),
        _verdict("RM", "downwards", p.agents, big_out, small_out, -1),
    ]


def check_pm(name: str, p: Problem, leaving: str) -> list[MonotonicityVerdict]:
    """Population-monotonicity of the registered rule name, both
    directions, for one agent leaving."""
    rule = get_rule(name)
    reduced = remove_agent(p, leaving)
    full_out = _run_base(rule, p)
    red_out = _run(rule, reduced)
    agents = reduced.agents
    return [
        _verdict("PM", "downwards", agents, full_out, red_out, +1),
        _verdict("PM", "upwards", agents, red_out, full_out, -1),
    ]


# ---------------------------------------------------------------------------
# Scripted fixture suite


@dataclass
class Claim:
    name: str
    ok: bool
    expected: str
    got: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.name}: {status} expected={self.expected} got={self.got}"


def _claim(claims: list[Claim], name: str, expected, got) -> None:
    claims.append(Claim(name, expected == got, str(expected), str(got)))


def _tup(*vals) -> str:
    return "(" + ", ".join(str(v) for v in vals) + ")"


def _iv(lo, hi) -> Interval:
    return Interval(Fraction(lo), Fraction(hi))


# paper counterexample cakes (unit slices unless noted)

def cake_two_agent_halves() -> Problem:
    # the cut-and-choose enlargement pair's smaller cake
    return problem(["A", "B"], [1, 1, 1, 1], [[1, 1, 1, 1], [1, 1, 3, 3]])


CC_EXTRA = ([1], {"A": [2], "B": [2]})


def cake_trimming_three() -> Problem:
    return problem(["A", "B", "C"], [1] * 6,
                   [[4, 2, 2, 4, 4, 2], [5, 2, 3, 4, 1, 1], [1, 2, 4, 4, 1, 1]])


SC_EXTRA = ([1], {"A": [6], "B": [1], "C": [1]})


def cake_sweep_three() -> Problem:
    return problem(["A", "B", "C"], [1] * 6,
                   [[20, 1, 1, 1, 10, 27], [1, 20, 10, 28, 1, 1],
                    [1, 1, 18, 10, 29, 1]])


def cake_join_order() -> Problem:
    return problem(["A", "B", "C"], [1] * 7,
                   [[2, 2, 2, 2, 1, 1, 2], [0, 0, 0, 4, 2, 2, 4],
                    [0, 0, 0, 2, 1, 1, 2]])


def cake_forced_pair() -> Problem:
    return problem(["A", "B"], [1] * 4, [[6, 0, 1, 1], [0, 4, 2, 2]])


FORCED_EXTRA = ([1], {"A": [6], "B": [0]})


def cake_no_po_ef() -> Problem:
    return problem(["A", "B", "C"], [1] * 7,
                   [[2, 0, 3, 0, 2, 0, 0], [0, 0, 0, 0, 0, 7, 0],
                    [0, 2, 0, 2, 0, 0, 3]])


def cake_nash() -> Problem:
    return problem(["A", "B"], [1] * 6, [[2] * 6, [1, 1, 4, 4, 1, 1]])


def cake_equitable_drop() -> Problem:
    m = 10
    return problem(["A", "B"], [1] * 4, [[m, m, 1, 1], [1, 1, m, m]])


EQ_DROP_EXTRA = ([1, 1], {"A": [10, 10], "B": [1, 1]})


def cake_prefix_greedy() -> Problem:
    return problem(["A", "B", "C"], [1] * 6,
                   [[2, 0, 0, 0, 0, 4], [2, 3, 1, 1, 5, 0], [2, 3, 1, 1, 5, 0]])


def cake_crumbs() -> Problem:
    return problem(["A", "B"], [1] * 4,
                   [[0, 3, 2, 1], [2, 1, 2, Fraction(11, 10)]])


def cake_splitter_three() -> Problem:
    return problem(["A", "B", "C"], [1] * 6,
                   [[3, 1, 3, 1, 2, 2], [1, 3, 1, 3, 1, 2], [4, 0, 0, 0, 0, 3]])


def cake_opposed_pair() -> Problem:
    return problem(["A", "B"], [1, 1], [[2, 0], [0, 2]])


def _fx_noop() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_two_agent_halves()
    verdicts = check_rm("cut-and-choose", p, [], {})
    _claim(claims, "noop/rm-identical", True, all(v.ok for v in verdicts))
    return claims


def _fx_cc_rm() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_two_agent_halves()
    up, _down = check_rm("cut-and-choose", p, *CC_EXTRA)
    _claim(claims, "cc-rm/bob-before", Fraction(6), up.before["B"])
    _claim(claims, "cc-rm/bob-after", Fraction(5), up.after["B"])
    _claim(claims, "cc-rm/verdict", False, up.ok)
    return claims


def _fx_sc_rm() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_trimming_three()
    up, _down = check_rm("selfridge-conway", p, *SC_EXTRA)
    _claim(claims, "sc-rm/carl-before", Fraction(8), up.before["C"])
    _claim(claims, "sc-rm/carl-after-at-most-7", True, up.after["C"] <= 7)
    _claim(claims, "sc-rm/carl-after-below-8", True, up.after["C"] < 8)
    _claim(claims, "sc-rm/verdict", False, up.ok)
    return claims


def _fx_ds_pm() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_sweep_three()
    downs = {name: check_pm(name, p, "B")[0]
             for name in ("dubins-spanier", "even-paz", "banach-knaster")}
    for name, down in downs.items():
        _claim(claims, f"ds-pm/{name}-full", "(20, 30, 40)",
               _tup(*(down.before[a] for a in p.agents)))
        _claim(claims, f"ds-pm/{name}-carl-after", Fraction(30),
               down.after["C"])
    _claim(claims, "ds-pm/verdict", False, downs["dubins-spanier"].ok)
    return claims


def _fx_fink_pm() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_join_order()
    down, _up = check_pm("fink", p, "A")
    _claim(claims, "fink-pm/bob-before", Fraction(8), down.before["B"])
    _claim(claims, "fink-pm/bob-after", Fraction(6), down.after["B"])
    _claim(claims, "fink-pm/verdict", False, down.ok)
    return claims


def _fx_thm1() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_forced_pair()
    share = {a: total(p.density(a)) / 2 for a in p.agents}
    _claim(claims, "thm1/alice-max-given-prop", Fraction(6),
           pivot_max(p, "A", {"B": share["B"]}))
    _claim(claims, "thm1/bob-max-given-prop", Fraction(8),
           pivot_max(p, "B", {"A": share["A"]}))
    big = append(p, *FORCED_EXTRA)
    _claim(claims, "thm1/bob-max-given-alice-7", Fraction(6),
           pivot_max(big, "B", {"A": Fraction(7)}))
    _claim(claims, "thm1/greedy-7-7-infeasible", None,
           greedy_fit(big, big.agents, {"A": Fraction(7), "B": Fraction(7)}))
    return claims


def _fx_thm2() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_no_po_ef()
    division = Division.of({"A": [_iv(0, 5)], "B": [_iv(5, 6)], "C": [_iv(6, 7)]})
    _claim(claims, "thm2/carl-envies-alice", False, check_ef(p, division))
    _claim(claims, "thm2/alice-max-given-carl", Fraction(5),
           pivot_max(remove_agent(p, "B"), "A", {"C": Fraction(7, 2)}))
    return claims


def _fx_nash() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_nash()
    bps = p.grid.breakpoints
    best = Fraction(0)
    for cut in bps:
        for pieces in ({"A": [_iv(0, cut)], "B": [_iv(cut, 6)]},
                       {"B": [_iv(0, cut)], "A": [_iv(cut, 6)]}):
            x = Division.of(pieces)
            if check_prop(p, x):
                best = max(best, nash_product(p, x))
    _claim(claims, "nash/best-proportional-product", Fraction(36), best)
    lopsided = Division.of({"A": [_iv(0, 2)], "B": [_iv(2, 6)]})
    _claim(claims, "nash/lopsided-product", Fraction(40), nash_product(p, lopsided))
    return claims


def _fx_eq_not_rm() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_equitable_drop()
    big = append(p, *EQ_DROP_EXTRA)
    rule = get_rule("relative-equitable")
    small_rel, big_rel = rule.run(p), rule.run(big)
    _claim(claims, "eq-not-rm/small-value", Fraction(10, 11), small_rel.value)
    _claim(claims, "eq-not-rm/big-value", Fraction(1, 2), big_rel.value)
    u_small = utilities(p, small_rel.divisions[0], rule.mode).absolute
    _claim(claims, "eq-not-rm/bob-before", Fraction(20), u_small["B"])
    after = {utilities(big, x, rule.mode).absolute["B"]
             for x in big_rel.divisions}
    _claim(claims, "eq-not-rm/bob-after", {Fraction(12)}, after)
    up, _down = check_rm(rule.name, p, *EQ_DROP_EXTRA)
    _claim(claims, "eq-not-rm/relative-verdict", False, up.ok)
    verdicts = check_rm("absolute-equitable", p, *EQ_DROP_EXTRA)
    _claim(claims, "eq-not-rm/absolute-verdict", True,
           all(v.ok for v in verdicts))
    return claims


def _fx_prefix_wpo() -> list[Claim]:
    claims: list[Claim] = []
    p = cake_prefix_greedy()
    for name in ("banach-knaster", "dubins-spanier", "even-paz"):
        rule = get_rule(name)
        x, u = _run(rule, p)
        _claim(claims, f"classic-wpo/{name}-utilities", "(2, 5, 5)",
               _tup(u["A"], u["B"], u["C"]))
        result = check_wpo_connected(p, x)
        _claim(claims, f"classic-wpo/{name}-wpo", False, result.ok)
        wu = result.witness_utilities.absolute
        _claim(claims, f"classic-wpo/{name}-witness-dominates", True,
               all(wu[a] > u[a] for a in p.agents))
    witness = Division.of({"A": [_iv(5, 6)], "B": [_iv(0, 3)], "C": [_iv(3, 5)]})
    wu = utilities(p, witness).absolute
    _claim(claims, "classic-wpo/paper-witness", "(4, 6, 6)",
           _tup(wu["A"], wu["B"], wu["C"]))
    return claims


def _witness_claims(tag: str, p: Problem, name: str, output: str,
                    witness: Division, witness_values: str) -> list[Claim]:
    """The rule's utilities, a hand-made witness's utilities, and that the
    witness is strictly better for every agent."""
    claims: list[Claim] = []
    rule = get_rule(name)
    _, u = _run(rule, p)
    _claim(claims, f"{tag}/output", output, _tup(*(u[a] for a in p.agents)))
    wu = utilities(p, witness, rule.mode).absolute
    _claim(claims, f"{tag}/witness", witness_values,
           _tup(*(wu[a] for a in p.agents)))
    _claim(claims, f"{tag}/witness-dominates", True,
           all(wu[a] > u[a] for a in p.agents))
    return claims


def _fx_crumbs_wpo() -> list[Claim]:
    witness = Division.of({"A": [_iv(1, 2), _iv(3, 4)],
                           "B": [_iv(0, 1), _iv(2, 3)]})
    return _witness_claims("crumbs-wpo", cake_crumbs(), "fink", "(3, 31/10)",
                           witness, "(4, 4)")


def _fx_splitter_wpo() -> list[Claim]:
    witness = Division.of({"A": [_iv(2, 3), _iv(4, 5)],
                           "B": [_iv(1, 2), _iv(3, 4)],
                           "C": [_iv(0, 1), _iv(5, 6)]})
    return _witness_claims("splitter-wpo", cake_splitter_three(),
                           "selfridge-conway", "(4, 4, 4)", witness,
                           "(5, 6, 7)")


# rule-property grid: recomputed entries for the four monotone rules

def cake_prefix_envy() -> Problem:
    # exact-proportional gives A a prefix that B and C value higher
    return problem(["A", "B", "C"], [1] * 3,
                   [[3, 0, 0], [1, 1, 1], [1, 1, 1]])


def cake_skewed_totals() -> Problem:
    # absolute-equitable output is neither proportional nor envy-free here
    return problem(["A", "B"], [1, 1], [[1, 0], [0, 10]])


def cake_eq_envy() -> Problem:
    # max-relative-equitable output: C values A's piece at 3/5 > 2/5
    return problem(["A", "B", "C"], [1] * 3,
                   [[1, 0, 2], [0, 1, 0], [0, 0, 1]])


def cake_mirrored_gap() -> Problem:
    return problem(["A", "B"], [1] * 3, [[1, 0, 1], [0, 1, 0]])


def cake_reversed_gap() -> Problem:
    return problem(["A", "B"], [1, 1], [[0, 1], [1, 0]])


def cake_flat_vs_skewed() -> Problem:
    return problem(["A", "B"], [1, 1], [[1, 0], [10, 10]])


GRID_CORPUS = (cake_two_agent_halves, cake_equitable_drop, cake_opposed_pair,
               cake_sweep_three, cake_prefix_greedy)

# column: (check on one output, the entry when every output passes); the
# lambdas look the checkers up at call time, like the rule registry
GRID_CHECKS = {
    "CON": (lambda p, x: all(len(merge_components(x.piece(a))) <= 1
                             for a in p.agents), "Yes"),
    "EF": (lambda p, x: check_ef(p, x), "Yes"),
    "PROP": (lambda p, x: check_prop(p, x), "Yes"),
    "PO": (lambda p, x: check_po_connected(p, x).ok, "Yes"),
    "WPO": (lambda p, x: check_wpo_connected(p, x).ok, "Y.c.u."),
}

# (rule, column): a cake on which the rule's output fails the column
GRID_COUNTEREXAMPLES = {
    ("exact-proportional", "EF"): cake_prefix_envy,
    ("exact-proportional", "PO"): cake_opposed_pair,
    ("exact-proportional", "WPO"): cake_opposed_pair,
    ("absolute-equitable", "EF"): cake_skewed_totals,
    ("absolute-equitable", "PROP"): cake_skewed_totals,
    ("absolute-equitable", "PO"): cake_flat_vs_skewed,
    ("relative-equitable", "EF"): cake_eq_envy,
    ("relative-equitable", "PO"): cake_mirrored_gap,
    ("rightmost-mark", "PO"): cake_reversed_gap,
}


def _rm_entry(rule: Rule) -> str:
    pairs = [(cake_two_agent_halves(), CC_EXTRA), (cake_equitable_drop(), EQ_DROP_EXTRA)]
    if rule.arity is None:
        pairs.append((cake_sweep_three(), ([1], {"A": [3], "B": [0], "C": [5]})))
    ok = all(v.ok for p, extra in pairs for v in check_rm(rule.name, p, *extra))
    return "Yes" if ok else "No"


def _pm_entry(rule: Rule) -> str:
    cases = [(cake_sweep_three(), "B"), (cake_join_order(), "A"),
             (cake_two_agent_halves(), "A")]
    cases = [(p, a) for p, a in cases if rule.arity is None or p.n == rule.arity]
    try:
        ok = all(v.ok for p, a in cases for v in check_pm(rule.name, p, a))
    except CakeError:
        # the reduced problem leaves the rule's domain
        return "No"
    return "Yes" if ok else "No"


GRID_EXPECTED = {
    "exact-proportional": dict(CON="Yes", EF="No", PROP="Yes", PO="No",
                               WPO="No", RM="Yes", PM="Yes"),
    "absolute-equitable": dict(CON="Yes", EF="No", PROP="No", PO="No",
                               WPO="Y.c.u.", RM="Yes", PM="Yes"),
    "relative-equitable": dict(CON="Yes", EF="No", PROP="Yes", PO="No",
                               WPO="Y.c.u.", RM="No", PM="Yes"),
    "rightmost-mark": dict(CON="Yes", EF="Yes", PROP="Yes", PO="No",
                           WPO="Y.c.u.", RM="Yes", PM="No"),
}


def compute_grid() -> dict[str, dict[str, str]]:
    """Each GRID_CHECKS column reads "No" when some output fails its check,
    on the rule's counterexample cake for the column (checked first) or on
    a GRID_CORPUS cake in the rule's domain; the rule runs once per cake."""
    grid = {}
    for name in GRID_EXPECTED:
        rule = get_rule(name)
        runs = {}
        for cake in dict.fromkeys(GRID_CORPUS + tuple(
                cx for (r, _), cx in GRID_COUNTEREXAMPLES.items() if r == name)):
            p = cake()
            if rule.arity in (None, p.n):
                runs[cake] = (p, rule.run(p).divisions)
        corpus = [runs[c] for c in GRID_CORPUS if c in runs]
        row = {}
        for column, (check, yes) in GRID_CHECKS.items():
            cx = GRID_COUNTEREXAMPLES.get((name, column))
            cases = [runs[cx]] + corpus if cx else corpus
            ok = all(check(p, x) for p, xs in cases for x in xs)
            row[column] = yes if ok else "No"
        grid[name] = dict(row, RM=_rm_entry(rule), PM=_pm_entry(rule))
    return grid


def _fx_table1() -> list[Claim]:
    claims: list[Claim] = []
    grid = compute_grid()
    for name, row in GRID_EXPECTED.items():
        for prop, expected in row.items():
            _claim(claims, f"table1/{name}/{prop}", expected, grid[name][prop])
    return claims


FIXTURES: dict[str, Callable[[], list[Claim]]] = {
    "noop": _fx_noop,
    "cc-rm": _fx_cc_rm,
    "sc-rm": _fx_sc_rm,
    "ds-pm": _fx_ds_pm,
    "fink-pm": _fx_fink_pm,
    "thm1": _fx_thm1,
    "thm2": _fx_thm2,
    "nash-connected": _fx_nash,
    "eq-not-rm": _fx_eq_not_rm,
    "classic-wpo": _fx_prefix_wpo,
    "crumbs-wpo": _fx_crumbs_wpo,
    "splitter-wpo": _fx_splitter_wpo,
    "table1": _fx_table1,
}


def run_fixture(name: str) -> list[Claim]:
    if name not in FIXTURES:
        raise CakeError(f"unknown fixture {name!r}")
    return FIXTURES[name]()


def run_all_fixtures() -> list[Claim]:
    claims = []
    for name in FIXTURES:
        claims.extend(run_fixture(name))
    return claims
