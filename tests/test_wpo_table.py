"""Differential tests of the subset-DP table that decides weak Pareto
optimality.

check_wpo_connected runs one _mark_table of strict maximal marks at the
base utilities.  Its verdicts are compared with a sweep of every ordering
(enumerated_wpo) on tie-heavy and zero-stretch cakes at n = 2..6, on the
outputs of the monotone and the classic rules, and on hand-built edge
cases.  On FAIL the reported ordering must have positive max_slack and the
witness must be its half-slack greedy partition
(assert_wpo_matches_enumerator)."""

import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations

import pytest

from cakecut.cake_measure import (
    Interval,
    maximal_mark,
    problem,
    value,
)
from cakecut.divisions import (
    ABSOLUTE,
    RELATIVE,
    Division,
    _mark_table,
    check_wpo_connected,
    utilities,
)
from cakecut.rules_classic import (
    banach_knaster,
    cut_and_choose,
    dubins_spanier,
    even_paz,
)
from cakecut.rules_monotone import exact_proportional, max_equitable

from test_pruned_search import (
    SEED,
    _tie_heavy_problem,
    assert_wpo_matches_enumerator,
    mark_chain,
)

SIZES = range(2, 7)


def _zero_stretch_problem(rng, n):
    """n agents on 8 slices, densities 0..9, each agent with a zero stretch
    of 2 or 3 slices, so marks jump across stretches and pieces may end on
    them."""
    k = 8
    lengths = [rng.choice([F(1), F(1, 2), F(2), F(3, 2)]) for _ in range(k)]
    rows = []
    for _ in range(n):
        row = [F(rng.randint(0, 9)) for _ in range(k)]
        run = rng.randint(2, 3)
        start = rng.randrange(k - run + 1)
        row[start:start + run] = [F(0)] * run
        if not any(row):
            row[start - 1 if start else start + run] = F(1)
        rows.append(row)
    return problem("ABCDEF"[:n], lengths, rows)


@lru_cache(maxsize=None)
def cakes():
    rng = random.Random(SEED + 5)
    return [(f"{kind}-n{n}-{i}", make(rng, n)) for n in SIZES for i in range(4)
            for kind, make in (("tie-heavy", _tie_heavy_problem),
                               ("zero-stretch", _zero_stretch_problem))]


def rule_outputs(p):
    """(rule, division): the first output of each equitable mode, and the
    divisions of exact-proportional, the classic protocols and, at n = 2,
    cut-and-choose."""
    for mode in (RELATIVE, ABSOLUTE):
        yield f"{mode}-equitable", max_equitable(p, mode).divisions[0]
    yield "exact-proportional", exact_proportional(p)
    yield "dubins-spanier", dubins_spanier(p)
    yield "even-paz", even_paz(p)
    yield "banach-knaster", banach_knaster(p)
    if p.n == 2:
        yield "cut-and-choose", cut_and_choose(p)


@pytest.mark.parametrize("index", range(8 * len(SIZES)),
                         ids=[name for name, _ in cakes()])
def test_wpo_matches_enumerator_on_rule_outputs(index):
    _, p = cakes()[index]
    for _, x in rule_outputs(p):
        assert_wpo_matches_enumerator(p, x)


def test_rule_outputs_reach_both_wpo_verdicts():
    verdicts = {}
    for _, p in cakes():
        for rule, x in rule_outputs(p):
            verdicts.setdefault(rule, set()).add(check_wpo_connected(p, x).ok)
    assert set().union(*verdicts.values()) == {True, False}
    # the equitable rules are WPO on every cake
    assert verdicts["relative-equitable"] == verdicts["absolute-equitable"] \
        == {True}


def strict_maximal_mark(d, start, target, end):
    """The WPO table's step: the maximal mark worth target from start, or
    None unless the value of [start, end] exceeds target."""
    if value(d, Interval(start, end)) <= target:
        return None
    return maximal_mark(d, start, target)


@pytest.mark.parametrize("index", range(8 * len(SIZES)),
                         ids=[name for name, _ in cakes()])
def test_wpo_table_entries_are_the_leftmost_strict_chain_ends(index):
    """Every entry S of the WPO table is the leftmost end over the orders
    of S of the strict maximal-mark chain (the test's mark_chain on
    strict_maximal_mark) at the base utilities, and None when no order
    completes that chain."""
    _, p = cakes()[index]
    c = p.cake_length

    def step(d, x, t):
        return strict_maximal_mark(d, x, t, c)

    for _, x in rule_outputs(p):
        base = utilities(p, x).absolute
        table = _mark_table(p.densities,
                            [(base[a].numerator, base[a].denominator)
                             for a in p.agents], (0, 1), 1, full=True,
                            strict=True)
        for s, entry in enumerate(table[1:], 1):
            members = [a for i, a in enumerate(p.agents) if s >> i & 1]
            ends = [marks[-1] for order in permutations(members) if (
                marks := mark_chain(step, [p.density(a) for a in order],
                                    [base[a] for a in order], F(0)))]
            if entry is None:
                assert not ends
            else:
                xn, xd, _ = entry
                assert min(ends) == F(xn, xd)


def iv(lo, hi):
    return Interval(F(lo), F(hi))


def two_sided():
    return problem(["A", "B"], [1, 1, 1], [[3, 1, 0], [0, 1, 3]])


EDGE_CASES = {
    # B's zero base: A keeps the whole cake, which it values in full
    "zero-base-wpo": (two_sided(),
                      Division.of({"A": [iv(0, 3)], "B": []}), True),
    # B's zero base: A keeps [0, 2] of a cake it values to the end
    "zero-base-not-wpo": (problem(["A", "B"], [1, 1, 1],
                                  [[1, 1, 1], [0, 1, 3]]),
                          Division.of({"A": [iv(0, 2)], "B": []}), False),
    # A's base is its total, so A cannot gain
    "base-equals-total": (two_sided(),
                          Division.of({"A": [iv(0, 2)], "B": [iv(2, 3)]}),
                          True),
    # [5/2, 3] is left unassigned, and both value the cake's right end
    "unassigned-tail": (problem(["A", "B"], [1, 1, 1],
                                [[1, 1, 1], [1, 1, 1]]),
                        Division.of({"A": [iv(0, 1)], "B": [iv(1, F(5, 2))]}),
                        False),
    # [5/2, 3] is left unassigned, but A holds its total
    "unassigned-tail-wpo": (problem(["A", "B"], [1, 1, 1],
                                    [[1, 0, 0], [0, 1, 1]]),
                            Division.of({"A": [iv(0, 1)],
                                         "B": [iv(1, F(5, 2))]}),
                            True),
    # C holds its whole total; A and B could gain, but not with C
    "one-agent-at-total": (problem(["A", "B", "C"], [1, 1, 1, 1],
                                   [[1, 1, 1, 1], [1, 1, 1, 1],
                                    [0, 0, 0, 5]]),
                           Division.of({"A": [iv(0, 1)], "B": [iv(1, 2)],
                                        "C": [iv(3, 4)]}), True),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_wpo_edge_cases(name):
    p, x, wpo = EDGE_CASES[name]
    assert assert_wpo_matches_enumerator(p, x) is wpo

