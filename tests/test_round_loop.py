"""Differential test of the shared lowest-mark round loop: exact_proportional
and dubins_spanier both run rules_classic.lowest_mark_rounds; the oracles
below are the two loops as each rule wrote it out on its own.  Both must give
an equal Division on the zero-stretch corpus and on cakes of identical rows,
where every round's marks tie and the lowest agent index decides."""

from fractions import Fraction as F

import pytest

from cakecut.cake_measure import Interval, leftmost_mark, problem, total, value
from cakecut.divisions import Division
from cakecut.rules_classic import dubins_spanier
from cakecut.rules_monotone import exact_proportional

from test_pruned_search import corpus


def oracle_exact_proportional(p):
    """Rounds of prefixes worth V_i/n; the tail is discarded."""
    start = F(0)
    remaining = list(p.agents)
    pieces = {}
    while remaining:
        marks = []
        for a in remaining:
            d = p.density(a)
            marks.append((leftmost_mark(d, start, total(d) / p.n),
                          p.index(a), a))
        y, _, winner = min(marks)
        pieces[winner] = [Interval(start, y)]
        start = y
        remaining.remove(winner)
    return Division.of(pieces)


def oracle_dubins_spanier(p):
    """Rounds of prefixes worth 1/m of the remaining cake; the last agent
    takes the rest."""
    s = F(0)
    c = p.cake_length
    pieces = {}
    remaining = list(p.agents)
    while len(remaining) > 1:
        m = len(remaining)
        stops = []
        for a in remaining:
            d = p.density(a)
            stops.append((leftmost_mark(d, s, value(d, Interval(s, c)) / m),
                          p.index(a), a))
        y, _, winner = min(stops)
        pieces[winner] = [Interval(s, y)]
        s = y
        remaining.remove(winner)
    pieces[remaining[0]] = [Interval(s, c)]
    return Division.of(pieces)


def identical_rows(n):
    """n agents with the same densities, listed out of name order, so that
    the lowest index, not the name, must break every tie."""
    row = [3, 0, 1, 2, 0, 4]
    return problem("EDCBA"[:n], [1, F(1, 2), 2, 1, 1, F(3, 2)], [row] * n)


CASES = [(exact_proportional, oracle_exact_proportional),
         (dubins_spanier, oracle_dubins_spanier)]


@pytest.mark.parametrize("rule, oracle", CASES,
                         ids=["exact-proportional", "dubins-spanier"])
def test_round_loop_matches_oracle_on_corpus(rule, oracle):
    mismatches = [i for i, p in enumerate(corpus()) if rule(p) != oracle(p)]
    assert mismatches == []


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("rule, oracle", CASES,
                         ids=["exact-proportional", "dubins-spanier"])
def test_round_loop_matches_oracle_when_every_mark_ties(rule, oracle, n):
    p = identical_rows(n)
    x = rule(p)
    assert x == oracle(p)
    # ties go to the lowest index: pieces are handed out in listed order
    assert x.agents() == p.agents
