"""Differential test of the shared lowest-mark round loop: exact_proportional
and dubins_spanier both run rules_classic.lowest_mark_rounds; the oracles
below are the two loops as each rule wrote it out on its own.  Both must give
an equal Division on the zero-stretch corpus and on cakes of identical rows,
where every round's marks tie and the lowest agent index decides.  The
loop's own invariant, that every share fits in the cake left, is checked
in process and under python -O."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cakecut.cake_measure import (
    Interval,
    InvariantError,
    leftmost_mark,
    problem,
    total,
    total_pair,
    value,
)
from cakecut.divisions import Division
from cakecut.rules_classic import dubins_spanier, lowest_mark_rounds
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


# The loop's invariant: every remaining agent's share fits in the cake left.
# A share callback that breaks it must raise, in the first round (more than
# the whole cake) or after two rounds have handed out the cake's two halves.
OVERSIZED = "a remaining agent's share exceeds the remaining cake"


def more_than_the_cake(d, start, m):
    vn, vd = total_pair(d)
    return vn + vd, vd


def half_the_cake(d, start, m):
    vn, vd = total_pair(d)
    return vn, 2 * vd


@pytest.mark.parametrize("share", [more_than_the_cake, half_the_cake],
                         ids=["first-round", "third-round"])
def test_share_past_the_remaining_cake_raises(share):
    with pytest.raises(InvariantError, match=f"^{OVERSIZED}$"):
        lowest_mark_rounds(identical_rows(3), share, 0)


def test_half_shares_fill_two_rounds():
    """The third-round case above gets through two rounds first."""
    p = identical_rows(3)
    d = p.densities[0]
    pieces, start, remaining = lowest_mark_rounds(p, half_the_cake, 1)
    assert remaining == ["C"] and start == p.cake_length
    assert {a: value(d, iv) for a, (iv,) in pieces.items()} == {
        "E": total(d) / 2, "D": total(d) / 2}


def test_share_invariant_runs_under_python_O():
    code = (
        "from cakecut.cake_measure import InvariantError, problem, total_pair\n"
        "from cakecut.rules_classic import lowest_mark_rounds\n"
        "p = problem(['A', 'B'], [1, 1], [[1, 2], [2, 1]])\n"
        "def share(d, start, m):\n"
        "    vn, vd = total_pair(d)\n"
        "    return vn + vd, vd\n"
        "try:\n"
        "    lowest_mark_rounds(p, share, 0)\n"
        "except InvariantError as e:\n"
        "    print(e)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout == OVERSIZED + "\n"
