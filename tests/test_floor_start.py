"""Differential test of equitable_for_ordering's floor start: the library
starts its moving-knife simulation at the proportional floor L; the
reference below is the same event loop started at t = 0 with every knife
at 0.  Both must give an equal EquitableResult for every ordering, not only
the argmax ones, in both value modes, and so must a start raised to a
caller's floor."""

from fractions import Fraction as F
from itertools import permutations

import pytest

from cakecut.cake_measure import (
    Interval,
    leftmost_mark,
    maximal_mark,
    problem,
    total,
    value,
)
from cakecut.divisions import ABSOLUTE, RELATIVE, greedy_fit
from cakecut.rules_monotone import EquitableResult, equitable_for_ordering

from test_pruned_search import corpus, proportional_bound


def scales(p, mode):
    if mode == RELATIVE:
        return {a: total(p.density(a)) for a in p.agents}
    return {a: F(1) for a in p.agents}


def simulate_from_zero(p, pi, mode):
    """The moving-knife event loop from t = 0, every knife at 0."""
    scale = scales(p, mode)
    dens = [p.density(a) for a in pi]
    s = [scale[a] for a in pi]
    n = len(pi)
    c = p.cake_length
    grid = p.grid
    x = [F(0)] * n
    t = F(0)
    while x[-1] != c:
        blocked = [i for i in range(n)
                   if x[i] < c and dens[i].density_right_of(x[i]) == 0]
        if blocked:
            r = blocked[-1]
            v = [F(0)] * n
            v[r] = F(1)
            for k in range(r + 1, n):
                push = dens[k].density_right_of(x[k - 1]) * v[k - 1]
                v[k] = push / dens[k].density_right_of(x[k]) if push else F(0)
            step = min((grid.next_breakpoint(x[i]) - x[i]) / v[i]
                       for i in range(r, n) if v[i] > 0)
            for i in range(r, n):
                x[i] += v[i] * step
        else:
            v = [F(0)] * n
            prev = F(0)
            prev_pos = F(0)
            for k in range(n):
                back = dens[k].density_right_of(prev_pos) if k else F(0)
                v[k] = (s[k] + back * prev) / dens[k].density_right_of(x[k])
                prev, prev_pos = v[k], x[k]
            step = min((grid.next_breakpoint(x[i]) - x[i]) / v[i]
                       for i in range(n))
            t += step
            for i in range(n):
                x[i] += v[i] * step
    lo = F(0)
    for d, sc, hi in zip(dens, s, x):
        assert value(d, Interval(lo, hi)) == t * sc
        lo = hi
    return EquitableResult(pi, tuple(x[:-1]), t, mode)


def floor_case(p, pi, mode):
    """How the floor start treats this ordering, worked out here from the
    marks at the proportional floor L: "below" (the minimal chain at L does
    not fit: the ordering is worth less than L), "end" (the maximal chain at
    L is missing or ends at c), "zero-edge" (started at L, where some
    minimal mark sits on the left edge of a zero stretch, so its maximal
    mark lies beyond it) or "floor" (started at L otherwise)."""
    scale = scales(p, mode)
    targets = {a: proportional_bound(p, mode) * scale[a] for a in pi}
    if greedy_fit(p, pi, targets) is None:
        return "below"
    pos = F(0)
    edge = False
    for a in pi:
        d = p.density(a)
        y = maximal_mark(d, pos, targets[a])
        if y is None:
            return "end"
        edge |= y != leftmost_mark(d, pos, targets[a])
        pos = y
    if pos == p.cake_length:
        return "end"
    return "zero-edge" if edge else "floor"


def identical_uniform():
    # every ordering is worth exactly L, the maximal chain at L ends at c
    return problem(["A", "B", "C"], [1, 1, 1], [[1, 1, 1]] * 3)


def zero_edge():
    # in the ordering (A, B), A's minimal mark at L is 1, the left edge of
    # A's zero slice [1, 2], in both modes; B's piece then ends before c
    return problem(["A", "B"], [1] * 5, [[2, 0, 1, 1, 0], [1, 1, 1, 1, 1]])


def blocked_at_end():
    # at L (targets 1 in both modes) both knives of (A, B) sit on the left
    # edges of their zero slices; the t = 0 run slides B's knife to c and
    # stops with A's cut at 1, while the maximal chain at L (2, 4) ends at c
    return problem(["A", "B"], [1] * 4, [[1, 0, 1, 0], [1, 0, 1, 0]])


def problems():
    return corpus() + [identical_uniform(), zero_edge(), blocked_at_end()]


MODES = [RELATIVE, ABSOLUTE]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("index", range(len(problems())),
                         ids=[f"n{p.n}-{i}" for i, p in enumerate(problems())])
def test_floor_start_matches_start_at_zero(index, mode):
    p = problems()[index]
    for pi in permutations(p.agents):
        assert equitable_for_ordering(p, pi, mode) == \
            simulate_from_zero(p, pi, mode)


def test_problems_reach_every_floor_case():
    seen = {floor_case(p, pi, mode) for p in problems() for mode in MODES
            for pi in permutations(p.agents)}
    assert seen == {"below", "end", "zero-edge", "floor"}


@pytest.mark.parametrize("mode", MODES)
def test_named_cakes_reach_their_cases(mode):
    p = identical_uniform()
    for pi in permutations(p.agents):
        assert floor_case(p, pi, mode) == "end"
        assert equitable_for_ordering(p, pi, mode).value == \
            proportional_bound(p, mode)
    assert floor_case(zero_edge(), ("A", "B"), mode) == "zero-edge"
    p = blocked_at_end()
    assert floor_case(p, ("A", "B"), mode) == "end"
    assert equitable_for_ordering(p, ("A", "B"), mode).cuts == (1,)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("index", range(len(problems())),
                         ids=[f"n{p.n}-{i}" for i, p in enumerate(problems())])
def test_any_floor_gives_the_default_result(index, mode):
    """A floor below the ordering's value v starts the simulation above L;
    one at or above v falls back to t = 0.  Neither changes the result."""
    p = problems()[index]
    low = proportional_bound(p, mode)
    for pi in permutations(p.agents):
        expected = equitable_for_ordering(p, pi, mode)
        v = expected.value
        for floor in (low, (low + v) / 2, v, v + 1):
            assert equitable_for_ordering(p, pi, mode, floor=floor) == \
                expected, floor
