"""Differential test of equitable_for_ordering: the library builds each
division at the sweep's value v, starting from the greedy_fit chain at v
and running only the final slides; the reference below is the whole
moving-knife event loop, started at t = 0 with every knife at 0.  Both
must give an equal EquitableResult for every ordering, not only the argmax
ones, in both value modes.  The corpus reaches every kind of final state:
no slide at v, only the last knife sliding, and an interior knife
sliding.  A value passed by the caller gives the default result when it
is the ordering's value and raises InvariantError otherwise."""

from fractions import Fraction as F
from itertools import permutations

import pytest

from cakecut.cake_measure import (
    Interval,
    InvariantError,
    problem,
    total,
    value,
)
from cakecut.divisions import ABSOLUTE, RELATIVE, greedy_fit
from cakecut.rules_monotone import EquitableResult, equitable_for_ordering

from test_measure_differential import ref_density_right_of, ref_next_breakpoint
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
    x = [F(0)] * n
    t = F(0)
    while x[-1] != c:
        blocked = [i for i in range(n)
                   if x[i] < c and ref_density_right_of(dens[i], x[i]) == 0]
        if blocked:
            r = blocked[-1]
            v = [F(0)] * n
            v[r] = F(1)
            for k in range(r + 1, n):
                push = ref_density_right_of(dens[k], x[k - 1]) * v[k - 1]
                v[k] = (push / ref_density_right_of(dens[k], x[k]) if push
                        else F(0))
            step = min((ref_next_breakpoint(dens[i], x[i]) - x[i]) / v[i]
                       for i in range(r, n) if v[i] > 0)
            for i in range(r, n):
                x[i] += v[i] * step
        else:
            v = [F(0)] * n
            prev = F(0)
            prev_pos = F(0)
            for k in range(n):
                back = ref_density_right_of(dens[k], prev_pos) if k else F(0)
                v[k] = ((s[k] + back * prev)
                        / ref_density_right_of(dens[k], x[k]))
                prev, prev_pos = v[k], x[k]
            step = min((ref_next_breakpoint(dens[i], x[i]) - x[i]) / v[i]
                       for i in range(n))
            t += step
            for i in range(n):
                x[i] += v[i] * step
    lo = F(0)
    for d, sc, hi in zip(dens, s, x):
        assert value(d, Interval(lo, hi)) == t * sc
        lo = hi
    return EquitableResult(pi, tuple(x[:-1]), t, mode)


def final_case(p, pi, mode):
    """What the slides at the ordering's value v do, worked out here from
    the reference run and the greedy_fit chain at v: "none" (the chain
    ends at c), "last" (only the last knife slides) or "interior" (an
    interior knife slides, so some cut moves off the chain)."""
    ref = simulate_from_zero(p, pi, mode)
    scale = scales(p, mode)
    chain = greedy_fit(p, pi, {a: ref.value * scale[a] for a in pi})
    if chain[-1] == p.cake_length:
        return "none"
    return "last" if chain[:-1] == ref.cuts else "interior"


def identical_uniform():
    # every ordering is worth exactly L, and its chain at L ends at c
    return problem(["A", "B", "C"], [1, 1, 1], [[1, 1, 1]] * 3)


def zero_edge():
    # in the ordering (A, B) the run from t = 0 slides A's knife through
    # A's zero slice [1, 2] on its way up, in both modes; at v the chain
    # has passed it and ends at c, so no slide is left
    return problem(["A", "B"], [1] * 5, [[2, 0, 1, 1, 0], [1, 1, 1, 1, 1]])


def blocked_at_end():
    # at v (targets 1 in both modes) both knives of (A, B) sit on the left
    # edges of their zero slices; only B's knife, the rightmost, slides, to
    # c, and A's cut stays at 1
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


def test_problems_reach_every_final_case():
    seen = {final_case(p, pi, mode) for p in problems() for mode in MODES
            for pi in permutations(p.agents)}
    assert seen == {"none", "last", "interior"}


@pytest.mark.parametrize("mode", MODES)
def test_named_cakes_reach_their_cases(mode):
    p = identical_uniform()
    for pi in permutations(p.agents):
        assert final_case(p, pi, mode) == "none"
        assert equitable_for_ordering(p, pi, mode).value == \
            proportional_bound(p, mode)
    assert final_case(zero_edge(), ("A", "B"), mode) == "none"
    p = blocked_at_end()
    assert final_case(p, ("A", "B"), mode) == "last"
    assert equitable_for_ordering(p, ("A", "B"), mode).cuts == (1,)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("index", range(len(problems())),
                         ids=[f"n{p.n}-{i}" for i, p in enumerate(problems())])
def test_any_floor_gives_the_default_result(index, mode):
    """The values a caller's floor used to take (the proportional bound L,
    halfway from L to v, v itself, v + 1), passed now as the ordering's
    value: v gives the default result, and any other raises InvariantError
    on the side it misses v."""
    p = problems()[index]
    low = proportional_bound(p, mode)
    for pi in permutations(p.agents):
        expected = equitable_for_ordering(p, pi, mode)
        v = expected.value
        for guess in (low, (low + v) / 2, v, v + 1):
            if guess == v:
                assert equitable_for_ordering(p, pi, mode, guess) == expected
            else:
                side = "above" if guess > v else "below"
                with pytest.raises(InvariantError, match=side):
                    equitable_for_ordering(p, pi, mode, guess)
