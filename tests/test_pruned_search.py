"""Differential tests: the floor-pruned ordering searches of max_equitable
and check_wpo_connected against a plain enumerator that sweeps every
ordering in full (equitable_value_oracle and max_slack from their own
starts), on a fixed-seed corpus with zero-density stretches."""

import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations

import pytest

from cakecut.cake_measure import problem, total
from cakecut.divisions import (
    ABSOLUTE,
    RELATIVE,
    check_wpo_connected,
    division_from_cuts,
    greedy_fit,
    max_slack,
    utilities,
)
from cakecut.rules_monotone import (
    equitable_for_ordering,
    equitable_value_oracle,
    exact_proportional,
    max_equitable,
)

SEED = 20261018
SIZES = {2: 40, 3: 40, 4: 16, 5: 3}


def _random_problem(rng, n):
    """n agents, 3..7 slices, densities 0..9 with one zero stretch each."""
    k = rng.randint(3, 7)
    lengths = [rng.choice([F(1), F(1, 2), F(2), F(3, 2)]) for _ in range(k)]
    rows = []
    for _ in range(n):
        row = [F(rng.randint(1, 9)) for _ in range(k)]
        run = rng.randint(1, 2)
        start = rng.randrange(k - run + 1)
        row[start:start + run] = [F(0)] * run
        rows.append(row)
    return problem("ABCDE"[:n], lengths, rows)


@lru_cache(maxsize=None)
def corpus():
    rng = random.Random(SEED)
    return [_random_problem(rng, n) for n, count in SIZES.items()
            for _ in range(count)]


def enumerated_max_equitable(p, mode):
    values = {pi: equitable_value_oracle(p, pi, mode)
              for pi in permutations(p.agents)}
    best = max(values.values())
    return best, [pi for pi, v in values.items() if v == best]


def enumerated_wpo(p, x):
    """(verdict, ordering, witness): the first ordering with positive
    max_slack and the greedy partition at half that slack."""
    base = utilities(p, x)
    for pi in permutations(p.agents):
        delta = max_slack(p, pi, base)
        if delta > 0:
            targets = {a: base.absolute[a] + delta / 2 * total(p.density(a))
                       for a in p.agents}
            return False, pi, division_from_cuts(p, pi,
                                                 greedy_fit(p, pi, targets))
    return True, None, None


def proportional_bound(p, mode):
    if mode == RELATIVE:
        return F(1, p.n)
    return min(total(d) for d in p.densities) / p.n


CASES = range(sum(SIZES.values()))


def _ids():
    return [f"n{p.n}-{i}" for i, p in enumerate(corpus())]


@pytest.mark.parametrize("mode", [RELATIVE, ABSOLUTE])
@pytest.mark.parametrize("index", CASES, ids=_ids())
def test_max_equitable_matches_enumerator(index, mode):
    p = corpus()[index]
    best, winners = enumerated_max_equitable(p, mode)
    out = max_equitable(p, mode)
    assert out.value == best
    assert out.orderings == winners
    assert out.divisions == [equitable_for_ordering(p, pi, mode).division(p)
                             for pi in winners]
    assert out.value >= proportional_bound(p, mode)


def _wpo_inputs(p):
    yield "relative-equitable", max_equitable(p, RELATIVE).divisions[0]
    yield "absolute-equitable", max_equitable(p, ABSOLUTE).divisions[0]
    yield "exact-proportional", exact_proportional(p)


@pytest.mark.parametrize("index", CASES, ids=_ids())
def test_check_wpo_connected_matches_enumerator(index):
    p = corpus()[index]
    for name, x in _wpo_inputs(p):
        ok, ordering, witness = enumerated_wpo(p, x)
        result = check_wpo_connected(p, x)
        assert (result.ok, result.ordering, result.witness) == \
            (ok, ordering, witness), name


def test_corpus_reaches_both_wpo_verdicts():
    verdicts = {check_wpo_connected(p, exact_proportional(p)).ok
                for p in corpus()}
    assert verdicts == {True, False}
