"""Differential tests: the pruned ordering searches against plain
enumerators, on a fixed-seed corpus with zero-density stretches.

max_equitable and check_wpo_connected are compared with an enumerator that
sweeps every ordering in full (equitable_value_oracle, and max_slack on
every permutation), fitting_orderings with a filter of greedy_fit over all
permutations, and check_po_connected and pivot_max with a
per-(ordering, pivot) enumerator that builds every constrained partition
from two mark chains of its own (constrained_partition)."""

import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations
from math import factorial

import pytest

from cakecut.cake_measure import (
    Density,
    Interval,
    leftmost_mark,
    problem,
    suffix_mark,
    total,
    value,
)
from cakecut.divisions import (
    ABSOLUTE,
    RELATIVE,
    CONNECTED,
    check_po_connected,
    check_wpo_connected,
    division_from_cuts,
    fitting_orderings,
    greedy_fit,
    max_slack,
    pivot_max,
    utilities,
)
from cakecut import rules_monotone as rm
from cakecut.monotonicity_harness import GRID_COUNTEREXAMPLES, get_rule
from cakecut.rules_classic import banach_knaster, dubins_spanier, even_paz
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


def mark_chain(mark, dens, targets, pos):
    """Sequential marks: each density in turn takes mark(d, pos, t) from the
    previous mark, starting at pos.  Returns the marks, or None at the first
    one that fails.  The targets are read one per mark, lazily, so none is
    read past a failing mark.  leftmost_mark from 0 gives minimal prefixes
    (greedy_fit's chain); suffix_mark from the end of the cake, with the
    agents reversed, gives minimal suffixes right to left."""
    marks = []
    for d, t in zip(dens, targets):
        pos = mark(d, pos, t)
        if pos is None:
            return None
        marks.append(pos)
    return marks


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


def half_slack_partition(p, pi, base):
    """The greedy partition of pi at half its max_slack over base."""
    delta = max_slack(p, pi, base)
    targets = {a: base.absolute[a] + delta / 2 * total(p.density(a))
               for a in p.agents}
    return division_from_cuts(p, pi, greedy_fit(p, pi, targets))


def enumerated_wpo(p, x):
    """True iff no ordering has positive max_slack (None: the base
    utilities do not fit it)."""
    base = utilities(p, x)
    return not any(d is not None and d > 0
                   for d in (max_slack(p, pi, base)
                             for pi in permutations(p.agents)))


def assert_wpo_matches_enumerator(p, x):
    """The table's verdict equals the enumerator's.  Its ordering may be
    another than the enumerator's first, so on FAIL the reported ordering
    must have positive max_slack and the witness must be that ordering's
    half-slack greedy partition, valued as utilities values it."""
    result = check_wpo_connected(p, x)
    assert result.ok == enumerated_wpo(p, x)
    if not result.ok:
        base = utilities(p, x)
        assert max_slack(p, result.ordering, base) > 0
        assert result.witness == half_slack_partition(p, result.ordering,
                                                      base)
        assert result.witness_utilities == utilities(p, result.witness)
    return result.ok


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
    # the one certified vector is every division's valued utilities
    assert all(utilities(p, x).absolute == out.utilities
               for x in out.divisions)
    assert out.value >= proportional_bound(p, mode)


@pytest.mark.parametrize("mode", [RELATIVE, ABSOLUTE])
def test_max_equitable_walk_reads_the_current_floor(monkeypatch, mode):
    """Every target the ordering walk reads is the floor at that moment
    times the agent's scale: the proportional bound until a sweep (the
    int core, _sweep, which returns pairs) returns more, then the best
    value swept so far."""
    floor, reads = [], []
    walk, sweep = rm.fitting_orderings, rm._sweep

    def traced_walk(p, target):
        def read(a):
            t = target(a)  # an int pair
            reads.append((F(*t), floor[0] * scale[a], floor[0]))
            return t
        return walk(p, read)

    def traced_sweep(*args):
        v = sweep(*args)
        if v is not None:
            floor[0] = max(floor[0], F(*v))
        return v

    monkeypatch.setattr(rm, "fitting_orderings", traced_walk)
    monkeypatch.setattr(rm, "_sweep", traced_sweep)
    raised = 0
    for p in corpus():
        scale = {a: total(p.density(a)) if mode == RELATIVE else 1
                 for a in p.agents}
        floor[:], reads[:] = [proportional_bound(p, mode)], []
        max_equitable(p, mode)
        assert all(t == want for t, want, _ in reads)
        raised += any(f > proportional_bound(p, mode) for _, _, f in reads)
    assert raised


def _wpo_inputs(p):
    yield max_equitable(p, RELATIVE).divisions[0]
    yield max_equitable(p, ABSOLUTE).divisions[0]
    yield exact_proportional(p)
    yield from (rule(p) for rule in (dubins_spanier, even_paz, banach_knaster))


@pytest.mark.parametrize("index", CASES, ids=_ids())
def test_check_wpo_connected_matches_enumerator(index):
    p = corpus()[index]
    for x in _wpo_inputs(p):
        assert_wpo_matches_enumerator(p, x)


def test_corpus_reaches_both_wpo_verdicts():
    verdicts = {check_wpo_connected(p, exact_proportional(p)).ok
                for p in corpus()}
    assert verdicts == {True, False}


def _walker_targets(p, rng):
    """Per-agent target sets: zero, shares around 1/n of each agent's
    total, and random fractions of it, so some prefixes fit and some fail."""
    yield {a: F(0) for a in p.agents}
    for share in (F(1, p.n + 1), F(1, p.n), F(11, 10 * p.n)):
        yield {a: share * total(p.density(a)) for a in p.agents}
    for _ in range(4):
        yield {a: F(rng.randint(1, 12), 10 * p.n) * total(p.density(a))
               for a in p.agents}


def walker_corpus():
    rng = random.Random(SEED + 1)
    singles = [_random_problem(rng, 1) for _ in range(4)]
    return [(p, targets) for p in singles + corpus()
            for targets in _walker_targets(p, rng)]


def test_fitting_orderings_match_greedy_fit_filter():
    kept = dropped = 0
    for p, targets in walker_corpus():
        expected = [pi for pi in permutations(p.agents)
                    if greedy_fit(p, pi, targets)]
        pairs = {a: (t.numerator, t.denominator) for a, t in targets.items()}
        assert list(fitting_orderings(p, pairs.__getitem__)) == expected
        kept += len(expected)
        dropped += factorial(p.n) - len(expected)
    assert kept and dropped


def constrained_partition(p, pi, pivot, targets):
    """(pivot value, partition): the agents left of the pivot take minimal
    prefixes and those right of it minimal suffixes worth their targets;
    None when the two chains do not fit or cross."""
    pi = list(pi)
    j = pi.index(pivot)
    lefts, rights = pi[:j], pi[:j:-1]
    left = mark_chain(leftmost_mark, (p.density(a) for a in lefts),
                      (targets[a] for a in lefts), F(0))
    if left is None:
        return None
    right = mark_chain(suffix_mark, (p.density(a) for a in rights),
                       (targets[a] for a in rights), p.cake_length)
    if right is None:
        return None
    bounds = left + right[::-1] + [p.cake_length]
    lo, hi = (left[-1] if left else F(0)), bounds[j]
    if lo > hi:
        return None
    return (value(p.density(pivot), Interval(lo, hi)),
            division_from_cuts(p, pi, bounds))


def enumerated_pivot_max(p, pivot, floors):
    """The pivot's best constrained partition value over all orderings;
    None when no ordering fits the floors."""
    values = [result[0] for pi in permutations(p.agents)
              if (result := constrained_partition(p, pi, pivot, floors))]
    return max(values, default=None)


def enumerated_po(p, x):
    """The per-(ordering, pivot) enumerator: build the constrained partition
    of every pair and stop at the first that improves its pivot."""
    base = utilities(p, x, CONNECTED)
    for pi in permutations(p.agents):
        for pivot in pi:
            targets = {a: base.absolute[a] for a in p.agents if a != pivot}
            result = constrained_partition(p, pi, pivot, targets)
            if result is None:
                continue
            best, witness = result
            if best > base.absolute[pivot]:
                return False, pi, witness, utilities(p, witness, CONNECTED)
    return True, None, None, None


def _po_inputs(p):
    for mode in (RELATIVE, ABSOLUTE):
        yield from max_equitable(p, mode).divisions
    yield exact_proportional(p)


PO_COUNTEREXAMPLES = [(name, cake) for (name, column), cake
                      in GRID_COUNTEREXAMPLES.items() if column == "PO"]


def assert_po_matches_enumerator(p, x):
    """The DP's verdict equals the enumerator's.  Its witness may be another
    improving pair than the enumerator's first, so on FAIL the witness must
    be the constrained partition of the reported ordering for its one
    strictly improved agent (every other agent gets exactly its base
    utility there), valued as utilities values it."""
    result = check_po_connected(p, x)
    assert result.ok == enumerated_po(p, x)[0]
    if not result.ok:
        base = utilities(p, x, CONNECTED).absolute
        wu = result.witness_utilities
        assert wu == utilities(p, result.witness, CONNECTED)
        pivot, = [a for a in p.agents if wu.absolute[a] > base[a]]
        targets = {a: base[a] for a in p.agents if a != pivot}
        assert result.witness == constrained_partition(
            p, result.ordering, pivot, targets)[1]
    return result.ok


@pytest.mark.parametrize("index", CASES, ids=_ids())
def test_check_po_connected_matches_enumerator(index):
    p = corpus()[index]
    for x in _po_inputs(p):
        assert_po_matches_enumerator(p, x)


@pytest.mark.parametrize("name, cake", PO_COUNTEREXAMPLES,
                         ids=[name for name, _ in PO_COUNTEREXAMPLES])
def test_check_po_connected_matches_enumerator_on_counterexamples(name, cake):
    p = cake()
    for x in get_rule(name).run(p).divisions:
        assert not assert_po_matches_enumerator(p, x)


def _tie_heavy_problem(rng, n):
    """n agents on 8 slices sharing one base row of densities 1..9, each
    with its own zero stretch, so many orderings tie."""
    k = 8
    lengths = [rng.choice([F(1), F(1, 2), F(2), F(3, 2)]) for _ in range(k)]
    base = [F(rng.randint(1, 9)) for _ in range(k)]
    rows = []
    for _ in range(n):
        row = list(base)
        run = rng.randint(1, 2)
        start = rng.randrange(k - run + 1)
        row[start:start + run] = [F(0)] * run
        rows.append(row)
    return problem("ABCDEF"[:n], lengths, rows)


TIE_HEAVY = [5, 5, 6, 6]


@lru_cache(maxsize=None)
def tie_heavy_corpus():
    rng = random.Random(SEED + 2)
    return [_tie_heavy_problem(rng, n) for n in TIE_HEAVY]


def _tie_heavy_inputs(p):
    for mode in (RELATIVE, ABSOLUTE):
        yield max_equitable(p, mode).divisions[0]
    yield exact_proportional(p)


@pytest.mark.parametrize("index", range(len(TIE_HEAVY)),
                         ids=[f"n{n}-{i}" for i, n in enumerate(TIE_HEAVY)])
def test_check_po_connected_matches_enumerator_on_tie_heavy_cakes(index):
    p = tie_heavy_corpus()[index]
    for x in _tie_heavy_inputs(p):
        assert_po_matches_enumerator(p, x)


def test_tie_heavy_cakes_reach_both_po_verdicts():
    assert {check_po_connected(p, x).ok for p in tie_heavy_corpus()
            for x in _tie_heavy_inputs(p)} == {True, False}


def _pivot_queries(p, xs, seed):
    """(pivot, floors for the others) for every pivot and floor set: the
    base utilities of each division in xs, and random fractions of each
    agent's total up to 5/(2n), so some floor sets do not fit."""
    rng = random.Random(seed)
    floor_sets = [utilities(p, x, CONNECTED).absolute for x in xs]
    floor_sets += [{a: F(rng.randint(0, 25), 10 * p.n) * total(p.density(a))
                    for a in p.agents} for _ in range(3)]
    for floors in floor_sets:
        for pivot in p.agents:
            yield pivot, {a: floors[a] for a in p.agents if a != pivot}


@pytest.mark.parametrize("index", CASES, ids=_ids())
def test_constrained_max_matches_constrained_partition(index):
    p = corpus()[index]
    for pivot, floors in _pivot_queries(p, _po_inputs(p), SEED + 3 + index):
        assert pivot_max(p, pivot, floors) == enumerated_pivot_max(
            p, pivot, floors), (pivot, floors)


@pytest.mark.parametrize("index", range(len(TIE_HEAVY)),
                         ids=[f"n{n}-{i}" for i, n in enumerate(TIE_HEAVY)])
def test_pivot_max_matches_constrained_partition_on_tie_heavy_cakes(index):
    p = tie_heavy_corpus()[index]
    for pivot, floors in _pivot_queries(p, _tie_heavy_inputs(p),
                                        SEED + 4 + index):
        assert pivot_max(p, pivot, floors) == enumerated_pivot_max(
            p, pivot, floors), (pivot, floors)


def test_pivot_max_tables_run_over_the_other_agents(monkeypatch):
    """Both tables hold the sets of the n - 1 other agents only: with every
    entry present that is 2 * (n - 1) * 2^(n - 2) marks per call, and
    never an entry that holds the pivot."""
    rng = random.Random(1010)
    n, k = 10, 16
    lengths = [rng.choice([F(1), F(1, 2), F(2), F(3, 2)]) for _ in range(k)]
    rows = []
    for _ in range(n):
        row = [F(rng.randint(1, 9)) for _ in range(k)]
        start = rng.randrange(k - 1)
        row[start:start + 2] = [F(0)] * 2
        rows.append(row)
    p = problem([f"a{i}" for i in range(n)], lengths, rows)
    real = Density._mark
    marks = []

    def counted(d, *args):
        marks.append(d)
        return real(d, *args)

    monkeypatch.setattr(Density, "_mark", counted)
    for pivot in p.agents:
        floors = {a: total(p.density(a)) / 20 for a in p.agents if a != pivot}
        marks.clear()
        assert pivot_max(p, pivot, floors) is not None
        assert len(marks) == 2 * (n - 1) * 2 ** (n - 2)
        assert all(d is not p.density(pivot) for d in marks)


@pytest.mark.parametrize("index", CASES, ids=_ids())
def test_po_verdict_is_the_pivot_max_of_every_pivot(index):
    """x is PO iff no pivot's pivot_max over the others' base utilities
    exceeds its own base utility; on FAIL the witness gives its one
    improved agent, the pivot, more than its base utility and at most its
    pivot_max."""
    p = corpus()[index]
    for x in _po_inputs(p):
        base = utilities(p, x, CONNECTED).absolute
        best = {j: pivot_max(p, j, {a: base[a] for a in p.agents if a != j})
                for j in p.agents}
        result = check_po_connected(p, x)
        assert result.ok == all(best[j] is None or best[j] <= base[j]
                                for j in p.agents)
        if not result.ok:
            wu = result.witness_utilities.absolute
            pivot, = [a for a in p.agents if wu[a] > base[a]]
            assert base[pivot] < wu[pivot] <= best[pivot]


def test_corpus_floors_reach_both_pivot_outcomes():
    assert {pivot_max(p, pivot, floors) is None
            for index, p in enumerate(corpus())
            for pivot, floors in _pivot_queries(p, _po_inputs(p),
                                                SEED + 3 + index)
            } == {True, False}


def test_corpus_reaches_both_po_verdicts():
    assert {check_po_connected(p, x).ok for p in corpus()
            for x in _po_inputs(p)} == {True, False}
