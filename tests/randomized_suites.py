"""Shared fixed-seed randomized suites.

Each suite function runs over at least 200 generated problems and returns a
list of failure descriptions (empty on success).  Results are cached so the
per-suite granular tests and the acceptance roll-up share one computation.
"""

import random
from fractions import Fraction, Fraction as F
from functools import lru_cache
from itertools import product
from typing import Optional

from cakecut.cake_measure import Problem, leftmost_mark, problem, total
from cakecut.divisions import (
    ABSOLUTE,
    RELATIVE,
    check_ef,
    check_prop,
    check_wpo_connected,
    division_from_cuts,
    greedy_fit,
    max_slack,
    partition_stats,
    utilities,
)
from cakecut.monotonicity_harness import check_pm, check_rm
from cakecut.rules_classic import cut_and_choose
from cakecut.rules_monotone import (
    equitable_for_ordering,
    equitable_value_oracle,
    exact_proportional,
    max_equitable,
    rightmost_mark_rule,
)

# ---------------------------------------------------------------------------
# Randomized problem generation (fixed seeds supplied by callers)


def random_problem(rng: random.Random, n: Optional[int] = None,
                   max_slices: int = 6, strictly_positive: bool = False) -> Problem:
    n = n if n is not None else rng.choice([2, 2, 2, 3, 3, 4])
    k = rng.randint(1, max_slices)
    lengths = [rng.choice([Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2)])
               for _ in range(k)]
    rows = []
    low = 1 if strictly_positive else 0
    for _ in range(n):
        row = [Fraction(rng.randint(low, 9)) for _ in range(k)]
        if all(v == 0 for v in row):
            row[rng.randrange(k)] = Fraction(rng.randint(1, 9))
        rows.append(row)
    return problem(["A", "B", "C", "D"][:n], lengths, rows)


def random_enlargement(rng: random.Random, p: Problem):
    m = rng.randint(1, 2)
    lengths = [rng.choice([Fraction(1), Fraction(1, 2), Fraction(2)])
               for _ in range(m)]
    rows = {a: [Fraction(rng.randint(0, 9)) for _ in range(m)] for a in p.agents}
    return lengths, rows


SEED = 20260824


@lru_cache(maxsize=None)
def corpus():
    rng = random.Random(SEED)
    problems = [random_problem(rng) for _ in range(200)]
    enlargements = [random_enlargement(rng, p) for p in problems]
    leavers = [rng.choice(p.agents) for p in problems]
    return problems, enlargements, leavers


@lru_cache(maxsize=None)
def pair_corpus():
    rng = random.Random(SEED + 1)
    pairs = [random_problem(rng, n=2) for _ in range(200)]
    enlargements = [random_enlargement(rng, p) for p in pairs]
    positive = [random_problem(rng, n=2, strictly_positive=True)
                for _ in range(200)]
    return pairs, enlargements, positive


def _random_ordering(rng, p):
    pi = list(p.agents)
    rng.shuffle(pi)
    return tuple(pi)


def _random_partition(rng, p, pi):
    cuts = sorted(p.cake_length * F(rng.randint(0, 24), 24)
                  for _ in range(p.n - 1))
    return division_from_cuts(p, pi, cuts + [p.cake_length])


def _half_points(p):
    return {a: leftmost_mark(p.density(a), F(0), total(p.density(a)) / 2)
            for a in p.agents}


@lru_cache(maxsize=None)
def suite_exact_proportional():
    problems, enlargements, leavers = corpus()
    failures = []
    for i, (p, extra, leaver) in enumerate(zip(problems, enlargements,
                                               leavers)):
        u = utilities(p, exact_proportional(p))
        if any(v != F(1, p.n) for v in u.relative.values()):
            failures.append(f"problem {i}: relative share != 1/n")
        if any(not v.ok for v in check_rm("exact-proportional", p, *extra)):
            failures.append(f"problem {i}: RM failed")
        if p.n > 1 and any(not v.ok
                           for v in check_pm("exact-proportional", p, leaver)):
            failures.append(f"problem {i}: PM failed")
    return failures


@lru_cache(maxsize=None)
def suite_equitable_sandwich():
    problems, _, _ = corpus()
    rng = random.Random(SEED + 2)
    failures = []
    for i, p in enumerate(problems):
        pi = _random_ordering(rng, p)
        x = _random_partition(rng, p, pi)
        stats = partition_stats(p, x, RELATIVE)
        v = equitable_value_oracle(p, pi, RELATIVE)
        if not stats.v_min <= v <= stats.v_max:
            failures.append(f"problem {i}: sandwich violated for {pi}")
    return failures


@lru_cache(maxsize=None)
def suite_equitable_min_value():
    problems, _, _ = corpus()
    return [f"problem {i}: max relative value below 1/n"
            for i, p in enumerate(problems)
            if max_equitable(p, RELATIVE).value < F(1, p.n)]


@lru_cache(maxsize=None)
def suite_equitable_wpo():
    problems, _, _ = corpus()
    failures = []
    for i, p in enumerate(problems):
        for mode in (RELATIVE, ABSOLUTE):
            out = max_equitable(p, mode)
            for x in out.divisions:
                if not check_wpo_connected(p, x):
                    failures.append(f"problem {i}: {mode} output not WPO")
    return failures


@lru_cache(maxsize=None)
def suite_equitable_monotonicity():
    problems, enlargements, leavers = corpus()
    failures = []
    for i, (p, extra, leaver) in enumerate(zip(problems, enlargements,
                                               leavers)):
        if p.n > 1:
            for name in ("relative-equitable", "absolute-equitable"):
                if any(not v.ok for v in check_pm(name, p, leaver)):
                    failures.append(f"problem {i}: {name} PM failed")
        if any(not v.ok for v in check_rm("absolute-equitable", p, *extra)):
            failures.append(f"problem {i}: absolute-equitable RM failed")
    return failures


@lru_cache(maxsize=None)
def suite_rightmost_mark():
    pairs, enlargements, positive = pair_corpus()
    failures = []
    for i, (p, extra) in enumerate(zip(pairs, enlargements)):
        x = rightmost_mark_rule(p)
        if not (check_ef(p, x) and check_prop(p, x)):
            failures.append(f"pair {i}: EF/PROP failed")
        if any(not v.ok for v in check_rm("rightmost-mark", p, *extra)):
            failures.append(f"pair {i}: RM failed")
    for i, p in enumerate(positive):
        x = rightmost_mark_rule(p)
        u = utilities(p, x)
        hp = _half_points(p)
        right_agent = max(p.agents, key=lambda a: (hp[a], p.index(a)))
        other = next(a for a in p.agents if a != right_agent)
        if u.relative[right_agent] != F(1, 2) or u.relative[other] < F(1, 2):
            failures.append(f"positive pair {i}: exact-half failed")
        cut = max(iv.lo for a in p.agents for iv in x.piece(a))
        lo_h, hi_h = sorted(hp.values())
        if not (lo_h <= cut <= hi_h and cut == hi_h):
            failures.append(f"positive pair {i}: cut not at rightmost "
                            f"half-point")
        if hp[p.agents[0]] != hp[p.agents[1]]:
            left_agent = min(p.agents, key=lambda a: hp[a])
            if x.piece(left_agent)[0].lo != 0:
                failures.append(f"positive pair {i}: left piece owner wrong")
    return failures


@lru_cache(maxsize=None)
def suite_cut_and_choose_wpo():
    pairs, _, _ = pair_corpus()
    return [f"pair {i}: output not WPO" for i, p in enumerate(pairs)
            if not check_wpo_connected(p, cut_and_choose(p))]


@lru_cache(maxsize=None)
def suite_oracle_equivalence():
    problems, _, _ = corpus()
    rng = random.Random(SEED + 3)
    failures = []
    for i, p in enumerate(problems):
        pi = _random_ordering(rng, p)
        for mode in (RELATIVE, ABSOLUTE):
            sim = equitable_for_ordering(p, pi, mode)
            if equitable_value_oracle(p, pi, mode) != sim.value:
                failures.append(f"problem {i}: oracle != simulation ({mode})")
    return failures


@lru_cache(maxsize=None)
def suite_bisection_bracketing():
    problems, _, _ = corpus()
    rng = random.Random(SEED + 4)
    tol = F(1, 10**12)
    failures = []
    for i, p in enumerate(problems[:50]):
        pi = _random_ordering(rng, p)
        for mode in (RELATIVE, ABSOLUTE):
            scale = ({a: total(p.density(a)) for a in p.agents}
                     if mode == RELATIVE else {a: F(1) for a in p.agents})
            exact = equitable_value_oracle(p, pi, mode)

            def feasible(t):
                return greedy_fit(
                    p, pi, {a: t * scale[a] for a in p.agents}) is not None

            lo = F(0)
            hi = (F(2) if mode == RELATIVE
                  else max(total(d) for d in p.densities) + 1)
            if not feasible(lo) or feasible(hi):
                failures.append(f"problem {i}: bad bisection bracket")
                continue
            while hi - lo > tol:
                mid = (lo + hi) / 2
                if feasible(mid):
                    lo = mid
                else:
                    hi = mid
            if not lo <= exact <= hi:
                failures.append(f"problem {i}: bisection does not bracket "
                                f"the exact value ({mode})")
    return failures


@lru_cache(maxsize=None)
def suite_greedy_infeasibility_oracle():
    problems, _, _ = corpus()
    rng = random.Random(SEED + 5)
    failures = []
    checked = 0
    for i, p in enumerate(problems):
        if p.n > 3:
            continue
        pi = _random_ordering(rng, p)
        targets = {a: total(p.density(a)) * F(rng.randint(0, 6), 6)
                   for a in p.agents}
        if greedy_fit(p, pi, targets) is not None:
            continue
        checked += 1
        steps = [p.cake_length * F(k, 12) for k in range(13)]
        for cuts in product(steps, repeat=p.n - 1):
            if list(cuts) != sorted(cuts):
                continue
            x = division_from_cuts(p, pi, list(cuts) + [p.cake_length])
            u = utilities(p, x)
            if all(u.absolute[a] >= targets[a] for a in p.agents):
                failures.append(f"problem {i}: greedy said infeasible but "
                                f"cuts {cuts} fit")
        if checked >= 40:
            break
    if checked < 20:
        failures.append("too few infeasible instances exercised")
    return failures


def _slack_rank(delta):
    """max_slack ordered with None (the base does not fit) below every
    slack."""
    return (0, 0) if delta is None else (1, delta)


@lru_cache(maxsize=None)
def suite_max_slack_monotonicity():
    problems, _, _ = corpus()
    rng = random.Random(SEED + 6)
    failures = []
    for i, p in enumerate(problems[:60]):
        pi = _random_ordering(rng, p)
        x = _random_partition(rng, p, pi)
        base = utilities(p, x)
        bumped = utilities(p, x)
        bumped.absolute[rng.choice(p.agents)] += F(1, 3)
        if _slack_rank(max_slack(p, pi, bumped)) > \
                _slack_rank(max_slack(p, pi, base)):
            failures.append(f"problem {i}: max_slack not monotone")
    return failures
