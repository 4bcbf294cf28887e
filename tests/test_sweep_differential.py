"""Differential test of the exact parametric sweep.

divisions.sup_uniform_feasible is compared with the sweep it replaced,
kept below as the oracle, verbatim but for its density and breakpoint
lookups (the references of tests/test_measure_differential.py): one
greedy pass at start and another after every event step, and the last
agent's mark stepping across breakpoints.  Outcomes are compared
exactly, by repr, or by exception type and message, on three sets of
lines (alphas, betas, start):

- the equitable lines (alphas 0, betas the scales) of every ordering of the
  fixed-seed corpus in both value modes, from the proportional floor L,
  from 0 and from the ordering's own value;
- the WPO slack lines (u_i + delta * V_i) of the max_equitable and
  exact_proportional outputs, for every ordering of the corpus's n <= 3
  cakes, from max_slack's start delta = 0 (the n >= 4 lines would double
  the file's time);
- fixed-seed random lines with n = 1..4, negative alphas and starts past
  the supremum included, each started where every target is nonnegative;
- the equitable and slack lines of tie-heavy cakes (every agent shares one
  base row, plus its own zero stretch) at n = 2..6, where many orderings
  and events tie: every ordering up to n = 5, a fixed-seed sample at 6.

The oracle still clamps negative targets at zero; the sweep refuses them
at start (CakeError), so no line here reaches a clamped target.  The error
paths are pinned on the tie-heavy cakes: a nonpositive slope, a negative
target at start, and a step to an infeasible theta (InvariantError, under
python -O too).
"""

import os
import random
import subprocess
import sys
from fractions import Fraction as F
from functools import lru_cache
from itertools import permutations

import pytest

from cakecut.cake_measure import (
    CakeError,
    InvariantError,
    leftmost_mark,
    maximal_mark,
    total,
)
from cakecut import divisions
from cakecut.divisions import (
    ABSOLUTE,
    RELATIVE,
    sup_uniform_feasible,
    utilities,
)
from cakecut.rules_monotone import (
    equitable_for_ordering,
    exact_proportional,
    max_equitable,
)

from test_measure_differential import ref_density_right_of, ref_next_breakpoint
from test_pruned_search import (
    _random_problem,
    _tie_heavy_problem,
    corpus,
    mark_chain,
    proportional_bound,
)


def oracle_sup_uniform_feasible(p, pi, alphas, betas, start):
    dens = [p.density(a) for a in pi]
    if any(b <= 0 for b in betas):
        raise CakeError("sweep requires strictly positive slopes")
    theta = F(start)
    if oracle_greedy_raw(dens, alphas, betas, theta) is None:
        return None
    while True:
        pos = F(0)
        slope = F(0)
        events = []
        stuck = False
        for d, a, b in zip(dens, alphas, betas):
            tval = a + b * theta
            if tval < 0:
                # target clamped to zero; it unclamps at theta = -a/b
                events.append(-a / b)
                continue
            avail = total(d) - d.prefix_at(pos)
            if avail <= tval:
                stuck = True
                break
            y = maximal_mark(d, pos, tval)
            new_slope = ((b + ref_density_right_of(d, pos) * slope)
                         / ref_density_right_of(d, y))
            events.append(theta + (ref_next_breakpoint(d, y) - y) / new_slope)
            pos, slope = y, new_slope
        if stuck:
            return theta
        theta = min(e for e in events if e > theta)
        if oracle_greedy_raw(dens, alphas, betas, theta) is None:
            raise InvariantError(f"sweep stepped to infeasible theta {theta}")


def oracle_greedy_raw(dens, alphas, betas, theta):
    return mark_chain(leftmost_mark, dens,
                      (max(F(0), a + b * theta)
                       for a, b in zip(alphas, betas)), F(0))


def run(sweep, line):
    """(result, outcome): the outcome is the result's repr, or the type and
    message of the exception raised."""
    try:
        result = sweep(*line)
    except Exception as e:  # compared, not handled
        return None, f"{type(e).__name__}: {e}"
    return result, repr(result)


def features(p, pi, alphas, betas, start, sup):
    """Which of the cases the line reaches: "none" (start past the
    supremum), "clamped" (a target clamped at zero at a feasible start) and
    "last-crossing" (the last agent's mark crosses an interior breakpoint
    between start and the supremum: its maximal mark at start lies left of
    the breakpoint, its leftmost mark at the supremum right of it)."""
    if sup is None:
        return {"none"}
    seen = set()
    if any(a + b * start < 0 for a, b in zip(alphas, betas)):
        seen.add("clamped")
    dens = [p.density(a) for a in pi]

    def chain(mark, theta):
        return mark_chain(mark, dens, (max(F(0), a + b * theta)
                                       for a, b in zip(alphas, betas)), F(0))

    before, after = chain(maximal_mark, start), chain(leftmost_mark, sup)
    if before is not None and any(before[-1] < x < after[-1]
                                  for x in p.grid.breakpoints[1:-1]):
        seen.add("last-crossing")
    return seen


def compare(lines):
    """Asserts both sweeps agree on every line; returns the cases seen."""
    seen = set()
    for line in lines:
        sup, expected = run(oracle_sup_uniform_feasible, line)
        assert run(sup_uniform_feasible, line)[1] == expected, line
        seen |= features(*line, sup)
    return seen


def scale_line(p, pi, mode):
    betas = [total(p.density(a)) if mode == RELATIVE else F(1) for a in pi]
    return [F(0)] * len(pi), betas


def equitable_lines(p, orderings=None):
    for mode in (RELATIVE, ABSOLUTE):
        for pi in orderings or permutations(p.agents):
            alphas, betas = scale_line(p, pi, mode)
            own = equitable_for_ordering(p, pi, mode).value
            for start in (proportional_bound(p, mode), F(0), own):
                yield p, pi, alphas, betas, start


def slack_lines(p, orderings=None):
    for x in (max_equitable(p, RELATIVE).divisions[0],
              max_equitable(p, ABSOLUTE).divisions[0],
              exact_proportional(p)):
        base = utilities(p, x)
        for pi in orderings or permutations(p.agents):
            alphas = [base.absolute[a] for a in pi]
            betas = [total(p.density(a)) for a in pi]
            yield p, pi, alphas, betas, F(0)


def _rat(rng, lo, hi, den=4):
    return F(rng.randint(lo * den, hi * den), den)


def random_lines(n, count=150):
    """count lines on fixed-seed n-agent cakes: alphas in [-2, 1], betas in
    (0, 3], starts up to 2 past the first theta at which every target is
    nonnegative, so some starts lie past the supremum."""
    rng = random.Random(7919 * n)
    lines = []
    while len(lines) < count:
        p = _random_problem(rng, n)
        for pi in permutations(p.agents):
            alphas = [_rat(rng, -2, 1) for _ in pi]
            betas = [_rat(rng, 0, 3) or F(1, 4) for _ in pi]
            lowest = max(-a / b for a, b in zip(alphas, betas))
            lines.append((p, pi, alphas, betas, lowest + _rat(rng, 0, 2)))
    return lines[:count]


@lru_cache(maxsize=None)
def corpus_cases(index, kind):
    p = corpus()[index]
    return compare(equitable_lines(p) if kind == "equitable"
                   else slack_lines(p))


@lru_cache(maxsize=None)
def random_cases(n):
    return compare(random_lines(n))


CASES = range(len(corpus()))
IDS = [f"n{p.n}-{i}" for i, p in enumerate(corpus())]


@pytest.mark.parametrize("index", CASES, ids=IDS)
def test_equitable_lines_match_oracle(index):
    corpus_cases(index, "equitable")


SLACK_CASES = [i for i in CASES if corpus()[i].n <= 3]


@pytest.mark.parametrize("index", SLACK_CASES,
                         ids=[IDS[i] for i in SLACK_CASES])
def test_slack_lines_match_oracle(index):
    corpus_cases(index, "slack")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_lines_match_oracle(n):
    random_cases(n)


def test_lines_reach_every_case():
    seen = set()
    for index in CASES:
        seen |= corpus_cases(index, "equitable")
    for index in SLACK_CASES:
        seen |= corpus_cases(index, "slack")
    for n in (1, 2, 3, 4):
        seen |= random_cases(n)
    assert seen == {"none", "last-crossing"}


TIE_HEAVY_NS = (2, 3, 4, 5, 6)
SAMPLED_ORDERINGS = 120  # of the 720 at n = 6


@lru_cache(maxsize=None)
def tie_heavy_cake(n):
    return _tie_heavy_problem(random.Random(7927 * n), n)


@lru_cache(maxsize=None)
def tie_heavy_cases(n, kind):
    p = tie_heavy_cake(n)
    orderings = list(permutations(p.agents))
    if n > 5:
        orderings = random.Random(7933).sample(orderings, SAMPLED_ORDERINGS)
    lines = equitable_lines if kind == "equitable" else slack_lines
    return compare(lines(p, orderings))


@pytest.mark.parametrize("kind", ["equitable", "slack"])
@pytest.mark.parametrize("n", TIE_HEAVY_NS)
def test_tie_heavy_lines_match_oracle(n, kind):
    tie_heavy_cases(n, kind)


def test_tie_heavy_cakes_tie():
    """Every agent's row is the base row outside its own zero stretch, and
    some ordering ties another's equitable value at every n."""
    for n in TIE_HEAVY_NS:
        p = tie_heavy_cake(n)
        assert all(len(set(column) - {0}) <= 1 for column in zip(*(
            d.values for d in p.densities)))
        assert len(max_equitable(p, RELATIVE).orderings) > 1


def test_tie_heavy_lines_reach_every_case():
    seen = set()
    for n in TIE_HEAVY_NS:
        seen |= tie_heavy_cases(n, "equitable") | tie_heavy_cases(n, "slack")
    assert seen == {"none", "last-crossing"}


# ---------------------------------------------------------------------------
# Error paths, on the tie-heavy cakes (test_divisions pins each on one
# hand-made cake): every message must be the one the sweep gave before its
# body moved onto int pairs, and a step to an infeasible theta must quote
# the oracle's supremum.


def tie_heavy_line(n):
    """The relative equitable line of the tie-heavy cake's own ordering."""
    p = tie_heavy_cake(n)
    return p, p.agents, [F(0)] * n, [total(d) for d in p.densities]


@pytest.mark.parametrize("n", TIE_HEAVY_NS)
def test_nonpositive_slope_is_refused(n):
    p, pi, alphas, betas = tie_heavy_line(n)
    for i in range(n):
        for bad in (F(0), F(-1, 2)):
            line = p, pi, alphas, [*betas[:i], bad, *betas[i + 1:]], F(0)
            outcome = run(sup_uniform_feasible, line)
            assert outcome == run(oracle_sup_uniform_feasible, line)
            assert outcome[1] == ("CakeError: sweep requires strictly "
                                  "positive slopes")


@pytest.mark.parametrize("n", TIE_HEAVY_NS)
def test_negative_target_at_start_is_refused(n):
    """A negative target at start is refused wherever its agent stands:
    reached by a complete first pass, or behind the first agent, which is
    stuck at start (its target exceeds its total)."""
    p, pi, alphas, betas = tie_heavy_line(n)
    over_the_total = betas[0] + 1  # the first agent's target at start
    for i in range(n):
        bad = [*alphas[:i], F(-1), *alphas[i + 1:]]
        cases = [bad, [over_the_total, *bad[1:]]] if i else [bad]
        for case in cases:
            with pytest.raises(CakeError, match="^sweep targets must be "
                                                "nonnegative at start$"):
                sup_uniform_feasible(p, pi, case, betas, F(0))


def _sups(n):
    """The tie-heavy line's supremum from 0, by the oracle."""
    return oracle_sup_uniform_feasible(*tie_heavy_line(n), F(0))


@pytest.mark.parametrize("n", TIE_HEAVY_NS)
def test_step_to_an_infeasible_theta_raises(n, monkeypatch):
    """A certifying pass that fails after the sweep has stepped raises
    InvariantError quoting the theta it stepped to, the supremum; one that
    fails at start means start is infeasible (None)."""
    line = tie_heavy_line(n)
    sup = _sups(n)
    assert sup > 0
    monkeypatch.setattr(divisions, "_chain", lambda steps: None)
    with pytest.raises(InvariantError,
                       match=f"^sweep stepped to infeasible theta {sup}$"):
        sup_uniform_feasible(*line, F(0))
    assert sup_uniform_feasible(*line, sup) is None


def test_step_to_an_infeasible_theta_raises_under_python_O():
    code = (
        "from fractions import Fraction as F\n"
        "from cakecut import divisions\n"
        "from cakecut.cake_measure import InvariantError\n"
        "from test_sweep_differential import TIE_HEAVY_NS, tie_heavy_line\n"
        "divisions._chain = lambda steps: None\n"
        "for n in TIE_HEAVY_NS:\n"
        "    try:\n"
        "        divisions.sup_uniform_feasible(*tie_heavy_line(n), F(0))\n"
        "    except InvariantError as e:\n"
        "        print(e)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout == "".join(
        f"sweep stepped to infeasible theta {_sups(n)}\n"
        for n in TIE_HEAVY_NS)
