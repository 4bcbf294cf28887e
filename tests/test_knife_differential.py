"""Differential test of the moving knife's end state.

rules_monotone._knife_cuts, which equitable_for_ordering runs and
max_equitable runs for each argmax ordering, builds the least exact
partition in the ordering on int pairs.  It is compared with a Fraction
simulation of the knife, kept below as the oracle: greedy_fit at v *
scale, then the phase-2 slides, with densities and breakpoints read
through the Fraction references of tests/test_measure_differential.py,
then every piece valued and compared with v * scale.  Outcomes are
compared exactly, by repr (so the cuts must be Fractions), or by
exception type and message, on:

- the floor-start corpus (tests/test_floor_start.py), which reaches no
  slide at v, a slide of the last knife and a slide of an interior knife:
  every ordering in both modes, at the ordering's value, a millionth above
  and below it, at the proportional bound and one above the value;
- tie-heavy cakes (every agent shares one base row, plus its own zero
  stretch) at n = 2..6: every argmax ordering of max_equitable in both
  modes, and every ordering up to n = 5 at the same values;
- orderings whose value is 0 (knives that start at 0 and slide through
  zero stretches only), through the CLI's --ordering.
"""

import json
from fractions import Fraction as F
from itertools import permutations

import pytest

from cakecut.cake_measure import (
    CakeError,
    Interval,
    InvariantError,
    problem,
    problem_to_json,
    value,
)
from cakecut.cli import main
from cakecut.divisions import (
    ABSOLUTE,
    RELATIVE,
    division_from_cuts,
    division_to_json,
    greedy_fit,
)
from cakecut.rules_monotone import (
    EquitableResult,
    equitable_for_ordering,
    equitable_value_oracle,
    max_equitable,
)

from test_floor_start import problems, scales
from test_measure_differential import ref_density_right_of, ref_next_breakpoint
from test_pruned_search import proportional_bound
from test_sweep_differential import TIE_HEAVY_NS, tie_heavy_cake


def oracle_equitable_for_ordering(p, pi, mode, v=None):
    """The Fraction knife simulation the library once ran, verbatim but
    for the scales (read from test_floor_start) and the density and
    breakpoint lookups (the references of test_measure_differential)."""
    pi = tuple(pi)
    if sorted(pi) != sorted(p.agents):
        raise CakeError("ordering must be a permutation of the agents")
    if v is None:
        v = equitable_value_oracle(p, pi, mode)
    if v < 0:
        raise InvariantError(f"value {v} is below the ordering's value")
    scale = scales(p, mode)
    x = greedy_fit(p, pi, {a: v * scale[a] for a in pi})
    if x is None:
        raise InvariantError(f"value {v} is above the ordering's value")
    dens = [p.density(a) for a in pi]
    n = len(pi)
    c = p.cake_length
    while x[-1] != c:
        # the rightmost blocked knife r slides at unit speed; every knife
        # right of it keeps its piece worth what it was
        blocked = [i for i in range(n)
                   if x[i] < c and ref_density_right_of(dens[i], x[i]) == 0]
        if not blocked:
            raise InvariantError(f"value {v} is below the ordering's value")
        r = blocked[-1]
        speed = [F(0)] * n
        speed[r] = F(1)
        for k in range(r + 1, n):
            speed[k] = (ref_density_right_of(dens[k], x[k - 1]) * speed[k - 1]
                        / ref_density_right_of(dens[k], x[k]))
        step = min((ref_next_breakpoint(d, xi) - xi) / si
                   for d, xi, si in zip(dens, x, speed) if si)
        x = [xi + si * step for xi, si in zip(x, speed)]
    lo = F(0)
    for a, d, hi in zip(pi, dens, x):
        if value(d, Interval(lo, hi)) != v * scale[a]:
            raise InvariantError(f"piece of {a} is not worth {v} * scale")
        lo = hi
    return EquitableResult(pi, tuple(x[:-1]), v, mode)


def outcome(build, *args):
    """("ok", the result's repr), or the type and message of the
    exception raised."""
    try:
        return "ok", repr(build(*args))
    except Exception as e:  # compared, not handled
        return type(e).__name__, str(e)


MILLIONTH = F(1, 10**6)


def compare(p, orderings, mode):
    """Asserts both builders agree on every ordering at every value; returns
    the outcomes' kinds seen (the exception types, "ok" for a result)."""
    low = proportional_bound(p, mode)
    seen = set()
    for pi in orderings:
        v = equitable_value_oracle(p, pi, mode)
        for guess in (None, v, v + MILLIONTH, v - MILLIONTH, low, v + 1):
            expected = outcome(oracle_equitable_for_ordering, p, pi, mode,
                               guess)
            assert outcome(equitable_for_ordering, p, pi, mode,
                           guess) == expected, (pi, guess)
            seen.add(expected[0])
    return seen


MODES = [RELATIVE, ABSOLUTE]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("index", range(len(problems())),
                         ids=[f"n{p.n}-{i}" for i, p in enumerate(problems())])
def test_floor_start_corpus_matches_oracle(index, mode):
    p = problems()[index]
    compare(p, permutations(p.agents), mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [n for n in TIE_HEAVY_NS if n <= 5])
def test_tie_heavy_orderings_match_oracle(n, mode):
    p = tie_heavy_cake(n)
    assert compare(p, permutations(p.agents), mode) == {
        "ok", "InvariantError"}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", TIE_HEAVY_NS)
def test_tie_heavy_argmax_divisions_match_oracle(n, mode):
    p = tie_heavy_cake(n)
    out = max_equitable(p, mode)
    assert out.divisions == [
        division_from_cuts(p, pi, oracle_equitable_for_ordering(
            p, pi, mode, out.value).cuts) for pi in out.orderings]
    compare(p, out.orderings, mode)


# ---------------------------------------------------------------------------
# Orderings whose value is 0, through the CLI


def zero_pair():
    # A values only the last slice, B only the first: in the ordering A, B
    # no piece of B after A's is worth anything, so v = 0; A's knife slides
    # through its zero stretch to 1, then B's to the end
    return problem(["A", "B"], [1] * 4, [[0, 0, 0, 1], [1, 0, 0, 0]])


def zero_triple():
    return problem(["A", "B", "C"], [1, F(1, 2), 2, 1],
                   [[0, 0, 1, 2], [3, 1, 0, 0], [1, 1, 1, 1]])


def divide(tmp_path, capsys, p, rule, pi):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem_to_json(p)))
    assert main(["divide", "--rule", rule, "--problem", str(path),
                 "--ordering", ",".join(pi)]) == 0
    return capsys.readouterr().out.splitlines()


RULES = {RELATIVE: "relative-equitable", ABSOLUTE: "absolute-equitable"}


@pytest.mark.parametrize("mode", MODES)
def test_zero_value_orderings_through_the_cli(tmp_path, capsys, mode):
    zeros = 0
    for p in (zero_pair(), zero_triple()):
        for pi in permutations(p.agents):
            if equitable_value_oracle(p, pi, mode) != 0:
                continue
            zeros += 1
            ref = oracle_equitable_for_ordering(p, pi, mode)
            out = divide(tmp_path, capsys, p, RULES[mode], pi)
            assert "value: 0" in out
            assert out[-1] == "division: " + json.dumps(division_to_json(
                division_from_cuts(p, pi, ref.cuts)))
            assert outcome(equitable_for_ordering, p, pi, mode) == (
                "ok", repr(ref))
    assert zeros >= 4


def test_zero_value_pair_slides_both_knives(tmp_path, capsys):
    out = divide(tmp_path, capsys, zero_pair(), "relative-equitable",
                 ("A", "B"))
    assert out[2] == "value: 0"
    assert out[-1] == ('division: [{"agent": "A", "intervals": [["0", "1"]]}, '
                       '{"agent": "B", "intervals": [["1", "4"]]}]')
