"""Monotonicity harness semantics and the scripted fixture suite."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cakecut import monotonicity_harness
from cakecut.cake_measure import (
    CakeError,
    Interval,
    InvariantError,
    append,
    problem,
    remove_agent,
)
from cakecut.divisions import ABSOLUTE, CONNECTED, RELATIVE, Division, utilities
from cakecut.monotonicity_harness import (
    FIXTURES,
    GRID_EXPECTED,
    RULES,
    MonotonicityVerdict,
    Rule,
    check_pm,
    check_rm,
    compute_grid,
    get_rule,
    run_all_fixtures,
    run_fixture,
)
from cakecut.rules_monotone import RuleOutput, max_equitable

import randomized_suites as rs


def halves_pair():
    return problem(["A", "B"], [1] * 4, [[1, 1, 1, 1], [1, 1, 3, 3]])


class TestHarness:
    def test_empty_enlargement_always_passes(self):
        verdicts = check_rm("cut-and-choose", halves_pair(), [], {})
        assert all(v.ok for v in verdicts)
        assert {v.direction for v in verdicts} == {"upwards", "downwards"}

    def test_rm_failure_reports_utilities(self):
        up, down = check_rm("cut-and-choose", halves_pair(),
                            [1], {"A": [2], "B": [2]})
        assert not up.ok
        assert up.before["B"] == 6 and up.after["B"] == 5
        assert not down.ok

    def test_pm_identical_agents_survivor_gains(self):
        p = problem(["A", "B"], [1, 1], [[1, 1], [1, 1]])
        verdicts = check_pm("relative-equitable", p, "A")
        assert all(v.ok for v in verdicts)
        assert verdicts[0].agents == ("B",)

    def test_pm_failure(self):
        p = problem(["A", "B", "C"], [1] * 7,
                    [[2, 2, 2, 2, 1, 1, 2], [0, 0, 0, 4, 2, 2, 4],
                     [0, 0, 0, 2, 1, 1, 2]])
        down, up = check_pm("fink", p, "A")
        assert not down.ok
        assert down.before["B"] == 8 and down.after["B"] == 6

    def test_esv_rules_have_matching_directions(self):
        pairs = [
            (halves_pair(), ([1], {"A": [2], "B": [2]})),
            (problem(["A", "B"], [1] * 4, [[10, 10, 1, 1], [1, 1, 10, 10]]),
             ([1, 1], {"A": [10, 10], "B": [1, 1]})),
        ]
        for name in ("exact-proportional", "relative-equitable",
                     "absolute-equitable", "rightmost-mark"):
            for p, extra in pairs:
                up, down = check_rm(name, p, *extra)
                assert up.ok == down.ok

    def test_several_divisions_without_a_vector_are_refused(self):
        rule = Rule("two-ways", CONNECTED, 2, lambda p: RuleOutput(
            [Division.of({"A": [Interval(F(0), F(2))],
                          "B": [Interval(F(2), F(4))]}),
             Division.of({"A": [Interval(F(2), F(4))],
                          "B": [Interval(F(0), F(2))]})]))
        with pytest.raises(InvariantError, match="^rule 'two-ways' returned "
                           "2 divisions and no certified utility vector$"):
            monotonicity_harness._run(rule, halves_pair())

    def test_several_divisions_without_a_vector_under_python_O(self):
        code = (
            "from fractions import Fraction as F\n"
            "from cakecut import monotonicity_harness as mh\n"
            "from cakecut.cake_measure import Interval, InvariantError\n"
            "from cakecut.divisions import Division\n"
            "from cakecut.rules_monotone import RuleOutput\n"
            "def piece(lo, hi):\n"
            "    return [Interval(F(lo), F(hi))]\n"
            "xs = [Division.of({'A': piece(0, 2), 'B': piece(2, 4)}),\n"
            "      Division.of({'A': piece(2, 4), 'B': piece(0, 2)})]\n"
            "rule = mh.Rule('two-ways', 'connected', 2,\n"
            "               lambda p: RuleOutput(xs))\n"
            "try:\n"
            "    mh._run(rule, mh.cake_two_agent_halves())\n"
            "except InvariantError as e:\n"
            "    print(e)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == ("rule 'two-ways' returned 2 divisions and no "
                              "certified utility vector\n")

    def test_arity_enforced(self):
        p = problem(["A", "B", "C"], [1], [[1], [1], [1]])
        with pytest.raises(CakeError):
            check_rm("rightmost-mark", p, [], {})

    def test_unknown_rule(self):
        with pytest.raises(CakeError):
            get_rule("nonexistent")


def counted_runs(monkeypatch):
    """Record (rule name, problem) for every real run of a rule."""
    runs = []
    real = monotonicity_harness._run

    def counting(rule, p):
        runs.append((rule.name, p))
        return real(rule, p)

    monkeypatch.setattr(monotonicity_harness, "_run", counting)
    return runs


class TestSharedBaseRun:
    """check_rm and check_pm share the base problem's rule run, and check_rm
    of several rules shares one enlarged cake."""

    def test_rm_then_pm_runs_each_rule_once_on_the_problem(self, monkeypatch):
        runs = counted_runs(monkeypatch)
        p = problem(["A", "B", "C"], [1, 1, 2], [[1, 2, 3], [3, 0, 1],
                                                 [2, 2, 2]])
        names = ("exact-proportional", "relative-equitable", "even-paz")
        for name in names:
            check_rm(name, p, [1], {"A": [1], "B": [2], "C": [0]})
            check_pm(name, p, "B")
        on_p = [name for name, q in runs if q is p]
        assert sorted(on_p) == sorted(names)
        # the enlarged and the reduced problem are run for each rule
        assert len(runs) == 3 * len(names)

    def test_equal_but_distinct_problem_is_run_again(self, monkeypatch):
        runs = counted_runs(monkeypatch)
        first, second = halves_pair(), halves_pair()
        assert first == second and first is not second
        for p in (first, second):
            check_rm("cut-and-choose", p, [1], {"A": [2], "B": [2]})
        assert [q is first for _, q in runs if q in (first, second)] == [
            True, False]

    def test_empty_enlargement_runs_the_rule_once(self, monkeypatch):
        runs = counted_runs(monkeypatch)
        p = halves_pair()
        verdicts = check_rm("cut-and-choose", p, [], {})
        assert all(v.ok for v in verdicts)
        assert runs == [("cut-and-choose", p)]

    def test_mutating_a_verdict_leaves_later_verdicts_alone(self):
        p = halves_pair()
        extra = ([1], {"A": [2], "B": [2]})
        up, down = check_rm("cut-and-choose", p, *extra)
        expected = [(v.before.copy(), v.after.copy()) for v in (up, down)]
        for v in (up, down):
            v.before["A"] = F(-1)
            v.after.clear()
        # the base run is served from the memo this time
        again = check_rm("cut-and-choose", p, *extra)
        assert [(v.before, v.after) for v in again] == expected

    def test_rules_on_one_enlargement_share_one_enlarged_cake(
            self, monkeypatch):
        runs = counted_runs(monkeypatch)
        p = problem(["A", "B", "C"], [1, 1, 2], [[1, 2, 3], [3, 0, 1],
                                                 [2, 2, 2]])
        names = ("exact-proportional", "relative-equitable",
                 "absolute-equitable", "even-paz", "fink")
        for name in names:
            # an equal enlargement in new lists, ints and Fractions mixed
            check_rm(name, p, [1], {"A": [F(1)], "B": [2], "C": [0]})
            check_pm(name, p, "B")
        big = [q for _, q in runs if q is not p and q.n == 3]
        assert len(big) == len(names)
        assert all(q is big[0] for q in big)
        assert big[0].grid.lengths == (1, 1, 2, 1)

    def test_equal_but_distinct_problem_gets_a_rebuilt_cake(
            self, monkeypatch):
        runs = counted_runs(monkeypatch)
        first, second = halves_pair(), halves_pair()
        for p in (first, second):
            check_rm("cut-and-choose", p, [1], {"A": [2], "B": [2]})
        bigs = [q for _, q in runs if q not in (first, second)]
        assert len(bigs) == 2
        assert bigs[0] == bigs[1] and bigs[0] is not bigs[1]

    def test_mutated_enlargement_gets_a_rebuilt_cake(self, monkeypatch):
        runs = counted_runs(monkeypatch)
        p = halves_pair()
        lengths, rows = [1], {"A": [2], "B": [2]}
        check_rm("cut-and-choose", p, lengths, rows)
        rows["B"][0] = 5
        again = check_rm("rightmost-mark", p, lengths, rows)
        lengths.append(F(1, 2))
        rows["A"].append(0)
        rows["B"].append(1)
        check_rm("exact-proportional", p, lengths, rows)
        bigs = [q for _, q in runs if q is not p]
        assert [q.density("B").values[4:] for q in bigs] == [
            (2,), (5,), (5, 1)]
        # the rebuilt cake gives the verdicts a fresh problem gives
        monkeypatch.setattr(monotonicity_harness, "_base",
                            [None, {}, None, None])
        assert again == check_rm("rightmost-mark", halves_pair(), [1],
                                 {"A": [2], "B": [5]})

    @pytest.mark.parametrize("extra", [
        ([1], {"A": [2]}),
        ([1], {"A": [2], "B": [2], "C": [2]}),
        ([1], {"A": [2], "B": [2, 3]}),
        ([0], {"A": [2], "B": [2]}),
        ([1], {"A": [-2], "B": [2]}),
    ], ids=["missing-agent", "extra-agent", "row-length", "zero-length",
            "negative-density"])
    def test_invalid_enlargement_raises_on_every_call(self, extra):
        p = halves_pair()
        check_rm("cut-and-choose", p, [1], {"A": [2], "B": [2]})
        for name in ("cut-and-choose", "rightmost-mark", "cut-and-choose"):
            with pytest.raises(CakeError):
                check_rm(name, p, *extra)
        # the memo still holds the last valid enlargement, not the invalid one
        assert monotonicity_harness._base[2] == ((1,), {"A": (2,), "B": (2,)})


def tie_heavy_cases():
    """(problem, enlargement, leaving agent) on cakes where max_equitable
    has at least two argmax orderings in both modes."""
    return [
        (problem(["A", "B", "C"], [1] * 4,
                 [[0, 2, 0, 1], [0, 1, 0, 0], [1, 2, 1, 1]]),
         ([1], {"A": [1], "B": [0], "C": [2]}), "B"),
        # identical agents with zero stretches: every ordering is an argmax
        (problem(["A", "B", "C", "D"], [1] * 5, [[1, 0, 2, 0, 1]] * 4),
         ([1, F(1, 2)], {a: [0, 3] for a in "ABCD"}), "C"),
    ]


def differential_cases():
    problems, enlargements, leavers = rs.corpus()
    return [*zip(problems, enlargements, leavers), *tie_heavy_cases()]


def fitting_rules(p):
    return [rule for rule in RULES.values() if rule.arity in (None, p.n)]


def valued_run(rule, p):
    """The rule's output set with every division valued: the oracle for
    the certified vector the equitable rules hand over."""
    return [(x, utilities(p, x, rule.mode).absolute)
            for x in rule.run(p).divisions]


def exists_verdict(axiom, direction, agents, base, other, sign):
    """The existential verdict over two valued output sets, the oracle for
    the harness's one-vector verdict: pass iff for every base division
    some other division is weakly better (sign=+1) or weakly worse
    (sign=-1) for every compared agent."""

    def dominates(u_other, u_base):
        if sign > 0:
            return all(u_other[a] >= u_base[a] for a in agents)
        return all(u_other[a] <= u_base[a] for a in agents)

    first = None
    for xb, ub in base:
        match = next(((xo, uo) for xo, uo in other if dominates(uo, ub)),
                     None)
        if match is None:
            # report the closest candidate for diagnostics
            xo, uo = max(other, key=lambda t: min(
                sign * (t[1][a] - ub[a]) for a in agents))
            return MonotonicityVerdict(axiom, direction, False, agents,
                                       dict(ub), dict(uo), (xb, xo))
        first = first or (xb, ub, *match)
    xb, ub, xo, uo = first
    return MonotonicityVerdict(axiom, direction, True, agents, dict(ub),
                               dict(uo), (xb, xo))


def oracle_checked(p, extra, leaver):
    """checked's verdicts from exists_verdict over valued_run, each rule on
    fresh copies of the problem and enlargement, without the harness."""
    verdicts = []
    for rule in fitting_rules(p):
        q, q_extra = copied(p, extra)
        small, big = valued_run(rule, q), valued_run(rule, append(q, *q_extra))
        rm = [exists_verdict("RM", "upwards", q.agents, small, big, +1),
              exists_verdict("RM", "downwards", q.agents, big, small, -1)]
        pm = None
        if rule.arity is None:
            reduced = remove_agent(q, leaver)
            red = valued_run(rule, reduced)
            pm = [exists_verdict("PM", "downwards", reduced.agents, small,
                                 red, +1),
                  exists_verdict("PM", "upwards", reduced.agents, red,
                                 small, -1)]
        verdicts.append((rule.name, rm, pm))
    return verdicts


def copied(p, extra):
    """A problem and enlargement equal to the given ones, in new objects."""
    lengths, rows = extra
    return (problem(p.agents, list(p.grid.lengths),
                    [list(d.values) for d in p.densities]),
            (list(lengths), {a: list(row) for a, row in rows.items()}))


def checked(p, extra, leaver):
    """Each fitting rule's RM verdicts and, for rules of any arity (the
    reduced problem must fit too), its PM verdicts."""
    return [(rule.name, check_rm(rule.name, p, *extra),
             check_pm(rule.name, p, leaver) if rule.arity is None else None)
            for rule in fitting_rules(p)]


class TestDifferential:
    """The memo, the equitable rules' certified vectors and the one-vector
    verdict change no utility, verdict or witness pair of the existential
    verdict over every valued division (exists_verdict)."""

    def test_tie_heavy_cakes_have_several_argmax_orderings(self):
        for p, _, _ in tie_heavy_cases():
            for mode in (RELATIVE, ABSOLUTE):
                assert len(max_equitable(p, mode).orderings) >= 2

    def test_run_vectors_equal_each_division_valued(self):
        for p, extra, _ in differential_cases():
            for q in (p, append(p, *extra)):
                for rule in fitting_rules(q):
                    valued = valued_run(rule, q)
                    assert monotonicity_harness._run(rule, q) == valued[0], \
                        (rule.name, q)
                    assert all(u == valued[0][1] for _, u in valued), \
                        (rule.name, q)

    def test_verdicts_equal_fresh_runs_without_the_memo(self):
        cases = differential_cases()
        memoised = [checked(*case) for case in cases]
        for case, got in zip(cases, memoised):
            assert got == oracle_checked(*case), case[0]

    def test_directions_agree_and_mirror_witnesses(self):
        for case in differential_cases():
            for name, rm, pm in checked(*case):
                for first, second in filter(None, (rm, pm)):
                    assert first.ok == second.ok, name
                    assert first.witness_pair == second.witness_pair[::-1], \
                        name


class TestFixtures:
    def test_unknown_fixture(self):
        with pytest.raises(CakeError):
            run_fixture("nonexistent")

    def test_all_fixture_names_run(self):
        assert set(FIXTURES) == {
            "noop", "cc-rm", "sc-rm", "ds-pm", "fink-pm", "thm1", "thm2",
            "nash-connected", "eq-not-rm", "classic-wpo", "crumbs-wpo",
            "splitter-wpo", "table1",
        }

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_passes(self, name):
        claims = run_fixture(name)
        assert claims, "fixture must emit at least one claim"
        failures = [c.line() for c in claims if not c.ok]
        assert not failures, failures

    def test_report_lines_stable(self):
        lines = [c.line() for c in run_fixture("thm2")]
        assert lines == [
            "thm2/carl-envies-alice: PASS expected=False got=False",
            "thm2/alice-max-given-carl: PASS expected=5 got=5",
        ]


class TestGrid:
    def test_recomputed_grid_matches_expected(self):
        assert compute_grid() == GRID_EXPECTED

    def test_grid_shape(self):
        for row in GRID_EXPECTED.values():
            assert set(row) == {"CON", "EF", "PROP", "PO", "WPO", "RM", "PM"}
