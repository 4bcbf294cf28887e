"""Axiom checkers, feasibility primitives, and connected Pareto search."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from cakecut import cake_measure, divisions
from cakecut.cake_measure import (
    CakeError,
    Interval,
    InvariantError,
    leftmost_mark,
    merge_components,
    problem,
    remove_agent,
    suffix_mark,
)
from cakecut.divisions import (
    ABSOLUTE,
    ADDITIVE,
    CONNECTED,
    RELATIVE,
    Division,
    check_ef,
    check_equitable,
    check_esv,
    check_po_connected,
    check_prop,
    check_wpo_connected,
    division_from_cuts,
    division_from_json,
    division_to_json,
    greedy_fit,
    max_slack,
    nash_product,
    pivot_max,
    sup_uniform_feasible,
    utilities,
    validate_division,
)

from cakecut.rules_monotone import (
    equitable_for_ordering,
    exact_proportional,
    max_equitable,
)

from test_pruned_search import corpus, enumerated_pivot_max, mark_chain


def iv(lo, hi):
    return Interval(F(lo), F(hi))


def forced_pair():
    return problem(["A", "B"], [1] * 4, [[6, 0, 1, 1], [0, 4, 2, 2]])


def forced_pair_big():
    return problem(["A", "B"], [1] * 5, [[6, 0, 1, 1, 6], [0, 4, 2, 2, 0]])


def no_po_ef():
    return problem(["A", "B", "C"], [1] * 7,
                   [[2, 0, 3, 0, 2, 0, 0], [0, 0, 0, 0, 0, 7, 0],
                    [0, 2, 0, 2, 0, 0, 3]])


def nash_cake():
    return problem(["A", "B"], [1] * 6, [[2] * 6, [1, 1, 4, 4, 1, 1]])


class TestValidation:
    def test_overlapping_pieces_rejected(self):
        p = forced_pair()
        x = Division.of({"A": [iv(0, 2)], "B": [iv(1, 4)]})
        with pytest.raises(CakeError):
            validate_division(p, x)

    def test_outside_cake_rejected(self):
        p = forced_pair()
        x = Division.of({"A": [iv(0, 5)], "B": []})
        with pytest.raises(CakeError):
            validate_division(p, x)

    def test_shared_endpoint_allowed(self):
        p = forced_pair()
        x = Division.of({"A": [iv(0, 2)], "B": [iv(2, 4)]})
        validate_division(p, x)

    def test_unassigned_agent_gets_zero(self):
        p = forced_pair()
        x = Division.of({"A": [iv(0, 1)]})
        u = utilities(p, x)
        assert u.absolute["B"] == 0

    def test_relative_derived_on_first_read(self):
        p = no_po_ef()
        x = Division.of({"A": [iv(0, 1), iv(1, 2)], "C": [iv(3, 5)]})
        u = utilities(p, x)
        assert "relative" not in vars(u)
        assert u.relative == {a: u.absolute[a] / cake_measure.total(d)
                              for a, d in zip(p.agents, p.densities)}
        assert u.relative == {"A": F(2, 7), "B": 0, "C": F(2, 7)}
        assert u.relative is u.relative

    def test_relative_over_a_corpus(self):
        for p in corpus():
            out = max_equitable(p, RELATIVE)
            totals = {a: sum(v * length for v, length
                             in zip(d.values, p.grid.lengths))
                      for a, d in zip(p.agents, p.densities)}
            for x in out.divisions:
                u = utilities(p, x)
                assert u.relative == {a: u.absolute[a] / totals[a]
                                      for a in p.agents}
                # each relative-equitable piece is worth the rule's value
                assert set(u.relative.values()) == {out.value}

    def test_utilities_merges_each_piece_once(self, monkeypatch):
        merged = []

        def merge(piece):
            merged.append(piece)
            return merge_components(piece)

        for module in (cake_measure, divisions):
            monkeypatch.setattr(module, "merge_components", merge)
        p = no_po_ef()
        x = Division.of({"A": [iv(0, 1), iv(1, 2)], "C": [iv(3, 5)]})
        u = utilities(p, x)
        assert u.absolute == {"A": 2, "B": 0, "C": 2}
        assert len(merged) == len(x.assignments)

    def test_check_ef_merges_each_piece_once(self, monkeypatch):
        p = no_po_ef()
        x = Division.of({"A": [iv(0, 1), iv(1, 3)], "B": [iv(5, 6)],
                         "C": [iv(3, 5), iv(6, 7)]})
        u = utilities(p, x)
        merged = []

        def merge(piece):
            merged.append(piece)
            return merge_components(piece)

        for module in (cake_measure, divisions):
            monkeypatch.setattr(module, "merge_components", merge)
        # envy-free, so every agent values every other piece
        assert check_ef(p, x, CONNECTED, u)
        assert len(merged) == len(x.assignments)

    # Faulty divisions of forced_pair (the cake [0, 4]) and the exact error
    # each raises from utilities and check_ef; the two-fault cases fix the
    # order in which the faults are found.
    FAULTS = {
        "unknown-agent": (
            {"Z": [iv(0, 1)]}, CONNECTED,
            "division mentions unknown agents"),
        "end-past-c": (
            {"A": [iv(0, 1)], "B": [iv(1, 5)]}, CONNECTED,
            r"interval \[1, 5\] outside cake"),
        "overlap-in-piece": (
            {"A": [iv(0, 2), iv(1, 3)]}, ADDITIVE,
            "overlapping intervals in piece"),
        "overlap-across-agents": (
            {"A": [iv(0, 2)], "B": [iv(F(3, 2), 4)]}, CONNECTED,
            "pieces overlap near 3/2"),
        "unknown-mode": (
            {"A": [iv(0, 1)], "B": [iv(1, 4)]}, "bogus",
            "unknown utility mode 'bogus'"),
        "unknown-agent-and-end-past-c": (
            {"A": [iv(0, 5)], "Z": [iv(0, 1)]}, CONNECTED,
            "division mentions unknown agents"),
        "end-past-c-after-an-overlap-in-its-piece": (
            {"A": [iv(0, 2), iv(1, 3), iv(3, 5)]}, CONNECTED,
            r"interval \[3, 5\] outside cake"),
        "overlap-in-piece-before-end-past-c-of-a-later-agent": (
            {"A": [iv(0, 2), iv(1, 3)], "B": [iv(3, 5)]}, CONNECTED,
            "overlapping intervals in piece"),
        "end-past-c-and-overlap-across-agents": (
            {"A": [iv(0, 2)], "B": [iv(1, 5)]}, CONNECTED,
            r"interval \[1, 5\] outside cake"),
        "overlap-across-agents-and-unknown-mode": (
            {"A": [iv(0, 2)], "B": [iv(1, 4)]}, "bogus",
            "pieces overlap near 1"),
        "end-past-c-and-unknown-mode": (
            {"A": [iv(0, 5)]}, "bogus",
            r"interval \[0, 5\] outside cake"),
    }

    @pytest.mark.parametrize("check", [utilities, check_ef],
                             ids=["utilities", "check_ef"])
    @pytest.mark.parametrize("name", list(FAULTS))
    def test_faults_raise_their_exact_message(self, check, name):
        pieces, mode, message = self.FAULTS[name]
        with pytest.raises(CakeError, match=f"^{message}$"):
            check(forced_pair(), Division.of(pieces), mode)

    # check_ef handed utilities does not validate the division: it values
    # every other piece, each value first and the mode after
    @pytest.mark.parametrize("pieces, mode, message", [
        ({"A": [iv(0, 1)], "B": [iv(1, 5)]}, CONNECTED,
         r"interval \[1, 5\] outside cake"),
        ({"A": [iv(0, 1)], "B": [iv(1, 2), iv(F(3, 2), 4)]}, CONNECTED,
         "overlapping intervals in piece"),
        ({"A": [iv(0, 1)], "B": [iv(1, 4)]}, "bogus",
         "unknown utility mode 'bogus'"),
        ({"A": [iv(0, 1)], "B": [iv(1, 5)]}, "bogus",
         r"interval \[1, 5\] outside cake"),
    ], ids=["end-past-c", "overlap-in-piece", "unknown-mode",
            "end-past-c-and-unknown-mode"])
    def test_check_ef_with_utilities_values_before_the_mode(self, pieces,
                                                            mode, message):
        p = forced_pair()
        u = utilities(p, Division.of({"A": [iv(0, 1)], "B": [iv(1, 4)]}))
        with pytest.raises(CakeError, match=f"^{message}$"):
            check_ef(p, Division.of(pieces), mode, u)

    def test_json_round_trip(self):
        x = Division.of({"A": [iv(0, F(3, 2))], "B": [iv(F(3, 2), 4)]})
        assert division_from_json(division_to_json(x)) == x

    def test_json_duplicate_agent_rejected(self):
        obj = [{"agent": "A", "intervals": [["0", "1"]]},
               {"agent": "A", "intervals": [["2", "3"]]}]
        with pytest.raises(CakeError, match="lists an agent twice"):
            division_from_json(obj)

    @pytest.mark.parametrize("obj", [
        [{"agent": 3, "intervals": [["0", "1"]]}],
        [{"agent": "A", "intervals": [[0.5, "1"]]}],
        [{"agent": "A", "intervals": "01"}],
        {"agent": "A", "intervals": [["0", "1"]]},
    ], ids=["int-agent", "float-endpoint", "string-intervals", "object"])
    def test_json_malformed_rejected(self, obj):
        with pytest.raises(CakeError, match="malformed division"):
            division_from_json(obj)


class TestAxioms:
    def test_prop_boundary(self):
        p = nash_cake()
        # A relative 4/12 = 1/3 < 1/2: not proportional for two agents
        x = Division.of({"A": [iv(0, 2)], "B": [iv(2, 6)]})
        assert not check_prop(p, x)
        y = Division.of({"A": [iv(0, 3)], "B": [iv(3, 6)]})
        assert check_prop(p, y)

    def test_ef_on_example_division(self):
        p = no_po_ef()
        x = Division.of({"A": [iv(0, 5)], "B": [iv(5, 6)], "C": [iv(6, 7)]})
        # C values A's piece at 4 but its own at only 3
        assert not check_ef(p, x)

    def test_equitable_stats(self):
        p = forced_pair()
        x = Division.of({"A": [iv(0, 1)], "B": [iv(1, 4)]})
        ok, stats = check_equitable(p, x, ABSOLUTE)
        assert not ok and (stats.v_min, stats.v_max) == (6, 8)
        ok_rel, stats_rel = check_equitable(p, x, RELATIVE)
        assert not ok_rel and (stats_rel.v_min, stats_rel.v_max) == (F(3, 4), 1)

    def test_nash_product(self):
        p = nash_cake()
        x = Division.of({"A": [iv(0, 2)], "B": [iv(2, 6)]})
        assert nash_product(p, x) == 40
        empty = Division.of({"A": [], "B": [iv(0, 6)]})
        assert nash_product(p, empty) == 0

    def test_esv_compares_the_whole_vectors(self):
        """check_esv agrees with comparing each division's absolute and
        relative utilities, on equal sets (the relative-equitable
        outputs) and on sets that add the exact-proportional division."""
        for p in corpus():
            equal = max_equitable(p, RELATIVE).divisions
            for xs in (equal, equal + [exact_proportional(p)]):
                vectors = [(u.absolute, u.relative)
                           for u in (utilities(p, x) for x in xs)]
                assert check_esv(p, xs) == all(v == vectors[0]
                                               for v in vectors)
            assert check_esv(p, equal)

    def test_esv(self):
        p = nash_cake()
        even = Division.of({"A": [iv(0, 3)], "B": [iv(3, 6)]})
        uneven = Division.of({"A": [iv(0, 2)], "B": [iv(2, 6)]})
        assert check_esv(p, [even, even])
        assert not check_esv(p, [even, uneven])
        with pytest.raises(CakeError):
            check_esv(p, [])


class TestMarkChain:
    def test_prefix_chain(self):
        p = forced_pair()
        dens = [p.density("A"), p.density("B")]
        assert mark_chain(leftmost_mark, dens, [F(6), F(4)], F(0)) == [1, 2]

    def test_suffix_chain_right_to_left(self):
        p = forced_pair()
        dens = [p.density("B"), p.density("A")]
        assert mark_chain(suffix_mark, dens, [F(4), F(2)],
                          p.cake_length) == [2, F(2, 3)]

    def test_stops_reading_targets_at_the_first_failing_mark(self):
        p = forced_pair()
        read = []

        def targets():
            for t in (F(6), F(100), F(1)):
                read.append(t)
                yield t

        dens = [p.density("A"), p.density("B"), p.density("A")]
        assert mark_chain(leftmost_mark, dens, targets(), F(0)) is None
        assert read == [6, 100]


class TestGreedyFit:
    def test_all_zero_targets(self):
        p = forced_pair()
        assert greedy_fit(p, ("A", "B"), {"A": F(0), "B": F(0)}) == (0, 0)

    def test_infeasible_on_enlarged_cake(self):
        p = forced_pair_big()
        assert greedy_fit(p, ("A", "B"), {"A": F(7), "B": F(7)}) is None

    def test_feasible_cuts_meet_targets(self):
        p = remove_agent(no_po_ef(), "B")
        cuts = greedy_fit(p, ("A", "C"), {"A": F(5), "C": F(7, 2)})
        assert cuts == (3, F(13, 2))
        x = division_from_cuts(p, ("A", "C"), cuts)
        u = utilities(p, x)
        assert u.absolute["A"] >= 5 and u.absolute["C"] >= F(7, 2)

    def test_negative_target_rejected(self):
        p = forced_pair()
        with pytest.raises(CakeError):
            greedy_fit(p, ("A", "B"), {"A": F(-1), "B": F(0)})

    def test_missing_target_rejected(self):
        p = forced_pair()
        with pytest.raises(CakeError, match="^no target for agent 'B'$"):
            greedy_fit(p, ("A", "B"), {"A": F(1)})

    def test_targets_read_lazily(self):
        # A's 100 does not fit, so B's missing target is never read
        assert greedy_fit(forced_pair(), ("A", "B"), {"A": F(100)}) is None


INEXACT = [0.5, 1.0, True, "1/2"]


@pytest.mark.parametrize("x", INEXACT, ids=repr)
class TestInexactNumbersAreRefused:
    """The public entries that read a number's numerator and denominator
    refuse a float, a bool or a non-number with CakeError, where a float
    raised AttributeError; an int or a Fraction is exact."""

    def refused(self, x, what, call):
        with pytest.raises(CakeError, match=f"^{what} must be an int or a "
                                            f"Fraction, got "):
            call()

    def test_pivot_max_floor(self, x):
        self.refused(x, "floor",
                     lambda: pivot_max(forced_pair(), "A", {"B": x}))

    def test_greedy_fit_target(self, x):
        self.refused(x, "target", lambda: greedy_fit(
            forced_pair(), ("A", "B"), {"A": x, "B": F(1)}))

    def test_equitable_for_ordering_value(self, x):
        self.refused(x, "value", lambda: equitable_for_ordering(
            forced_pair(), ("A", "B"), RELATIVE, x))

    @pytest.mark.parametrize("where", ["alpha", "beta", "start"])
    def test_sweep_line(self, x, where):
        args = {"alpha": [F(0), F(0)], "beta": [F(1), F(1)], "start": F(0)}
        args[where] = x if where == "start" else [F(0), x]
        self.refused(x, where, lambda: sup_uniform_feasible(
            forced_pair(), ("A", "B"), args["alpha"], args["beta"],
            args["start"]))


def test_exact_numbers_are_taken_as_ints_and_fractions():
    p = forced_pair()
    assert pivot_max(p, "B", {"A": 8}) == pivot_max(p, "B", {"A": F(8)}) == 0
    assert greedy_fit(p, ("A", "B"), {"A": 6, "B": F(8)}) == (1, 4)
    assert equitable_for_ordering(p, ("A", "B"), ABSOLUTE, 6).cuts == (
        equitable_for_ordering(p, ("A", "B"), ABSOLUTE, F(6)).cuts)


class TestConstrainedMax:
    """pivot_max, the pivot's largest piece over all orderings given floors
    for the others, equals the max over permutations of the test's
    constrained partitions (enumerated_pivot_max)."""

    def check(self, p, pivot, floors, want):
        assert pivot_max(p, pivot, floors) == want
        assert enumerated_pivot_max(p, pivot, floors) == want

    def test_reduced_cake_pivot_left(self):
        self.check(remove_agent(no_po_ef(), "B"), "A", {"C": F(7, 2)}, 5)

    def test_enlarged_cake_pivot_right(self):
        self.check(forced_pair_big(), "B", {"A": F(7)}, 6)

    def test_others_consume_everything(self):
        self.check(forced_pair(), "B", {"A": F(8)}, 0)

    def test_infeasible_targets(self):
        self.check(forced_pair(), "B", {"A": F(9)}, None)

    def test_single_agent_gets_the_whole_cake(self):
        self.check(problem(["A"], [1, 2], [[1, 3]]), "A", {}, 7)

    def test_three_agents_on_the_unreduced_cake(self):
        # B's 7 fills [5, 6], so C's 7/2 must come from left of it
        self.check(no_po_ef(), "A", {"B": F(7), "C": F(7, 2)}, 2)

    @pytest.mark.parametrize("pivot, floors, match", [
        ("Z", {"A": F(1)}, "unknown agent 'Z'"),
        ("B", {}, "floors must name exactly"),
        ("B", {"A": F(1), "B": F(1)}, "floors must name exactly"),
        ("B", {"A": F(1), "Z": F(1)}, "floors must name exactly"),
        ("B", {"A": F(-1)}, "must be nonnegative"),
    ], ids=["unknown-pivot", "missing-floor", "pivot-floor", "unknown-floor",
            "negative-floor"])
    def test_bad_input_is_refused(self, pivot, floors, match):
        with pytest.raises(CakeError, match=match):
            pivot_max(forced_pair(), pivot, floors)


class TestSweep:
    def test_max_slack_positive_on_dominated_division(self):
        p = problem(["A", "B", "C"], [1] * 6,
                    [[2, 0, 0, 0, 0, 4], [2, 3, 1, 1, 5, 0],
                     [2, 3, 1, 1, 5, 0]])
        x = Division.of({"A": [iv(0, 1)], "B": [iv(1, 4)], "C": [iv(4, 6)]})
        base = utilities(p, x)
        assert base.absolute == {"A": F(2), "B": F(5), "C": F(5)}
        assert max_slack(p, ("B", "C", "A"), base) > 0

    def test_max_slack_zero_base(self):
        p = forced_pair()
        zero = utilities(p, Division.of({"A": [], "B": []}))
        assert max_slack(p, ("A", "B"), zero) > 0

    def test_max_slack_negative_when_base_infeasible(self):
        p = forced_pair()
        x = Division.of({"A": [iv(0, 1)], "B": [iv(1, 4)]})
        base = utilities(p, x)  # (6, 8): B's 8 needs the whole suffix
        # ordering (B, A) cannot even reproduce the base utilities
        assert max_slack(p, ("B", "A"), base) is None

    def test_max_slack_rejects_an_unknown_agent(self):
        p = forced_pair()
        base = utilities(p, Division.of({"A": [], "B": []}))
        with pytest.raises(CakeError, match="^unknown agent 'Z'$"):
            max_slack(p, ("A", "Z"), base)

    @pytest.mark.parametrize("pi", [("A", "A"), ("A",), ("B", "A", "B")],
                             ids=["repeated", "short", "long"])
    def test_max_slack_rejects_an_ordering_that_is_not_a_permutation(self,
                                                                     pi):
        # with empty base pieces ("A", "A") read 1/2 and ("A",) read 1,
        # slacks for no partition among both agents
        p = forced_pair()
        base = utilities(p, Division.of({"A": [], "B": []}))
        with pytest.raises(CakeError, match="^ordering must be a "
                                            "permutation of the agents$"):
            max_slack(p, pi, base)

    @pytest.mark.parametrize("pi, alphas, betas", [
        (("A",), [F(0)], [F(1), F(1)]),
        (("A",), [F(0), F(0)], [F(1)]),
        (("A", "B"), [F(0)], [F(1)]),
        ((), [], []),
    ], ids=["extra-beta", "extra-alpha", "short-lines", "empty"])
    def test_rejects_lines_that_do_not_match_the_ordering(self, pi, alphas,
                                                          betas):
        with pytest.raises(CakeError, match="^sweep requires a nonempty "
                                            "ordering"):
            sup_uniform_feasible(forced_pair(), pi, alphas, betas, F(0))

    def test_max_slack_monotone_in_base(self):
        p = nash_cake()
        x = Division.of({"A": [iv(0, 2)], "B": [iv(2, 6)]})
        base = utilities(p, x)
        raised = utilities(p, Division.of({"A": [iv(0, 3)], "B": [iv(3, 6)]}))
        for pi in (("A", "B"), ("B", "A")):
            assert max_slack(p, pi, raised) <= max_slack(p, pi, base)

    def test_sup_attained_at_feasibility_jump(self):
        # the second agent's cut jumps across a zero-density stretch
        p = problem(["A", "B"], [1, 1, 1], [[1, 0, 1], [0, 1, 0]])
        v = sup_uniform_feasible(p, ("A", "B"), [F(0), F(0)], [F(2), F(1)],
                                 F(0))
        assert v == F(1, 2)

    def test_infeasible_start_gives_none(self):
        # the supremum is 1/2: any start up to it sweeps to 1/2, a start
        # above it is refused after one greedy pass
        p = problem(["A", "B"], [1, 1, 1], [[1, 0, 1], [0, 1, 0]])
        for start, expected in ((F(1, 4), F(1, 2)), (F(1, 2), F(1, 2)),
                                (F(3, 5), None), (F(1), None)):
            assert sup_uniform_feasible(p, ("A", "B"), [F(0), F(0)],
                                        [F(2), F(1)], start) == expected

    def test_rejects_nonpositive_slope(self):
        p = forced_pair()
        with pytest.raises(CakeError):
            sup_uniform_feasible(p, ("A", "B"), [F(0), F(0)], [F(1), F(0)],
                                 F(0))

    def test_rejects_negative_target_at_start(self):
        # B's target -1 + 2 * theta is negative at 0 and at 1/4; it is 0 at
        # 1/2, where the sweep may start
        p = forced_pair()
        for start in (F(0), F(1, 4)):
            with pytest.raises(CakeError,
                               match="^sweep targets must be nonnegative "
                                     "at start$"):
                sup_uniform_feasible(p, ("A", "B"), [F(0), F(-1)],
                                     [F(1), F(2)], start)
        assert sup_uniform_feasible(p, ("A", "B"), [F(0), F(-1)],
                                    [F(1), F(2)], F(1, 2)) is not None

    def test_rejects_negative_target_after_an_agent_stuck_at_start(self):
        # A's target 100 exceeds its total 8, so the chain is stuck at the
        # first agent; C's target -1 at start must still be refused, not
        # answered with None by the greedy pass that fails at A
        p = problem(["A", "B", "C"], [1] * 4,
                    [[6, 0, 1, 1], [0, 4, 2, 2], [1, 1, 1, 1]])
        with pytest.raises(CakeError,
                           match="^sweep targets must be nonnegative "
                                 "at start$"):
            sup_uniform_feasible(p, ("A", "B", "C"), [F(100), F(0), F(-1)],
                                 [F(1), F(1), F(1)], F(0))
        assert sup_uniform_feasible(p, ("A", "B", "C"),
                                    [F(100), F(0), F(-1)],
                                    [F(1), F(1), F(1)], F(1)) is None


def jump_cake():
    # the cake of TestSweep's feasibility jump: supremum 1/2 from 0
    return problem(["A", "B"], [1, 1, 1], [[1, 0, 1], [0, 1, 0]])


class TestSweepSelfCheck:
    """The sweep's greedy pass (the int mark chain divisions._chain, which
    greedy_fit wraps), run where the chain of maximal marks gets stuck, made
    to fail: after a step it must raise, at the start it means the supremum
    lies below the start.  On jump_cake the sweep from 0 steps to the
    supremum 1/2."""

    LINE = (("A", "B"), [F(0), F(0)], [F(2), F(1)])

    def test_failing_pass_after_a_step_raises(self, monkeypatch):
        monkeypatch.setattr(divisions, "_chain", lambda *args: None)
        with pytest.raises(InvariantError,
                           match="^sweep stepped to infeasible theta 1/2$"):
            sup_uniform_feasible(jump_cake(), *self.LINE, F(0))

    def test_failing_pass_at_start_gives_none(self, monkeypatch):
        monkeypatch.setattr(divisions, "_chain", lambda *args: None)
        assert sup_uniform_feasible(jump_cake(), *self.LINE, F(1, 2)) is None

    def test_self_check_runs_under_python_O(self):
        code = (
            "from fractions import Fraction as F\n"
            "from cakecut import divisions\n"
            "from cakecut.cake_measure import InvariantError, problem\n"
            "divisions._chain = lambda *args: None\n"
            "p = problem(['A', 'B'], [1, 1, 1], [[1, 0, 1], [0, 1, 0]])\n"
            "line = (p, ('A', 'B'), [F(0), F(0)], [F(2), F(1)])\n"
            "print(divisions.sup_uniform_feasible(*line, F(1, 2)))\n"
            "try:\n"
            "    divisions.sup_uniform_feasible(*line, F(0))\n"
            "except InvariantError as e:\n"
            "    print(e)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == "None\nsweep stepped to infeasible theta 1/2\n"

    def test_one_greedy_pass_per_sweep(self, monkeypatch):
        real = divisions._chain
        passes = []

        def counted(*args):
            passes.append(args)
            return real(*args)

        monkeypatch.setattr(divisions, "_chain", counted)
        p = nash_cake()
        sweeps = 0
        for pi in (("A", "B"), ("B", "A")):
            for alphas, start in (([F(0), F(0)], F(0)),
                                  ([F(1), F(2)], F(1, 2)),
                                  ([F(0), F(0)], F(1))):
                sup_uniform_feasible(p, pi, alphas, [F(1), F(2)], start)
                sweeps += 1
                assert len(passes) == sweeps
        assert sup_uniform_feasible(jump_cake(), *self.LINE, F(0)) == F(1, 2)
        assert len(passes) == sweeps + 1


class TestParetoCheckers:
    def test_wpo_fails_with_verified_witness(self):
        p = problem(["A", "B"], [1, 1], [[2, 0], [0, 2]])
        x = Division.of({"A": [iv(0, F(1, 2))], "B": [iv(F(1, 2), F(3, 2))]})
        result = check_wpo_connected(p, x)
        assert not result
        wu = result.witness_utilities.absolute
        base = utilities(p, x).absolute
        assert all(wu[a] > base[a] for a in p.agents)

    def test_wpo_holds_for_full_value_split(self):
        p = problem(["A", "B"], [1, 1], [[2, 0], [0, 2]])
        x = Division.of({"A": [iv(0, 1)], "B": [iv(1, 2)]})
        assert check_wpo_connected(p, x)

    def test_po_true_on_forced_division(self):
        p = forced_pair()
        x = Division.of({"A": [iv(0, 1)], "B": [iv(1, 4)]})
        assert check_po_connected(p, x)

    def test_po_false_with_weak_witness(self):
        p = problem(["A", "B"], [1, 1, 1], [[1, 0, 1], [0, 1, 0]])
        x = Division.of({"A": [iv(0, F(3, 2))], "B": [iv(F(3, 2), 3)]})
        result = check_po_connected(p, x)
        assert not result
        wu = result.witness_utilities.absolute
        base = utilities(p, x).absolute
        assert all(wu[a] >= base[a] for a in p.agents)
        assert any(wu[a] > base[a] for a in p.agents)

    @pytest.mark.parametrize("check", [check_wpo_connected,
                                       check_po_connected])
    def test_given_utilities_give_the_same_verdict(self, check):
        p = problem(["A", "B"], [1, 1, 1], [[1, 0, 1], [0, 1, 0]])
        x = Division.of({"A": [iv(0, F(3, 2))], "B": [iv(F(3, 2), 3)]})
        assert check(p, x, utilities(p, x)) == check(p, x)

    WPO_CASES = [
        (problem(["A", "B", "C"], [1] * 6,
                 [[2, 0, 0, 0, 0, 4], [2, 3, 1, 1, 5, 0],
                  [2, 3, 1, 1, 5, 0]]),
         Division.of({"A": [iv(0, 1)], "B": [iv(1, 4)], "C": [iv(4, 6)]})),
        (problem(["A", "B"], [1, 1], [[2, 0], [0, 2]]),
         Division.of({"A": [iv(0, 1)], "B": [iv(1, 2)]})),
        (forced_pair(), Division.of({"A": [iv(0, 1)], "B": [iv(1, 4)]})),
        (nash_cake(), Division.of({"A": [iv(0, 2)], "B": [iv(2, 6)]})),
    ]

    @pytest.mark.parametrize("p, x", WPO_CASES,
                             ids=["dominated", "full-value", "forced", "nash"])
    def test_wpo_sweeps_only_the_named_ordering(self, monkeypatch, p, x):
        real = divisions.max_slack
        swept = []

        def counted(p, pi, base):
            swept.append(pi)
            return real(p, pi, base)

        monkeypatch.setattr(divisions, "max_slack", counted)
        result = check_wpo_connected(p, x)
        assert swept == ([] if result.ok else [result.ordering])

    def test_wpo_verdicts_of_the_table_cases(self):
        assert [check_wpo_connected(p, x).ok for p, x in self.WPO_CASES] == [
            False, True, True, True]

    WPO_SLACK = "^the ordering the WPO table names must admit positive slack$"

    def test_wpo_refuses_a_fitting_ordering_without_slack(self, monkeypatch):
        # the table's ordering fits the base utilities; a sweep that finds
        # no positive slack there, or no fit at all, is a bug
        p, x = self.WPO_CASES[0]
        for slack in (None, F(0)):
            monkeypatch.setattr(divisions, "max_slack", lambda *args: slack)
            with pytest.raises(InvariantError, match=self.WPO_SLACK):
                check_wpo_connected(p, x)

    def test_wpo_slack_check_runs_under_python_O(self):
        code = (
            "from fractions import Fraction\n"
            "from cakecut import divisions\n"
            "from cakecut.cake_measure import Interval, InvariantError, "
            "problem\n"
            "from cakecut.divisions import Division, check_wpo_connected\n"
            "divisions.max_slack = lambda *args: Fraction(0)\n"
            "p = problem(['A', 'B', 'C'], [1] * 6, [[2, 0, 0, 0, 0, 4],\n"
            "            [2, 3, 1, 1, 5, 0], [2, 3, 1, 1, 5, 0]])\n"
            "x = Division.of({'A': [Interval(0, 1)], 'B': [Interval(1, 4)],\n"
            "                 'C': [Interval(4, 6)]})\n"
            "try:\n"
            "    check_wpo_connected(p, x)\n"
            "except InvariantError as e:\n"
            "    print(e)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == ("the ordering the WPO table names must admit "
                              "positive slack\n")

    PO_CERTIFICATE = ("^PO witness must give the pivot its constrained "
                      "maximum and every agent its base utility$")

    def test_po_witness_certificate_fires_on_tampered_chains(self,
                                                            monkeypatch):
        # the right DP table claims every suffix set begins at the end of
        # the cake, so pivot A seems to get the whole cake while B keeps
        # nothing of its 8
        real = divisions._mark_table

        def tampered(dens, targets, start, sign):
            table = real(dens, targets, start, sign)
            return table if sign > 0 else [e and (*start, e[2]) for e in table]

        monkeypatch.setattr(divisions, "_mark_table", tampered)
        p = forced_pair()
        x = Division.of({"A": [iv(0, 1)], "B": [iv(1, 4)]})
        with pytest.raises(InvariantError, match=self.PO_CERTIFICATE):
            check_po_connected(p, x)

    def test_po_witness_certificate_runs_under_python_O(self):
        code = (
            "from cakecut import divisions\n"
            "from cakecut.cake_measure import InvariantError, problem\n"
            "from cakecut.divisions import Division, check_po_connected\n"
            "from cakecut.cake_measure import Interval\n"
            "real = divisions._mark_table\n"
            "def tampered(dens, targets, start, sign):\n"
            "    table = real(dens, targets, start, sign)\n"
            "    return table if sign > 0 else [\n"
            "        e and (*start, e[2]) for e in table]\n"
            "divisions._mark_table = tampered\n"
            "p = problem(['A', 'B'], [1] * 4, [[6, 0, 1, 1], [0, 4, 2, 2]])\n"
            "x = Division.of({'A': [Interval(0, 1)], 'B': [Interval(1, 4)]})\n"
            "try:\n"
            "    check_po_connected(p, x)\n"
            "except InvariantError as e:\n"
            "    print(e)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == ("PO witness must give the pivot its "
                              "constrained maximum and every agent its "
                              "base utility\n")

    def test_single_agent_full_cake_is_efficient(self):
        p = problem(["A"], [1, 1], [[1, 1]])
        x = Division.of({"A": [iv(0, 2)]})
        assert check_wpo_connected(p, x)
        assert check_po_connected(p, x)
