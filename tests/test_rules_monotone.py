"""Monotone rules: exact-proportional, equitable (the sweep's value and
the moving knife's end state, the least exact partition, that certifies
it), and the two-agent rightmost-mark rule."""

import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import permutations

import pytest

from cakecut import rules_monotone
from cakecut.cake_measure import (
    CakeError,
    Density,
    Interval,
    InvariantError,
    append,
    problem,
    total,
)
from cakecut.divisions import (
    ABSOLUTE,
    RELATIVE,
    check_ef,
    check_esv,
    check_prop,
    sup_uniform_feasible,
    utilities,
)
from cakecut.rules_monotone import (
    equitable_for_ordering,
    equitable_value_oracle,
    exact_proportional,
    max_equitable,
    rightmost_mark_rule,
)

from cakecut.monotonicity_harness import get_rule

from test_pruned_search import corpus


def iv(lo, hi):
    return Interval(F(lo), F(hi))


def halves_pair():
    return problem(["A", "B"], [1] * 4, [[1, 1, 1, 1], [1, 1, 3, 3]])


def equitable_drop_pair():
    m = 10
    p = problem(["A", "B"], [1] * 4, [[m, m, 1, 1], [1, 1, m, m]])
    big = append(p, [1, 1], {"A": [m, m], "B": [1, 1]})
    return p, big


def zero_region_pair():
    return problem(["A", "B"], [1, 1, 1], [[1, 0, 1], [0, 1, 0]])


class TestExactProportional:
    def test_two_agent_trace(self):
        p = halves_pair()
        x = exact_proportional(p)
        assert x.piece("A") == (iv(0, 2),)
        assert x.piece("B") == (iv(2, F(10, 3)),)
        u = utilities(p, x)
        assert u.relative == {"A": F(1, 2), "B": F(1, 2)}

    def test_every_agent_gets_exactly_one_nth(self):
        p = problem(["A", "B", "C"], [1] * 6,
                    [[20, 1, 1, 1, 10, 27], [1, 20, 10, 28, 1, 1],
                     [1, 1, 18, 10, 29, 1]])
        u = utilities(p, exact_proportional(p))
        assert all(v == F(1, 3) for v in u.relative.values())

    def test_identical_agents_split_in_order(self):
        p = problem(["A", "B"], [1, 1], [[1, 1], [1, 1]])
        x = exact_proportional(p)
        assert x.piece("A") == (iv(0, 1),)
        assert x.piece("B") == (iv(1, 2),)


class TestRightmostMark:
    def test_rightmost_half_mark_takes_right_piece(self):
        p = problem(["A", "B"], [1, 1, 1], [[1, 0, 1], [1, 1, 0]])
        x = rightmost_mark_rule(p)
        assert x.piece("B") == (iv(0, 2),)
        assert x.piece("A") == (iv(2, 3),)
        u = utilities(p, x)
        assert u.relative == {"A": F(1, 2), "B": F(1)}

    def test_tie_gives_right_piece_to_second_agent(self):
        p = problem(["A", "B"], [1, 1], [[1, 1], [1, 1]])
        x = rightmost_mark_rule(p)
        assert x.piece("A") == (iv(0, 1),)
        assert x.piece("B") == (iv(1, 2),)

    def test_output_is_proportional_and_envy_free(self):
        p = halves_pair()
        x = rightmost_mark_rule(p)
        assert check_prop(p, x) and check_ef(p, x)

    def test_requires_two_agents(self):
        p = problem(["A", "B", "C"], [1], [[1], [1], [1]])
        with pytest.raises(CakeError):
            rightmost_mark_rule(p)


class TestEquitableForOrdering:
    def test_identical_uniform_agents_equal_pieces(self):
        p = problem(["A", "B", "C"], [1, 1, 1], [[1, 1, 1]] * 3)
        for pi in permutations(p.agents):
            sim = equitable_for_ordering(p, pi, RELATIVE)
            assert sim.value == F(1, 3)
            assert sim.cuts == (1, 2)

    def test_zero_region_regression(self):
        # B's knife must slide through its zero stretch without changing t
        p = zero_region_pair()
        sim = equitable_for_ordering(p, ("A", "B"), RELATIVE)
        assert sim.value == F(1, 2)
        assert sim.cuts == (F(3, 2),)

    def test_small_drop_cake_cut_at_two(self):
        p, _ = equitable_drop_pair()
        sim = equitable_for_ordering(p, ("A", "B"), RELATIVE)
        assert sim.cuts == (2,)
        assert sim.value == F(10, 11)
        u = utilities(p, sim.division(p))
        assert u.relative == {"A": F(10, 11), "B": F(10, 11)}

    def test_absolute_mode(self):
        p, _ = equitable_drop_pair()
        sim = equitable_for_ordering(p, ("A", "B"), ABSOLUTE)
        assert sim.value == 20

    def test_rejects_non_permutation(self):
        p = zero_region_pair()
        with pytest.raises(CakeError):
            equitable_for_ordering(p, ("A", "A"), RELATIVE)


class TestOracle:
    def test_matches_simulation_on_fixture_cakes(self):
        small, big = equitable_drop_pair()
        cakes = [small, big, zero_region_pair(), halves_pair(),
                 problem(["A", "B", "C"], [1, 1, 1],
                         [[1, 0, 2], [0, 1, 0], [0, 0, 1]])]
        for p in cakes:
            for pi in permutations(p.agents):
                for mode in (RELATIVE, ABSOLUTE):
                    sim = equitable_for_ordering(p, pi, mode)
                    assert equitable_value_oracle(p, pi, mode) == sim.value

    def test_enlarged_drop_cake_both_orderings_half(self):
        _, big = equitable_drop_pair()
        for pi in (("A", "B"), ("B", "A")):
            assert equitable_value_oracle(big, pi, RELATIVE) == F(1, 2)

    def test_single_agent(self):
        p = problem(["A"], [1, 1], [[1, 3]])
        assert equitable_value_oracle(p, ("A",), RELATIVE) == 1
        assert equitable_value_oracle(p, ("A",), ABSOLUTE) == 4

    @pytest.mark.parametrize("pi", [("A", "Z"), ("A", "A"), ("A",),
                                    ("A", "B", "A")],
                             ids=["unknown", "repeated", "short", "long"])
    @pytest.mark.parametrize("mode", [RELATIVE, ABSOLUTE])
    def test_rejects_non_permutation(self, pi, mode):
        # the check equitable_for_ordering makes, with its message
        p = zero_region_pair()
        for entry in (equitable_value_oracle, equitable_for_ordering):
            with pytest.raises(CakeError, match="^ordering must be a "
                                                "permutation of the agents$"):
                entry(p, pi, mode)

    def test_equals_the_public_sweep_on_the_corpus(self):
        """The oracle's own sweep (_sweep on its lines) against the public
        wrapper on the targets 0 + scale_i * t from 0, in every ordering of
        the pruned-search corpus and both modes."""
        for p in corpus():
            zeros = [F(0)] * p.n
            for mode in (RELATIVE, ABSOLUTE):
                scale = {a: total(p.density(a)) if mode == RELATIVE else F(1)
                         for a in p.agents}
                for pi in permutations(p.agents):
                    assert equitable_value_oracle(p, pi, mode) == (
                        sup_uniform_feasible(p, pi, zeros,
                                             [scale[a] for a in pi], F(0)))


class TestMaxEquitable:
    def test_small_drop_cake(self):
        p, _ = equitable_drop_pair()
        rel = max_equitable(p, RELATIVE)
        assert rel.value == F(10, 11)
        assert rel.orderings == [("A", "B")]
        assert utilities(p, rel.divisions[0]).absolute == {"A": 20, "B": 20}
        ab = max_equitable(p, ABSOLUTE)
        assert ab.value == 20

    def test_enlarged_drop_cake_ties_and_esv(self):
        _, big = equitable_drop_pair()
        rel = max_equitable(big, RELATIVE)
        assert rel.value == F(1, 2)
        assert sorted(rel.orderings) == [("A", "B"), ("B", "A")]
        assert check_esv(big, rel.divisions)
        u = utilities(big, rel.divisions[0]).absolute
        assert u == {"A": 21, "B": 12}
        ab = max_equitable(big, ABSOLUTE)
        assert ab.value == F(222, 11)

    def test_outputs_carry_the_one_utility_vector(self):
        p, big = equitable_drop_pair()
        assert max_equitable(p, RELATIVE).utilities == {"A": 20, "B": 20}
        assert max_equitable(big, RELATIVE).utilities == {"A": 21, "B": 12}
        assert max_equitable(big, ABSOLUTE).utilities == {
            "A": F(222, 11), "B": F(222, 11)}
        for pi in (("A", "B"), ("B", "A")):
            for mode in (RELATIVE, ABSOLUTE):
                out = equitable_for_ordering(big, pi, mode).output(big)
                assert out.utilities == utilities(
                    big, out.divisions[0]).absolute
        # the other rules leave the valuation to the caller
        assert get_rule("exact-proportional").run(p).utilities is None

    def test_three_agent_envy_cake(self):
        # max relative-equitable value 2/5; the losing agent C values A's
        # right piece at 3/5 > 2/5, so the output is not envy-free
        p = problem(["A", "B", "C"], [1, 1, 1],
                    [[1, 0, 2], [0, 1, 0], [0, 0, 1]])
        rel = max_equitable(p, RELATIVE)
        assert rel.value == F(2, 5)
        assert sorted(rel.orderings) == [("B", "A", "C"), ("B", "C", "A")]
        assert check_esv(p, rel.divisions)
        assert any(not check_ef(p, x) for x in rel.divisions)


def pair(x):
    return x.numerator, x.denominator


class TestSelfChecks:
    """The builder certifies the sweep's value: a skewed value reaching
    max_equitable's int-pair core (_sweep, then _knife_cuts) raises
    InvariantError, in process and under python -O, and so does a piece
    that its value entry (Density._value) does not find worth the value."""

    def test_skewed_sweep_value_raises(self, monkeypatch):
        real = rules_monotone._sweep
        for skew, match in ((F(1, 10**6), "above the ordering's value"),
                            (-F(1, 10**6), "below the ordering's value")):

            def skewed(*args):
                v = real(*args)
                return None if v is None else pair(F(*v) + skew)

            monkeypatch.setattr(rules_monotone, "_sweep", skewed)
            with pytest.raises(InvariantError, match=match):
                max_equitable(halves_pair(), RELATIVE)

    def test_skewed_value_raises_under_python_O(self):
        code = (
            "from fractions import Fraction\n"
            "from cakecut import rules_monotone as rm\n"
            "from cakecut.cake_measure import InvariantError, problem\n"
            "real = rm._sweep\n"
            "p = problem(['A', 'B'], [1, 1], [[1, 1], [1, 3]])\n"
            "for skew in (Fraction(1, 10**6), -Fraction(1, 10**6)):\n"
            "    def skewed(*a):\n"
            "        v = Fraction(*real(*a)) + skew\n"
            "        return v.numerator, v.denominator\n"
            "    rm._sweep = skewed\n"
            "    try:\n"
            "        rm.max_equitable(p, 'relative')\n"
            "    except InvariantError as e:\n"
            "        print(e)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == (
            "value 600001/1000000 is above the ordering's value\n"
            "value 599999/1000000 is below the ordering's value\n")

    def test_certified_utilities_under_python_O(self):
        """RuleOutput.utilities is handed over unvalued, so the value its
        divisions are built at must be certified without asserts: on a
        cake with several argmax orderings, the output's vector is each
        division's valued utilities, and a value a millionth above or
        below the sweep's, handed to the builder, raises."""
        code = (
            "from fractions import Fraction\n"
            "from cakecut import rules_monotone as rm\n"
            "from cakecut.cake_measure import InvariantError, problem\n"
            "from cakecut.divisions import utilities\n"
            "real = rm._knife_cuts\n"
            "p = problem(['A', 'B', 'C'], [1] * 4,\n"
            "            [[0, 2, 0, 1], [0, 1, 0, 0], [1, 2, 1, 1]])\n"
            "for mode in ('relative', 'absolute'):\n"
            "    out = rm.max_equitable(p, mode)\n"
            "    print(len(out.orderings), all(\n"
            "        utilities(p, x).absolute == out.utilities\n"
            "        for x in out.divisions))\n"
            "    for skew in (Fraction(1, 10**6), -Fraction(1, 10**6)):\n"
            "        def skewed(q, pi, lines, v):\n"
            "            v = Fraction(*v) + skew\n"
            "            v = v.numerator, v.denominator\n"
            "            return real(q, pi, lines, v)\n"
            "        rm._knife_cuts = skewed\n"
            "        try:\n"
            "            rm.max_equitable(p, mode)\n"
            "        except InvariantError as e:\n"
            "            print(e)\n"
            "    rm._knife_cuts = real\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == (
            "3 True\n"
            "value 400001/1000000 is above the ordering's value\n"
            "value 399999/1000000 is below the ordering's value\n"
            "2 True\n"
            "value 1000001/1000000 is above the ordering's value\n"
            "value 999999/1000000 is below the ordering's value\n")

    def test_piece_not_worth_the_value_raises(self, monkeypatch):
        """Density._value reading every piece a unit of value above what
        it is worth fails the per-piece certificate at the first piece."""
        real = Density._value

        def inflated(d, *ends):
            wn, wd = real(d, *ends)
            return wn + wd, wd

        monkeypatch.setattr(Density, "_value", inflated)
        with pytest.raises(InvariantError,
                           match=r"^piece of A is not worth 3/5 \* scale$"):
            max_equitable(halves_pair(), RELATIVE)
        with pytest.raises(InvariantError,
                           match=r"^piece of B is not worth 2 \* scale$"):
            equitable_for_ordering(halves_pair(), ("B", "A"), ABSOLUTE, 2)

    def test_piece_not_worth_the_value_raises_under_python_O(self):
        code = (
            "from cakecut import rules_monotone as rm\n"
            "from cakecut.cake_measure import Density, InvariantError\n"
            "from cakecut.cake_measure import problem\n"
            "real = Density._value\n"
            "def inflated(d, *ends):\n"
            "    wn, wd = real(d, *ends)\n"
            "    return wn + wd, wd\n"
            "Density._value = inflated\n"
            "p = problem(['A', 'B'], [1] * 4, [[1, 1, 1, 1], [1, 1, 3, 3]])\n"
            "for mode in ('relative', 'absolute'):\n"
            "    try:\n"
            "        rm.max_equitable(p, mode)\n"
            "    except InvariantError as e:\n"
            "        print(e)\n"
        )
        out = subprocess.run([sys.executable, "-O", "-c", code],
                             capture_output=True, text=True, check=True,
                             env={"PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout == ("piece of A is not worth 3/5 * scale\n"
                              "piece of A is not worth 3 * scale\n")

    @pytest.mark.parametrize("mode", [RELATIVE, ABSOLUTE])
    def test_value_off_by_a_millionth_raises(self, mode):
        for p in corpus():
            for pi in permutations(p.agents):
                v = equitable_for_ordering(p, pi, mode).value
                for off, side in ((F(1, 10**6), "above"),
                                  (-F(1, 10**6), "below")):
                    with pytest.raises(InvariantError, match=side):
                        equitable_for_ordering(p, pi, mode, v + off)
