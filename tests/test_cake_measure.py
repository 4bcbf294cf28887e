"""Exact value measures, marks, and problem transforms."""

from dataclasses import fields
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cakecut.cake_measure import (
    CakeError,
    Density,
    Interval,
    SliceGrid,
    append,
    leftmost_mark,
    maximal_mark,
    merge_components,
    parse_rat,
    problem,
    problem_from_json,
    problem_to_json,
    remove_agent,
    rightmost_mark,
    suffix_mark,
    total,
    value,
    value_piece,
)

from test_measure_differential import ref_density_right_of


def grid(*lengths):
    return SliceGrid(tuple(F(x) for x in lengths))


def dens(lengths, values):
    return Density(grid(*lengths), tuple(F(v) for v in values))


# two fixed reference agents on six unit slices
ALICE = dens([1] * 6, [F(5, 2), 0, 2, 2, 0, 0])
BOB = dens([1] * 6, [1, 1, 0, 0, 1, 1])


class TestInterval:
    """Fraction ends are kept as given; other ends normalise through
    Fraction; a negative lo or reversed ends raise one CakeError."""

    def test_fraction_ends_kept(self):
        lo, hi = F(1, 3), F(5, 2)
        i = Interval(lo, hi)
        assert i.lo is lo and i.hi is hi

    @pytest.mark.parametrize("lo, hi, want", [
        (1, 3, (F(1), F(3))),
        ("1/2", "3/2", (F(1, 2), F(3, 2))),
        ("2", F(7, 3), (F(2), F(7, 3))),
        (0, "0", (F(0), F(0))),
    ], ids=["ints", "p/q-strings", "mixed", "empty"])
    def test_other_ends_normalise(self, lo, hi, want):
        i = Interval(lo, hi)
        assert (i.lo, i.hi) == want
        assert type(i.lo) is F and type(i.hi) is F

    @pytest.mark.parametrize("lo, hi, message", [
        (-1, 2, "bad interval [-1, 2]"),
        (F(-1, 3), F(1, 3), "bad interval [-1/3, 1/3]"),
        ("-1/2", "0", "bad interval [-1/2, 0]"),
        (3, 1, "bad interval [3, 1]"),
        (F(2, 3), F(3, 5), "bad interval [2/3, 3/5]"),
        ("5/4", 1, "bad interval [5/4, 1]"),
    ], ids=["negative-int", "negative-fraction", "negative-string",
            "reversed-ints", "reversed-fractions", "reversed-mixed"])
    def test_bad_ends_raise(self, lo, hi, message):
        with pytest.raises(CakeError) as e:
            Interval(lo, hi)
        assert str(e.value) == message

    def test_order_by_cross_multiplication(self):
        # 3/5 < 2/3 < 5/7: the int comparison agrees with Fraction's
        ends = [F(3, 5), F(2, 3), F(5, 7), F(7, 7)]
        for lo in ends:
            for hi in ends:
                if lo <= hi:
                    assert Interval(lo, hi).empty == (lo == hi)
                else:
                    with pytest.raises(CakeError):
                        Interval(lo, hi)


class TestValue:
    def test_totals(self):
        assert total(ALICE) == F(13, 2)
        assert total(BOB) == 4

    def test_interval_value(self):
        assert value(ALICE, Interval(F(1, 2), F(5, 2))) == F(9, 4)
        assert value(BOB, Interval(F(1, 2), F(5, 2))) == F(3, 2)
        assert value(ALICE, Interval(0, 6)) == total(ALICE)
        assert value(ALICE, Interval(4, 6)) == 0

    def test_empty_interval(self):
        assert value(ALICE, Interval(3, 3)) == 0

    def test_outside_cake_rejected(self):
        with pytest.raises(CakeError):
            value(ALICE, Interval(5, 7))

    def test_additivity(self):
        mid = F(7, 3)
        whole = value(ALICE, Interval(1, 4))
        assert whole == value(ALICE, Interval(1, mid)) + value(
            ALICE, Interval(mid, 4))


class TestPieceValue:
    def test_additive_mode_sums_components(self):
        piece = [Interval(0, 1), Interval(3, 5)]
        assert value_piece(BOB, piece, "additive") == 1 + 1

    def test_connected_mode_takes_best_component(self):
        piece = [Interval(0, 1), Interval(2, 6)]
        assert value_piece(BOB, piece, "connected") == 2

    def test_adjacent_intervals_merge_before_choosing(self):
        piece = [Interval(0, 1), Interval(1, 2), Interval(4, 5)]
        assert value_piece(BOB, piece, "connected") == 2

    def test_empty_piece_is_zero(self):
        assert value_piece(BOB, [], "additive") == 0
        assert value_piece(BOB, [], "connected") == 0

    def test_overlap_rejected(self):
        with pytest.raises(CakeError):
            merge_components([Interval(0, 2), Interval(1, 3)])


class TestLeftmostMark:
    def test_uniform_half(self):
        d = dens([1] * 4, [1, 1, 1, 1])
        assert leftmost_mark(d, F(0), F(2)) == 2

    def test_stops_before_zero_stretch(self):
        d = dens([1, 1, 1], [1, 0, 1])
        assert leftmost_mark(d, F(0), F(1)) == 1

    def test_interior_point(self):
        assert leftmost_mark(ALICE, F(0), F(3)) == 2 + F(1, 4)

    def test_zero_target_returns_start(self):
        assert leftmost_mark(ALICE, F(3, 2), F(0)) == F(3, 2)

    def test_unreachable_target(self):
        assert leftmost_mark(BOB, F(2), F(3)) is None

    def test_start_inside_zero_stretch(self):
        d = dens([1, 1, 1], [1, 0, 1])
        assert leftmost_mark(d, F(3, 2), F(1, 2)) == F(5, 2)


class TestMaximalMark:
    def test_extends_through_zero_stretch(self):
        d = dens([1, 1, 1], [1, 0, 1])
        assert rightmost_mark(d, F(1)) == 2

    def test_equal_when_density_positive(self):
        d = dens([1, 1], [2, 3])
        assert rightmost_mark(d, F(1)) == leftmost_mark(d, F(0), F(1)) == F(1, 2)

    def test_extends_past_mark_inside_zero_slice(self):
        # the minimal mark lands strictly inside a zero slice's left edge
        d = dens([1, 1, 1, 1], [2, 0, 0, 1])
        assert maximal_mark(d, F(1, 2), F(1)) == 3

    def test_trailing_zero_run_reaches_cake_end(self):
        d = dens([1, 1], [1, 0])
        assert rightmost_mark(d, F(1)) == 2


class TestSuffixMark:
    def test_mirror_of_leftmost(self):
        d = dens([1, 1, 1], [1, 0, 1])
        assert suffix_mark(d, F(3), F(1)) == 2

    def test_plain(self):
        assert suffix_mark(BOB, F(6), F(3, 2)) == F(9, 2)

    def test_zero_target_capped_at_end(self):
        assert suffix_mark(BOB, F(3), F(0)) == 3

    def test_unreachable(self):
        assert suffix_mark(BOB, F(2), F(5, 2)) is None

    def test_sandwiches_leftmost(self):
        # value of [suffix_mark, end] equals the target exactly
        x = suffix_mark(ALICE, F(6), F(2))
        assert value(ALICE, Interval(x, 6)) == 2


class TestProblemTransforms:
    def test_append_preserves_prefix_values(self):
        p = problem(["A", "B"], [1, 1], [[1, 2], [3, 4]])
        big = append(p, [F(1, 2)], {"A": [5], "B": [0]})
        assert big.cake_length == F(5, 2)
        for a in p.agents:
            assert big.density(a).prefix_at(F(2)) == total(p.density(a))

    def test_append_agent_mismatch(self):
        p = problem(["A", "B"], [1], [[1], [1]])
        with pytest.raises(CakeError):
            append(p, [1], {"A": [1]})

    def test_remove_agent(self):
        p = problem(["A", "B", "C"], [1], [[1], [2], [3]])
        q = remove_agent(p, "B")
        assert q.agents == ("A", "C")
        assert total(q.density("C")) == 3

    def test_building_a_cake_fills_no_kernel(self):
        """The integer kernels fill on first use, not when a problem is
        built, parsed, enlarged or shrunk."""
        def filled(p):
            return [o for o in (p.grid, *p.densities)
                    if "scaled" in vars(o)]

        p = problem(["A", "B"], [1, F(1, 3)], [[1, 2], [F(3, 7), 0]])
        built = [p, problem_from_json(problem_to_json(p)),
                 append(p, [F(1, 2)], {"A": [5], "B": [0]}),
                 remove_agent(p, "B")]
        assert [filled(q) for q in built] == [[]] * len(built)
        value(p.density("B"), Interval(0, 1))
        assert filled(p) == [p.grid, p.density("B")]

    @pytest.mark.parametrize("first_use", ["mark", "value"])
    @pytest.mark.parametrize("build", [
        lambda: problem(["A", "B"], [1, F(1, 3)], [[1, 2], [F(3, 7), 0]]),
        lambda: append(problem(["A", "B"], [1], [[1], [2]]), [F(1, 2)],
                       {"A": [5], "B": [0]}),
        lambda: problem_from_json({
            "slices": [{"length": "1"}, {"length": "1/3"}],
            "agents": [{"name": "A", "densities": ["1", "2"]},
                       {"name": "B", "densities": ["3/7", "0"]}]}),
    ], ids=["problem", "append", "problem_from_json"])
    def test_construction_holds_no_kernel_entry(self, build, first_use):
        """A new problem's grid and densities hold nothing but their
        fields until the first mark or value: every kernel entry (the ints,
        the int-pair views, c) is built on first use, so building a cake
        costs no kernel pass, and an eager build would move that cost
        into construction."""
        def extra(p):
            return [sorted(set(vars(o)) - {f.name for f in fields(o)})
                    for o in (p.grid, *p.densities)]

        p = build()
        assert extra(p) == [[]] * (p.n + 1)
        d = p.density("B")
        if first_use == "mark":
            leftmost_mark(d, F(0), F(1, 3))
        else:
            value(d, Interval(0, 1))
        grid_entries, a_entries, b_entries = extra(p)
        assert "scaled" in grid_entries and "scaled" in b_entries
        assert a_entries == []

    def test_zero_length_slice_rejected(self):
        with pytest.raises(CakeError):
            grid(1, 0, 1)

    def test_negative_density_rejected(self):
        with pytest.raises(CakeError):
            dens([1, 1], [1, -1])

    def test_zero_total_rejected(self):
        with pytest.raises(CakeError):
            dens([1, 1], [0, 0])


class TestJsonBoundary:
    GOOD = {"slices": [{"length": "1"}, {"length": "1/2"}],
            "agents": [{"name": "A", "densities": ["2", 0]}]}

    def test_exact_inputs_parse(self):
        assert parse_rat("3/6") == F(1, 2)
        assert parse_rat(7) == 7
        assert [parse_rat(x) for x in ("-3/4", "+2", "007")] == [F(-3, 4), 2, 7]
        p = problem_from_json(self.GOOD)
        assert (p.agents, total(p.density("A"))) == (("A",), 2)

    @pytest.mark.parametrize("x", [1.1, 2.0, True, False, " 3 ", "1.5", "2E-2",
                                   "1_000", "1e3000000", "3/-4", "1/0", "",
                                   "3\n", "\u0663", None, [1]])
    def test_floats_and_bools_rejected(self, x):
        with pytest.raises(CakeError, match="bad rational"):
            parse_rat(x)

    @pytest.mark.parametrize("key, new", [
        ("slices", "55"),
        ("agents", {"name": "A", "densities": ["5", "5"]}),
    ])
    def test_non_list_sections_rejected(self, key, new):
        with pytest.raises(CakeError, match=f"{key} must be a list"):
            problem_from_json({**self.GOOD, key: new})

    def test_string_densities_rejected(self):
        obj = {**self.GOOD, "agents": [{"name": "A", "densities": "55"}]}
        with pytest.raises(CakeError, match="densities must be a list"):
            problem_from_json(obj)

    def test_non_string_name_rejected(self):
        obj = {**self.GOOD, "agents": [{"name": 3, "densities": ["1", "1"]}]}
        with pytest.raises(CakeError, match="agent name must be a string"):
            problem_from_json(obj)


@st.composite
def densities(draw):
    k = draw(st.integers(1, 5))
    lengths = [F(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
               for _ in range(k)]
    values = [F(draw(st.integers(0, 9))) for _ in range(k)]
    if all(v == 0 for v in values):
        values[draw(st.integers(0, k - 1))] = F(draw(st.integers(1, 9)))
    return Density(SliceGrid(tuple(lengths)), tuple(values))


@settings(max_examples=150, deadline=None)
@given(densities(), st.fractions(0, 1), st.fractions(0, 1))
def test_mark_inverts_value(d, q_start, q_target):
    start = q_start * d.grid.cake_length
    target = q_target * (total(d) - d.prefix_at(start))
    y = leftmost_mark(d, start, target)
    assert y is not None
    assert value(d, Interval(start, y)) == target
    z = maximal_mark(d, start, target)
    assert z >= y
    assert value(d, Interval(start, z)) == target
    if z < d.grid.cake_length:
        assert ref_density_right_of(d, z) > 0


@settings(max_examples=150, deadline=None)
@given(densities(), st.fractions(0, 1), st.fractions(0, 1))
def test_suffix_mark_inverts_value(d, q_end, q_target):
    end = q_end * d.grid.cake_length
    target = q_target * d.prefix_at(end)
    x = suffix_mark(d, end, target)
    assert x is not None and x <= end
    assert value(d, Interval(x, end)) == target
