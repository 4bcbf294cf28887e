"""Property tests at the library's boundaries: JSON round-trips, CLI exit
codes on malformed files, and the validity of every registered rule's
output.  Examples are drawn under the derandomized profile set in
conftest.py, with bounded counts so the suite stays fast."""

import contextlib
import io
import json
from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cakecut.cake_measure import (
    Interval,
    leftmost_mark,
    problem,
    problem_from_json,
    problem_to_json,
    suffix_mark,
    total,
    value,
)
from cakecut.cli import main
from cakecut.divisions import (
    Division,
    division_from_json,
    division_to_json,
    validate_division,
)
from cakecut.monotonicity_harness import RULES

AGENTS = ("A", "B", "C", "D")
DENOMINATORS = (1, 2, 3, 7, 10)


@st.composite
def problems(draw, max_agents=4, max_slices=5):
    ls = draw(st.lists(st.builds(F, st.integers(1, 20),
                                 st.sampled_from(DENOMINATORS)),
                       min_size=1, max_size=max_slices))
    n = draw(st.integers(1, max_agents))
    rows = []
    for _ in range(n):
        row = draw(st.lists(st.builds(F, st.integers(0, 9),
                                      st.sampled_from((1, 2, 3, 5))),
                            min_size=len(ls), max_size=len(ls)))
        if not any(row):
            row[draw(st.integers(0, len(ls) - 1))] = F(1)
        rows.append(row)
    return problem(AGENTS[:n], ls, rows)


@st.composite
def divisions(draw, p):
    """Disjoint intervals with fractional ends inside the cake, dealt to
    the agents in drawn order (an agent may get several, or none)."""
    c = p.cake_length
    cuts = sorted(draw(st.lists(st.fractions(0, 1, max_denominator=12),
                                max_size=6)))
    ends = [F(0)] + [c * q for q in cuts] + [c]
    pieces: dict[str, list[Interval]] = {}
    for lo, hi in zip(ends, ends[1:]):
        owner = draw(st.sampled_from(p.agents + (None,)))
        if owner is not None:
            pieces.setdefault(owner, []).append(Interval(lo, hi))
    return Division.of(pieces)


def _through_json(obj):
    return json.loads(json.dumps(obj))


@settings(max_examples=60)
@given(problems(), st.fractions(0, 1), st.fractions(0, 1))
def test_problem_json_round_trip(p, q_point, q_target):
    back = problem_from_json(_through_json(problem_to_json(p)))
    assert back == p
    # marks on the parsed problem invert values exactly (integer-keyed
    # lookups on fractional grids)
    for d in back.densities:
        x = q_point * back.cake_length
        target = q_target * (total(d) - d.prefix_at(x))
        y = leftmost_mark(d, x, target)
        assert value(d, Interval(x, y)) == target
        z = suffix_mark(d, x, q_target * d.prefix_at(x))
        assert value(d, Interval(z, x)) == q_target * d.prefix_at(x)


@settings(max_examples=60)
@given(st.data())
def test_division_json_round_trip(data):
    p = data.draw(problems())
    x = data.draw(divisions(p))
    back = division_from_json(_through_json(division_to_json(x)))
    assert back == x
    validate_division(p, back)


# ---------------------------------------------------------------------------
# Malformed files: replace one node of a valid file by arbitrary JSON

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "0", "-1", "1/0", "1/3", "abc", "A", "B", "1e3"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["length", "name", "densities",
                                       "agent", "intervals", "x"]),
                      inner, max_size=3),
    max_leaves=6)

GOOD_PROBLEM = {
    "slices": [{"length": "1"}, {"length": "1/2"}, {"length": "3/7"}],
    "agents": [{"name": "A", "densities": ["2", "0", "1"]},
               {"name": "B", "densities": ["1", "3", "0"]}],
}
GOOD_DIVISION = [{"agent": "A", "intervals": [["0", "1"]]},
                 {"agent": "B", "intervals": [["1", "3/2"], ["3/2", "2"]]}]


def _paths(node, prefix=()):
    """Every path to a node of a JSON object, the root included."""
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(obj, path, new):
    if not path:
        return new
    obj = _through_json(obj)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return obj


@st.composite
def mutated(draw, good):
    path = draw(st.sampled_from(list(_paths(good))))
    return _replaced(good, path, draw(json_values))


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@st.composite
def file_pairs(draw):
    """A problem file and a division file, one of them mutated."""
    if draw(st.booleans()):
        return draw(mutated(GOOD_PROBLEM)), GOOD_DIVISION
    return GOOD_PROBLEM, draw(mutated(GOOD_DIVISION))


@settings(max_examples=80,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(file_pairs(), st.sampled_from(["prop,ef,equitable,wpo,po", "prop"]),
       st.sampled_from(["cut-and-choose", "relative-equitable", "fink"]))
def test_malformed_files_exit_0_1_or_2(tmp_path, files, props, rule):
    """Any file that parses as JSON gets an exit code, never a traceback."""
    prob_path, div_path = tmp_path / "p.json", tmp_path / "d.json"
    prob_path.write_text(json.dumps(files[0]))
    div_path.write_text(json.dumps(files[1]))
    assert _exit_code(["check", "--problem", str(prob_path), "--division",
                       str(div_path), "--properties", props]) in (0, 1, 2)
    assert _exit_code(["divide", "--rule", rule,
                       "--problem", str(prob_path)]) in (0, 1, 2)


# ---------------------------------------------------------------------------
# Rule outputs


@settings(max_examples=30)
@given(problems(max_agents=4, max_slices=4))
def test_every_fitting_rule_output_is_a_valid_division(p):
    for rule in RULES.values():
        if rule.arity is not None and rule.arity != p.n:
            continue
        outputs = rule.run(p).divisions
        assert outputs, rule.name
        for x in outputs:
            validate_division(p, x)
            assert set(x.agents()) == set(p.agents), rule.name
