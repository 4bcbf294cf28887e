"""Golden-file style CLI tests: stable line-oriented output and exit codes."""

import hashlib
import json

import pytest

from cakecut import cli, divisions
from cakecut.cli import main

CC_SMALL = {
    "slices": [{"length": "1"}] * 4,
    "agents": [
        {"name": "A", "densities": ["1", "1", "1", "1"]},
        {"name": "B", "densities": ["1", "1", "3", "3"]},
    ],
}

CC_EXTRA = {
    "slices": [{"length": "1"}],
    "agents": [
        {"name": "A", "densities": ["2"]},
        {"name": "B", "densities": ["2"]},
    ],
}

DROP_SMALL = {
    "slices": [{"length": "1"}] * 4,
    "agents": [
        {"name": "A", "densities": ["10", "10", "1", "1"]},
        {"name": "B", "densities": ["1", "1", "10", "10"]},
    ],
}

SWEEP = {
    "slices": [{"length": "1"}] * 6,
    "agents": [
        {"name": "A", "densities": ["20", "1", "1", "1", "10", "27"]},
        {"name": "B", "densities": ["1", "20", "10", "28", "1", "1"]},
        {"name": "C", "densities": ["1", "1", "18", "10", "29", "1"]},
    ],
}

# two agents who value the cake uniformly: both orderings reach the
# maximum, and relative and absolute values differ
FLAT = {
    "slices": [{"length": "1"}] * 2,
    "agents": [
        {"name": "A", "densities": ["1", "1"]},
        {"name": "B", "densities": ["2", "2"]},
    ],
}

EXAMPLE_DIVISION = [
    {"agent": "A", "intervals": [["0", "5"]]},
    {"agent": "B", "intervals": [["5", "6"]]},
    {"agent": "C", "intervals": [["6", "7"]]},
]

EXAMPLE_CAKE = {
    "slices": [{"length": "1"}] * 7,
    "agents": [
        {"name": "A", "densities": ["2", "0", "3", "0", "2", "0", "0"]},
        {"name": "B", "densities": ["0", "0", "0", "0", "0", "7", "0"]},
        {"name": "C", "densities": ["0", "2", "0", "2", "0", "0", "3"]},
    ],
}


# the full `cakecut paper-tables` stdout: every claim of every fixture
PAPER_TABLES = """\
noop/rm-identical: PASS expected=True got=True
cc-rm/bob-before: PASS expected=6 got=6
cc-rm/bob-after: PASS expected=5 got=5
cc-rm/verdict: PASS expected=False got=False
sc-rm/carl-before: PASS expected=8 got=8
sc-rm/carl-after-at-most-7: PASS expected=True got=True
sc-rm/carl-after-below-8: PASS expected=True got=True
sc-rm/verdict: PASS expected=False got=False
ds-pm/dubins-spanier-full: PASS expected=(20, 30, 40) got=(20, 30, 40)
ds-pm/dubins-spanier-carl-after: PASS expected=30 got=30
ds-pm/even-paz-full: PASS expected=(20, 30, 40) got=(20, 30, 40)
ds-pm/even-paz-carl-after: PASS expected=30 got=30
ds-pm/banach-knaster-full: PASS expected=(20, 30, 40) got=(20, 30, 40)
ds-pm/banach-knaster-carl-after: PASS expected=30 got=30
ds-pm/verdict: PASS expected=False got=False
fink-pm/bob-before: PASS expected=8 got=8
fink-pm/bob-after: PASS expected=6 got=6
fink-pm/verdict: PASS expected=False got=False
thm1/alice-max-given-prop: PASS expected=6 got=6
thm1/bob-max-given-prop: PASS expected=8 got=8
thm1/bob-max-given-alice-7: PASS expected=6 got=6
thm1/greedy-7-7-infeasible: PASS expected=None got=None
thm2/carl-envies-alice: PASS expected=False got=False
thm2/alice-max-given-carl: PASS expected=5 got=5
nash/best-proportional-product: PASS expected=36 got=36
nash/lopsided-product: PASS expected=40 got=40
eq-not-rm/small-value: PASS expected=10/11 got=10/11
eq-not-rm/big-value: PASS expected=1/2 got=1/2
eq-not-rm/bob-before: PASS expected=20 got=20
eq-not-rm/bob-after: PASS expected={Fraction(12, 1)} got={Fraction(12, 1)}
eq-not-rm/relative-verdict: PASS expected=False got=False
eq-not-rm/absolute-verdict: PASS expected=True got=True
classic-wpo/banach-knaster-utilities: PASS expected=(2, 5, 5) got=(2, 5, 5)
classic-wpo/banach-knaster-wpo: PASS expected=False got=False
classic-wpo/banach-knaster-witness-dominates: PASS expected=True got=True
classic-wpo/dubins-spanier-utilities: PASS expected=(2, 5, 5) got=(2, 5, 5)
classic-wpo/dubins-spanier-wpo: PASS expected=False got=False
classic-wpo/dubins-spanier-witness-dominates: PASS expected=True got=True
classic-wpo/even-paz-utilities: PASS expected=(2, 5, 5) got=(2, 5, 5)
classic-wpo/even-paz-wpo: PASS expected=False got=False
classic-wpo/even-paz-witness-dominates: PASS expected=True got=True
classic-wpo/paper-witness: PASS expected=(4, 6, 6) got=(4, 6, 6)
crumbs-wpo/output: PASS expected=(3, 31/10) got=(3, 31/10)
crumbs-wpo/witness: PASS expected=(4, 4) got=(4, 4)
crumbs-wpo/witness-dominates: PASS expected=True got=True
splitter-wpo/output: PASS expected=(4, 4, 4) got=(4, 4, 4)
splitter-wpo/witness: PASS expected=(5, 6, 7) got=(5, 6, 7)
splitter-wpo/witness-dominates: PASS expected=True got=True
table1/exact-proportional/CON: PASS expected=Yes got=Yes
table1/exact-proportional/EF: PASS expected=No got=No
table1/exact-proportional/PROP: PASS expected=Yes got=Yes
table1/exact-proportional/PO: PASS expected=No got=No
table1/exact-proportional/WPO: PASS expected=No got=No
table1/exact-proportional/RM: PASS expected=Yes got=Yes
table1/exact-proportional/PM: PASS expected=Yes got=Yes
table1/absolute-equitable/CON: PASS expected=Yes got=Yes
table1/absolute-equitable/EF: PASS expected=No got=No
table1/absolute-equitable/PROP: PASS expected=No got=No
table1/absolute-equitable/PO: PASS expected=No got=No
table1/absolute-equitable/WPO: PASS expected=Y.c.u. got=Y.c.u.
table1/absolute-equitable/RM: PASS expected=Yes got=Yes
table1/absolute-equitable/PM: PASS expected=Yes got=Yes
table1/relative-equitable/CON: PASS expected=Yes got=Yes
table1/relative-equitable/EF: PASS expected=No got=No
table1/relative-equitable/PROP: PASS expected=Yes got=Yes
table1/relative-equitable/PO: PASS expected=No got=No
table1/relative-equitable/WPO: PASS expected=Y.c.u. got=Y.c.u.
table1/relative-equitable/RM: PASS expected=No got=No
table1/relative-equitable/PM: PASS expected=Yes got=Yes
table1/rightmost-mark/CON: PASS expected=Yes got=Yes
table1/rightmost-mark/EF: PASS expected=Yes got=Yes
table1/rightmost-mark/PROP: PASS expected=Yes got=Yes
table1/rightmost-mark/PO: PASS expected=No got=No
table1/rightmost-mark/WPO: PASS expected=Y.c.u. got=Y.c.u.
table1/rightmost-mark/RM: PASS expected=Yes got=Yes
table1/rightmost-mark/PM: PASS expected=No got=No
"""


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestDivide:
    def test_cut_and_choose_golden(self, files, capsys):
        prob = files("p.json", CC_SMALL)
        code, out, _ = run(capsys, "divide", "--rule", "cut-and-choose",
                           "--problem", prob)
        assert code == 0
        assert out == [
            "rule: cut-and-choose",
            "agent A: absolute 2 relative 1/2",
            "agent B: absolute 6 relative 3/4",
            'division: [{"agent": "A", "intervals": [["0", "2"]]}, '
            '{"agent": "B", "intervals": [["2", "4"]]}]',
        ]

    def test_relative_equitable_utilities(self, files, capsys):
        prob = files("p.json", DROP_SMALL)
        code, out, _ = run(capsys, "divide", "--rule", "relative-equitable",
                           "--problem", prob)
        assert code == 0
        assert "value: 10/11" in out
        assert "agent A: absolute 20 relative 10/11" in out
        assert "agent B: absolute 20 relative 10/11" in out

    def test_ordering_flag(self, files, capsys):
        prob = files("p.json", DROP_SMALL)
        code, out, _ = run(capsys, "divide", "--rule", "relative-equitable",
                           "--problem", prob, "--ordering", "B,A")
        assert code == 0
        assert "ordering: B,A" in out

    @pytest.mark.parametrize("rule, ordering, golden", [
        ("relative-equitable", None, [
            "rule: relative-equitable",
            "value: 1/2",
            "orderings: A,B B,A",
            "agent A: absolute 1 relative 1/2",
            "agent B: absolute 2 relative 1/2",
            'division: [{"agent": "A", "intervals": [["0", "1"]]}, '
            '{"agent": "B", "intervals": [["1", "2"]]}]',
        ]),
        ("absolute-equitable", None, [
            "rule: absolute-equitable",
            "value: 4/3",
            "orderings: A,B B,A",
            "agent A: absolute 4/3 relative 2/3",
            "agent B: absolute 4/3 relative 1/3",
            'division: [{"agent": "A", "intervals": [["0", "4/3"]]}, '
            '{"agent": "B", "intervals": [["4/3", "2"]]}]',
        ]),
        ("relative-equitable", "B,A", [
            "rule: relative-equitable",
            "ordering: B,A",
            "value: 1/2",
            "agent A: absolute 1 relative 1/2",
            "agent B: absolute 2 relative 1/2",
            'division: [{"agent": "B", "intervals": [["0", "1"]]}, '
            '{"agent": "A", "intervals": [["1", "2"]]}]',
        ]),
        ("absolute-equitable", "B,A", [
            "rule: absolute-equitable",
            "ordering: B,A",
            "value: 4/3",
            "agent A: absolute 4/3 relative 2/3",
            "agent B: absolute 4/3 relative 1/3",
            'division: [{"agent": "B", "intervals": [["0", "2/3"]]}, '
            '{"agent": "A", "intervals": [["2/3", "2"]]}]',
        ]),
    ])
    def test_equitable_golden(self, files, capsys, rule, ordering, golden):
        prob = files("p.json", FLAT)
        argv = ["divide", "--rule", rule, "--problem", prob]
        if ordering:
            argv += ["--ordering", ordering]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == golden

    def test_ordering_on_non_equitable_rule_exits_2(self, files, capsys):
        prob = files("p.json", FLAT)
        code, out, err = run(capsys, "divide", "--rule", "cut-and-choose",
                             "--problem", prob, "--ordering", "B,A")
        assert code == 2
        assert out == []
        assert "--ordering applies only to the equitable rules" in err

    def test_arity_violation_exits_2(self, files, capsys):
        prob = files("p.json", SWEEP)
        code, _, err = run(capsys, "divide", "--rule", "rightmost-mark",
                           "--problem", prob)
        assert code == 2
        assert "requires exactly 2 agents" in err

    def test_output_file(self, files, capsys, tmp_path):
        prob = files("p.json", CC_SMALL)
        out_path = tmp_path / "division.json"
        code, out, _ = run(capsys, "divide", "--rule", "cut-and-choose",
                           "--problem", prob, "--output", str(out_path))
        assert code == 0
        written = json.loads(out_path.read_text())
        assert written[0] == {"agent": "A", "intervals": [["0", "2"]]}


class TestCheck:
    def test_round_trip_divide_then_check(self, files, capsys, tmp_path):
        prob = files("p.json", CC_SMALL)
        out_path = tmp_path / "division.json"
        run(capsys, "divide", "--rule", "exact-proportional",
            "--problem", prob, "--output", str(out_path))
        code, out, _ = run(capsys, "check", "--problem", prob,
                           "--division", str(out_path),
                           "--properties", "prop,equitable")
        assert code == 0
        assert out == ["prop: PASS", "equitable: PASS v_min=1/2 v_max=1/2"]

    def test_ef_failure(self, files, capsys):
        prob = files("p.json", EXAMPLE_CAKE)
        div = files("d.json", EXAMPLE_DIVISION)
        code, out, _ = run(capsys, "check", "--problem", prob,
                           "--division", div, "--properties", "ef")
        assert code == 1
        assert out == ["ef: FAIL"]

    def test_wpo_failure_with_witness(self, files, capsys):
        prob = files("p.json", {
            "slices": [{"length": "1"}] * 6,
            "agents": [
                {"name": "A", "densities": ["2", "0", "0", "0", "0", "4"]},
                {"name": "B", "densities": ["2", "3", "1", "1", "5", "0"]},
                {"name": "C", "densities": ["2", "3", "1", "1", "5", "0"]},
            ],
        })
        div = files("d.json", [
            {"agent": "A", "intervals": [["0", "1"]]},
            {"agent": "B", "intervals": [["1", "4"]]},
            {"agent": "C", "intervals": [["4", "6"]]},
        ])
        code, out, _ = run(capsys, "check", "--problem", prob,
                           "--division", div, "--properties", "wpo")
        assert code == 1
        assert out[0].startswith("wpo: FAIL witness ")

    @pytest.fixture
    def utilities_calls(self, monkeypatch):
        real = divisions.utilities
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(divisions, "utilities", counted)
        monkeypatch.setattr(cli, "utilities", counted)
        return calls

    def test_utilities_computed_once(self, files, capsys, utilities_calls):
        prob = files("p.json", CC_SMALL)
        div = files("d.json", [{"agent": "A", "intervals": [["0", "3"]]},
                               {"agent": "B", "intervals": [["3", "4"]]}])
        code, out, _ = run(capsys, "check", "--problem", prob,
                           "--division", div,
                           "--properties", "prop,ef,equitable")
        assert (code, out) == (1, ["prop: FAIL", "ef: FAIL",
                                   "equitable: FAIL v_min=3/8 v_max=3/4"])
        assert len(utilities_calls) == 1

    def test_pareto_checks_share_the_one_valuation(self, files, capsys,
                                                   utilities_calls):
        # x is PO, so neither Pareto checker values a witness
        prob = files("p.json", CC_SMALL)
        div = files("d.json", [{"agent": "A", "intervals": [["0", "3"]]},
                               {"agent": "B", "intervals": [["3", "4"]]}])
        code, out, _ = run(capsys, "check", "--problem", prob,
                           "--division", div,
                           "--properties", "prop,ef,wpo,po")
        assert (code, out) == (1, ["prop: FAIL", "ef: FAIL", "wpo: PASS",
                                   "po: PASS"])
        assert len(utilities_calls) == 1

    @pytest.mark.parametrize("props", ["prop,ef", "ef,equitable", "wpo,prop",
                                       "po"])
    def test_invalid_division_exits_2_before_any_verdict(self, files, capsys,
                                                         props):
        prob = files("p.json", CC_SMALL)
        div = files("d.json", [{"agent": "A", "intervals": [["0", "3"]]},
                               {"agent": "B", "intervals": [["2", "4"]]}])
        code, out, err = run(capsys, "check", "--problem", prob,
                             "--division", div, "--properties", props)
        assert (code, out) == (2, [])
        assert "pieces overlap near 2" in err

    def test_unknown_property_exits_2(self, files, capsys):
        prob = files("p.json", CC_SMALL)
        div = files("d.json", [{"agent": "A", "intervals": [["0", "4"]]}])
        code, _, err = run(capsys, "check", "--problem", prob,
                           "--division", div, "--properties", "bogus")
        assert code == 2
        assert "unknown property" in err

    @pytest.mark.parametrize("prop", ["wpo", "po", "prop,po"])
    def test_efficiency_under_additive_mode_exits_2(self, files, capsys,
                                                    prop):
        # the crumbs cake: A = [1,2]+[3,4], B = [0,1]+[2,3] is worth 4 to
        # each agent additively; the connected checkers would report a
        # "witness" that is worse for both
        prob = files("p.json", {
            "slices": [{"length": "1"}] * 4,
            "agents": [
                {"name": "A", "densities": ["0", "3", "2", "1"]},
                {"name": "B", "densities": ["2", "1", "2", "11/10"]},
            ],
        })
        div = files("d.json", [
            {"agent": "A", "intervals": [["1", "2"], ["3", "4"]]},
            {"agent": "B", "intervals": [["0", "1"], ["2", "3"]]},
        ])
        code, out, err = run(capsys, "check", "--problem", prob,
                             "--division", div, "--properties", prop,
                             "--utility-mode", "additive")
        assert (code, out) == (2, [])
        assert "checked over connected partitions only" in err


class TestMonotonicity:
    def test_rm_failure(self, files, capsys):
        prob = files("p.json", CC_SMALL)
        extra = files("e.json", CC_EXTRA)
        code, out, _ = run(capsys, "monotonicity", "rm",
                           "--rule", "cut-and-choose", "--problem", prob,
                           "--enlargement", extra)
        assert code == 1
        assert out[0] == "RM upwards: FAIL before[A=2 B=6] after[A=3 B=5]"

    def test_empty_enlargement_passes(self, files, capsys):
        prob = files("p.json", CC_SMALL)
        extra = files("e.json", {"slices": [], "agents": [
            {"name": "A", "densities": []}, {"name": "B", "densities": []}]})
        code, out, _ = run(capsys, "monotonicity", "rm",
                           "--rule", "cut-and-choose", "--problem", prob,
                           "--enlargement", extra)
        assert code == 0
        assert all(line.split(": ")[1].startswith("PASS") for line in out)

    def test_pm_failure(self, files, capsys):
        prob = files("p.json", SWEEP)
        code, out, _ = run(capsys, "monotonicity", "pm",
                           "--rule", "dubins-spanier", "--problem", prob,
                           "--remove", "B")
        assert code == 1
        assert out[0].startswith("PM downwards: FAIL")

    def test_missing_flag_exits_2(self, files, capsys):
        prob = files("p.json", SWEEP)
        code, _, err = run(capsys, "monotonicity", "rm",
                           "--rule", "dubins-spanier", "--problem", prob)
        assert code == 2
        assert "requires --enlargement" in err


class TestOtherCommands:
    def test_max_equitable(self, files, capsys):
        prob = files("p.json", DROP_SMALL)
        code, out, _ = run(capsys, "max-equitable", "--problem", prob,
                           "--mode", "absolute")
        assert code == 0
        assert out[0] == "mode: absolute"
        assert out[1] == "value: 20"

    def test_paper_tables_single_fixture(self, capsys):
        code, out, _ = run(capsys, "paper-tables", "--only", "thm2")
        assert code == 0
        assert out == [
            "thm2/carl-envies-alice: PASS expected=False got=False",
            "thm2/alice-max-given-carl: PASS expected=5 got=5",
        ]

    def test_paper_tables_golden(self, capsys):
        code = main(["paper-tables"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 76
        assert out == PAPER_TABLES

    def test_paper_tables_digest(self, capsys):
        code = main(["paper-tables"])
        out = capsys.readouterr().out
        assert code == 0
        assert len(out.splitlines()) == 76
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ee9cf2301cf5eb0246b092996f8c81f1f76819d6077e7ee9630caf57f33be02e")

    def test_paper_tables_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "paper-tables", "--only", "bogus")
        assert code == 2
        assert "unknown fixture" in err

    def test_decimal_display(self, files, capsys):
        prob = files("p.json", DROP_SMALL)
        code, out, _ = run(capsys, "--decimal", "3", "divide",
                           "--rule", "relative-equitable", "--problem", prob)
        assert code == 0
        assert "value: 0.909" in out
        assert "agent A: absolute 20.000 relative 0.909" in out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "divide", "--rule", "cut-and-choose",
                           "--problem", str(bad))
        assert code == 2
        assert "cannot read" in err

    def test_determinism(self, files, capsys):
        prob = files("p.json", SWEEP)
        runs = [run(capsys, "divide", "--rule", "banach-knaster",
                    "--problem", prob) for _ in range(2)]
        assert runs[0] == runs[1]


def _with(obj, path, new):
    """Deep copy of a JSON object with obj[path...] replaced by new."""
    obj = json.loads(json.dumps(obj))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return obj


class TestMalformedInput:
    """Bad input files exit 2 with a message, never a silent wrong answer."""

    @pytest.mark.parametrize("path, new, message", [
        (("slices", 0, "length"), 1.1, "bad rational 1.1"),
        (("agents", 0, "densities", 0), 1.5, "bad rational 1.5"),
        (("agents", 0, "densities", 0), True, "bad rational True"),
        (("agents", 0, "densities"), "1111", "densities must be a list"),
        (("slices",), "1111", "slices must be a list"),
        (("agents",), {"A": ["1"]}, "agents must be a list"),
        (("agents", 0, "name"), 3, "agent name must be a string"),
        (("slices", 0, "length"), "1e3000000", "bad rational '1e3000000'"),
    ], ids=["float-length", "float-density", "bool-density",
            "string-densities", "string-slices", "object-agents",
            "int-name", "exponent-length"])
    def test_bad_problem_exits_2(self, files, capsys, path, new, message):
        prob = files("p.json", _with(CC_SMALL, path, new))
        code, out, err = run(capsys, "divide", "--rule", "cut-and-choose",
                             "--problem", prob)
        assert (code, out) == (2, [])
        assert message in err

    def test_duplicate_agent_in_division_exits_2(self, files, capsys):
        prob = files("p.json", CC_SMALL)
        div = files("d.json", [
            {"agent": "A", "intervals": [["0", "1"]]},
            {"agent": "B", "intervals": [["1", "4"]]},
            {"agent": "A", "intervals": [["3", "4"]]},
        ])
        code, out, err = run(capsys, "check", "--problem", prob,
                             "--division", div, "--properties", "prop")
        assert (code, out) == (2, [])
        assert "division lists an agent twice" in err

    def test_int_agent_in_division_exits_2(self, files, capsys):
        prob = files("p.json", CC_SMALL)
        div = files("d.json", [{"agent": 3, "intervals": [["0", "1"]]}])
        code, _, err = run(capsys, "check", "--problem", prob,
                           "--division", div, "--properties", "prop")
        assert code == 2
        assert "agent name must be a string" in err

    def test_duplicate_agent_in_enlargement_exits_2(self, files, capsys):
        prob = files("p.json", CC_SMALL)
        extra = _with(CC_EXTRA, ("agents", 1, "name"), "A")
        code, _, err = run(capsys, "monotonicity", "rm", "--rule",
                           "cut-and-choose", "--problem", prob,
                           "--enlargement", files("e.json", extra))
        assert code == 2
        assert "enlargement lists an agent twice" in err

    def test_negative_decimal_exits_2(self, files, capsys):
        prob = files("p.json", CC_SMALL)
        code, out, err = run(capsys, "--decimal", "-3", "divide", "--rule",
                             "cut-and-choose", "--problem", prob)
        assert (code, out) == (2, [])
        assert "--decimal must be nonnegative" in err

    def test_unwritable_output_exits_2(self, files, capsys, tmp_path):
        prob = files("p.json", CC_SMALL)
        code, _, err = run(capsys, "divide", "--rule", "cut-and-choose",
                           "--problem", prob, "--output",
                           str(tmp_path / "missing" / "division.json"))
        assert code == 2
        assert "cannot write" in err

    @pytest.mark.parametrize("pair", ["01", {"0": "1", "1": "2"},
                                      ["0", "1", "2"], ["1"]],
                             ids=["string", "object", "triple", "single"])
    def test_non_pair_interval_exits_2(self, files, capsys, pair):
        prob = files("p.json", CC_SMALL)
        div = files("d.json", [{"agent": "A", "intervals": [pair]}])
        code, out, err = run(capsys, "check", "--problem", prob,
                             "--division", div, "--properties", "prop")
        assert (code, out) == (2, [])
        assert "interval must be a [lo, hi] array" in err
