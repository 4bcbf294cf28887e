"""Tests of the benchmark itself: tracer rebinding and span arithmetic,
failure counting, digest stability, and agreement with BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""

import io
import json
import subprocess
import sys
import types
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from problems import random_spec, rng_for  # noqa: E402
from spans import NO_PARENT, Tracer  # noqa: E402


class SmallEquitable(workloads.Equitable):
    """n = 3 only, so a test runs in a fraction of a second."""

    digest_items = 2

    @staticmethod
    def n_at(i):
        return 3


def bindings(lib):
    snap = {(mod.__name__, k): v for mod in lib.all_modules
            for k, v in vars(mod).items()}
    snap["Density.prefix_at"] = lib.cake_measure.Density.__dict__["prefix_at"]
    return snap


def test_install_rebinds_every_holder_and_restore_puts_back():
    lib = run.import_library()
    before = bindings(lib)
    original = lib.cake_measure.leftmost_mark
    tracer = Tracer()
    tracer.install(lib.all_modules, layers.targets(lib, layers.LayerCounters()))
    # names imported with "from .cake_measure import" are rebound too
    for mod in (lib.cake_measure, lib.divisions, lib.rules_monotone,
                lib.rules_classic):
        assert mod.leftmost_mark is not original
        assert mod.leftmost_mark.__wrapped__ is original
    assert lib.cli.build_parser is not before[("cakecut.cli", "build_parser")]
    tracer.restore()
    after = bindings(lib)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_nest_and_self_times_sum_to_root_duration():
    mod = types.ModuleType("fake")

    def leaf(x):
        return sum(range(x))

    def mid(x):
        return mod.leaf(x) + mod.leaf(2 * x)

    def top(x):
        return mod.mid(x) + mod.leaf(x)

    def observe(args, result, seconds):
        # the benchmark's own counter work, slow enough to show
        sum(range(20000))

    mod.leaf, mod.mid, mod.top = leaf, mid, top
    tracer = Tracer()
    tracer.install([mod], [("leaf", mod, "leaf", observe),
                           ("mid", mod, "mid", None),
                           ("top", mod, "top", None)])
    tracer.on = True
    for x in (1000, 5000):
        mod.top(x)
    tracer.on = False
    tracer.restore()
    assert mod.leaf is leaf
    check_span_tree(tracer)
    assert tracer.summary()["leaf"][0] == 6
    # observer time is charged to the caller's observer time, not its self
    # time: mid and top each hold leaf calls and so observer time
    names = [tracer.names[i] for i in tracer.name_id]
    for i, name in enumerate(names):
        assert (tracer.observer[i] > 0) == (name in ("mid", "top"))


def test_library_spans_nest():
    lib = run.import_library()
    tracer, counters = Tracer(), layers.LayerCounters()
    tracer.install(lib.all_modules, layers.targets(lib, counters))
    p = random_spec(rng_for("test", 0), 3, 6).build(lib.cake_measure)
    try:
        tracer.on = True
        with tracer.span("bench.problem"):
            lib.rules_monotone.max_equitable(p, "relative")
        tracer.on = False
    finally:
        tracer.restore()
    check_span_tree(tracer)
    m = layers.metrics(tracer, counters, 1.0)
    assert m["rules_monotone.max_equitable.calls"][0] == 1
    assert m["divisions.sup_uniform_feasible.calls"][0] == 6
    assert m["rules_monotone.max_equitable.ms_per_call.n3"][0] > 0


def check_span_tree(tracer):
    n = len(tracer)
    assert n > 0
    children = {i: [] for i in range(n)}
    for i, par in enumerate(tracer.parent):
        if par != NO_PARENT:
            assert par < i
            assert tracer.start[par] <= tracer.start[i]
            assert tracer.end[i] <= tracer.end[par]
            children[par].append(i)
    own = tracer.self_seconds()
    assert min(own) >= 0

    def subtree_self(i):
        return (own[i] + tracer.observer[i]
                + sum(subtree_self(c) for c in children[i]))

    for i, par in enumerate(tracer.parent):
        if par == NO_PARENT:
            duration = tracer.end[i] - tracer.start[i]
            assert subtree_self(i) == pytest.approx(duration, abs=1e-9)


def run_main(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(argv)
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def test_clean_run_is_correct(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "equitable", SmallEquitable)
    code, lines, result = run_main(["--workload", "equitable", "--seed", "3",
                                    "--seconds", "0.3"])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in
                                      benchmark_json()["end_to_end"]}
    assert any(line.startswith("failed_frac: 0.0000") for line in lines)


class CorruptValue(SmallEquitable):
    """Reports an equitable value one seventh too high."""

    def op(self, lib, item):
        results = super().op(lib, item)
        results[0][1].value += Fraction(1, 7)
        return results


class CorruptDivision(workloads.ProtocolsCli):
    """Rewrites each division file so the first agent's piece overlaps the
    second's, after the library wrote it."""

    digest_items = 2

    def op(self, lib, item):
        results = super().op(lib, item)
        for _, path, _ in results:
            with open(path) as fh:
                entries = json.load(fh)
            entries[0]["intervals"] = [entries[1]["intervals"][0]]
            with open(path, "w") as fh:
                json.dump(entries, fh)
        return results


@pytest.mark.parametrize("name, corrupt", [("equitable", CorruptValue),
                                           ("protocols-cli", CorruptDivision)])
def test_corrupted_output_counts_as_failed(monkeypatch, name, corrupt):
    monkeypatch.setitem(workloads.WORKLOADS, name, corrupt)
    code, lines, result = run_main(["--workload", name, "--seed", "3",
                                    "--seconds", "0.3"])
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("failed_frac: 1.0000") for line in lines)


def digest_of(workload, seed, count=4):
    r = run.Run(workload, seed, str(BENCH / "out"))
    (BENCH / "out").mkdir(exist_ok=True)
    r.setup()
    r.loop(0, count=count)
    assert r.failed == 0, r.failures
    return r.digest.hexdigest()


@pytest.mark.parametrize("workload", [SmallEquitable, workloads.ProtocolsCli])
def test_same_seed_same_digest(workload):
    first = digest_of(workload(), 11)
    assert digest_of(workload(), 11) == first
    assert digest_of(workload(), 12) != first


def test_generator_is_seeded_and_covers_the_stated_sizes():
    a = [random_spec(rng_for("w", 5), n, k) for n, k in ((2, 4), (6, 16))]
    b = [random_spec(rng_for("w", 5), n, k) for n, k in ((2, 4), (6, 16))]
    assert a == b
    for spec in a:
        assert len(set(spec.agents)) == len(spec.agents)
        assert all(0 in row for row in spec.rows)
        assert all(any(v > 0 for v in row) for row in spec.rows)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_module_has_a_per_layer_metric():
    reported = {name.split(".")[0] for name, _, _ in layers.PER_LAYER}
    assert set(run.MODULES) <= reported
    traced = {t[0].split(".")[0] for t in
              layers.targets(run.import_library(), layers.LayerCounters())}
    assert traced == set(run.MODULES)


def test_benchmark_json_matches_reported_metrics():
    spec = benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_library_sources(tmp_path):
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench").mkdir(exist_ok=True)
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "equitable", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
