"""cakecut benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload equitable --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` (nothing to build).  Run without ``-O``: the library's ``assert``
self-checks are part of the program being measured.

Closed loop, one caller, one thread: the next problem starts when the
previous one has returned and its outputs have been checked.  Only a
problem's operation is timed; the checks between problems are not.  The
loop stops at the first problem boundary after ``--seconds`` of wall time
once the workload's digest problems are done.  Times are wall-clock,
scaled to a nominal machine speed by a reference computation timed next to
each interval (see calibration.py), so waits (file I/O, page faults) count
in full while other tenants' CPU load is factored out; the unscaled wall
and thread-CPU figures are printed on the ``uncalibrated:`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the loop
for half the time with every layer boundary wrapped, then replays the same
problems unwrapped to measure the tracing overhead, and prints the
per-layer metrics; spans are written to ``bench/out/``.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Tests of the benchmark itself: ``python3 -m pytest bench/tests -q``.
Baseline figures: BASELINE.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import layers
import workloads
from calibration import Stopwatch
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
MODULES = layers.MODULES
SETUP_REPS = 9
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 20


def import_library() -> SimpleNamespace:
    """Import cakecut from src/ afresh (dropping any earlier import), so
    every set-up repetition pays the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "cakecut"]:
        del sys.modules[name]
    pkg = importlib.import_module("cakecut")
    if Path(pkg.__file__).resolve().parent != SRC / "cakecut":
        raise ImportError(f"cakecut imported from {pkg.__file__}, not {SRC}")
    lib = SimpleNamespace(**{m: importlib.import_module(f"cakecut.{m}")
                             for m in MODULES})
    lib.all_modules = [m for name, m in sys.modules.items()
                       if name.split(".")[0] == "cakecut"]
    return lib


class Run:
    """Runs a workload's corpus in a closed loop and checks every output."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.clock = Stopwatch()
        self.setup_seconds: list[float] = []
        self.op_seconds: list[float] = []
        self.raw_op_seconds: list[float] = []
        self.cpu_op_seconds: list[float] = []
        self.op_n: list[int] = []
        self.failures: list[str] = []
        self.failed = 0
        self.digest = hashlib.sha256()
        self.digested = 0

    def setup(self):
        t0 = time.perf_counter()
        self.lib = import_library()
        self.items = self.workload.setup(self.lib, self.seed, self.workdir)
        self.setup_seconds.append(self.clock.scaled(time.perf_counter() - t0))

    def loop(self, seconds: float, tracer=None, counters=None,
             count: int | None = None) -> None:
        """Run problems in corpus order (fresh inputs on each pass) until
        ``seconds`` have passed and the digest problems are done, or exactly
        ``count`` problems."""
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            if count is not None:
                if i == count:
                    break
            elif (i >= self.workload.digest_items
                  and time.perf_counter() >= deadline):
                break
            if i and i % len(self.items) == 0:
                self.items = self.workload.setup(self.lib, self.seed,
                                                 self.workdir)
            item = self.items[i % len(self.items)]
            self.one(item, first_pass=i < len(self.items),
                     tracer=tracer, counters=counters)
            i += 1

    def one(self, item, first_pass: bool, tracer, counters) -> None:
        wl, lib = self.workload, self.lib
        outputs, error = None, None
        if tracer is not None:
            counters.new_operation()
            tracer.problem_id = item.index
            tracer.on = True
        t0, c0 = time.perf_counter(), time.thread_time()
        try:
            with (tracer.span("bench.problem") if tracer is not None
                  else contextlib.nullcontext()):
                outputs = wl.op(lib, item)
        except Exception:
            error = traceback.format_exc()
        finally:
            wall = time.perf_counter() - t0
            cpu = time.thread_time() - c0
            if tracer is not None:
                tracer.on = False
        self.raw_op_seconds.append(wall)
        self.cpu_op_seconds.append(cpu)
        self.op_seconds.append(self.clock.scaled(wall))
        self.op_n.append(item.n)
        if error is None:
            try:
                fails, canon = wl.check(lib, item, outputs)
            except Exception:
                fails, canon = [traceback.format_exc()], ""
        else:
            fails, canon = [error], ""
        if fails:
            self.failed += 1
            self.failures += [f"problem {item.index}: {f}" for f in fails]
        if first_pass and item.index < wl.digest_items:
            self.digest.update(f"#{item.index}\n{canon}\n".encode())
            self.digested += 1


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, beyond): the sample with TAIL_BEYOND samples
    above it, i.e. the highest percentile that still has that many
    samples beyond it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def corpus_rate(run: Run, by_n: dict[int, list[float]]) -> float:
    """Problems per second over the corpus mix: 1 / the mean time per
    problem, weighting each problem size by its share of the corpus.

    A run completes as many problems as fit in its time, so its own mix
    shifts with machine speed (a single n = 5 problem weighs more in a short
    run); weighting by the corpus keeps the rate a property of the program.
    """
    mix = {n: 0 for n in by_n}
    for item in run.items:
        if item.n in mix:
            mix[item.n] += 1
    mean = sum(w * statistics.mean(by_n[n]) for n, w in mix.items())
    return sum(mix.values()) / mean


def end_to_end(run: Run) -> dict:
    ops = run.op_seconds
    value, pct, beyond = tail(ops)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = len(ops)
    by_n: dict[int, list[float]] = {}
    for n, seconds in zip(run.op_n, ops):
        by_n.setdefault(n, []).append(seconds)
    rate = corpus_rate(run, by_n)
    print(f"setup_s: {statistics.median(run.setup_seconds):.4f} s "
          f"(median of {len(run.setup_seconds)} set-ups)")
    print(f"problems_per_s: {rate:.4f} 1/s over the corpus mix "
          f"({attempted} problems in {sum(ops):.3f} s of operation time)")
    print("mean per problem: " + ", ".join(
        f"{'n=' + str(n) if n else 'fixtures'} {statistics.mean(v) * 1e3:.1f} ms"
        f" (x{len(v)})" for n, v in sorted(by_n.items())))
    print(f"problem_p50_ms: {statistics.median(ops) * 1e3:.4f} ms")
    print(f"problem_tail_ms: {value * 1e3:.4f} ms "
          f"(p{pct:.2f}, {beyond} of {attempted} samples beyond)")
    print(f"failed_frac: {run.failed / attempted:.4f} "
          f"({run.failed} failed of {attempted} attempted)")
    print(f"peak_rss_mib: {rss_mib:.4f} MiB")
    raw, cpu = run.raw_op_seconds, run.cpu_op_seconds
    print(f"uncalibrated: {attempted / sum(raw):.4f} problems/s, "
          f"p50 {statistics.median(raw) * 1e3:.4f} ms, {sum(raw):.3f} s of "
          f"operation wall time, {sum(cpu):.3f} s of thread CPU time "
          f"({sum(ops) / sum(raw):.3f} scaled s per wall s)")
    return {
        "setup_s": (statistics.median(run.setup_seconds), "s"),
        "problems_per_s": (rate, "1/s"),
        "problem_p50_ms": (statistics.median(ops) * 1e3, "ms"),
        "problem_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def traced(workload, seed: int, seconds: float, workdir: str):
    """Traced half-run, then an untraced replay of the same problems.
    Returns both runs and the per-layer metrics."""
    run = Run(workload, seed, workdir)
    run.setup()
    tracer, counters = Tracer(), layers.LayerCounters()
    tracer.install(run.lib.all_modules, layers.targets(run.lib, counters))
    try:
        run.loop(seconds / 2, tracer=tracer, counters=counters)
    finally:
        tracer.restore()
    replay = Run(workload, seed, workdir)
    replay.setup()
    replay.loop(0, count=len(run.op_seconds))
    overhead = sum(run.op_seconds) / sum(replay.op_seconds)
    spans_path = OUT / f"spans-{workload.name}-{seed}.bin"
    tracer.write(spans_path)
    print(f"spans: {len(tracer)} written to {spans_path.relative_to(ROOT)}")
    print(f"trace_overhead: {overhead:.4f} ({sum(run.op_seconds):.3f} s traced"
          f" / {sum(replay.op_seconds):.3f} s untraced, "
          f"{len(run.op_seconds)} problems)")
    return [run, replay], layers.metrics(tracer, counters, overhead)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cakecut" / "__init__.py").is_file():
        print(f"error: no cakecut sources under {SRC}", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without -O; the library's asserts are measured",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            runs, metrics = traced(workload, args.seed, args.seconds, workdir)
        else:
            runs = [Run(workload, args.seed, workdir)]
            for _ in range(SETUP_REPS):
                runs[0].setup()
            runs[0].loop(args.seconds)
            metrics = end_to_end(runs[0])
    failures = [f for r in runs for f in r.failures]
    for line in failures[:MAX_REPORTED_FAILURES]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"machine: python {platform.python_version()}, "
          f"nproc {len(os.sched_getaffinity(0))}, assertions on")
    print(f"digest: {runs[0].digest.hexdigest()} ({args.workload}, seed "
          f"{args.seed}, first {runs[0].digested} problems)")
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(len(r.op_seconds) for r in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
