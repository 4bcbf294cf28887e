"""Per-layer metrics: which library functions a traced run wraps, the
counters observed at those boundaries, and the metric names reported.

Span names are "<module>.<function>"; the names reported are listed in
``PER_LAYER`` with their units, in the order BENCHMARK.json lists them.
"""

from __future__ import annotations

from collections import defaultdict
from math import factorial

MODULES = ("cake_measure", "divisions", "rules_monotone", "rules_classic",
           "monotonicity_harness", "cli")
MARKS = ("leftmost_mark", "maximal_mark", "suffix_mark", "prefix_at", "value")
CALLS_AND_SELF = {
    "cake_measure": MARKS + ("problem", "problem_from_json"),
    "divisions": ("sup_uniform_feasible", "greedy_fit", "max_slack",
                  "check_wpo_connected", "check_po_connected"),
    "rules_monotone": ("max_equitable", "equitable_value_oracle",
                       "equitable_for_ordering", "exact_proportional"),
    "monotonicity_harness": ("check_rm", "check_pm", "run_fixture",
                             "compute_grid"),
    "cli": ("main", "build_parser"),
}
SELF_ONLY = {
    "divisions": ("utilities", "check_prop", "check_ef", "division_from_json",
                  "division_to_json"),
    "rules_classic": ("cut_and_choose", "banach_knaster", "dubins_spanier",
                      "even_paz", "fink", "selfridge_conway", "split_equal"),
}
EQUITABLE_NS = (3, 4, 5)


def _per_layer():
    rows = []
    for module in MODULES:
        for f in CALLS_AND_SELF.get(module, ()):
            rows.append((f"{module}.{f}.calls", "count", "lower"))
            rows.append((f"{module}.{f}.self_ms", "ms", "lower"))
        for f in SELF_ONLY.get(module, ()):
            rows.append((f"{module}.{f}.self_ms", "ms", "lower"))
    rows += [
        ("cake_measure.max_fraction_bits", "bits", "lower"),
        ("divisions.check_wpo_connected.orderings_per_call", "count", "lower"),
        *[(f"rules_monotone.max_equitable.ms_per_call.n{n}", "ms", "lower")
          for n in EQUITABLE_NS],
        ("rules_monotone.max_equitable.argmax_share", "ratio", "higher"),
        ("monotonicity_harness.rule_runs", "count", "lower"),
        ("monotonicity_harness.rule_runs_repeated_share", "ratio", "lower"),
        ("trace_overhead", "ratio", "lower"),
    ]
    return rows


PER_LAYER = _per_layer()


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class LayerCounters:
    """Counters that need a call's arguments or result."""

    def __init__(self):
        self.max_bits = 0
        self.equitable_seconds: dict[int, list[float]] = defaultdict(list)
        self.orderings_tried = 0
        self.argmax_orderings = 0
        self.rule_runs = 0
        self.repeated_runs = 0
        self._seen: set = set()

    def new_operation(self) -> None:
        """Rule runs repeat only within one operation."""
        self._seen = set()

    def fraction(self, args, result, seconds) -> None:
        if result is not None:
            self.max_bits = max(self.max_bits, _bits(result))

    def cuts(self, args, result, seconds) -> None:
        for x in result or ():
            self.max_bits = max(self.max_bits, _bits(x))

    def equitable_result(self, args, result, seconds) -> None:
        self.max_bits = max([self.max_bits, _bits(result.value)]
                            + [_bits(x) for x in result.cuts])

    def max_equitable(self, args, result, seconds) -> None:
        n = args[0].n
        self.equitable_seconds[n].append(seconds)
        self.orderings_tried += factorial(n)
        self.argmax_orderings += len(result.orderings)
        self.max_bits = max(self.max_bits, _bits(result.value))

    def rule_run(self, args, result, seconds) -> None:
        rule, p = args[:2]
        key = (rule.name, p)
        self.rule_runs += 1
        if key in self._seen:
            self.repeated_runs += 1
        self._seen.add(key)


def targets(lib, counters: LayerCounters):
    """(span name, module, attribute, observer) for Tracer.install."""
    cm = lib.cake_measure
    observers = {
        ("cake_measure", m): counters.fraction for m in MARKS}
    observers[("divisions", "greedy_fit")] = counters.cuts
    observers[("divisions", "sup_uniform_feasible")] = counters.fraction
    observers[("rules_monotone", "equitable_for_ordering")] = \
        counters.equitable_result
    observers[("rules_monotone", "max_equitable")] = counters.max_equitable
    out = []
    for group in (CALLS_AND_SELF, SELF_ONLY):
        for module, functions in group.items():
            mod = getattr(lib, module)
            for f in functions:
                attr = "Density.prefix_at" if f == "prefix_at" else f
                out.append((f"{module}.{f}", mod, attr,
                            observers.get((module, f))))
    # every Problem construction path counts as cake_measure.problem
    out += [("cake_measure.problem", cm, "append", None),
            ("cake_measure.problem", cm, "remove_agent", None),
            ("monotonicity_harness.rule_run", lib.monotonicity_harness,
             "_run", counters.rule_run)]
    return out


def metrics(tracer, counters: LayerCounters, overhead: float) -> dict:
    """Every PER_LAYER metric, as {name: (value, unit)}; 0 where the
    workload never reaches the layer."""
    summary = tracer.summary()
    values: dict[str, float] = {}
    for group in (CALLS_AND_SELF, SELF_ONLY):
        for module, functions in group.items():
            for f in functions:
                calls, own = summary.get(f"{module}.{f}", (0, 0.0))
                values[f"{module}.{f}.calls"] = calls
                values[f"{module}.{f}.self_ms"] = own * 1e3
    values["cake_measure.max_fraction_bits"] = counters.max_bits
    wpo_calls = values["divisions.check_wpo_connected.calls"]
    values["divisions.check_wpo_connected.orderings_per_call"] = (
        tracer.child_counts("divisions.check_wpo_connected",
                            "divisions.max_slack") / wpo_calls
        if wpo_calls else 0)
    for n in EQUITABLE_NS:
        secs = counters.equitable_seconds.get(n, [])
        values[f"rules_monotone.max_equitable.ms_per_call.n{n}"] = (
            sum(secs) / len(secs) * 1e3 if secs else 0)
    values["rules_monotone.max_equitable.argmax_share"] = (
        counters.argmax_orderings / counters.orderings_tried
        if counters.orderings_tried else 0)
    values["monotonicity_harness.rule_runs"] = counters.rule_runs
    values["monotonicity_harness.rule_runs_repeated_share"] = (
        counters.repeated_runs / counters.rule_runs if counters.rule_runs else 0)
    values["trace_overhead"] = overhead
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
