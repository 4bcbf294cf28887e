"""The three benchmark workloads.

Each workload builds its corpus from the seed (``setup``), runs one problem
through the library (``op``, the only timed part) and checks that problem's
outputs (``check``), returning failure messages and a canonical text of the
exact outputs for the digest.  ``digest_items`` is how many problems the
digest covers; every run completes at least that many.  Every library call
goes through a module attribute of ``lib`` at call time, so a traced run
sees rebound names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction

from problems import random_enlargement, random_spec, rng_for


@dataclass
class Item:
    """One problem of a corpus, in run order."""

    index: int
    n: int
    problem: object = None      # Problem, for in-process workloads
    spec: object = None          # problems.Spec
    path: str = ""               # problem file, for protocols-cli
    extra: tuple = ()            # enlargement (lengths, rows)
    leaving: str = ""            # agent that leaves, for check_pm
    fixtures: bool = False       # the run_all_fixtures suite


def _merged(intervals):
    parts = sorted((iv.lo, iv.hi) for iv in intervals if iv.lo != iv.hi)
    out: list[list[Fraction]] = []
    for lo, hi in parts:
        if out and lo == out[-1][1]:
            out[-1][1] = hi
        else:
            out.append([lo, hi])
    return out


def piece_value(lib, d, intervals, mode) -> Fraction:
    """Piece value under a utility mode from ``value`` alone: touching
    intervals merge; "connected" takes the best component, "additive" sums."""
    cm = lib.cake_measure
    vals = [cm.value(d, cm.Interval(lo, hi)) for lo, hi in _merged(intervals)]
    if mode == "connected":
        return max(vals, default=Fraction(0))
    return sum(vals, Fraction(0))


def total_value(lib, d) -> Fraction:
    cm = lib.cake_measure
    return cm.value(d, cm.Interval(0, d.grid.cake_length))


def canon_division(x) -> str:
    return ";".join(
        f"{a}=" + ",".join(f"[{iv.lo},{iv.hi}]" for iv in ivs)
        for a, ivs in sorted(x.assignments))


class Equitable:
    """max_equitable in both modes at n = 3, 4, 5 with 12 slices, then the
    WPO and PO checkers on each mode's first output."""

    name = "equitable"
    digest_items = 32
    slices = 12
    corpus_size = 400

    @staticmethod
    def n_at(i: int) -> int:
        # One n = 5 problem opens every 200: alone it costs about as much as
        # 40 n = 3 problems and its cost varies most from seed to seed, so a
        # 40 s run holds exactly one.  Otherwise n = 3, 3, 3, 4 in turn.
        if i % 200 == 0:
            return 5
        return 4 if i % 4 == 0 else 3

    def setup(self, lib, seed, workdir):
        rng = rng_for(self.name, seed)
        items = []
        for i in range(self.corpus_size):
            spec = random_spec(rng, self.n_at(i), self.slices)
            items.append(Item(i, len(spec.agents),
                              spec.build(lib.cake_measure), spec))
        return items

    def op(self, lib, item):
        rm, dv = lib.rules_monotone, lib.divisions
        p = item.problem
        results = []
        for mode in (dv.RELATIVE, dv.ABSOLUTE):
            out = rm.max_equitable(p, mode)
            first = out.divisions[0]
            results.append((mode, out, dv.check_wpo_connected(p, first),
                            dv.check_po_connected(p, first)))
        return results

    def check(self, lib, item, results):
        cm, dv = lib.cake_measure, lib.divisions
        p = item.problem
        fails, canon = [], []
        for mode, out, wpo, po in results:
            if not out.divisions or len(out.divisions) != len(out.orderings):
                fails.append(f"{mode}: {len(out.divisions)} divisions for "
                             f"{len(out.orderings)} orderings")
            for pi, x in zip(out.orderings, out.divisions):
                dv.validate_division(p, x)
                if sorted(pi) != sorted(p.agents):
                    fails.append(f"{mode}: ordering {pi} is not a permutation")
                    continue
                pos = Fraction(0)
                for a in pi:
                    ivs = x.piece(a)
                    d = p.density(a)
                    scale = (total_value(lib, d) if mode == dv.RELATIVE
                             else Fraction(1))
                    if len(ivs) != 1 or ivs[0].lo != pos:
                        fails.append(f"{mode} {pi}: piece of {a} not next in order")
                        break
                    if cm.value(d, ivs[0]) != out.value * scale:
                        fails.append(f"{mode} {pi}: {a} gets "
                                     f"{cm.value(d, ivs[0])} != value*scale")
                    pos = ivs[0].hi
                else:
                    if pos != p.cake_length:
                        fails.append(f"{mode} {pi}: pieces stop at {pos}")
            if not wpo.ok:
                fails.append(f"{mode}: first output not WPO "
                             f"(ordering {wpo.ordering})")
            ranked = sorted(zip(out.orderings, out.divisions))
            canon.append(f"{mode} value={out.value} wpo={wpo.ok} po={po.ok} "
                         + " ".join(",".join(pi) + ":" + canon_division(x)
                                    for pi, x in ranked))
        return fails, "\n".join(canon)


class ProtocolsCli:
    """In-process ``cakecut divide`` then ``cakecut check --properties
    prop,ef`` for every non-equitable rule whose arity fits."""

    name = "protocols-cli"
    digest_items = 200
    corpus_size = 200
    # outputs that the paper's rules guarantee, in the rule's utility mode
    ef_rules = ("cut-and-choose", "rightmost-mark", "selfridge-conway")

    def setup(self, lib, seed, workdir):
        rng = rng_for(self.name, seed)
        items = []
        for i in range(self.corpus_size):
            n = 2 + i % 5
            spec = random_spec(rng, n, rng.randint(4, 16))
            path = os.path.join(workdir, f"problem-{i}.json")
            with open(path, "w") as fh:
                json.dump(spec.to_json(), fh)
            items.append(Item(i, n, spec=spec, path=path))
        self.workdir = workdir
        return items

    def op(self, lib, item):
        results = []
        for rule in lib.monotonicity_harness.RULES.values():
            if rule.name.endswith("-equitable") or rule.arity not in (None, item.n):
                continue
            div_path = os.path.join(self.workdir, f"division-{rule.name}.json")
            runs = []
            for argv in (["divide", "--rule", rule.name, "--problem",
                          item.path, "--output", div_path],
                         ["check", "--problem", item.path, "--division",
                          div_path, "--properties", "prop,ef",
                          "--utility-mode", rule.mode]):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = lib.cli.main(argv)
                runs.append((code, out.getvalue(), err.getvalue()))
            results.append((rule, div_path, runs))
        return results

    def check(self, lib, item, results):
        p = item.spec.build(lib.cake_measure)
        dv = lib.divisions
        share = Fraction(1, p.n)
        fails, canon = [], []
        for rule, div_path, ((dcode, dout, derr), (ccode, cout, cerr)) in results:
            tag = rule.name
            if dcode != 0:
                fails.append(f"{tag}: divide exit {dcode}: {derr.strip()}")
                continue
            with open(div_path) as fh:
                x = dv.division_from_json(json.load(fh))
            dv.validate_division(p, x)
            printed = {}
            for line in dout.splitlines():
                if line.startswith("agent "):
                    head, _, rest = line.partition(": ")
                    words = rest.split()
                    printed[head[len("agent "):]] = (Fraction(words[1]),
                                                     Fraction(words[3]))
            ef = True
            for a in p.agents:
                d = p.density(a)
                u = piece_value(lib, d, x.piece(a), rule.mode)
                whole = total_value(lib, d)
                if printed.get(a) != (u, u / whole):
                    fails.append(f"{tag}: printed utility of {a} "
                                 f"{printed.get(a)} != recomputed {u}")
                if u / whole < share:
                    fails.append(f"{tag}: {a} gets {u / whole} < 1/{p.n}")
                if tag == "exact-proportional" and u / whole != share:
                    fails.append(f"{tag}: {a} gets {u / whole} != 1/{p.n}")
                ef &= all(piece_value(lib, d, x.piece(b), rule.mode) <= u
                          for b in p.agents if b != a)
            verdicts = dict(line.split(": ", 1) for line in cout.splitlines())
            expected = {"prop": "PASS", "ef": "PASS" if ef else "FAIL"}
            if verdicts != expected:
                fails.append(f"{tag}: check printed {verdicts}, "
                             f"recomputed {expected}")
            if tag in self.ef_rules and not ef:
                fails.append(f"{tag}: output not envy-free")
            if ccode != (0 if ef else 1):
                fails.append(f"{tag}: check exit {ccode}: {cerr.strip()}")
            canon.append(f"{tag} {canon_division(x)} prop={verdicts.get('prop')}"
                         f" ef={verdicts.get('ef')}")
        return fails, "\n".join(canon)


class Monotonicity:
    """check_rm and check_pm for every registered rule whose arity fits, on
    n = 2..4 problems with a random enlargement and leaving agent; the first
    item of the corpus is the whole run_all_fixtures suite."""

    name = "monotonicity"
    digest_items = 40
    slices = 6
    corpus_size = 400

    def setup(self, lib, seed, workdir):
        rng = rng_for(self.name, seed)
        items = [Item(0, 0, fixtures=True)]
        for i in range(1, self.corpus_size):
            n = 2 + (i - 1) % 3
            spec = random_spec(rng, n, self.slices)
            extra = random_enlargement(rng, spec)
            items.append(Item(i, n, spec.build(lib.cake_measure), spec,
                              extra=extra, leaving=rng.choice(spec.agents)))
        return items

    def op(self, lib, item):
        mh = lib.monotonicity_harness
        if item.fixtures:
            return mh.run_all_fixtures()
        results = []
        for rule in mh.RULES.values():
            if rule.arity not in (None, item.n):
                continue
            rm = mh.check_rm(rule.name, item.problem, *item.extra)
            # the reduced problem must fit the rule's arity too
            pm = (mh.check_pm(rule.name, item.problem, item.leaving)
                  if rule.arity is None else None)
            results.append((rule, rm, pm))
        return results

    def check(self, lib, item, results):
        if item.fixtures:
            fails = [c.line() for c in results if not c.ok]
            return fails, "\n".join(c.line() for c in results)
        cm, mh = lib.cake_measure, lib.monotonicity_harness
        p = item.problem
        big = cm.append(p, *item.extra)
        reduced = cm.remove_agent(p, item.leaving)
        fails, canon = [], []
        for rule, rm, pm in results:
            expected = mh.GRID_EXPECTED.get(rule.name, {})
            cases = [("RM", rm, (("upwards", p, big, 1),
                                 ("downwards", big, p, -1)))]
            if pm is not None:
                cases.append(("PM", pm, (("downwards", p, reduced, 1),
                                         ("upwards", reduced, p, -1))))
            for axiom, verdicts, sides in cases:
                if expected.get(axiom) == "Yes" and not all(v.ok for v in verdicts):
                    fails.append(f"{rule.name}: {axiom} failed, paper says Yes")
                if len(verdicts) != len(sides):
                    fails.append(f"{rule.name}: {len(verdicts)} {axiom} verdicts")
                for v, (direction, base, other, sign) in zip(verdicts, sides):
                    fails += self._witness(lib, rule, v, axiom, direction,
                                           base, other, sign)
                    canon.append(f"{rule.name} {v.axiom} {v.direction} "
                                 f"{'PASS' if v.ok else 'FAIL'} "
                                 + " ".join(f"{a}:{v.before[a]}>{v.after[a]}"
                                            for a in sorted(v.agents)))
        return fails, "\n".join(canon)

    @staticmethod
    def _witness(lib, rule, v, axiom, direction, base, other, sign):
        tag = f"{rule.name} {axiom} {direction}"
        if (v.axiom, v.direction) != (axiom, direction):
            return [f"{tag}: verdict labelled {v.axiom} {v.direction}"]
        if v.witness_pair is None:
            return [f"{tag}: no witness pair"]
        xb, xo = v.witness_pair
        ub = lib.divisions.utilities(base, xb, rule.mode).absolute
        uo = lib.divisions.utilities(other, xo, rule.mode).absolute
        fails = []
        if any(ub[a] != v.before[a] or uo[a] != v.after[a] for a in v.agents):
            fails.append(f"{tag}: witness utilities differ from the verdict")
        dominates = all(sign * (uo[a] - ub[a]) >= 0 for a in v.agents)
        if dominates != v.ok:
            fails.append(f"{tag}: verdict {v.ok} but witness dominance "
                         f"{dominates}")
        return fails


WORKLOADS = {w.name: w for w in (Equitable, ProtocolsCli, Monotonicity)}
