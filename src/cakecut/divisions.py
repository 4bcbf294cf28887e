"""Divisions, utility evaluation, and exact axiom checkers.

Implements proportionality, envy-freeness, equitability, weak Pareto
optimality, Pareto optimality (over connected partitions), the Nash
product, and essential single-valuedness, all in exact rational
arithmetic.  The efficiency checkers rest on one feasibility path:
sequential marks along an agent ordering (greedy_fit is the one loop of
minimal prefixes from 0, the sweep's certifying pass; fitting_orderings
walks the same chains over shared ordering prefixes; _pivot_chains
memoises minimal-prefix and minimal-suffix chains for Pareto optimality
and constrained_max) and an exact parametric sweep over a uniform slack
parameter, its body in integer arithmetic (max_slack for weak Pareto
optimality).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator, Optional, Sequence

from .cake_measure import (
    CakeError,
    Interval,
    InvariantError,
    Problem,
    Rat,
    format_rat,
    leftmost_mark,
    merge_components,
    parse_list,
    parse_name,
    parse_rat,
    suffix_mark,
    total,
    value_components,
    value_piece,
)

CONNECTED = "connected"
ADDITIVE = "additive"
RELATIVE = "relative"
ABSOLUTE = "absolute"


@dataclass(frozen=True)
class Division:
    """Per-agent pieces (disjoint interval unions); need not cover the cake."""

    assignments: tuple[tuple[str, tuple[Interval, ...]], ...]

    @staticmethod
    def of(pieces: dict[str, Sequence[Interval]]) -> "Division":
        return Division(
            tuple((a, tuple(ivs)) for a, ivs in pieces.items())
        )

    def piece(self, agent: str) -> tuple[Interval, ...]:
        for a, ivs in self.assignments:
            if a == agent:
                return ivs
        raise CakeError(f"no piece for agent {agent!r}")

    def agents(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.assignments)


def validate_division(p: Problem, x: Division) -> dict[str, list[Interval]]:
    """Check pieces lie inside the cake and are disjoint across agents;
    returns each agent's piece merged into its connected components."""
    if set(x.agents()) - set(p.agents):
        raise CakeError("division mentions unknown agents")
    components: dict[str, list[Interval]] = {}
    all_parts = []
    for a, ivs in x.assignments:
        for iv in ivs:
            if iv.hi > p.cake_length:
                raise CakeError(f"interval {iv} outside cake")
        merged = merge_components(ivs)
        components.setdefault(a, merged)  # x.piece(a) is a's first entry
        all_parts.extend(merged)
    all_parts.sort(key=lambda iv: (iv.lo, iv.hi))
    for a, b in zip(all_parts, all_parts[1:]):
        if b.lo < a.hi:
            raise CakeError(f"pieces overlap near {b.lo}")
    return components


# Division file format: [{"agent": ..., "intervals": [["p/q", "p/q"], ...]}, ...]


def _interval_from_json(pair) -> Interval:
    """A [lo, hi] JSON array; a string or object is refused rather than
    unpacked character by character or key by key."""
    if not isinstance(pair, list) or len(pair) != 2:
        raise CakeError(f"interval must be a [lo, hi] array, got {pair!r}")
    return Interval(parse_rat(pair[0]), parse_rat(pair[1]))


def division_from_json(obj) -> Division:
    try:
        entries = [
            (parse_name(entry["agent"]),
             tuple(_interval_from_json(pair)
                   for pair in parse_list(entry["intervals"], "intervals")))
            for entry in parse_list(obj, "division")
        ]
    except (KeyError, TypeError, ValueError) as e:
        raise CakeError(f"malformed division object: {e}") from e
    agents = [a for a, _ in entries]
    if len(set(agents)) != len(agents):
        raise CakeError("division lists an agent twice")
    return Division(tuple(entries))


def division_to_json(x: Division) -> list:
    return [
        {"agent": a, "intervals": [[format_rat(iv.lo), format_rat(iv.hi)]
                                   for iv in ivs]}
        for a, ivs in x.assignments
    ]


@dataclass
class UtilityVector:
    """Absolute and relative piece values per agent, under a utility mode."""

    mode: str
    absolute: dict[str, Rat]
    relative: dict[str, Rat]


@dataclass(frozen=True)
class PartitionStats:
    v_min: Rat
    v_max: Rat


def utilities(p: Problem, x: Division, mode: str = CONNECTED) -> UtilityVector:
    components = validate_division(p, x)
    absolute = {a: value_components(d, components.get(a, ()), mode)
                for a, d in zip(p.agents, p.densities)}
    relative = {a: u / total(p.density(a)) for a, u in absolute.items()}
    return UtilityVector(mode, absolute, relative)


def partition_stats(p: Problem, x: Division, value_mode: str,
                    mode: str = CONNECTED,
                    u: Optional[UtilityVector] = None) -> PartitionStats:
    if u is None:
        u = utilities(p, x, mode)
    vals = u.relative if value_mode == RELATIVE else u.absolute
    return PartitionStats(min(vals.values()), max(vals.values()))


def check_prop(p: Problem, x: Division, mode: str = CONNECTED,
               u: Optional[UtilityVector] = None) -> bool:
    """True iff every agent's relative value is at least 1/n.  The checkers
    that read x's utilities take them as u when the caller has them already
    (utilities(p, x, mode)); by default they compute them."""
    if u is None:
        u = utilities(p, x, mode)
    share = Fraction(1, p.n)
    return all(u.relative[a] >= share for a in p.agents)


def check_ef(p: Problem, x: Division, mode: str = CONNECTED,
             u: Optional[UtilityVector] = None) -> bool:
    """True iff no agent values another agent's piece above its own."""
    if u is None:
        u = utilities(p, x, mode)
    for a in p.agents:
        d = p.density(a)
        for b in x.agents():
            if b == a:
                continue
            if value_piece(d, x.piece(b), mode) > u.absolute[a]:
                return False
    return True


def check_equitable(p: Problem, x: Division, value_mode: str,
                    mode: str = CONNECTED, u: Optional[UtilityVector] = None
                    ) -> tuple[bool, PartitionStats]:
    stats = partition_stats(p, x, value_mode, mode, u)
    return stats.v_min == stats.v_max, stats


def nash_product(p: Problem, x: Division, mode: str = CONNECTED) -> Rat:
    u = utilities(p, x, mode)
    prod = Fraction(1)
    for a in p.agents:
        prod *= u.absolute[a]
    return prod


def check_esv(p: Problem, divisions: Sequence[Division],
              mode: str = CONNECTED) -> bool:
    """True iff all divisions induce identical utility vectors."""
    if not divisions:
        raise CakeError("empty division set")
    first = utilities(p, divisions[0], mode)
    return all(utilities(p, x, mode) == first for x in divisions[1:])


# ---------------------------------------------------------------------------
# Connected-partition feasibility primitives


def greedy_fit(p: Problem, pi: Sequence[str],
               targets: dict[str, Rat]) -> Optional[tuple[Rat, ...]]:
    """Sequential minimal prefixes along the ordering: each agent in turn
    takes leftmost_mark from the previous cut, starting at 0.

    Returns the cut vector (one cut per agent; the induced partition gives
    the last agent everything up to its cut, then extends to c), or None
    when the targets do not fit.  If this returns None, no connected
    partition in this ordering meets all the targets.  Each target is read
    when its agent's cut is taken, so none is read past a failing mark; a
    negative one is refused (CakeError).
    """
    cuts = []
    pos = Fraction(0)
    for a in pi:
        d = p.density(a)
        t = targets[a]
        if t < 0:
            raise CakeError("targets must be nonnegative")
        pos = leftmost_mark(d, pos, t)
        if pos is None:
            return None
        cuts.append(pos)
    return tuple(cuts)


def fitting_orderings(p: Problem, target: Callable[[str], Rat]
                      ) -> Iterator[tuple[str, ...]]:
    """The agent orderings in which greedy_fit succeeds with targets
    target(a), in itertools.permutations order.

    A depth-first walk over ordering prefixes that carries each prefix's
    leftmost-mark cut chain, so orderings that share a prefix share its
    cuts, and a prefix whose chain does not fit prunes every ordering that
    extends it.  target(a) is read when a's cut is taken, lazily, so a
    caller may raise its targets between the orderings it receives.  The
    cuts already taken then come from lower targets and lie no further
    right than the raised ones would (marks are monotone in their start and
    target), so pruning from them never drops an ordering that fits the
    raised targets; an ordering received after a raise may still fail
    them, and the caller checks it.
    """
    dens = dict(zip(p.agents, p.densities))

    def walk(prefix, rest, pos):
        if not rest:
            yield prefix
        for i, a in enumerate(rest):
            y = leftmost_mark(dens[a], pos, target(a))
            if y is not None:
                yield from walk(prefix + (a,), rest[:i] + rest[i + 1:], y)

    return walk((), p.agents, Fraction(0))


def _consecutive(pi: Sequence[str], bounds: Sequence[Rat]) -> Division:
    """Connected partition from 0: agent i of pi gets [bounds[i-1], bounds[i]]."""
    return Division.of({a: [Interval(lo, hi)] for a, lo, hi
                        in zip(pi, [Fraction(0), *bounds], bounds)})


def division_from_cuts(p: Problem, pi: Sequence[str],
                       cuts: Sequence[Rat]) -> Division:
    """Connected partition: agent i of pi gets [cut_{i-1}, cut_i]; the last
    piece is extended to the end of the cake."""
    return _consecutive(pi, [*cuts[:len(pi) - 1], p.cake_length])


def _chain_end(step: Callable[[str, Rat], Optional[Rat]], start: Rat):
    """end(chain): the position reached by taking step(a, position) for each
    agent a of the chain tuple in turn from start, or None once a step
    fails; memoised by chain, so chains with a common head share its steps."""
    ends = {(): start}

    def end(chain):
        if chain not in ends:
            pos = end(chain[:-1])
            ends[chain] = None if pos is None else step(chain[-1], pos)
        return ends[chain]

    return end


def _pivot_chains(p: Problem, targets: dict[str, Rat]):
    """(left, right): the _chain_end memos of the minimal-prefix chain from 0
    (leftmost_mark) and of the minimal-suffix chain from the end of the cake
    (suffix_mark, its agents listed right to left), each agent a taking a
    piece worth targets[a].  In ordering pi with pivot pi[j], the agents
    left of the pivot end at left(pi[:j]) and those right of it begin at
    right(pi[:j:-1]); the pivot's largest piece lies between the two."""
    left = _chain_end(
        lambda a, pos: leftmost_mark(p.density(a), pos, targets[a]),
        Fraction(0))
    right = _chain_end(
        lambda a, end: suffix_mark(p.density(a), end, targets[a]),
        p.cake_length)
    return left, right


def constrained_max(p: Problem, pi: Sequence[str], pivot: str,
                    targets: dict[str, Rat]) -> Optional[Rat]:
    """Maximum value the pivot can get in a connected pi-partition in which
    every other agent gets at least its target; None if infeasible."""
    pi = tuple(pi)
    j = pi.index(pivot)
    left, right = _pivot_chains(p, targets)
    lo = left(pi[:j])
    hi = None if lo is None else right(pi[:j:-1])
    if hi is None or lo > hi:
        return None
    return p.density(pivot)._between(lo, hi)


# ---------------------------------------------------------------------------
# Exact parametric sweep: sup of a uniform slack parameter


def sup_uniform_feasible(p: Problem, pi: Sequence[str],
                         alphas: Sequence[Rat], betas: Sequence[Rat],
                         start: Rat) -> Optional[Rat]:
    """Largest theta such that greedy_fit succeeds with per-agent targets
    alpha_i + beta_i * theta, for strictly positive betas and targets
    nonnegative at start (CakeError otherwise); None when start itself is
    infeasible, so the supremum lies below start.

    Targets increase in theta and marks are monotone in their targets, so
    every theta below a feasible one is feasible, and a sweep from any
    feasible start ends at the same exact supremum.  Callers pass a floor
    as start to skip orderings that cannot reach it.

    Exact event sweep over the chain of maximal marks: between events every
    cut position is an affine function of theta.  Each agent's step is one
    call of the measure kernel (Density._sweep_step: one grid locate and
    one goal locate), which returns the value the agent has left over its
    target as an int pair, its maximal mark y, the densities right of its
    start and of y, and the next breakpoint beyond y.  The body works in
    ints: theta is held as (tn, td), each target, the push and the slope
    (reduced at each agent) are int pairs, each event is kept as its
    distance from theta and the nearest is found by cross-multiplication,
    so one normalised Fraction, the next theta, is built per event step.
    A negative target can only occur at start, where the first pass
    refuses it.  The events are a cut crossing a grid
    breakpoint and the last agent's exhaustion: the value it has left over
    its target, left = avail - tval, is affine between the other events and
    falls at rate beta_n + d_n(pos) * slope > 0, so its root is the last
    agent's only event (its own mark is never used).  The supremum is
    attained (feasibility is a closed condition), including at points where
    a cut jumps across a zero-density stretch.

    The chain certifies each step.  When every agent has avail > tval, the
    maximal chain at theta is complete; leftmost marks lie at or before
    maximal marks and are monotone in their start, so the greedy pass would
    succeed there too.  The greedy pass runs only where the chain gets
    stuck, once per sweep: failing at start it returns None, failing after
    a step it raises InvariantError; otherwise theta is the supremum, since
    at any larger theta every leftmost mark lies beyond the stuck chain's
    mark and the stuck agent's strictly larger target no longer fits.
    """
    # at theta = tn/td, agent i's target alpha + beta * theta is
    # (ta * td + tb * tn) / (tden * td)
    lines = [(p.density(agent), a.numerator * b.denominator,
              b.numerator * a.denominator, a.denominator * b.denominator,
              b.numerator, b.denominator)
             for agent, a, b in zip(pi, alphas, betas)]
    if any(b <= 0 for b in betas):
        raise CakeError("sweep requires strictly positive slopes")
    theta = start = Fraction(start)
    origin = Fraction(0)
    last = len(lines) - 1
    while True:
        tn, td = theta.numerator, theta.denominator
        pos = origin
        sn, sd = 0, 1  # the slope d pos / d theta
        for i, (d, ta, tb, tden, bn, bd) in enumerate(lines):
            num = ta * td + tb * tn
            if num < 0:  # targets rise with theta: only at start
                raise CakeError("sweep targets must be nonnegative at start")
            (ln, ld), y, right_of_pos, right_of_y, beyond = d._sweep_step(
                pos, num, tden * td)
            if ln <= 0:
                break  # stuck: the chain does not certify theta
            # push = beta + d(pos) * slope
            rn, rd = right_of_pos.numerator, right_of_pos.denominator
            pn, pd = bn * rd * sd + rn * sn * bd, bd * rd * sd
            if i == last:
                dn, dd = ln * pd, ld * pn  # left / push
            else:
                sn, sd = pn * right_of_y.denominator, pd * right_of_y.numerator
                g = gcd(sn, sd)
                sn, sd = sn // g, sd // g
                # (beyond - y) / slope
                yn, yd = y.numerator, y.denominator
                dn = (beyond.numerator * yd - yn * beyond.denominator) * sd
                dd = beyond.denominator * yd * sn
                pos = y
            # dn/dd is the event's distance beyond theta (> 0): keep the
            # nearest
            if i == 0 or dn * ed < en * dd:
                en, ed = dn, dd
        else:
            theta = Fraction(tn * ed + en * td, td * ed)
            continue
        # a stuck first pass has not checked the agents after the stuck one
        # at start; a later pass follows a complete first one
        if any(ta * td + tb * tn < 0 for _, ta, tb, *_ in lines[i + 1:]):
            raise CakeError("sweep targets must be nonnegative at start")
        targets = {agent: a + b * theta
                   for agent, a, b in zip(pi, alphas, betas)}
        if greedy_fit(p, pi, targets) is not None:
            return theta
        if theta == start:
            return None
        raise InvariantError(f"sweep stepped to infeasible theta {theta}")


def max_slack(p: Problem, pi: Sequence[str],
              base: UtilityVector) -> Optional[Rat]:
    """Maximum uniform slack delta >= 0 such that a connected pi-partition
    gives every agent at least u_i + delta * V_i: the sweep of those
    targets from delta = 0.  None when even the base utilities u_i do not
    fit in this ordering."""
    return sup_uniform_feasible(p, pi, [base.absolute[a] for a in pi],
                                [total(p.density(a)) for a in pi],
                                Fraction(0))


# ---------------------------------------------------------------------------
# Pareto checkers over connected partitions


@dataclass
class EfficiencyResult:
    ok: bool
    ordering: Optional[tuple[str, ...]] = None
    witness: Optional[Division] = None
    witness_utilities: Optional[UtilityVector] = None

    def __bool__(self) -> bool:
        return self.ok


def check_wpo_connected(p: Problem, x: Division,
                        u: Optional[UtilityVector] = None) -> EfficiencyResult:
    """False iff some connected partition is strictly better for every agent.

    Complete over connected partitions: reports the lexicographically first
    ordering that admits positive uniform slack, with a verified witness at
    half its maximal slack.  Only the orderings that fit the base utilities
    (slack delta = 0) can admit positive slack; fitting_orderings lists
    them, pruning every ordering whose prefix already fails, and max_slack
    sweeps each from delta = 0.  Like check_prop, it takes x's utilities
    as u when the caller has them already.
    """
    base = utilities(p, x, CONNECTED) if u is None else u
    for pi in fitting_orderings(p, lambda a: base.absolute[a]):
        delta = max_slack(p, pi, base)
        if delta is None:
            raise InvariantError("an ordering that fits the base utilities "
                                 "must fit at slack 0")
        if delta > 0:
            targets = {
                a: base.absolute[a] + delta / 2 * total(p.density(a))
                for a in p.agents
            }
            cuts = greedy_fit(p, pi, targets)
            if cuts is None:
                raise InvariantError("half the maximal slack must fit")
            witness = division_from_cuts(p, pi, cuts)
            wu = utilities(p, witness, CONNECTED)
            if not all(wu.absolute[a] > base.absolute[a] for a in p.agents):
                raise InvariantError("WPO witness must strictly improve "
                                     "every agent")
            return EfficiencyResult(False, pi, witness, wu)
    return EfficiencyResult(True)


def check_po_connected(p: Problem, x: Division,
                       u: Optional[UtilityVector] = None) -> EfficiencyResult:
    """False iff some connected partition is weakly better for all agents
    and strictly better for at least one (the pivot).

    Tries every (ordering, pivot) pair in permutation order.  The agents
    left of the pivot take sequential minimal prefixes worth their base
    utilities and those right of it sequential minimal suffixes
    (suffix_mark from the end of the cake), which leaves the pivot the
    largest piece it can get in that ordering.  Both chains come from one
    memo (_pivot_chains, shared with constrained_max), so left chains are
    computed once per prefix and right chains once per suffix, and the
    pivot's value is read from their ends.  Only the first improving pair
    builds its partition, from the same memo, and the partition is
    certified: its utilities must give the pivot exactly that value and
    every agent at least its base utility.  x's utilities may be passed as
    u, as for check_wpo_connected.
    """
    base = (utilities(p, x, CONNECTED) if u is None else u).absolute
    left, right = _pivot_chains(p, base)
    for pi in itertools.permutations(p.agents):
        for j, pivot in enumerate(pi):
            lo = left(pi[:j])
            if lo is None:
                break  # the later pivots' prefixes extend this one
            hi = right(pi[:j:-1])
            if hi is None or lo > hi:
                continue
            best = p.density(pivot)._between(lo, hi)
            if best > base[pivot]:
                witness = _consecutive(
                    pi, [left(pi[:i + 1]) for i in range(j)]
                    + [right(pi[:i:-1]) for i in range(j, p.n)])
                wu = utilities(p, witness, CONNECTED)
                if wu.absolute[pivot] != best or not all(
                        wu.absolute[a] >= base[a] for a in p.agents):
                    raise InvariantError("PO witness must give the pivot its "
                                         "constrained maximum and every "
                                         "agent its base utility")
                return EfficiencyResult(False, pi, witness, wu)
    return EfficiencyResult(True)
