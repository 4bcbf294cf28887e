"""Divisions, utility evaluation, and exact axiom checkers.

Implements proportionality, envy-freeness, equitability, weak Pareto
optimality, Pareto optimality (over connected partitions), the Nash
product, and essential single-valuedness, all in exact rational
arithmetic.  The efficiency checkers rest on one feasibility path:
sequential marks, carried from mark to mark as int pairs through the
measure kernel's one mark entry (Density._mark).  _chain is the one loop
of minimal prefixes along an agent ordering (greedy_fit, the sweep's
certifying pass); fitting_orderings walks it over shared ordering
prefixes for max_equitable.  _mark_table extends it from orderings to
agent sets: the subset DP of Aumann, Dombb and Hassidim ("Computing
socially-efficient cake divisions", AAMAS 2013), with marks as the
transition.  Its one left-set scan gives a pivot's largest piece under
floors for the others (pivot_max) and decides Pareto optimality in
n * 2^(n-1) marks instead of n * n! (ordering, pivot) pairs.  With strict
maximal marks as the transition the same table decides weak Pareto
optimality, and names the one ordering whose maximal slack (max_slack)
gives the witness.
An exact parametric sweep over a uniform slack parameter finds each
ordering's maximal slack and equitable value: its steps are the same mark
entry in its step mode, and its int core (_sweep) carries the position,
theta, the densities and the breakpoints as int pairs; the public wrapper
builds one Fraction per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .cake_measure import (
    CakeError,
    Density,
    Interval,
    InvariantError,
    Problem,
    Rat,
    _exact,
    format_rat,
    merge_components,
    parse_list,
    parse_name,
    parse_rat,
    total,
    value_components,
    value_components_pair,
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
    c = p.cake_length
    cn, cd = c.numerator, c.denominator
    components: dict[str, list[Interval]] = {}
    all_parts = []
    for a, ivs in x.assignments:
        for iv in ivs:
            hi = iv.hi
            if hi.numerator * cd > cn * hi.denominator:
                raise CakeError(f"interval {iv} outside cake")
        merged = merge_components(ivs)
        components.setdefault(a, merged)  # x.piece(a) is a's first entry
        all_parts.extend(merged)
    # parts are nonempty, so two with equal left ends overlap, whichever
    # comes first; the ends compare by cross-multiplied ints
    all_parts.sort(key=lambda iv: iv.lo)
    for a, b in zip(all_parts, all_parts[1:]):
        lo, hi = b.lo, a.hi
        if lo.numerator * hi.denominator < hi.numerator * lo.denominator:
            raise CakeError(f"pieces overlap near {lo}")
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
    """Absolute and relative piece values per agent, under a utility mode.
    relative (absolute[a] / total(a) on problem's densities) is derived
    when first read; equality compares the mode and the absolute values,
    which fix the relative ones on one problem."""

    mode: str
    absolute: dict[str, Rat]
    problem: Problem = field(repr=False, compare=False)

    @cached_property
    def relative(self) -> dict[str, Rat]:
        p = self.problem
        return {a: self.absolute[a] / total(d)
                for a, d in zip(p.agents, p.densities)}


@dataclass(frozen=True)
class PartitionStats:
    v_min: Rat
    v_max: Rat


def utilities(p: Problem, x: Division, mode: str = CONNECTED) -> UtilityVector:
    components = validate_division(p, x)
    absolute = {a: value_components(d, components.get(a, ()), mode)
                for a, d in zip(p.agents, p.densities)}
    return UtilityVector(mode, absolute, p)


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
    parts = {b: merge_components(x.piece(b)) for b in x.agents()}
    for a in p.agents:
        d = p.density(a)
        for b, merged in parts.items():
            if b != a:
                vn, vd = value_components_pair(d, merged, mode)
                own = u.absolute[a]
                if vn * own.denominator > own.numerator * vd:
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


def _chain(steps: Iterable[tuple[Density, int, int]]
           ) -> Optional[list[tuple[int, int]]]:
    """Sequential minimal prefixes on int pairs: each (density, tn, td)
    step in turn takes its leftmost mark from the previous one, starting
    at 0.  Returns the marks, or None at the first that fails.  The steps
    are read one per mark, so none is read past a failing mark; a negative
    target is refused (CakeError)."""
    marks = []
    xn, xd = 0, 1
    for d, tn, td in steps:
        if tn < 0:
            raise CakeError("targets must be nonnegative")
        y = d._mark(xn, xd, tn, td)
        if y is None:
            return None
        marks.append(y)
        xn, xd = y
    return marks


def greedy_fit(p: Problem, pi: Sequence[str],
               targets: dict[str, Rat]) -> Optional[tuple[Rat, ...]]:
    """Sequential minimal prefixes along the ordering: each agent in turn
    takes leftmost_mark from the previous cut, starting at 0.

    Returns the cut vector (one cut per agent; the induced partition gives
    the last agent everything up to its cut, then extends to c), or None
    when the targets do not fit.  If this returns None, no connected
    partition in this ordering meets all the targets.  pi must be a
    permutation of the agents (_permutation, CakeError otherwise).  Each
    target is read when its agent's cut is taken, so none is read past a
    failing mark; a missing, inexact (a float, say) or negative one is
    refused (CakeError).  The loop is _chain's, on int pairs; only the
    returned cuts are built as Fractions.
    """
    def step(a):
        d = p.density(a)
        if (t := targets.get(a)) is None:
            raise CakeError(f"no target for agent {a!r}")
        t = _exact(t, "target")
        return d, t.numerator, t.denominator

    cuts = _chain(map(step, _permutation(p, pi)))
    return None if cuts is None else tuple(Fraction(*y) for y in cuts)


def fitting_orderings(p: Problem, target: Callable[[str], tuple[int, int]]
                      ) -> Iterator[tuple[str, ...]]:
    """The agent orderings in which greedy_fit succeeds with targets
    target(a), in itertools.permutations order; target(a) is an int pair
    (tn, td), td > 0, and its value tn / td need not be reduced.

    A depth-first walk over ordering prefixes that carries each prefix's
    leftmost-mark cut chain, so orderings that share a prefix share its
    cuts, and a prefix whose chain does not fit prunes every ordering that
    extends it.  target(a) is read when a's cut is taken, lazily, so a
    caller may raise its targets between the orderings it receives.  The
    cuts already taken then come from lower targets and lie no further
    right than the raised ones would (marks are monotone in their start and
    target), so pruning from them never drops an ordering that fits the
    raised targets; an ordering received after a raise may still fail
    them, and the caller checks it.  Its one library caller is
    max_equitable, which raises its floor between orderings.
    """
    dens = dict(zip(p.agents, p.densities))

    def walk(prefix, rest, xn, xd):
        if not rest:
            yield prefix
        for i, a in enumerate(rest):
            y = dens[a]._mark(xn, xd, *target(a))
            if y is not None:
                yield from walk(prefix + (a,), rest[:i] + rest[i + 1:], *y)

    return walk((), p.agents, 0, 1)


def _permutation(p: Problem, pi: Sequence[str]) -> tuple[str, ...]:
    """pi as a tuple: the one check of the entries that take a full
    ordering, which must be a permutation of the agents (CakeError
    otherwise, also for entries that are not agent names, by equality)."""
    pi = tuple(pi)
    if len(pi) != p.n or any(pi.count(a) != 1 for a in p.agents):
        raise CakeError("ordering must be a permutation of the agents")
    return pi


def _consecutive(pi: Sequence[str], bounds: Sequence[Rat]) -> Division:
    """Connected partition from 0: agent i of pi gets [bounds[i-1], bounds[i]]."""
    return Division.of({a: [Interval(lo, hi)] for a, lo, hi
                        in zip(pi, [Fraction(0), *bounds], bounds)})


def division_from_cuts(p: Problem, pi: Sequence[str],
                       cuts: Sequence[Rat]) -> Division:
    """Connected partition: agent i of pi gets [cut_{i-1}, cut_i]; the last
    piece is extended to the end of the cake."""
    return _consecutive(pi, [*cuts[:len(pi) - 1], p.cake_length])


# ---------------------------------------------------------------------------
# Exact parametric sweep: sup of a uniform slack parameter


def sup_uniform_feasible(p: Problem, pi: Sequence[str],
                         alphas: Sequence[Rat], betas: Sequence[Rat],
                         start: Rat) -> Optional[Rat]:
    """Largest theta such that greedy_fit succeeds with per-agent targets
    alpha_i + beta_i * theta, for strictly positive betas and targets
    nonnegative at start, one alpha and one beta per agent of a nonempty
    ordering, and an ordering that is a permutation of the agents
    (CakeError otherwise); None when start itself is infeasible, so the
    supremum lies below start.

    Targets increase in theta and marks are monotone in their targets, so
    every theta below a feasible one is feasible, and a sweep from any
    feasible start ends at the same exact supremum.  Callers pass a floor
    as start to skip orderings that cannot reach it.

    The public Fraction wrapper over the sweep's int core, _sweep, on the
    lines _sweep_line prepares, for max_slack and the benchmark's tracer;
    the equitable rules prepare their lines once per call and run the core
    themselves.
    """
    if not pi or not len(pi) == len(alphas) == len(betas):
        raise CakeError("sweep requires a nonempty ordering and one alpha "
                        "and one beta per agent")
    pi = _permutation(p, pi)
    start = _exact(start, "start")
    lines = [_sweep_line(p.density(a),
                         *_exact(alpha, "alpha").as_integer_ratio(),
                         *_exact(beta, "beta").as_integer_ratio())
             for a, alpha, beta in zip(pi, alphas, betas)]
    if any(bn <= 0 for *_, bn, _ in lines):
        raise CakeError("sweep requires strictly positive slopes")
    sup = _sweep(lines, (start.numerator, start.denominator))
    return None if sup is None else Fraction(*sup)


def _sweep_line(d: Density, an: int, ad: int, bn: int, bd: int) -> tuple:
    """The int line of the target alpha + beta * theta on d, for alpha =
    an/ad and beta = bn/bd (positive denominators): (d, ta, tb, tden, bn,
    bd), where the target at theta = tn/td is (ta * td + tb * tn) / (tden
    * td)."""
    return d, an * bd, bn * ad, ad * bd, bn, bd


def _sweep(lines: Sequence[tuple], start: tuple[int, int]
           ) -> Optional[tuple[int, int]]:
    """sup_uniform_feasible's int core: the supremum over the _sweep_line
    lines (in ordering order, slopes strictly positive) from the reduced
    pair start, as a reduced pair, or None when start is infeasible.

    Exact event sweep over the chain of maximal marks: between events every
    cut position is an affine function of theta.  Each agent's step is one
    call of the measure kernel's mark entry in its step mode
    (Density._mark: one prefix evaluation and one goal locate), which
    returns, all in ints, the value the agent has left over its target as a
    pair, its maximal mark y as a reduced pair, and the slices right of its
    start and of y, whose densities and next breakpoint the sweep reads
    from the int-pair views (Density.value_pairs and
    SliceGrid.breakpoint_pairs).  The body works in ints: theta is held as
    a reduced pair (tn, td), and each target, the position, the densities,
    the push and the slope (reduced at each agent) are int pairs; each
    event is kept as its distance from theta and the nearest is found by
    cross-multiplication.  Signs are read on numerators, and no
    Fraction is built but the theta an error message quotes.  A negative
    target can only occur at start, where the first pass refuses it.  The
    events are a cut crossing a grid breakpoint and the last agent's
    exhaustion: the value it has left over its target, left = avail -
    tval, is affine between the other events and falls at rate beta_n +
    d_n(pos) * slope > 0, so its root is the last agent's only event (its
    own mark is never used).  The supremum is attained (feasibility is a
    closed condition), including at points where a cut jumps across a
    zero-density stretch.

    The chain certifies each step.  When every agent has avail > tval, the
    maximal chain at theta is complete; leftmost marks lie at or before
    maximal marks and are monotone in their start, so the greedy pass would
    succeed there too.  The greedy pass (_chain, on the int targets at
    theta) runs only where the chain gets stuck, once per sweep: failing at
    start it returns None, failing after a step it raises InvariantError;
    otherwise theta is the supremum, since at any larger theta every
    leftmost mark lies beyond the stuck chain's mark and the stuck agent's
    strictly larger target no longer fits.
    """
    tn, td = start
    breakpoints = lines[0][0].grid.breakpoint_pairs
    last = len(lines) - 1
    while True:
        xn, xd = 0, 1  # the position
        sn, sd = 0, 1  # the slope d pos / d theta
        for i, (d, ta, tb, tden, bn, bd) in enumerate(lines):
            num = ta * td + tb * tn
            if num < 0:  # targets rise with theta: only at start
                raise CakeError("sweep targets must be nonnegative at start")
            (ln, ld), y, k, j = d._mark(xn, xd, num, tden * td, 1, True, True)
            if ln <= 0:
                break  # stuck: the chain does not certify theta
            rates = d.value_pairs
            # push = beta + d(pos) * slope; the slope is 0 before the
            # first agent's step
            if sn:
                vn, vd = rates[2 * k], rates[2 * k + 1]
                pn, pd = bn * vd * sd + vn * sn * bd, bd * vd * sd
            else:
                pn, pd = bn, bd
            if i == last:
                dn, dd = ln * pd, ld * pn  # left / push
            else:
                # the slope is push / d(y)
                j *= 2
                sn, sd = pn * rates[j + 1], pd * rates[j]
                g = gcd(sn, sd)
                sn, sd = sn // g, sd // g
                # (z - y) / slope, z the breakpoint right of y's slice
                xn, xd = y
                zn, zd = breakpoints[j + 2], breakpoints[j + 3]
                dn = (zn * xd - xn * zd) * sd
                dd = zd * xd * sn
            # dn/dd is the event's distance beyond theta (> 0): keep the
            # nearest
            if i == 0 or dn * ed < en * dd:
                en, ed = dn, dd
        else:
            tn, td = tn * ed + en * td, td * ed
            g = gcd(tn, td)
            tn, td = tn // g, td // g
            continue
        # a stuck first pass has not checked the agents after the stuck one
        # at start; a later pass follows a complete first one
        if any(ta * td + tb * tn < 0 for _, ta, tb, *_ in lines[i + 1:]):
            raise CakeError("sweep targets must be nonnegative at start")
        steps = ((d, ta * td + tb * tn, tden * td)
                 for d, ta, tb, tden, *_ in lines)
        if _chain(steps) is not None:
            return tn, td
        if (tn, td) == start:
            return None
        raise InvariantError(f"sweep stepped to infeasible theta "
                             f"{Fraction(tn, td)}")


def max_slack(p: Problem, pi: Sequence[str],
              base: UtilityVector) -> Optional[Rat]:
    """Maximum uniform slack delta >= 0 such that a connected pi-partition
    gives every agent at least u_i + delta * V_i: the sweep of those
    targets from delta = 0.  None when even the base utilities u_i do not
    fit in this ordering.  In the library it serves only the WPO witness:
    check_wpo_connected sweeps the one ordering its table names.  An
    unknown agent in pi is refused (CakeError), and so is a pi that is not
    a permutation of the agents (sup_uniform_feasible's check), as for the
    equitable entries: a slack must leave a partition among all of them."""
    betas = [total(p.density(a)) for a in pi]  # refuses an unknown agent
    return sup_uniform_feasible(p, pi, [base.absolute[a] for a in pi], betas,
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

    Complete over connected partitions.  Some partition gives every agent
    strictly more than u_i iff some ordering fits the targets u_i + delta *
    V_i for some delta > 0, and then for every smaller delta (marks are
    monotone in their targets).  As delta falls to 0, each leftmost mark at
    u_i + delta * V_i falls to the maximal mark at u_i from the limit of
    the previous one, so an ordering fits some delta > 0 iff its chain of
    strict maximal marks at u completes: each agent in turn has value left
    over u_i right of the previous mark, and marks its maximal mark.  One
    _mark_table over agent sets with those steps (strict) decides it in n *
    2^(n-1) marks instead of a walk over orderings and a sweep of each: x
    is WPO iff the full agent set has no entry.  Otherwise the entry's
    back-pointers name one ordering whose strict chain completes (at each
    set, the leftmost end, ties to the lower agent index), which is
    reported.  max_slack sweeps it, the witness is greedy_fit's partition
    at half that slack, and the witness is certified to improve every agent
    strictly; an ordering without positive slack, a half slack that does
    not fit and a witness that does not improve every agent each raise
    InvariantError, under python -O too.  Like check_prop, it takes x's
    utilities as u when the caller has them already.
    """
    base = utilities(p, x, CONNECTED) if u is None else u
    pairs = [(base.absolute[a].numerator, base.absolute[a].denominator)
             for a in p.agents]
    table = _mark_table(p.densities, pairs, (0, 1), 1, full=True,
                        strict=True)
    if table[-1] is None:
        return EfficiencyResult(True)
    pi = tuple(p.agents[a] for a, _ in reversed(
        _table_chain(table, len(table) - 1)))
    delta = max_slack(p, pi, base)
    if delta is None or delta <= 0:
        raise InvariantError("the ordering the WPO table names must admit "
                             "positive slack")
    targets = {a: base.absolute[a] + delta / 2 * total(p.density(a))
               for a in p.agents}
    cuts = greedy_fit(p, pi, targets)
    if cuts is None:
        raise InvariantError("half the maximal slack must fit")
    witness = division_from_cuts(p, pi, cuts)
    wu = utilities(p, witness, CONNECTED)
    if not all(wu.absolute[a] > base.absolute[a] for a in p.agents):
        raise InvariantError("WPO witness must strictly improve every agent")
    return EfficiencyResult(False, pi, witness, wu)


def _mark_table(dens: Sequence[Density], targets: Sequence[tuple[int, int]],
                start: tuple[int, int], sign: int, full: bool = False,
                strict: bool = False) -> list[Optional[tuple]]:
    """One mark chain over agent sets: the subset DP under pivot_max and
    the Pareto checkers.

    Entry S, a bitmask over the agents' indices (every set but the full
    one, unless full), is (xn, xd, a): xn/xd is the furthest point a chain
    of the agents of S, in any order, can reach from start, each agent i
    taking a piece worth targets[i], and a is the agent whose mark reaches
    it.  For sign 1 the chain is minimal prefixes (leftmost marks) and the
    point the leftmost end; for sign -1 minimal suffixes (suffix marks,
    right to left) and the rightmost start.  Entry 0 is start itself (with
    no agent), and an entry is None when no order of S fits.  Marks are
    monotone in their start, so entry S is the best, over a in S whose
    entry S - a exists, of a's mark from entry S - a: a failing mark drops
    that a, and a tie goes to the lowest index a.

    With strict (sign 1 only), the chain is strict maximal marks, the
    sweep's step (Density._mark's step mode): agent a's step from x exists
    iff the value a has left right of x over targets[a] is > 0, and lands
    on a's maximal mark.  Both are monotone in x, so the same DP gives the
    leftmost end of such a chain over the orders of S.
    """
    table: list = [None] * ((1 << len(dens)) - (not full))
    table[0] = (*start, None)
    last = sign < 0
    rows = [(a, 1 << a, d, tn, td) for a, (d, (tn, td))
            in enumerate(zip(dens, targets))]
    for s in range(1, len(table)):
        best = None
        for a, bit, d, tn, td in rows:
            if not s & bit or (prev := table[s ^ bit]) is None:
                continue
            if strict:
                (ln, _), y, *_ = d._mark(prev[0], prev[1], tn, td, 1, True,
                                         True)
                if ln <= 0:
                    continue
            elif (y := d._mark(prev[0], prev[1], tn, td, sign, last)) is None:
                continue
            if best is None or sign * (y[0] * best[1] - best[0] * y[1]) < 0:
                best = (*y, a)
        table[s] = best
    return table


def _table_chain(table: list, s: int) -> list[tuple[int, Rat]]:
    """(agent index, mark) along the back-pointers of entry s of a
    _mark_table, from the mark that reaches it back to the first."""
    chain = []
    while s:
        xn, xd, a = table[s]
        chain.append((a, Fraction(xn, xd)))
        s ^= 1 << a
    return chain


def _pivot_pieces(d: Density, left: list, right: list, rest: int
                  ) -> Iterator[tuple[int, int, tuple[int, int]]]:
    """(S, T, w) for the subsets S of the bitmask rest by increasing
    bitmask, T = rest - S, f and g the left and right _mark_table tables,
    and w the pivot's value (on d) of [f(S), g(T)] as an int pair over a
    positive denominator, not reduced; a set is skipped when either entry
    is missing or f(S) > g(T), as no ordering with S left of the pivot and
    T right of it then fits."""
    for s in range(rest + 1):
        if s & ~rest:
            continue
        lo, hi = left[s], right[rest ^ s]
        if lo is not None and hi is not None and (
                lo[0] * hi[1] <= hi[0] * lo[1]):
            yield s, rest ^ s, d._value(lo[0], lo[1], hi[0], hi[1])


def pivot_max(p: Problem, pivot: str,
              floors: Mapping[str, Rat]) -> Optional[Rat]:
    """The pivot's largest connected piece over all orderings in which
    every other agent gets at least its floor, or None when none fits: the
    max of the pivot's values of [f(S), g(T)] that _pivot_pieces yields,
    the values check_po_connected compares with each pivot's base
    utility.  The two _mark_table tables run over the other agents only,
    full set included: 2 * m * 2^(m-1) marks at most for the m = n - 1
    others.  floors must name exactly the other agents with exact
    rationals (CakeError otherwise, for a float, say, and for an unknown
    pivot); the first mark taken for a negative floor refuses it."""
    j = p.index(pivot)
    if set(floors) != set(p.agents) - {pivot}:
        raise CakeError(f"floors must name exactly the agents other than "
                        f"the pivot {pivot!r}")
    others = [i for i in range(p.n) if i != j]
    dens = [p.densities[i] for i in others]
    targets = [_exact(floors[p.agents[i]], "floor").as_integer_ratio()
               for i in others]
    c = p.cake_length
    left = _mark_table(dens, targets, (0, 1), 1, full=True)
    right = _mark_table(dens, targets, (c.numerator, c.denominator), -1,
                        full=True)
    return max((Fraction(*w) for *_, w in _pivot_pieces(
        p.densities[j], left, right, len(left) - 1)), default=None)


def check_po_connected(p: Problem, x: Division,
                       u: Optional[UtilityVector] = None) -> EfficiencyResult:
    """False iff some connected partition is weakly better for all agents
    and strictly better for at least one (the pivot).

    A subset DP over agent sets, after Aumann, Dombb and Hassidim (AAMAS
    2013), with marks as the transition.  In any ordering, the agents left
    of the pivot j take minimal prefixes worth their base utilities and
    those right of it minimal suffixes, which leaves the pivot the largest
    piece it can get in that ordering.  Marks are monotone in their start,
    so over all orders of the left set S the prefixes end furthest left at
    f(S), and over all orders of the right set T = N - j - S the suffixes
    begin furthest right at g(T) (_mark_table, sign 1 and sign -1: n *
    2^(n-1) marks each instead of a chain per ordering prefix).  The
    pivot's value of [f(S), g(T)] falls as f(S) rises and as g(T) falls,
    so j can be strictly improved iff some value _pivot_pieces yields (the
    values pivot_max takes the max of) exceeds u_j.

    Scan order: pivots in the order of p.agents, then left sets S by
    increasing bitmask (bit i for p.agents[i]); the first improving (j, S)
    is reported.  Its ordering is S, then j, then T, each set ordered by
    the tables' back-pointers (ties to the lower agent index), and its
    partition gives every agent of S and T exactly its base utility.  The
    partition is certified: its utilities must give the pivot exactly the
    value of [f(S), g(T)] and every agent at least its base utility.  x's
    utilities may be passed as u, as for check_wpo_connected.
    """
    base = (utilities(p, x, CONNECTED) if u is None else u).absolute
    targets = [(base[a].numerator, base[a].denominator) for a in p.agents]
    c = p.cake_length
    left = _mark_table(p.densities, targets, (0, 1), 1)
    right = _mark_table(p.densities, targets,
                        (c.numerator, c.denominator), -1)
    for j, (d, (tn, td)) in enumerate(zip(p.densities, targets)):
        # len(left) is the full set's bitmask
        for s, t, (wn, wd) in _pivot_pieces(d, left, right,
                                            len(left) ^ (1 << j)):
            if wn * td <= tn * wd:
                continue
            lefts = _table_chain(left, s)[::-1]
            rights = _table_chain(right, t)
            pi = tuple(p.agents[i] for i in (*(a for a, _ in lefts), j,
                                             *(a for a, _ in rights)))
            bounds = [y for _, y in (*lefts, *rights)] + [c]
            best = Fraction(wn, wd)
            witness = _consecutive(pi, bounds)
            wu = utilities(p, witness, CONNECTED)
            pivot = p.agents[j]
            if wu.absolute[pivot] != best or not all(
                    wu.absolute[a] >= base[a] for a in p.agents):
                raise InvariantError("PO witness must give the pivot its "
                                     "constrained maximum and every agent "
                                     "its base utility")
            return EfficiencyResult(False, pi, witness, wu)
    return EfficiencyResult(True)
