"""Monotone division rules: exact-proportional, relative- and
absolute-equitable (the parametric sweep finds each ordering's value; the
moving knife's end state there, the least exact partition in the ordering,
is built in closed form and certifies that value, all on int pairs from the
sweep to the certified cuts), and the rightmost-mark rule for two agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cake_measure import (
    CakeError,
    Density,
    Interval,
    InvariantError,
    Problem,
    Rat,
    rightmost_mark,
    total,
    total_pair,
)
from .divisions import (
    ABSOLUTE,
    RELATIVE,
    Division,
    _chain,
    _sweep,
    _sweep_line,
    division_from_cuts,
    fitting_orderings,
    sup_uniform_feasible,
)
from .rules_classic import lowest_mark_rounds


@dataclass(frozen=True)
class EquitableResult:
    """Connected partition in an ordering whose pieces all equal v_pi,
    as equitable_for_ordering builds and certifies it."""

    ordering: tuple[str, ...]
    cuts: tuple[Rat, ...]
    value: Rat
    mode: str

    def division(self, p: Problem) -> Division:
        return division_from_cuts(p, self.ordering, self.cuts)

    def output(self, p: Problem) -> RuleOutput:
        return RuleOutput([self.division(p)], self.value,
                          utilities=_equal_utilities(p, self.mode, self.value))


@dataclass
class RuleOutput:
    """A rule's output set; the equitable rules add the common value, the
    absolute utility vector every division of the set gives (value *
    scale_a, certified by the least-exact-partition builder, _knife_cuts)
    and, maximised over orderings, the argmax ordering of each division.
    utilities is None when the rule does not know it; utilities(p, x,
    mode).absolute values each division then."""

    divisions: list[Division]
    value: Optional[Rat] = None
    orderings: Optional[list[tuple[str, ...]]] = None
    utilities: Optional[dict[str, Rat]] = None


def _scales(p: Problem, mode: str) -> dict[str, tuple[int, int]]:
    """Each agent's scale as a reduced int pair: its total value in
    relative mode, 1 in absolute mode."""
    if mode == RELATIVE:
        return {a: (v.numerator, v.denominator)
                for a, v in zip(p.agents, map(total, p.densities))}
    if mode == ABSOLUTE:
        return dict.fromkeys(p.agents, (1, 1))
    raise CakeError(f"unknown value mode {mode!r}")


def _scaled(scale: dict[str, tuple[int, int]], v: tuple[int, int]
            ) -> dict[str, tuple[int, int]]:
    """v * scale_a for each agent, as an int pair over a positive
    denominator, not reduced."""
    vn, vd = v
    return {a: (vn * sn, vd * sd) for a, (sn, sd) in scale.items()}


def _fractions(pairs: dict[str, tuple[int, int]]) -> dict[str, Rat]:
    """Each int pair as one Fraction."""
    return {a: Fraction(*t) for a, t in pairs.items()}


def _equal_utilities(p: Problem, mode: str, v: Rat) -> dict[str, Rat]:
    """Absolute utilities of an equitable division at the value v."""
    return _fractions(_scaled(_scales(p, mode), (v.numerator, v.denominator)))


def _proportional_floor(p: Problem, scale: dict[str, tuple[int, int]]
                        ) -> Rat:
    """L = min_i(V_i / scale_i) / n: 1/n in relative mode, min_i V_i / n in
    absolute mode; the ordering of exact_proportional reaches it."""
    return min(Fraction(vn * sd, vd * sn * p.n) for (vn, vd), (sn, sd)
               in zip(map(total_pair, p.densities), scale.values()))


def exact_proportional(p: Problem) -> Division:
    """Each round every remaining agent marks a prefix worth exactly V_i/n
    from the current left edge; the leftmost marker (ties: lowest index)
    takes it.  Every agent ends with relative value exactly 1/n; the tail
    after the last round is discarded."""
    def share(d: Density, start, m: int) -> tuple[int, int]:
        vn, vd = total_pair(d)
        return vn, vd * p.n

    pieces, _, _ = lowest_mark_rounds(p, share, 0)
    return Division.of(pieces)


def rightmost_mark_rule(p: Problem) -> Division:
    """Two agents: cut at the rightmost of the two rightmost half-value
    points; the agent who made that mark takes the right piece.  Equal
    marks give the right piece to the second-listed agent."""
    if p.n != 2:
        raise CakeError("rightmost-mark requires exactly 2 agents")
    first, second = p.agents
    marks = {}
    for a in p.agents:
        d = p.density(a)
        y = rightmost_mark(d, total(d) / 2)
        if y is None:
            raise InvariantError("every agent has a half-value mark")
        marks[a] = y
    if marks[second] >= marks[first]:
        right_agent, cut = second, marks[second]
    else:
        right_agent, cut = first, marks[first]
    left_agent = first if right_agent == second else second
    return Division.of({
        left_agent: [Interval(Fraction(0), cut)],
        right_agent: [Interval(cut, p.cake_length)],
    })


# ---------------------------------------------------------------------------
# Equitable rules


def equitable_for_ordering(p: Problem, pi: Sequence[str], mode: str,
                           v: Optional[Rat] = None) -> EquitableResult:
    """Exact event-driven end state of the two-phase moving knife at the
    ordering's equitable value v.

    One knife per agent plus a value screen t.  In phase 1 all knives move
    so that agent i's piece [x_{i-1}, x_i] stays worth exactly t * scale_i.
    Whenever some knife sits at the left edge of a stretch where its own
    agent's density is zero, the rightmost such knife slides freely through
    the stretch while knives to its right keep their piece values constant
    (phase 2).  Stops when the last knife reaches the end of the cake, at
    t = v.

    v is the ordering's value from the sweep (equitable_value_oracle when
    the caller does not pass it).  Once the slides at a screen value are
    done, the knives form the chain of maximal marks at that value, and a
    maximal mark whose target rises to g tends to the first point worth g,
    so the knife run from t = 0 arrives at t = v with the knives on the
    greedy_fit chain at v * scale_i, and the slides at v move them right
    to the least exact partition in the ordering.  _knife_cuts, the
    builder max_equitable shares, computes that partition in closed form
    on int pairs and certifies v: the chain fails when v is above the
    ordering's value, and below it no exact partition exists; both, a
    piece not worth v * scale, and a negative v raise InvariantError.
    """
    pi = tuple(pi)
    if sorted(pi) != sorted(p.agents):
        raise CakeError("ordering must be a permutation of the agents")
    if v is None:
        v = equitable_value_oracle(p, pi, mode)
    if v < 0:
        raise InvariantError(f"value {v} is below the ordering's value")
    scale = _scales(p, mode)
    lines = [_sweep_line(p.density(a), 0, 1, *scale[a]) for a in pi]
    cuts = _knife_cuts(p, pi, lines, (v.numerator, v.denominator))
    return EquitableResult(pi, cuts, v, mode)


def _knife_cuts(p: Problem, pi: Sequence[str], lines: Sequence[tuple],
                v: tuple[int, int]) -> tuple[Rat, ...]:
    """The moving knife's cuts in the ordering pi at its value v = vn/vd
    (vn >= 0; see equitable_for_ordering), one Fraction per cut, from the
    ordering's sweep lines (_sweep_line, alpha 0 and beta the scale), whose
    target at v is v * scale.

    The knife's end state is the least exact partition in pi: the
    componentwise least cut vector that ends at c and gives every piece
    exactly v * scale.  The exact partitions at v are closed under
    componentwise min, so when one exists there is a least one.  The knife
    starts on the greedy chain at v * scale (_chain; None means v is above
    the ordering's value), which lies below every exact partition; it only
    moves cuts rightward, and it stops at the first exact partition.

    The cut positions from which the agents after k can fill the rest of
    the cake exactly form an interval.  Its least point, lower[k], is the
    leftmost start of agent k + 1's suffix worth its target up to
    lower[k + 1] (Density._mark, sign -1, first point), from
    lower[n - 1] = c, or 0 when that agent cannot fill its target to the
    left.  Each cut of the least exact partition is the leftmost mark from
    the previous cut, raised to lower[k].  Up to the first cut that lower
    raises, these are the chain's cuts; from there they are lower's, since
    each later agent fills exactly from one lower point to the next.  So
    each cut is the larger of the chain's and lower[k].  The piece of the
    agent at the first raise k >= 1 is exact too: it starts at the chain's
    cut k - 1, at or past lower[k - 1], so up to lower[k] it is worth at
    most its target, and at least it.  At k = 0 it is exact iff the chain
    of suffix starts, run on through the first agent, ends at 0 (a
    fallback to 0 anywhere in it puts the first raise at k >= 1);
    otherwise no exact partition exists, and v is below the ordering's
    value.  All in int pairs.  Every piece is then certified worth v *
    scale by cross-multiplying Density._value with its target.  Each
    failure raises InvariantError, under python -O too.
    """
    vn, vd = v
    targets = [(ta * vd + tb * vn, tden * vd) for _, ta, tb, tden, *_ in lines]
    dens = [line[0] for line in lines]
    x = _chain((d, tn, td) for d, (tn, td) in zip(dens, targets))
    if x is None:
        raise InvariantError(f"value {Fraction(vn, vd)} is above the "
                             f"ordering's value")
    z = p.grid.breakpoint_pairs
    c = z[-2], z[-1]
    if x[-1] != c:
        # the suffix starts from c, last agent first: lower[n - 1], ...,
        # lower[0], then the first agent's start
        starts = [c]
        for d, (tn, td) in zip(dens[::-1], targets[::-1]):
            starts.append(d._mark(*starts[-1], tn, td, -1) or (0, 1))
        if starts[-1] != (0, 1):
            raise InvariantError(f"value {Fraction(vn, vd)} is below the "
                                 f"ordering's value")
        x = [g if g[0] * lo[1] >= lo[0] * g[1] else lo
             for g, lo in zip(x, starts[-2::-1])]
    lo = 0, 1
    for a, d, (tn, td), hi in zip(pi, dens, targets, x):
        wn, wd = d._value(*lo, *hi)
        if wn * td != tn * wd:
            raise InvariantError(f"piece of {a} is not worth "
                                 f"{Fraction(vn, vd)} * scale")
        lo = hi
    return tuple(Fraction(*y) for y in x[:-1])


def equitable_value_oracle(p: Problem, pi: Sequence[str], mode: str) -> Rat:
    """The equitable value for an ordering: sup{t : sequential minimal
    prefixes with targets t * scale_i fit in the cake}, by the sweep.
    equitable_for_ordering builds its division at this value, and its
    least exact partition certifies it."""
    scale = _scales(p, mode)
    zeros = [Fraction(0)] * p.n
    return sup_uniform_feasible(p, pi, zeros,
                                [Fraction(*scale[a]) for a in pi],
                                Fraction(0))


def max_equitable(p: Problem, mode: str) -> RuleOutput:
    """Equitable rule: maximize the common (relative or absolute) value over
    all agent orderings; returns the moving-knife divisions of all argmax
    orderings, in permutation order.

    Each agent's scale and sweep line (_sweep_line) is prepared once per
    call, and the search runs on int pairs.  It keeps a floor, as a pair:
    the best value so far, or before that the proportional bound L (see
    _proportional_floor).  fitting_orderings walks the orderings with
    targets floor * scale_i, held as int pairs (_scaled), updated when the
    floor rises and read when each cut is taken, and prunes every ordering
    whose prefix does not fit; the floor only rises, so pruning from cuts
    taken at an earlier floor never drops an ordering that reaches the
    current one.  Each ordering it yields is swept from the floor by the
    sweep's int core (_sweep), which returns None for one that no longer
    reaches it.  Each winner's cuts are built at the best value by
    _knife_cuts, the builder equitable_for_ordering runs, whose chain and
    least exact partition certify that value and whose per-piece check
    certifies every piece worth best * scale_a, so a wrong sweep value
    raises InvariantError; best * scale, built as Fractions once, is the
    output's one utility vector.
    """
    scale = _scales(p, mode)
    lines = {a: _sweep_line(d, 0, 1, *scale[a])
             for a, d in zip(p.agents, p.densities)}
    floor = _proportional_floor(p, scale)
    best = floor.numerator, floor.denominator
    targets = _scaled(scale, best)
    winners: list[tuple[str, ...]] = []
    for pi in fitting_orderings(p, targets.__getitem__):
        v = _sweep([lines[a] for a in pi], best)
        if v is None:
            continue
        if v[0] * best[1] > best[0] * v[1]:  # else v == best
            best, winners = v, []
            targets.update(_scaled(scale, v))
        winners.append(pi)
    if not winners:
        raise CakeError("no ordering reaches the proportional bound")
    divisions = [division_from_cuts(p, pi, _knife_cuts(
        p, pi, [lines[a] for a in pi], best)) for pi in winners]
    # the targets at the last floor are best * scale_a, the utilities
    return RuleOutput(divisions, Fraction(*best), winners,
                      utilities=_fractions(targets))
