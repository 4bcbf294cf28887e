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
    _exact,
    total,
    total_pair,
)
from .divisions import (
    ABSOLUTE,
    RELATIVE,
    Division,
    _chain,
    _permutation,
    _sweep,
    _sweep_line,
    division_from_cuts,
    fitting_orderings,
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
        v = self.value.numerator, self.value.denominator
        return RuleOutput([self.division(p)], self.value, utilities={
            a: Fraction(*t) for a, t in _at(_lines(p, self.mode), v).items()})


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


def _lines(p: Problem, mode: str) -> dict[str, tuple]:
    """Each agent's equitable sweep line: _sweep_line with alpha 0 and beta
    the agent's scale as a reduced int pair, its total value in relative
    mode and 1 in absolute mode; _at reads its target at a value."""
    if mode == RELATIVE:
        scales = map(total, p.densities)
    elif mode == ABSOLUTE:
        scales = [Fraction(1)] * p.n
    else:
        raise CakeError(f"unknown value mode {mode!r}")
    return {a: _sweep_line(d, 0, 1, s.numerator, s.denominator)
            for a, d, s in zip(p.agents, p.densities, scales)}


def _at(lines: dict[str, tuple], v: tuple[int, int]
        ) -> dict[str, tuple[int, int]]:
    """Each agent's target v * scale on its equitable line (_lines) at v =
    vn/vd, as an int pair over a positive denominator, not reduced."""
    vn, vd = v
    return {a: (tb * vn, tden * vd)
            for a, (_, _, tb, tden, *_) in lines.items()}


def _proportional_floor(p: Problem, lines: dict[str, tuple]) -> Rat:
    """L = min_i(V_i / scale_i) / n: 1/n in relative mode, min_i V_i / n in
    absolute mode; the ordering of exact_proportional reaches it."""
    return min(Fraction(vn * sd, vd * sn * p.n) for (vn, vd), (*_, sn, sd)
               in zip(map(total_pair, p.densities), lines.values()))


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
    points (each the maximal mark from 0 worth half the agent's total, from
    Density._mark as cut_and_choose takes its leftmost one); the agent who
    made that mark takes the right piece.  Equal marks give the right piece
    to the second-listed agent."""
    if p.n != 2:
        raise CakeError("rightmost-mark requires exactly 2 agents")
    marks = []
    for i, d in enumerate(p.densities):
        wn, wd = total_pair(d)
        marks.append((Fraction(*d._mark(0, 1, wn, 2 * wd, 1, True)), i))
    cut, i = max(marks)  # (mark, index): ties to the higher index
    return Division.of({
        p.agents[1 - i]: [Interval(Fraction(0), cut)],
        p.agents[i]: [Interval(cut, p.cake_length)],
    })


# ---------------------------------------------------------------------------
# Equitable rules


def _ordering_lines(p: Problem, pi: Sequence[str], mode: str
                    ) -> tuple[tuple[str, ...], list[tuple]]:
    """pi as a tuple and its agents' equitable lines (_lines) in its order:
    pi must be a permutation of the agents (_permutation, CakeError
    otherwise)."""
    pi = _permutation(p, pi)
    lines = _lines(p, mode)
    return pi, [lines[a] for a in pi]


def equitable_for_ordering(p: Problem, pi: Sequence[str], mode: str,
                           v: Optional[Rat] = None) -> EquitableResult:
    """The moving knife's division in the ordering pi at its equitable
    value v: the least exact partition in pi, the componentwise least cuts
    that end at c and give every agent's piece exactly v * scale.

    v is the ordering's value from the sweep (_sweep from 0 on the
    ordering's lines, as equitable_value_oracle runs it) when the caller
    does not pass it.  _knife_cuts, the builder max_equitable shares,
    computes the partition in closed form on int pairs and certifies v:
    the greedy chain fails when v is above the ordering's value, and below
    it no exact partition exists; both, a piece not worth v * scale, and a
    negative v raise InvariantError.  pi must be a permutation of the
    agents, and a v passed an exact rational (CakeError otherwise).
    """
    pi, lines = _ordering_lines(p, pi, mode)
    if v is None:
        v = Fraction(*_sweep(lines, (0, 1)))
    if _exact(v, "value") < 0:
        raise InvariantError(f"value {v} is below the ordering's value")
    cuts = _knife_cuts(p, pi, lines, (v.numerator, v.denominator))
    return EquitableResult(pi, cuts, v, mode)


def _knife_cuts(p: Problem, pi: Sequence[str], lines: Sequence[tuple],
                v: tuple[int, int]) -> tuple[Rat, ...]:
    """The moving knife's cuts in the ordering pi at its value v = vn/vd
    (vn >= 0; see equitable_for_ordering), one Fraction per cut, from the
    ordering's equitable lines (_lines), whose target at v is v * scale.

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
    prefixes with targets t * scale_i fit in the cake}, by the sweep's int
    core (_sweep) from 0 on the ordering's lines, where the targets are all
    0 and fit.  equitable_for_ordering builds its division at this value,
    and its least exact partition certifies it.  pi must be a permutation
    of the agents (CakeError otherwise)."""
    _, lines = _ordering_lines(p, pi, mode)
    return Fraction(*_sweep(lines, (0, 1)))


def max_equitable(p: Problem, mode: str) -> RuleOutput:
    """Equitable rule: maximize the common (relative or absolute) value over
    all agent orderings; returns the moving-knife divisions of all argmax
    orderings, in permutation order.

    Each agent's equitable line (_lines) is prepared once per call, and
    the search runs on int pairs.  It keeps a floor, as a pair: the best
    value so far, or before that the proportional bound L (see
    _proportional_floor).  fitting_orderings walks the orderings with
    targets floor * scale_i, held as int pairs (_at), updated when the
    floor rises and read when each cut is taken, and prunes every ordering
    whose prefix does not fit; the floor only rises, so pruning from cuts
    taken at an earlier floor never drops an ordering that reaches the
    current one.  Each ordering it yields is
    swept from the floor by the sweep's int core (_sweep), which returns
    None for one that no longer reaches it.  Each winner's cuts are built
    at the best value by _knife_cuts, the builder equitable_for_ordering
    runs, whose chain and least exact partition certify that value and
    whose per-piece check certifies every piece worth best * scale_a, so a
    wrong sweep value raises InvariantError; best * scale, built as
    Fractions once, is the output's one utility vector.
    """
    lines = _lines(p, mode)
    floor = _proportional_floor(p, lines)
    best = floor.numerator, floor.denominator
    targets = _at(lines, best)
    winners: list[tuple[str, ...]] = []
    for pi in fitting_orderings(p, targets.__getitem__):
        v = _sweep([lines[a] for a in pi], best)
        if v is None:
            continue
        if v[0] * best[1] > best[0] * v[1]:  # else v == best
            best, winners = v, []
            targets.update(_at(lines, v))
        winners.append(pi)
    if not winners:
        raise CakeError("no ordering reaches the proportional bound")
    divisions = [division_from_cuts(p, pi, _knife_cuts(
        p, pi, [lines[a] for a in pi], best)) for pi in winners]
    # the targets at the last floor are best * scale_a, the utilities
    return RuleOutput(divisions, Fraction(*best), winners,
                      utilities={a: Fraction(*t) for a, t in targets.items()})
