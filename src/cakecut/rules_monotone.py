"""Monotone division rules: exact-proportional, relative- and
absolute-equitable (the parametric sweep finds each ordering's value; the
moving knife's final slides build the division there and certify that
value), and the rightmost-mark rule for two agents.
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
    value,
)
from .divisions import (
    ABSOLUTE,
    RELATIVE,
    Division,
    division_from_cuts,
    fitting_orderings,
    greedy_fit,
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
    scale_a, certified by equitable_for_ordering) and, maximised over
    orderings, the argmax ordering of each division.  utilities is None
    when the rule does not know it; utilities(p, x, mode).absolute values
    each division then."""

    divisions: list[Division]
    value: Optional[Rat] = None
    orderings: Optional[list[tuple[str, ...]]] = None
    utilities: Optional[dict[str, Rat]] = None


def _scales(p: Problem, mode: str) -> dict[str, Rat]:
    if mode == RELATIVE:
        return {a: total(p.density(a)) for a in p.agents}
    if mode == ABSOLUTE:
        return {a: Fraction(1) for a in p.agents}
    raise CakeError(f"unknown value mode {mode!r}")


def _equal_utilities(p: Problem, mode: str, v: Rat) -> dict[str, Rat]:
    """Absolute utilities of an equitable division at the value v."""
    return {a: v * s for a, s in _scales(p, mode).items()}


def _proportional_floor(p: Problem, scale: dict[str, Rat]) -> Rat:
    """L = min_i(V_i / scale_i) / n: 1/n in relative mode, min_i V_i / n in
    absolute mode; the ordering of exact_proportional reaches it."""
    return min(total(d) / scale[a] for a, d in zip(p.agents, p.densities)) / p.n


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
    greedy_fit chain at v * scale_i.  The loop starts there and runs only
    the phase-2 slides at v.  The slides certify v: greedy_fit fails when v
    is above the ordering's value, and below it the slides end, with no
    knife blocked, before the last knife reaches the end of the cake; both,
    and a negative v, raise InvariantError.
    """
    pi = tuple(pi)
    if sorted(pi) != sorted(p.agents):
        raise CakeError("ordering must be a permutation of the agents")
    if v is None:
        v = equitable_value_oracle(p, pi, mode)
    if v < 0:
        raise InvariantError(f"value {v} is below the ordering's value")
    scale = _scales(p, mode)
    x = greedy_fit(p, pi, {a: v * scale[a] for a in pi})
    if x is None:
        raise InvariantError(f"value {v} is above the ordering's value")
    dens = [p.density(a) for a in pi]
    n = len(pi)
    c = p.cake_length
    grid = p.grid
    while x[-1] != c:
        # the rightmost blocked knife r slides at unit speed; every knife
        # right of it keeps its piece worth what it was
        blocked = [i for i in range(n)
                   if x[i] < c and dens[i].density_right_of(x[i]) == 0]
        if not blocked:
            raise InvariantError(f"value {v} is below the ordering's value")
        r = blocked[-1]
        speed = [Fraction(0)] * n
        speed[r] = Fraction(1)
        for k in range(r + 1, n):
            speed[k] = (dens[k].density_right_of(x[k - 1]) * speed[k - 1]
                        / dens[k].density_right_of(x[k]))
        step = min((grid.next_breakpoint(xi) - xi) / si
                   for xi, si in zip(x, speed) if si)
        x = [xi + si * step for xi, si in zip(x, speed)]
    lo = Fraction(0)
    for a, d, hi in zip(pi, dens, x):
        if value(d, Interval(lo, hi)) != v * scale[a]:
            raise InvariantError(f"piece of {a} is not worth {v} * scale")
        lo = hi
    return EquitableResult(pi, tuple(x[:-1]), v, mode)


def equitable_value_oracle(p: Problem, pi: Sequence[str], mode: str) -> Rat:
    """The equitable value for an ordering: sup{t : sequential minimal
    prefixes with targets t * scale_i fit in the cake}, by the sweep.
    equitable_for_ordering builds its division at this value, and its
    slides certify it."""
    scale = _scales(p, mode)
    zeros = [Fraction(0)] * p.n
    return sup_uniform_feasible(p, pi, zeros, [scale[a] for a in pi], Fraction(0))


def max_equitable(p: Problem, mode: str) -> RuleOutput:
    """Equitable rule: maximize the common (relative or absolute) value over
    all agent orderings; returns the moving-knife divisions of all argmax
    orderings, in permutation order.

    The search keeps a floor: the best value so far, or before that the
    proportional bound L (see _proportional_floor).  fitting_orderings walks
    the orderings with targets floor * scale_i, refilled when the floor
    rises and read when each cut is taken, and prunes every ordering whose
    prefix does not fit; the floor only rises, so pruning from cuts taken
    at an earlier floor never drops an ordering that reaches the current
    one.  Each ordering it yields is swept from the floor, which returns
    None for one that no longer reaches it.  Each winner's division is
    built at the best value, and its slides certify that value (see
    equitable_for_ordering), so a wrong sweep value raises InvariantError;
    each division's pieces are checked to be worth best * scale_a, which is
    the output's one utility vector.
    """
    scale = _scales(p, mode)
    zeros = [Fraction(0)] * p.n
    best = _proportional_floor(p, scale)
    targets = {a: best * scale[a] for a in p.agents}
    winners: list[tuple[str, ...]] = []
    for pi in fitting_orderings(p, targets.__getitem__):
        v = sup_uniform_feasible(p, pi, zeros, [scale[a] for a in pi], best)
        if v is None:
            continue
        if v > best:  # else v == best
            best, winners = v, []
            targets.update((a, v * scale[a]) for a in p.agents)
        winners.append(pi)
    if not winners:
        raise CakeError("no ordering reaches the proportional bound")
    divisions = [equitable_for_ordering(p, pi, mode, best).division(p)
                 for pi in winners]
    return RuleOutput(divisions, best, winners,
                      utilities=_equal_utilities(p, mode, best))
