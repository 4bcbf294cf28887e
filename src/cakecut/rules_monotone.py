"""Monotone division rules: exact-proportional, relative- and
absolute-equitable (moving-knife simulation cross-checked by a parametric
oracle), and the rightmost-mark rule for two agents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cake_measure import (
    CakeError,
    Interval,
    InvariantError,
    Problem,
    Rat,
    maximal_mark,
    rightmost_mark,
    total,
    value,
)
from .divisions import (
    ABSOLUTE,
    RELATIVE,
    Division,
    division_from_cuts,
    fitting_orderings,
    mark_chain,
    sup_uniform_feasible,
)
from .rules_classic import lowest_mark_rounds


@dataclass(frozen=True)
class EquitableResult:
    """Connected partition in an ordering whose pieces all equal v_pi."""

    ordering: tuple[str, ...]
    cuts: tuple[Rat, ...]
    value: Rat
    mode: str

    def division(self, p: Problem) -> Division:
        return division_from_cuts(p, self.ordering, self.cuts + (p.cake_length,))

    def output(self, p: Problem) -> RuleOutput:
        return RuleOutput([self.division(p)], self.value)


@dataclass
class RuleOutput:
    """A rule's output set; the equitable rules add the common value and,
    maximised over orderings, the argmax ordering of each division."""

    divisions: list[Division]
    value: Optional[Rat] = None
    orderings: Optional[list[tuple[str, ...]]] = None


def _scales(p: Problem, mode: str) -> dict[str, Rat]:
    if mode == RELATIVE:
        return {a: total(p.density(a)) for a in p.agents}
    if mode == ABSOLUTE:
        return {a: Fraction(1) for a in p.agents}
    raise CakeError(f"unknown value mode {mode!r}")


def _proportional_floor(p: Problem, scale: dict[str, Rat]) -> Rat:
    """L = min_i(V_i / scale_i) / n: 1/n in relative mode, min_i V_i / n in
    absolute mode; the ordering of exact_proportional reaches it."""
    return min(total(d) / scale[a] for a, d in zip(p.agents, p.densities)) / p.n


def exact_proportional(p: Problem) -> Division:
    """Each round every remaining agent marks a prefix worth exactly V_i/n
    from the current left edge; the leftmost marker (ties: lowest index)
    takes it.  Every agent ends with relative value exactly 1/n; the tail
    after the last round is discarded."""
    pieces, _, _ = lowest_mark_rounds(p, lambda d, start, m: total(d) / p.n, 0)
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
                           floor: Rat = Fraction(0)) -> EquitableResult:
    """Exact event-driven simulation of the two-phase moving-knife.

    One knife per agent plus a value screen t.  In phase 1 all knives move
    so that agent i's piece [x_{i-1}, x_i] stays worth exactly t * scale_i.
    Whenever some knife sits at the left edge of a stretch where its own
    agent's density is zero, the rightmost such knife slides freely through
    the stretch while knives to its right keep their piece values constant
    (phase 2).  Stops when the last knife reaches the end of the cake.

    The simulation starts at the proportional floor L (see
    _proportional_floor) from the chain of sequential maximal marks worth
    L * scale_i, or at t = 0 with every knife at 0 when that chain does not
    exist or its last cut is at the end of the cake.  Both give the same
    result, for three reasons.  (1) Once the phase-2 slides at a screen
    value t are done, no knife sits at the left edge of its own zero
    stretch, so each knife is at the maximal mark of its own piece: the
    knives form the maximal chain at t, whatever came before.  (2) The loop
    reads nothing but (x, t), and inside a phase-1 segment the knives move
    affinely in t, so from any state of the t = 0 run the loop follows that
    run to the same next event.  (3) A maximal chain at L whose last cut is
    before the end of the cake lies, knife by knife, at or right of the
    maximal chain at every t < L (marks are monotone in start and target),
    so the t = 0 run has not stopped before L: it passes through t = L, in
    exactly the state the floor start begins from.  When that chain ends at
    the end of the cake, the ordering is worth exactly L and the t = 0 run
    may stop at L before its slides are done, with some cut left of the
    chain; hence the fallback.

    A caller that knows a lower bound on this ordering's value passes it as
    floor, and the simulation starts at max(L, floor) instead of L.  By
    (3), any start in [L, v) gives the same result.  A start at or above v
    falls back to t = 0, exactly as L = v does: above v no maximal chain
    exists (the minimal chain would fit there), and at v it ends at the end
    of the cake (a last mark before it has cake of positive value to its
    right, so the chain would still fit a little above v).
    """
    pi = tuple(pi)
    if sorted(pi) != sorted(p.agents):
        raise CakeError("ordering must be a permutation of the agents")
    scale = _scales(p, mode)
    dens = [p.density(a) for a in pi]
    s = [scale[a] for a in pi]
    n = len(pi)
    c = p.cake_length
    grid = p.grid
    t = max(_proportional_floor(p, scale), floor)
    x = mark_chain(maximal_mark, dens, (t * sc for sc in s), Fraction(0))
    if x is None or x[-1] == c:
        x, t = [Fraction(0)] * n, Fraction(0)
    while x[-1] != c:
        # phase 2: the rightmost blocked knife r slides at unit speed;
        # phase 1 (r = -1): the screen pushes every knife at its own scale.
        # Every knife right of r then keeps its piece worth that push.
        blocked = [i for i in range(n)
                   if x[i] < c and dens[i].density_right_of(x[i]) == 0]
        r = blocked[-1] if blocked else -1
        v = [Fraction(0)] * n
        if blocked:
            v[r] = Fraction(1)
        for k in range(r + 1, n):
            back = dens[k].density_right_of(x[k - 1]) * v[k - 1] if k else 0
            v[k] = ((0 if blocked else s[k]) + back) / dens[k].density_right_of(x[k])
        step = min((grid.next_breakpoint(xi) - xi) / vi
                   for xi, vi in zip(x, v) if vi)
        if not blocked:
            t += step
        x = [xi + vi * step for xi, vi in zip(x, v)]
    result = EquitableResult(pi, tuple(x[:-1]), t, mode)
    lo = Fraction(0)
    for a, d, sc, hi in zip(pi, dens, s, x):
        if value(d, Interval(lo, hi)) != t * sc:
            raise InvariantError(f"piece of {a} is not worth {t} * scale")
        lo = hi
    return result


def equitable_value_oracle(p: Problem, pi: Sequence[str], mode: str) -> Rat:
    """The equitable value for an ordering, computed independently of the
    simulation as sup{t : sequential minimal prefixes with targets
    t * scale_i fit in the cake}."""
    scale = _scales(p, mode)
    zeros = [Fraction(0)] * p.n
    return sup_uniform_feasible(p, pi, zeros, [scale[a] for a in pi], Fraction(0))


def max_equitable(p: Problem, mode: str) -> RuleOutput:
    """Equitable rule: maximize the common (relative or absolute) value over
    all agent orderings; returns the simulated divisions of all argmax
    orderings, in permutation order.  The oracle and the simulation must
    agree exactly.

    The search keeps a floor: the best value so far, or before that the
    proportional bound L (see _proportional_floor).  fitting_orderings walks
    the orderings with targets floor * scale_i, read when each cut is
    taken, and prunes every ordering whose prefix does not fit; the floor
    only rises, so pruning from cuts taken at an earlier floor never drops
    an ordering that reaches the current one.  Each ordering it yields is
    swept by the oracle from the floor, which returns None for one that no
    longer reaches it.

    The winners are simulated from prev, the floor before the last rise:
    every winner is worth best > prev (or prev = best = L when the floor
    never rose, which falls back to t = 0 as before), so the result equals
    the simulation from L (see equitable_for_ordering).  The simulation
    reads nothing of the oracle but that start, and it returns the
    ordering's own value from any start, so a wrong oracle value still
    shows as a disagreement.
    """
    scale = _scales(p, mode)
    zeros = [Fraction(0)] * p.n
    prev = best = _proportional_floor(p, scale)
    winners: list[tuple[str, ...]] = []
    for pi in fitting_orderings(p, lambda a: best * scale[a]):
        v = sup_uniform_feasible(p, pi, zeros, [scale[a] for a in pi], best)
        if v is None:
            continue
        if v > best or not winners:
            prev, best, winners = best, v, [pi]
        else:  # v == best
            winners.append(pi)
    if not winners:
        raise CakeError("no ordering reaches the proportional bound")
    divisions = []
    for pi in winners:
        sim = equitable_for_ordering(p, pi, mode, floor=prev)
        if sim.value != best:
            raise InvariantError("simulation and oracle disagree")
        divisions.append(sim.division(p))
    return RuleOutput(divisions, best, winners)
