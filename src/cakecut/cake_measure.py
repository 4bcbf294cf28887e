"""Exact piecewise-constant value measures on an interval cake.

The cake is the interval [0, c].  A SliceGrid partitions it into finitely
many slices of positive length; a Density assigns one constant nonnegative
value density to each slice.  All arithmetic is exact: lookups run on an
integer kernel summed from the numerators and denominators of the inputs
(see SliceGrid and Density), and each result is one normalised Fraction.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Rat = Fraction


class CakeError(ValueError):
    """Invalid cake, density, or query."""


class InvariantError(AssertionError):
    """An exactness invariant of the library failed: a bug, not bad input.
    Raised explicitly, so the checks still run under python -O."""


def _rat(x) -> Rat:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; empty iff lo == hi."""

    lo: Rat
    hi: Rat

    def __post_init__(self):
        # the library builds most intervals from ends it already holds as
        # Fractions: those skip _rat, and the ends compare as ints
        lo, hi = self.lo, self.hi
        if type(lo) is not Fraction:
            lo = _rat(lo)
            object.__setattr__(self, "lo", lo)
        if type(hi) is not Fraction:
            hi = _rat(hi)
            object.__setattr__(self, "hi", hi)
        if (lo.numerator < 0
                or lo.numerator * hi.denominator > hi.numerator * lo.denominator):
            raise CakeError(f"bad interval [{lo}, {hi}]")

    @property
    def empty(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class SliceGrid:
    """Partition of [0, c] into slices of strictly positive length.

    Point lookups run on integers: ``scaled``, built in ints on first use,
    holds S, the lcm of the length denominators, and B, the running sums of
    the lengths times S.  Density's prefix evaluator places a point x =
    num/den by q, r = divmod(num * S, den), so q is floor(x * S): for an
    integer key B[k], B[k] <= x * S holds exactly when B[k] <= q, so k =
    bisect_right(B, q) - 1 gives B[k] <= x * S < B[k + 1], and x * S equals
    B[k] exactly when r == 0 and B[k] == q.  ``breakpoints`` is the view B
    / S, and ``breakpoint_pairs`` its int-pair view, which the sweep reads
    (and the equitable builder, for c).
    """

    lengths: tuple[Rat, ...]

    def __post_init__(self):
        lengths = tuple(_rat(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise CakeError("grid needs at least one slice")
        if any(x.numerator <= 0 for x in lengths):
            raise CakeError("slice lengths must be strictly positive")

    @cached_property
    def breakpoints(self) -> tuple[Rat, ...]:
        s, b = self.scaled
        return tuple(Fraction(x, s) for x in b)

    @cached_property
    def breakpoint_pairs(self) -> tuple[int, ...]:
        """The int-pair view of breakpoints, flat: breakpoints[k] is
        breakpoint_pairs[2k] / breakpoint_pairs[2k + 1], in lowest
        terms."""
        return tuple(x for z in self.breakpoints
                     for x in (z.numerator, z.denominator))

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """(S, B): S = lcm of the length (equally, breakpoint)
        denominators, B[k] = breakpoints[k] * S as an int."""
        s = lcm(*(x.denominator for x in self.lengths))
        steps = (x.numerator * (s // x.denominator) for x in self.lengths)
        return s, tuple(accumulate(steps, initial=0))

    @property
    def cake_length(self) -> Rat:
        return self.breakpoints[-1]


@dataclass(frozen=True)
class Density:
    """Per-slice constant densities on a grid; total value must be positive.

    Every value, mark and sweep step runs on one integer kernel, built in
    ints on first use: ``scaled`` holds K, P and R, where P[k] / K is the
    value of [0, b_k] and values[k] = R[k] * S / K for the grid's scale S,
    and K is the least denominator that makes them all ints.  ``_prefix``,
    the one prefix evaluator, places a point on the grid (as SliceGrid
    describes) and evaluates K * den * value[0, num/den] as an int.  ``_mark``
    is the one mark entry, int pairs in and a normalised int pair out,
    which the library's mark chains and the classic protocols carry from
    mark to mark: one prefix evaluation, then one goal locate written in
    its body, which places the goal value among P by comparing floor(goal *
    K) with P, exact for the same reason as point lookups on the grid.  Its
    step mode, the maximal mark with the value left and the slice indices
    the sweep reads, is the parametric sweep's step.  ``_value`` is the one
    value entry, int pairs in, an unreduced int pair out, which the
    protocols and piece valuation compare by cross-multiplication.  Each
    public result is built from these ints as one normalised Fraction.
    """

    grid: SliceGrid
    values: tuple[Rat, ...]

    def __post_init__(self):
        values = tuple(_rat(x) for x in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.grid.lengths):
            raise CakeError("density/grid slice count mismatch")
        if any(v.numerator < 0 for v in values):
            raise CakeError("densities must be nonnegative")
        if not any(values):  # slices have positive length
            raise CakeError("agent must value the cake positively")

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(K, P, R) from D, the lcm of the density denominators: R[k] =
        values[k] * D, P the running sums of (B[k + 1] - B[k]) * R[k], and K
        = S * D, all divided by their gcd, which leaves the least K."""
        s, b = self.grid.scaled
        d = lcm(*(v.denominator for v in self.values))
        rate = [v.numerator * (d // v.denominator) for v in self.values]
        p = list(accumulate(
            ((hi - lo) * r for lo, hi, r in zip(b, b[1:], rate)), initial=0))
        g = gcd(s * d, *p, *rate)
        return s * d // g, tuple(x // g for x in p), tuple(x // g for x in rate)

    @cached_property
    def value_pairs(self) -> tuple[int, ...]:
        """The int-pair view of values, flat: values[k] is
        value_pairs[2k] / value_pairs[2k + 1], in lowest terms.  Only the
        sweep reads densities here, at the slice indices _mark's step mode
        returns."""
        return tuple(x for v in self.values
                     for x in (v.numerator, v.denominator))

    @cached_property
    def _total(self) -> Rat:
        return Fraction(self.scaled[1][-1], self.scaled[0])

    def _prefix(self, num: int, den: int) -> Optional[tuple[int, int]]:
        """Prefix evaluator: (k, K * den * value[0, x]) for the point x =
        num/den (den > 0), where k is the slice right of x (len(values)
        at x = c); None when x lies outside the cake."""
        s, b = self.grid.scaled
        q, r = divmod(num * s, den)  # q = floor(x * S): see SliceGrid
        c = b[-1]
        if q < 0 or q > c or (q == c and r):  # x < 0 or x > c
            return None
        m, p, rate = self.scaled
        if q == c:  # x == c
            return len(self.values), p[-1] * den
        k = bisect_right(b, q) - 1
        # K * value = P[k] + R[k] * (x * S - B[k]), and x * S = q + r / den
        return k, p[k] * den + rate[k] * ((q - b[k]) * den + r)

    def _mark(self, xn: int, xd: int, tn: int, td: int, sign: int = 1,
              last: bool = False, step: bool = False):
        """Mark kernel on int pairs: for the point x = xn/xd in lowest terms
        and the target tn/td (both denominators positive), the first point
        (the last, if last) at which the prefix value reaches value[0, x] +
        sign * target, as a gcd-normalised pair over a positive
        denominator, or None when no point of the cake does.  sign 1 gives
        leftmost_mark (first) and maximal_mark (last) from the start x,
        sign -1 with last suffix_mark back from the end x, and sign -1
        first the leftmost start of a suffix worth the target up to x,
        which _knife_cuts reads (a zero target across a zero stretch moves
        it to the stretch's left end).  A zero target gives x itself for
        the leftmost and suffix marks, whose located point would lie on the
        far side of x across a zero stretch.

        With step (sign 1, last: the maximal mark), the parametric sweep's
        step: (left, y, k, j), where left = value[x, c] - target as an int
        pair over a positive denominator, not reduced, y the maximal mark,
        and k and j the slices right of x and of y.  When left <= 0 the
        mark is not taken and y and j are None.  An x outside the cake is
        refused as a point, the sweep's word for it."""
        if tn < 0:
            raise CakeError("target must be nonnegative")
        at = self._prefix(xn, xd)
        if at is None:
            what = "end" if sign < 0 else "point" if step else "start"
            raise CakeError(f"{what} {Fraction(xn, xd)} outside cake")
        if tn == 0 and last != (sign > 0):
            return xn, xd
        m, p, rate = self.scaled
        den = xd * td
        g = at[1] * td + sign * tn * m * xd  # the goal in the kernel's units
        if step:
            left = p[-1] * den - g, m * den
            if left[0] <= 0:
                return left, None, at[0], None
        elif g > p[-1] * den if sign > 0 else g < 0:
            return None
        # the goal locate: g / den is the goal already scaled by K, and k
        # is the last breakpoint with P[k] <= q
        q, r = divmod(g, den)
        k = bisect_right(p, q) - 1
        if r or p[k] != q:
            # P[k] < goal * K < P[k + 1], so slice k has positive density:
            # y = B[k] / S + (goal * K - P[k]) / (R[k] * S)
            s, b = self.grid.scaled
            yn, yd = (b[k] * rate[k] + q - p[k]) * den + r, rate[k] * s * den
            h = gcd(yn, yd)
            y = yn // h, yd // h
        else:
            # the goal is a breakpoint value; P is flat across zero-density
            # slices, so the breakpoints achieving it form one run ending
            # at k
            if not last:
                while k > 0 and p[k - 1] == q:
                    k -= 1
            y = self.grid.breakpoints[k]
            y = y.numerator, y.denominator
        return (left, y, at[0], k) if step else y

    def _value(self, an: int, ad: int, bn: int,
               bd: int) -> Optional[tuple[int, int]]:
        """Value entry on int pairs: value[a, b] for a = an/ad and b =
        bn/bd (both denominators positive, 0 <= a <= b) as a pair over a
        positive denominator, not reduced, or None when b > c."""
        top = self._prefix(bn, bd)
        if top is None:
            return None
        bottom = self._prefix(an, ad)[1]
        return top[1] * ad - bottom * bd, self.scaled[0] * ad * bd

    def prefix_at(self, x: Rat) -> Rat:
        """Value of [0, x]: a public Fraction wrapper over the prefix
        evaluator (_prefix), with no library caller."""
        xd = x.denominator
        at = self._prefix(x.numerator, xd)
        if at is None:
            raise CakeError(f"point {x} outside cake")
        return Fraction(at[1], self.scaled[0] * xd)


def total(d: Density) -> Rat:
    """Total cake value of the agent, strictly positive by construction."""
    return d._total


def total_pair(d: Density) -> tuple[int, int]:
    """total as an int pair over a positive denominator."""
    m, p, _ = d.scaled
    return p[-1], m


def value_pair(d: Density, iv: Interval) -> tuple[int, int]:
    """value as an int pair over a positive denominator, not reduced."""
    lo, hi = iv.lo, iv.hi
    v = d._value(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
    if v is None:
        raise CakeError(f"interval {iv} outside cake")
    return v


def value(d: Density, iv: Interval) -> Rat:
    """Exact integral of the step density over the interval."""
    return Fraction(*value_pair(d, iv))


def merge_components(piece: Iterable[Interval]) -> list[Interval]:
    """Sort disjoint intervals and merge touching ones into connected components."""
    parts = sorted((iv for iv in piece if not iv.empty), key=lambda iv: iv.lo)
    merged: list[Interval] = []
    for iv in parts:
        if merged:
            lo, hi = iv.lo, merged[-1].hi
            gap = lo.numerator * hi.denominator - hi.numerator * lo.denominator
            if gap < 0:
                raise CakeError("overlapping intervals in piece")
            if gap == 0:
                merged[-1] = Interval(merged[-1].lo, iv.hi)
                continue
        merged.append(iv)
    return merged


def value_piece(d: Density, piece: Iterable[Interval], mode: str) -> Rat:
    """Value of a union of disjoint intervals.

    mode "connected": value of the best single connected component (adjacent
    intervals merged first).  mode "additive": plain sum.  A public Fraction
    wrapper over Density._value (through value_components), with no
    library caller.
    """
    return value_components(d, merge_components(piece), mode)


def value_components(d: Density, parts: Iterable[Interval], mode: str) -> Rat:
    """value_piece of a piece already merged by merge_components."""
    return Fraction(*value_components_pair(d, parts, mode))


def value_components_pair(d: Density, parts: Iterable[Interval],
                          mode: str) -> tuple[int, int]:
    """value_components as an int pair over a positive denominator, not
    reduced: the best component (compared by cross-multiplication) in
    connected mode, the sum in additive mode.  Every part is valued before
    the mode is read."""
    vals = [value_pair(d, iv) for iv in parts]
    if mode == "connected":
        best = 0, 1
        for v in vals:
            if v[0] * best[1] > best[0] * v[1]:
                best = v
        return best
    if mode == "additive":
        num, den = 0, 1
        for vn, vd in vals:
            num, den = num * vd + vn * den, den * vd
        return num, den
    raise CakeError(f"unknown utility mode {mode!r}")


def _mark_rat(d: Density, x: Rat, target: Rat, sign: int,
              last: bool) -> Optional[Rat]:
    """Density._mark on rationals: the mark as one Fraction, or None."""
    x, target = _rat(x), _rat(target)
    y = d._mark(x.numerator, x.denominator, target.numerator,
                target.denominator, sign, last)
    return None if y is None else Fraction(*y)


def leftmost_mark(d: Density, start: Rat, target: Rat) -> Optional[Rat]:
    """Minimum y >= start with value [start, y] == target, or None.

    Left-continuous in the target: when the target exactly exhausts a
    positive run, the mark is the run's right end, before any zero stretch.
    The first point at which the prefix value reaches value[0, start] +
    target, from one prefix evaluation and one goal locate: a public
    Fraction wrapper over Density._mark, with no library caller.
    """
    return _mark_rat(d, start, target, 1, False)


def rightmost_mark(d: Density, target: Rat) -> Optional[Rat]:
    """Maximum y with value [0, y] == target, or None."""
    return maximal_mark(d, Fraction(0), target)


def maximal_mark(d: Density, start: Rat, target: Rat) -> Optional[Rat]:
    """Maximum y >= start with value [start, y] == target, or None.

    The leftmost mark extended through any zero-density stretch that
    follows it: the last point at which the prefix value reaches
    value[0, start] + target, located directly.  A public Fraction wrapper
    over Density._mark, whose one library caller is rightmost_mark.
    """
    return _mark_rat(d, start, target, 1, True)


def suffix_mark(d: Density, end: Rat, target: Rat) -> Optional[Rat]:
    """Maximum x <= end with value [x, end] == target, or None: the last
    point at which the prefix value reaches value[0, end] - target.  A
    public Fraction wrapper over Density._mark, with no library caller."""
    return _mark_rat(d, end, target, -1, True)


@dataclass(frozen=True)
class Problem:
    """A cake-cutting problem: named agents with densities on one shared grid."""

    agents: tuple[str, ...]
    grid: SliceGrid
    densities: tuple[Density, ...]

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "densities", tuple(self.densities))
        if not self.agents:
            raise CakeError("need at least one agent")
        if len(set(self.agents)) != len(self.agents):
            raise CakeError("agent names must be unique")
        if len(self.densities) != len(self.agents):
            raise CakeError("one density per agent required")
        for d in self.densities:
            if d.grid != self.grid:
                raise CakeError("all densities must share the problem grid")

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def cake_length(self) -> Rat:
        return self.grid.cake_length

    def density(self, name: str) -> Density:
        return self.densities[self.index(name)]

    def index(self, name: str) -> int:
        try:
            return self.agents.index(name)
        except ValueError:
            raise CakeError(f"unknown agent {name!r}") from None


def problem(agents: Sequence[str], lengths: Sequence, rows: Sequence[Sequence]) -> Problem:
    """Convenience constructor from slice lengths and per-agent density rows."""
    grid = SliceGrid(tuple(lengths))
    dens = tuple(Density(grid, tuple(row)) for row in rows)
    return Problem(tuple(agents), grid, dens)


def enlargement(p: Problem, extra_lengths: Sequence,
                extra_rows: dict[str, Sequence]
                ) -> tuple[tuple[Rat, ...], dict[str, tuple[Rat, ...]]]:
    """The enlargement as append reads it: the extra lengths, and each
    agent's extra densities in p's agent order, as tuples of Fractions, in
    new containers; no rows when there are no extra slices.  Raises
    CakeError when the rows do not cover exactly p's agents or do not match
    the lengths; SliceGrid and Density check the values when append builds
    them."""
    extra_lengths = tuple(_rat(x) for x in extra_lengths)
    if not extra_lengths:
        return extra_lengths, {}
    if set(extra_rows) != set(p.agents):
        raise CakeError("enlargement must cover exactly the same agents")
    for row in extra_rows.values():
        if len(row) != len(extra_lengths):
            raise CakeError("enlargement density/slice count mismatch")
    return extra_lengths, {a: tuple(_rat(x) for x in extra_rows[a])
                           for a in p.agents}


def append(p: Problem, extra_lengths: Sequence, extra_rows: dict[str, Sequence]) -> Problem:
    """Enlarge the cake by appending slices on the right.

    extra_rows maps each agent name to its densities on the appended slices.
    Values of all intervals inside the original cake are unchanged.
    """
    extra_lengths, extra_rows = enlargement(p, extra_lengths, extra_rows)
    if not extra_lengths:
        return p
    grid = SliceGrid(p.grid.lengths + extra_lengths)
    dens = tuple(Density(grid, d.values + extra_rows[a])
                 for a, d in zip(p.agents, p.densities))
    return Problem(p.agents, grid, dens)


# ---------------------------------------------------------------------------
# Problem file format: {"slices": [{"length": "p/q"}, ...],
#                       "agents": [{"name": ..., "densities": ["p/q", ...]}, ...]}
# Rationals serialize as "p/q" or integer strings.  Enlargement files share
# the schema (densities cover only the appended slices).


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_rat(s) -> Rat:
    """Parse "p/q" or an integer string/number into an exact rational.

    A string must be an optional sign, ASCII digits and an optional
    "/digits".  Other strings Fraction would take (spaces, decimals,
    exponents, underscores) are refused; an exponent would make it build
    the power in full.  JSON floats (and booleans, which are ints in
    Python) are refused: a float such as 1.1 is not the rational it was
    written as.
    """
    if isinstance(s, (float, bool)):
        raise CakeError(f"bad rational {s!r}: write it as a \"p/q\" string")
    if isinstance(s, int):
        return Fraction(s)
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise CakeError(f"bad rational {s!r}")
    num, den = m.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as e:
        raise CakeError(f"bad rational {s!r}") from e


def parse_list(x, what: str) -> list:
    """A JSON array; a string or object in its place is refused rather than
    iterated character by character or key by key."""
    if not isinstance(x, list):
        raise CakeError(f"{what} must be a list, got {x!r}")
    return x


def parse_name(x) -> str:
    if not isinstance(x, str):
        raise CakeError(f"agent name must be a string, got {x!r}")
    return x


def format_rat(x: Rat) -> str:
    return str(x)


def _slices_and_agents(obj, what: str):
    """Slice lengths, agent names and density rows of a problem-file object."""
    try:
        lengths = [parse_rat(s["length"])
                   for s in parse_list(obj["slices"], "slices")]
        agents = parse_list(obj["agents"], "agents")
        names = [parse_name(a["name"]) for a in agents]
        rows = [[parse_rat(v) for v in parse_list(a["densities"], "densities")]
                for a in agents]
    except (KeyError, TypeError) as e:
        raise CakeError(f"malformed {what} object: {e}") from e
    return lengths, names, rows


def problem_from_json(obj) -> Problem:
    lengths, names, rows = _slices_and_agents(obj, "problem")
    return problem(names, lengths, rows)


def problem_to_json(p: Problem) -> dict:
    return {
        "slices": [{"length": format_rat(x)} for x in p.grid.lengths],
        "agents": [
            {"name": a, "densities": [format_rat(v) for v in d.values]}
            for a, d in zip(p.agents, p.densities)
        ],
    }


def enlargement_from_json(obj) -> tuple[list[Rat], dict[str, list[Rat]]]:
    """Extra slice lengths and per-agent densities, schema as problem files."""
    lengths, names, rows = _slices_and_agents(obj, "enlargement")
    if len(set(names)) != len(names):
        raise CakeError("enlargement lists an agent twice")
    return lengths, dict(zip(names, rows))


def remove_agent(p: Problem, name: str) -> Problem:
    """Drop one agent, keeping the cake unchanged."""
    i = p.index(name)
    if p.n < 2:
        raise CakeError("cannot remove the last agent")
    agents = p.agents[:i] + p.agents[i + 1 :]
    dens = p.densities[:i] + p.densities[i + 1 :]
    return Problem(agents, p.grid, dens)
