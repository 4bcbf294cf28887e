"""Exact piecewise-constant value measures on an interval cake.

The cake is the interval [0, c].  A SliceGrid partitions it into finitely
many slices of positive length; a Density assigns one constant nonnegative
value density to each slice.  All arithmetic is exact rational.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
        object.__setattr__(self, "lo", _rat(self.lo))
        object.__setattr__(self, "hi", _rat(self.hi))
        if self.lo < 0 or self.lo > self.hi:
            raise CakeError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def empty(self) -> bool:
        return self.lo == self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class SliceGrid:
    """Partition of [0, c] into slices of strictly positive length."""

    lengths: tuple[Rat, ...]

    def __post_init__(self):
        lengths = tuple(_rat(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise CakeError("grid needs at least one slice")
        if any(x <= 0 for x in lengths):
            raise CakeError("slice lengths must be strictly positive")

    @cached_property
    def breakpoints(self) -> tuple[Rat, ...]:
        pts = [Fraction(0)]
        for x in self.lengths:
            pts.append(pts[-1] + x)
        return tuple(pts)

    @property
    def cake_length(self) -> Rat:
        return self.breakpoints[-1]

    def slice_right_of(self, x: Rat) -> int:
        """Index of the slice immediately to the right of x (requires x < c)."""
        if x < 0 or x >= self.cake_length:
            raise CakeError(f"point {x} has no slice to its right")
        return bisect.bisect_right(self.breakpoints, x) - 1

    def next_breakpoint(self, x: Rat) -> Rat:
        """Smallest breakpoint strictly greater than x (requires x < c)."""
        if x >= self.cake_length:
            raise CakeError(f"no breakpoint beyond {x}")
        return self.breakpoints[bisect.bisect_right(self.breakpoints, x)]


@dataclass(frozen=True)
class Density:
    """Per-slice constant densities on a grid; total value must be positive."""

    grid: SliceGrid
    values: tuple[Rat, ...]

    def __post_init__(self):
        values = tuple(_rat(x) for x in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.grid.lengths):
            raise CakeError("density/grid slice count mismatch")
        if any(v < 0 for v in values):
            raise CakeError("densities must be nonnegative")
        if not any(values):  # slices have positive length
            raise CakeError("agent must value the cake positively")

    @cached_property
    def prefix(self) -> tuple[Rat, ...]:
        """Cumulative value at each breakpoint: prefix[k] = value of [0, b_k]."""
        acc = [Fraction(0)]
        for length, v in zip(self.grid.lengths, self.values):
            acc.append(acc[-1] + length * v)
        return tuple(acc)

    def prefix_at(self, x: Rat) -> Rat:
        """Value of [0, x]."""
        if x < 0 or x > self.grid.cake_length:
            raise CakeError(f"point {x} outside cake")
        if x == self.grid.cake_length:
            return self.prefix[-1]
        k = self.grid.slice_right_of(x)
        return self.prefix[k] + self.values[k] * (x - self.grid.breakpoints[k])

    def density_right_of(self, x: Rat) -> Rat:
        """Constant density on the slice immediately right of x."""
        return self.values[self.grid.slice_right_of(x)]


def total(d: Density) -> Rat:
    """Total cake value of the agent, strictly positive by construction."""
    return d.prefix[-1]


def value(d: Density, iv: Interval) -> Rat:
    """Exact integral of the step density over the interval."""
    if iv.hi > d.grid.cake_length:
        raise CakeError(f"interval {iv} outside cake")
    return d.prefix_at(iv.hi) - d.prefix_at(iv.lo)


def merge_components(piece: Iterable[Interval]) -> list[Interval]:
    """Sort disjoint intervals and merge touching ones into connected components."""
    parts = sorted((iv for iv in piece if not iv.empty), key=lambda iv: iv.lo)
    merged: list[Interval] = []
    for iv in parts:
        if merged and iv.lo < merged[-1].hi:
            raise CakeError("overlapping intervals in piece")
        if merged and iv.lo == merged[-1].hi:
            merged[-1] = Interval(merged[-1].lo, iv.hi)
        else:
            merged.append(iv)
    return merged


def value_piece(d: Density, piece: Iterable[Interval], mode: str) -> Rat:
    """Value of a union of disjoint intervals.

    mode "connected": value of the best single connected component (adjacent
    intervals merged first).  mode "additive": plain sum.
    """
    components = merge_components(piece)
    vals = [value(d, iv) for iv in components]
    if mode == "connected":
        return max(vals, default=Fraction(0))
    if mode == "additive":
        return sum(vals, Fraction(0))
    raise CakeError(f"unknown utility mode {mode!r}")


def leftmost_mark(d: Density, start: Rat, target: Rat) -> Optional[Rat]:
    """Minimum y >= start with value [start, y] == target, or None.

    Left-continuous in the target: when the target exactly exhausts a
    positive run, the mark is the run's right end, before any zero stretch.
    """
    start, target = _rat(start), _rat(target)
    if target < 0:
        raise CakeError("target must be nonnegative")
    if start < 0 or start > d.grid.cake_length:
        raise CakeError(f"start {start} outside cake")
    if target == 0:
        return start
    goal = d.prefix_at(start) + target
    if goal > d.prefix[-1]:
        return None
    bps = d.grid.breakpoints
    k = bisect.bisect_right(d.prefix, goal) - 1
    # prefix[k] <= goal < prefix[k+1] unless goal sits on a plateau; back up to
    # the first breakpoint achieving the goal value.
    if k == len(bps) - 1 or d.prefix[k] == goal:
        while k > 0 and d.prefix[k - 1] == goal:
            k -= 1
        y = bps[k]
    else:
        y = bps[k] + (goal - d.prefix[k]) / d.values[k]
    return y if y >= start else start


def rightmost_mark(d: Density, target: Rat) -> Optional[Rat]:
    """Maximum y with value [0, y] == target, or None."""
    return maximal_mark(d, Fraction(0), target)


def maximal_mark(d: Density, start: Rat, target: Rat) -> Optional[Rat]:
    """Maximum y >= start with value [start, y] == target, or None.

    Extends the leftmost mark through any zero-density stretch that follows.
    """
    y = leftmost_mark(d, start, target)
    if y is None:
        return None
    while y < d.grid.cake_length:
        k = d.grid.slice_right_of(y)
        if d.values[k] != 0:
            break
        y = d.grid.breakpoints[k + 1]
    return y


def suffix_mark(d: Density, end: Rat, target: Rat) -> Optional[Rat]:
    """Maximum x <= end with value [x, end] == target, or None."""
    end, target = _rat(end), _rat(target)
    if target < 0:
        raise CakeError("target must be nonnegative")
    if end < 0 or end > d.grid.cake_length:
        raise CakeError(f"end {end} outside cake")
    goal = d.prefix_at(end) - target
    if goal < 0:
        return None
    bps = d.grid.breakpoints
    k = bisect.bisect_right(d.prefix, goal) - 1
    if d.prefix[k] == goal:
        # advance to the last breakpoint still achieving the goal value
        while k + 1 < len(d.prefix) and d.prefix[k + 1] == goal:
            k += 1
        x = bps[k]
    else:
        x = bps[k] + (goal - d.prefix[k]) / d.values[k]
    return min(x, end)


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

    def totals(self) -> dict[str, Rat]:
        return {a: total(d) for a, d in zip(self.agents, self.densities)}


def problem(agents: Sequence[str], lengths: Sequence, rows: Sequence[Sequence]) -> Problem:
    """Convenience constructor from slice lengths and per-agent density rows."""
    grid = SliceGrid(tuple(lengths))
    dens = tuple(Density(grid, tuple(row)) for row in rows)
    return Problem(tuple(agents), grid, dens)


def append(p: Problem, extra_lengths: Sequence, extra_rows: dict[str, Sequence]) -> Problem:
    """Enlarge the cake by appending slices on the right.

    extra_rows maps each agent name to its densities on the appended slices.
    Values of all intervals inside the original cake are unchanged.
    """
    extra_lengths = tuple(_rat(x) for x in extra_lengths)
    if not extra_lengths:
        return p
    if set(extra_rows) != set(p.agents):
        raise CakeError("enlargement must cover exactly the same agents")
    for row in extra_rows.values():
        if len(row) != len(extra_lengths):
            raise CakeError("enlargement density/slice count mismatch")
    grid = SliceGrid(p.grid.lengths + extra_lengths)
    dens = tuple(
        Density(grid, d.values + tuple(_rat(x) for x in extra_rows[a]))
        for a, d in zip(p.agents, p.densities)
    )
    return Problem(p.agents, grid, dens)


# ---------------------------------------------------------------------------
# Problem file format: {"slices": [{"length": "p/q"}, ...],
#                       "agents": [{"name": ..., "densities": ["p/q", ...]}, ...]}
# Rationals serialize as "p/q" or integer strings.  Enlargement files share
# the schema (densities cover only the appended slices).


def parse_rat(s) -> Rat:
    """Parse "p/q" or an integer string/number into an exact rational.

    JSON floats (and booleans, which are ints in Python) are refused: a
    float such as 1.1 is not the rational it was written as.
    """
    if isinstance(s, (float, bool)):
        raise CakeError(f"bad rational {s!r}: write it as a \"p/q\" string")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError, TypeError) as e:
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
