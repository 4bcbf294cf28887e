"""Exact piecewise-constant value measures on an interval cake.

The cake is the interval [0, c].  A SliceGrid partitions it into finitely
many slices of positive length; a Density assigns one constant nonnegative
value density to each slice.  All arithmetic is exact: lookups run on an
integer kernel summed from the numerators and denominators of the inputs
(see SliceGrid and Density), and each result is one normalised Fraction.
"""

from __future__ import annotations

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


def _exact(x, what: str):
    """x itself when it is an exact rational, an int or a Fraction: the one
    check of the public entries that read a number's numerator and
    denominator.  A float (whose numerator would be missing, or a binary
    approximation), a bool or anything else is refused (CakeError)."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return x
    raise CakeError(f"{what} must be an int or a Fraction, got {x!r}")


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
        # both ends are Fractions in lowest terms
        lo, hi = self.lo, self.hi
        return (lo.numerator == hi.numerator
                and lo.denominator == hi.denominator)

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


class _Built:
    """A kernel entry of a SliceGrid or Density.  The first read of any
    entry runs the owner's _build, the one int pass that sets every entry
    in the instance __dict__; later reads find it there before this
    descriptor, which defines no __set__ (as functools.cached_property)."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj._build()
        return vars(obj)[self.name]


@dataclass(frozen=True)
class SliceGrid:
    """Partition of [0, c] into slices of strictly positive length.

    Point lookups run on integers.  The grid's kernel is built on first
    use in one int pass over the lengths, reading each one's numerator and
    denominator once: ``scaled`` holds S, the lcm of the length
    denominators, and B, the running sums of the lengths times S;
    ``breakpoint_pairs`` holds each breakpoint B[k] / S as a reduced int
    pair, flat, which the sweep and the breakpoint marks read; and
    ``cake_length`` is c, one Fraction from the last pair.  The Fraction
    view ``breakpoints`` is built only when read.  Density's entries place
    a point x = num/den by q, r = divmod(num * S, den), so q is floor(x *
    S): for an integer key B[k], B[k] <= x * S holds exactly when B[k] <=
    q, so k = bisect_right(B, q) - 1 gives B[k] <= x * S < B[k + 1], and x
    * S equals B[k] exactly when r == 0 and B[k] == q.
    """

    lengths: tuple[Rat, ...]

    scaled = _Built()  # (S, B)
    breakpoint_pairs = _Built()  # breakpoints[k] is pairs[2k] / pairs[2k + 1]
    cake_length = _Built()

    def __post_init__(self):
        lengths = tuple(_rat(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise CakeError("grid needs at least one slice")
        if any(x.numerator <= 0 for x in lengths):
            raise CakeError("slice lengths must be strictly positive")

    def _build(self):
        pairs = [x.as_integer_ratio() for x in self.lengths]
        s = lcm(*(d for _, d in pairs))
        b = tuple(accumulate((n * (s // d) for n, d in pairs), initial=0))
        flat = []
        for x in b:
            g = gcd(x, s)
            flat += x // g, s // g
        vars(self).update(scaled=(s, b), breakpoint_pairs=tuple(flat),
                          cake_length=Fraction(flat[-2], flat[-1]))

    @cached_property
    def breakpoints(self) -> tuple[Rat, ...]:
        z = self.breakpoint_pairs
        return tuple(Fraction(z[i], z[i + 1]) for i in range(0, len(z), 2))


@dataclass(frozen=True)
class Density:
    """Per-slice constant densities on a grid; total value must be positive.

    Every value, mark and sweep step runs on one integer kernel, built on
    first use in one int pass over the densities that reads each one's
    numerator and denominator once (after the grid's own pass, see
    SliceGrid): ``scaled`` holds K, P and R, where P[k] / K is the value of
    [0, b_k] and values[k] = R[k] * S / K for the grid's scale S, and K is
    the least denominator that makes them all ints; ``value_pairs`` holds
    each density as a reduced int pair, flat, which the sweep reads.  The
    kernel has two entries, each one Python frame that places its points on
    the grid (as SliceGrid describes) and evaluates K * den * value[0,
    num/den] as an int in its own body.  ``_mark`` is the one mark entry,
    int pairs in and a normalised int pair out, which the library's mark
    chains and the classic protocols carry from mark to mark: one prefix
    evaluation, then one goal locate, which places the goal value among P
    by comparing floor(goal * K) with P, exact for the same reason as point
    lookups on the grid; a mark on a breakpoint reads the grid's
    breakpoint_pairs.  Its step mode, the maximal mark with the value left
    and the slice indices the sweep reads, is the parametric sweep's step.
    ``_value`` is the one value entry, int pairs in, an unreduced int pair
    out, which the protocols and piece valuation compare by
    cross-multiplication.  Each public result is built from these ints as
    one normalised Fraction.
    """

    grid: SliceGrid
    values: tuple[Rat, ...]

    scaled = _Built()  # (K, P, R)
    value_pairs = _Built()  # values[k] is pairs[2k] / pairs[2k + 1]

    def __post_init__(self):
        values = tuple(_rat(x) for x in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != len(self.grid.lengths):
            raise CakeError("density/grid slice count mismatch")
        if any(v.numerator < 0 for v in values):
            raise CakeError("densities must be nonnegative")
        if not any(values):  # slices have positive length
            raise CakeError("agent must value the cake positively")

    def _build(self):
        """R[k] = values[k] * D for D the lcm of the density denominators,
        and K = S * D, both divided by g = gcd(K, *R), then P the running
        sums of (B[k + 1] - B[k]) * R[k].  Each P[k] is a sum of multiples
        of the R, so g is also gcd(K, *P, *R), and K is the least."""
        s, b = self.grid.scaled
        pairs = [v.as_integer_ratio() for v in self.values]
        d = lcm(*(vd for _, vd in pairs))
        rate = [vn * (d // vd) for vn, vd in pairs]
        m = s * d
        g = gcd(m, *rate)
        if g > 1:
            m //= g
            rate = [r // g for r in rate]
        p = accumulate(((hi - lo) * r for lo, hi, r in zip(b, b[1:], rate)),
                       initial=0)
        vars(self).update(scaled=(m, tuple(p), tuple(rate)),
                          value_pairs=tuple(x for v in pairs for x in v))

    @cached_property
    def _total(self) -> Rat:
        m, p, _ = self.scaled
        return Fraction(p[-1], m)

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
        s, b = self.grid.scaled
        q, r = divmod(xn * s, xd)  # q = floor(x * S): see SliceGrid
        c = b[-1]
        if q < 0 or q > c or (q == c and r):  # x < 0 or x > c
            what = "end" if sign < 0 else "point" if step else "start"
            raise CakeError(f"{what} {Fraction(xn, xd)} outside cake")
        if tn == 0 and last != (sign > 0):
            return xn, xd
        m, p, rate = self.scaled
        # the prefix evaluation: i is the slice right of x (len(rate) at
        # x = c), and K * value[0, x] = P[i] + R[i] * (x * S - B[i]), with
        # x * S = q + r / xd
        if q == c:
            i, at = len(rate), p[-1] * xd
        else:
            i = bisect_right(b, q) - 1
            at = p[i] * xd + rate[i] * ((q - b[i]) * xd + r)
        den = xd * td
        g = at * td + sign * tn * m * xd  # the goal in the kernel's units
        if step:
            left = p[-1] * den - g, m * den
            if left[0] <= 0:
                return left, None, i, None
        elif g > p[-1] * den if sign > 0 else g < 0:
            return None
        # the goal locate: g / den is the goal already scaled by K, and k
        # is the last breakpoint with P[k] <= q
        q, r = divmod(g, den)
        k = bisect_right(p, q) - 1
        if r or p[k] != q:
            # P[k] < goal * K < P[k + 1], so slice k has positive density:
            # y = B[k] / S + (goal * K - P[k]) / (R[k] * S)
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
            z = self.grid.breakpoint_pairs
            y = z[2 * k], z[2 * k + 1]
        return (left, y, i, k) if step else y

    def _value(self, an: int, ad: int, bn: int,
               bd: int) -> Optional[tuple[int, int]]:
        """Value entry on int pairs: value[a, b] for a = an/ad and b =
        bn/bd (both denominators positive, 0 <= a <= b) as a pair over a
        positive denominator, not reduced, or None when b lies outside the
        cake.  Each end is placed on the grid and evaluated as the mark
        entry evaluates its start, with the slice left of c standing for
        c itself (its rate times x * S - B = 0 adds nothing)."""
        s, b = self.grid.scaled
        q, r = divmod(bn * s, bd)
        c = b[-1]
        if q < 0 or q > c or (q == c and r):  # b < 0 or b > c
            return None
        m, p, rate = self.scaled
        n = len(rate)
        k = bisect_right(b, q, 0, n) - 1
        top = p[k] * bd + rate[k] * ((q - b[k]) * bd + r)
        q, r = divmod(an * s, ad)
        k = bisect_right(b, q, 0, n) - 1
        bottom = p[k] * ad + rate[k] * ((q - b[k]) * ad + r)
        return top * ad - bottom * bd, m * ad * bd

    def prefix_at(self, x: Rat) -> Rat:
        """Value of [0, x]: a public Fraction wrapper over the value entry
        (_value from 0), with no library caller."""
        v = self._value(0, 1, x.numerator, x.denominator)
        if v is None:
            raise CakeError(f"point {x} outside cake")
        return Fraction(*v)


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
    parts = [iv for iv in piece if not iv.empty]
    if len(parts) < 2:  # nothing to sort or merge
        return parts
    parts.sort(key=lambda iv: iv.lo)
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
    """Maximum y with value [0, y] == target, or None: maximal_mark from
    0, a public wrapper with no library caller."""
    return maximal_mark(d, Fraction(0), target)


def maximal_mark(d: Density, start: Rat, target: Rat) -> Optional[Rat]:
    """Maximum y >= start with value [start, y] == target, or None.

    The leftmost mark extended through any zero-density stretch that
    follows it: the last point at which the prefix value reaches
    value[0, start] + target, located directly.  A public Fraction wrapper
    over Density._mark, with no library caller but rightmost_mark, which
    has none.
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


def parse_rat(s) -> Rat:
    """Parse "p/q" or an integer string/number into an exact rational.

    A string must be an optional sign, ASCII digits and an optional
    "/digits".  Other strings Fraction would take (spaces, decimals,
    exponents, underscores) are refused; an exponent would make it build
    the power in full.  JSON floats (and booleans, which are ints in
    Python) are refused: a float such as 1.1 is not the rational it was
    written as.  str.isdigit alone would accept non-ASCII digits such as
    "²", so the string must also be ASCII.
    """
    if isinstance(s, (float, bool)):
        raise CakeError(f"bad rational {s!r}: write it as a \"p/q\" string")
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise CakeError(f"bad rational {s!r}")
    num, slash, den = s.partition("/")
    digits = num[1:] if num[:1] in "+-" else num
    if not (s.isascii() and digits.isdigit()
            and (not slash or den.isdigit())):
        raise CakeError(f"bad rational {s!r}")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
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
