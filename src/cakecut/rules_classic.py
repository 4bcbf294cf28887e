"""Exact implementations of six classic proportional protocols:
cut-and-choose, Banach-Knaster, Dubins-Spanier, Even-Paz, Fink, and
Selfridge-Conway.

Determinism: chooser and part-selection ties resolve toward the right
piece / rightmost part; stop-point ties resolve toward the lowest agent
index.  Banach-Knaster and Dubins-Spanier thresholds renormalize to the
remaining cake (value of the remaining cake divided by the number of
remaining agents).  Dubins-Spanier and exact-proportional (rules_monotone)
run the same lowest-mark round loop, lowest_mark_rounds.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .cake_measure import (
    CakeError,
    Density,
    Interval,
    InvariantError,
    Problem,
    Rat,
    leftmost_mark,
    merge_components,
    total,
    value,
    value_components,
    value_piece,
)
from .divisions import ADDITIVE, Division

Piece = list[Interval]


def split_equal(d: Density, piece: Sequence[Interval], k: int) -> list[Piece]:
    """Split a union of intervals into k parts of equal value to d by
    sweeping minimal prefixes left to right; the last part absorbs any
    worthless remainder."""
    comps = merge_components(piece)
    target = value_components(d, comps, ADDITIVE) / k
    parts: list[Piece] = []
    idx = 0
    pos = comps[0].lo if comps else None
    for _ in range(k - 1):
        need = target
        cur: Piece = []
        while True:
            iv = comps[idx]
            avail = value(d, Interval(pos, iv.hi))
            if avail >= need:
                m = leftmost_mark(d, pos, need)
                if m > pos:
                    cur.append(Interval(pos, m))
                pos = m
                if pos == iv.hi and idx + 1 < len(comps):
                    idx += 1
                    pos = comps[idx].lo
                break
            need -= avail
            if pos < iv.hi:
                cur.append(Interval(pos, iv.hi))
            idx += 1
            pos = comps[idx].lo
        parts.append(cur)
    rest: Piece = []
    if comps:
        if pos < comps[idx].hi:
            rest.append(Interval(pos, comps[idx].hi))
        rest.extend(comps[idx + 1 :])
    parts.append(rest)
    return parts


def _pick_rightmost_best(d: Density, parts: list[Piece],
                         candidates: Sequence[int]) -> int:
    """Index of the additively-best part, rightmost among ties."""
    vals = {i: value_piece(d, parts[i], ADDITIVE) for i in candidates}
    best = max(vals.values())
    return max(i for i in candidates if vals[i] == best)


def cut_and_choose(p: Problem) -> Division:
    """The first agent (the cutter) halves the cake at its leftmost
    half-mark; the chooser takes the weakly preferred piece (tie: the right
    piece)."""
    if p.n != 2:
        raise CakeError("cut-and-choose requires exactly 2 agents")
    cutter, chooser = p.agents
    d = p.density(cutter)
    m = leftmost_mark(d, Fraction(0), total(d) / 2)
    left, right = Interval(Fraction(0), m), Interval(m, p.cake_length)
    dc = p.density(chooser)
    if value(dc, left) > value(dc, right):
        return Division.of({chooser: [left], cutter: [right]})
    return Division.of({cutter: [left], chooser: [right]})


def banach_knaster(p: Problem) -> Division:
    """Last-diminisher, agents in listed order: the first remaining agent
    cuts a prefix worth its proportional share of the remaining cake; later
    agents trim only when the piece is worth strictly more than their own
    share; the last trimmer takes the piece."""
    s = Fraction(0)
    c = p.cake_length
    pieces: dict[str, Piece] = {}
    remaining = list(p.agents)
    while len(remaining) > 1:
        m = len(remaining)
        holder = remaining[0]
        d = p.density(holder)
        y = leftmost_mark(d, s, value(d, Interval(s, c)) / m)
        for a in remaining[1:]:
            da = p.density(a)
            share = value(da, Interval(s, c)) / m
            if value(da, Interval(s, y)) > share:
                y = leftmost_mark(da, s, share)
                holder = a
        pieces[holder] = [Interval(s, y)]
        s = y
        remaining.remove(holder)
    pieces[remaining[0]] = [Interval(s, c)]
    return Division.of(pieces)


def lowest_mark_rounds(p: Problem, share: Callable[[Density, Rat, int], Rat],
                       keep: int) -> tuple[dict[str, Piece], Rat, list[str]]:
    """Rounds from the left end of the cake until keep agents remain: each
    remaining agent marks the leftmost point worth share(d, start, m) from
    the current start, with m agents remaining; the lowest mark (tie: lowest
    index) exits with the prefix up to it.  Returns the pieces, the final
    start and the agents left."""
    start = Fraction(0)
    remaining = list(p.agents)
    pieces: dict[str, Piece] = {}
    while len(remaining) > keep:
        m = len(remaining)
        marks = []
        for a in remaining:
            d = p.density(a)
            y = leftmost_mark(d, start, share(d, start, m))
            if y is None:
                raise InvariantError("a remaining agent's share exceeds the "
                                     "remaining cake")
            marks.append((y, p.index(a), a))
        y, _, winner = min(marks)
        pieces[winner] = [Interval(start, y)]
        start = y
        remaining.remove(winner)
    return pieces, start, remaining


def dubins_spanier(p: Problem) -> Division:
    """Moving knife sweep: each remaining agent stops at its proportional
    share of the remaining cake; the earliest stop (tie: lowest index)
    exits with the prefix."""
    c = p.cake_length
    pieces, s, (last,) = lowest_mark_rounds(
        p, lambda d, s, m: value(d, Interval(s, c)) / m, 1)
    pieces[last] = [Interval(s, c)]
    return Division.of(pieces)


def even_paz(p: Problem) -> Division:
    """Divide-and-conquer: m agents split [lo, hi] at the k-th smallest
    k/m-mark with k = floor(m/2); mark ties resolve by agent index."""
    pieces: dict[str, Piece] = {}

    def rec(agents: list[str], lo: Rat, hi: Rat) -> None:
        if len(agents) == 1:
            pieces[agents[0]] = [Interval(lo, hi)]
            return
        m = len(agents)
        k = m // 2
        marks = []
        for a in agents:
            d = p.density(a)
            y = leftmost_mark(d, lo, value(d, Interval(lo, hi)) * k / m)
            marks.append((y, p.index(a), a))
        marks.sort()
        cut = marks[k - 1][0]
        rec([a for _, _, a in marks[:k]], lo, cut)
        rec([a for _, _, a in marks[k:]], cut, hi)

    rec(list(p.agents), Fraction(0), p.cake_length)
    return Division.of(pieces)


def fink(p: Problem) -> Division:
    """Agents join one by one in listed order; each newcomer takes its
    additively-best part (tie: rightmost) of a (k+1)-way equal split of
    every incumbent's piece."""
    order = p.agents
    pieces: dict[str, Piece] = {}
    for j, newcomer in enumerate(order):
        if j == 0:
            pieces[newcomer] = [Interval(Fraction(0), p.cake_length)]
            continue
        dn = p.density(newcomer)
        acquired: Piece = []
        for owner in order[:j]:
            parts = split_equal(p.density(owner), pieces[owner], j + 1)
            pick = _pick_rightmost_best(dn, parts, range(j + 1))
            acquired.extend(parts[pick])
            pieces[owner] = [iv for i, part in enumerate(parts) if i != pick
                             for iv in part]
        pieces[newcomer] = acquired
    return Division.of(pieces)


def selfridge_conway(p: Problem) -> Division:
    """Three agents in listed order (cutter, trimmer, third).

    The cutter cuts three equal parts; the trimmer trims its strictly-best
    part down to its second-best value (keeping the left end), or passes.
    On a pass, parts are chosen in order third, trimmer, cutter.  Otherwise
    the third agent chooses first (taking the trimmed part only on strict
    preference), the trimmer must take the trimmed part if it remains, the
    cutter takes the last part, and the non-cutter not holding the trimmed
    part splits the trimmings three ways, chosen in order trimmed-part
    holder, cutter, splitter."""
    if p.n != 3:
        raise CakeError("selfridge-conway requires exactly 3 agents")
    cutter, trimmer, third = p.agents
    dc = p.density(cutter)
    v_total = total(dc)
    m1 = leftmost_mark(dc, Fraction(0), v_total / 3)
    m2 = leftmost_mark(dc, Fraction(0), 2 * v_total / 3)
    parts = [Interval(Fraction(0), m1), Interval(m1, m2),
             Interval(m2, p.cake_length)]
    dt = p.density(trimmer)
    tvals = [value(dt, iv) for iv in parts]
    ranked = sorted(tvals, reverse=True)
    pieces: dict[str, Piece] = {}
    if ranked[0] == ranked[1]:
        # pass: everyone takes a whole part, tie toward the right part
        available = [0, 1, 2]
        for a in (third, trimmer, cutter):
            da = p.density(a)
            pick = _pick_rightmost_best(da, [[iv] for iv in parts], available)
            pieces[a] = [parts[pick]]
            available.remove(pick)
        return Division.of(pieces)
    bi = tvals.index(ranked[0])
    m = leftmost_mark(dt, parts[bi].lo, ranked[1])
    trimmed = Interval(parts[bi].lo, m)
    trimmings = Interval(m, parts[bi].hi)
    offered = {i: (trimmed if i == bi else parts[i]) for i in range(3)}
    d3 = p.density(third)
    untrimmed = [i for i in range(3) if i != bi]
    best_u = _pick_rightmost_best(d3, [[offered[i]] for i in range(3)], untrimmed)
    pick3 = bi if value(d3, trimmed) > value(d3, offered[best_u]) else best_u
    pieces[third] = [offered[pick3]]
    left_over = [i for i in range(3) if i != pick3]
    pick_t = bi if bi in left_over else _pick_rightmost_best(
        dt, [[offered[i]] for i in range(3)], left_over)
    pieces[trimmer] = [offered[pick_t]]
    left_over.remove(pick_t)
    pieces[cutter] = [offered[left_over[0]]]
    holder = third if pick3 == bi else trimmer
    splitter = trimmer if holder == third else third
    tparts = split_equal(p.density(splitter), [trimmings], 3)
    available = [0, 1, 2]
    for a in (holder, cutter, splitter):
        da = p.density(a)
        pick = _pick_rightmost_best(da, tparts, available)
        pieces[a] = pieces[a] + tparts[pick]
        available.remove(pick)
    return Division.of(pieces)
