"""Exact implementations of six classic proportional protocols:
cut-and-choose, Banach-Knaster, Dubins-Spanier, Even-Paz, Fink, and
Selfridge-Conway.

Determinism: chooser and part-selection ties resolve toward the right
piece / rightmost part; stop-point ties resolve toward the lowest agent
index.  Banach-Knaster and Dubins-Spanier thresholds renormalize to the
remaining cake (value of the remaining cake divided by the number of
remaining agents).  Dubins-Spanier and exact-proportional (rules_monotone)
run the same lowest-mark round loop, lowest_mark_rounds.

Every protocol runs on the measure kernel's int-pair entries, Density._mark
and Density._value: starts, shares, targets and values are int pairs over
positive denominators, compared by cross-multiplication, and a Fraction is
built for each end of an output interval.
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
    merge_components,
    total_pair,
    value,
    value_components_pair,
    value_pair,
)
from .divisions import ADDITIVE, Division

Piece = list[Interval]
Pair = tuple[int, int]


def _above(a: Pair, b: Pair) -> bool:
    """a > b for int pairs over positive denominators."""
    return a[0] * b[1] > b[0] * a[1]


def _end(p: Problem) -> Pair:
    """The cake's right end c as an int pair."""
    c = p.cake_length
    return c.numerator, c.denominator


def split_equal(d: Density, piece: Sequence[Interval], k: int) -> list[Piece]:
    """Split a union of intervals into k parts of equal value to d by
    sweeping minimal prefixes left to right; the last part absorbs any
    worthless remainder."""
    comps = merge_components(piece)
    tn, td = value_components_pair(d, comps, ADDITIVE)
    td *= k
    parts: list[Piece] = []
    idx = 0
    pos = comps[0].lo if comps else None
    for _ in range(k - 1):
        nn, nd = tn, td  # the value still needed for this part
        cur: Piece = []
        while True:
            iv = comps[idx]
            pn, pd = pos.numerator, pos.denominator
            an, ad = d._value(pn, pd, iv.hi.numerator, iv.hi.denominator)
            if an * nd >= nn * ad:
                mn, md = d._mark(pn, pd, nn, nd)
                if mn * pd > pn * md:
                    m = Fraction(mn, md)
                    cur.append(Interval(pos, m))
                    pos = m
                if pos == iv.hi and idx + 1 < len(comps):
                    idx += 1
                    pos = comps[idx].lo
                break
            nn, nd = nn * ad - an * nd, nd * ad
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
    """Index of the additively-best part, rightmost among ties.  The parts
    are disjoint and an additive value is a sum, so none is merged."""
    pick, best = None, None
    for i in candidates:
        v = value_components_pair(d, parts[i], ADDITIVE)
        if best is None or _above(v, best) or (
                not _above(best, v) and i > pick):
            pick, best = i, v
    return pick


def cut_and_choose(p: Problem) -> Division:
    """The first agent (the cutter) halves the cake at its leftmost
    half-mark; the chooser takes the weakly preferred piece (tie: the right
    piece)."""
    if p.n != 2:
        raise CakeError("cut-and-choose requires exactly 2 agents")
    cutter, chooser = p.agents
    d = p.density(cutter)
    wn, wd = total_pair(d)
    m = Fraction(*d._mark(0, 1, wn, 2 * wd))
    left, right = Interval(Fraction(0), m), Interval(m, p.cake_length)
    dc = p.density(chooser)
    if _above(value_pair(dc, left), value_pair(dc, right)):
        return Division.of({chooser: [left], cutter: [right]})
    return Division.of({cutter: [left], chooser: [right]})


def banach_knaster(p: Problem) -> Division:
    """Last-diminisher, agents in listed order: the first remaining agent
    cuts a prefix worth its proportional share of the remaining cake; later
    agents trim only when the piece is worth strictly more than their own
    share; the last trimmer takes the piece."""
    s = Fraction(0)
    cn, cd = _end(p)
    pieces: dict[str, Piece] = {}
    remaining = list(p.agents)
    while len(remaining) > 1:
        m = len(remaining)
        sn, sd = s.numerator, s.denominator
        holder = remaining[0]
        d = p.density(holder)
        vn, vd = d._value(sn, sd, cn, cd)
        y = d._mark(sn, sd, vn, vd * m)
        for a in remaining[1:]:
            da = p.density(a)
            vn, vd = da._value(sn, sd, cn, cd)
            share = vn, vd * m
            if _above(da._value(sn, sd, *y), share):
                y = da._mark(sn, sd, *share)
                holder = a
        y = Fraction(*y)
        pieces[holder] = [Interval(s, y)]
        s = y
        remaining.remove(holder)
    pieces[remaining[0]] = [Interval(s, p.cake_length)]
    return Division.of(pieces)


def lowest_mark_rounds(p: Problem, share: Callable[[Density, Pair, int], Pair],
                       keep: int) -> tuple[dict[str, Piece], Rat, list[str]]:
    """Rounds from the left end of the cake until keep agents remain: each
    remaining agent marks the leftmost point worth share(d, start, m) from
    the current start, with m agents remaining, the start and the share as
    int pairs over positive denominators; the lowest mark (tie: lowest
    index) exits with the prefix up to it.  Returns the pieces, the final
    start and the agents left."""
    start = Fraction(0)
    remaining = list(p.agents)
    pieces: dict[str, Piece] = {}
    while len(remaining) > keep:
        m = len(remaining)
        at = start.numerator, start.denominator
        low = winner = None
        for a in remaining:  # in index order: the first of tied marks wins
            d = p.density(a)
            y = d._mark(*at, *share(d, at, m))
            if y is None:
                raise InvariantError("a remaining agent's share exceeds the "
                                     "remaining cake")
            if low is None or _above(low, y):
                low, winner = y, a
        y = Fraction(*low)
        pieces[winner] = [Interval(start, y)]
        start = y
        remaining.remove(winner)
    return pieces, start, remaining


def dubins_spanier(p: Problem) -> Division:
    """Moving knife sweep: each remaining agent stops at its proportional
    share of the remaining cake; the earliest stop (tie: lowest index)
    exits with the prefix."""
    c = _end(p)

    def share(d: Density, s: Pair, m: int) -> Pair:
        vn, vd = d._value(*s, *c)
        return vn, vd * m

    pieces, s, (last,) = lowest_mark_rounds(p, share, 1)
    pieces[last] = [Interval(s, p.cake_length)]
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
        ln, ld = lo.numerator, lo.denominator
        hn, hd = hi.numerator, hi.denominator
        marks = []
        for a in agents:
            d = p.density(a)
            vn, vd = d._value(ln, ld, hn, hd)
            y = Fraction(*d._mark(ln, ld, vn * k, vd * m))
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
    wn, wd = total_pair(dc)
    m1 = Fraction(*dc._mark(0, 1, wn, 3 * wd))
    m2 = Fraction(*dc._mark(0, 1, 2 * wn, 3 * wd))
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
    lo, second = parts[bi].lo, ranked[1]
    m = Fraction(*dt._mark(lo.numerator, lo.denominator, second.numerator,
                           second.denominator))
    trimmed = Interval(lo, m)
    trimmings = Interval(m, parts[bi].hi)
    offered = {i: (trimmed if i == bi else parts[i]) for i in range(3)}
    d3 = p.density(third)
    untrimmed = [i for i in range(3) if i != bi]
    best_u = _pick_rightmost_best(d3, [[offered[i]] for i in range(3)], untrimmed)
    pick3 = (bi if _above(value_pair(d3, trimmed),
                          value_pair(d3, offered[best_u])) else best_u)
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
