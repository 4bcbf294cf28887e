"""Differential test of the classic protocols and of piece valuation.

The library runs the protocols, utilities and check_ef on the measure
kernel's int pairs (Density._mark and Density._value).  The oracles below
are the same protocols and valuation written on the public Fraction-valued
measure functions (leftmost_mark, value, total), which
test_measure_differential holds to a plain Fraction reference.  On the
pruned-search and tie-heavy corpora, cakes of identical rows (every mark
ties), Fink at n = 4..6, cakes whose marks land on zero stretches and
hand-made Selfridge-Conway and chooser-tie cakes, every protocol must give
an equal Division, or raise the same exception type with the same message;
utilities must give an equal UtilityVector and check_ef the same verdict on
every output, in both utility modes, and on faulty divisions the same
error.
"""

import random
import sys
from fractions import Fraction
from fractions import Fraction as F
from functools import cache
from typing import Callable, Sequence

import pytest

from cakecut import rules_classic as lib
from cakecut import rules_monotone
from cakecut.cake_measure import (
    CakeError,
    Density,
    Interval,
    InvariantError,
    Problem,
    Rat,
    leftmost_mark,
    merge_components,
    problem,
    total,
    value,
)
from cakecut import divisions
from cakecut.divisions import ADDITIVE, CONNECTED, Division, UtilityVector

from test_pruned_search import corpus, tie_heavy_corpus
from test_round_loop import identical_rows

Piece = list[Interval]


# ---------------------------------------------------------------------------
# Oracle: piece valuation on value(), one Fraction per interval


def value_piece(d: Density, piece, mode: str) -> Rat:
    return value_components(d, merge_components(piece), mode)


def value_components(d: Density, parts, mode: str) -> Rat:
    vals = [value(d, iv) for iv in parts]
    if mode == "connected":
        return max(vals, default=Fraction(0))
    if mode == "additive":
        return sum(vals, Fraction(0))
    raise CakeError(f"unknown utility mode {mode!r}")


def validate_division(p: Problem, x: Division) -> dict[str, list[Interval]]:
    if set(x.agents()) - set(p.agents):
        raise CakeError("division mentions unknown agents")
    components: dict[str, list[Interval]] = {}
    all_parts = []
    for a, ivs in x.assignments:
        for iv in ivs:
            if iv.hi > p.cake_length:
                raise CakeError(f"interval {iv} outside cake")
        merged = merge_components(ivs)
        components.setdefault(a, merged)  # x.piece(a) is a's first entry
        all_parts.extend(merged)
    all_parts.sort(key=lambda iv: (iv.lo, iv.hi))
    for a, b in zip(all_parts, all_parts[1:]):
        if b.lo < a.hi:
            raise CakeError(f"pieces overlap near {b.lo}")
    return components


def utilities(p: Problem, x: Division, mode: str = CONNECTED) -> UtilityVector:
    components = validate_division(p, x)
    absolute = {a: value_components(d, components.get(a, ()), mode)
                for a, d in zip(p.agents, p.densities)}
    return UtilityVector(mode, absolute, p)


def check_ef(p: Problem, x: Division, mode: str = CONNECTED,
             u=None) -> bool:
    if u is None:
        u = utilities(p, x, mode)
    parts = {b: merge_components(x.piece(b)) for b in x.agents()}
    for a in p.agents:
        d = p.density(a)
        for b, merged in parts.items():
            if b != a and value_components(d, merged, mode) > u.absolute[a]:
                return False
    return True


# ---------------------------------------------------------------------------
# Oracle: the protocols on leftmost_mark and value, in Fractions


def split_equal(d: Density, piece: Sequence[Interval], k: int) -> list[Piece]:
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
    vals = {i: value_piece(d, parts[i], ADDITIVE) for i in candidates}
    best = max(vals.values())
    return max(i for i in candidates if vals[i] == best)


def cut_and_choose(p: Problem) -> Division:
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
    c = p.cake_length
    pieces, s, (last,) = lowest_mark_rounds(
        p, lambda d, s, m: value(d, Interval(s, c)) / m, 1)
    pieces[last] = [Interval(s, c)]
    return Division.of(pieces)


def exact_proportional(p: Problem) -> Division:
    pieces, _, _ = lowest_mark_rounds(p, lambda d, start, m: total(d) / p.n, 0)
    return Division.of(pieces)


def even_paz(p: Problem) -> Division:
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


PROTOCOLS = {
    "cut-and-choose": (lib.cut_and_choose, cut_and_choose),
    "banach-knaster": (lib.banach_knaster, banach_knaster),
    "dubins-spanier": (lib.dubins_spanier, dubins_spanier),
    "even-paz": (lib.even_paz, even_paz),
    "fink": (lib.fink, fink),
    "selfridge-conway": (lib.selfridge_conway, selfridge_conway),
    "exact-proportional": (rules_monotone.exact_proportional,
                           exact_proportional),
}


# ---------------------------------------------------------------------------
# Inputs


SEED = 20261019


def _fink_problem(rng, n):
    """n agents on 4..8 slices, densities 0..9 with one zero stretch each:
    from the third agent on, the incumbents' pieces have several
    components."""
    k = rng.randint(4, 8)
    lengths = [rng.choice([F(1), F(1, 2), F(2), F(3, 2), F(1, 3)])
               for _ in range(k)]
    rows = []
    for _ in range(n):
        row = [F(rng.randint(1, 9), rng.choice((1, 1, 2))) for _ in range(k)]
        run = rng.randint(1, 2)
        start = rng.randrange(k - run + 1)
        row[start:start + run] = [F(0)] * run
        rows.append(row)
    return problem("ABCDEF"[:n], lengths, rows)


def sc_pass():
    # the trimmer values the cutter's three parts alike and passes; the
    # trimmer's pick between the two parts left ties toward the right one
    return problem(["A", "B", "C"], [1, 1, 1],
                   [[1, 1, 1], [1, 1, 1], [2, 1, 3]])


def sc_trim():
    # the trimmer B trims the right part [2, 3] to [2, 13/5]; C takes [1,
    # 2], B the trimmed part, and C splits the trimmings [13/5, 3], which it
    # values at 0: every trimming part but the last is empty, and the
    # cutter's pick between two empty parts ties toward the right one
    return problem(["A", "B", "C"], [F(1, 2)] * 6,
                   [[1] * 6, [1, 1, 1, 1, 1, 5], [1, 1, 4, 4, 1, 0]])


def sc_trim_third_takes_trimmed():
    # the third agent strictly prefers the trimmed part; the trimmer then
    # splits the trimmings
    return problem(["A", "B", "C"], [F(1, 2)] * 6,
                   [[1] * 6, [1, 1, 1, 1, 1, 5], [1, 1, 1, 1, 3, 0]])


def chooser_tie():
    # the chooser values both halves alike and takes the right one
    return problem(["A", "B"], [1, 1, 2], [[2, 2, 0], [3, 1, 1]])


def plateau_cakes():
    """Cakes whose marks land where a zero stretch begins, so that a
    leftmost mark and a maximal one differ: the cutters' half, third and
    quarter marks, and the later rounds' shares."""
    return [
        problem(["A", "B"], [1] * 3, [[1, 0, 1], [1, 1, 1]]),
        problem(["A", "B", "C"], [1] * 5,
                [[1, 0, 1, 0, 1], [1, 2, 3, 1, 1], [2, 1, 1, 1, 1]]),
        problem(["A", "B", "C", "D"], [1] * 7,
                [[1, 0, 1, 0, 1, 0, 1], [2, 0, 2, 0, 2, 0, 2],
                 [1, 1, 1, 1, 1, 1, 1], [0, 1, 0, 1, 0, 1, 1]]),
    ]


@cache
def cases():
    """(name, problem): the pruned-search and tie-heavy corpora, identical
    rows at n = 1..5, Fink cakes at n = 4..6, cakes with marks on zero
    stretches, and the hand-made Selfridge-Conway and chooser cakes."""
    rng = random.Random(SEED)
    out = [(f"corpus-{i}", p) for i, p in enumerate(corpus())]
    out += [(f"tie-heavy-{i}", p) for i, p in enumerate(tie_heavy_corpus())]
    out += [(f"identical-{n}", identical_rows(n)) for n in range(1, 6)]
    out += [(f"fink-{n}-{i}", _fink_problem(rng, n))
            for n in (4, 5, 6) for i in range(4)]
    out += [(f"plateau-{p.n}", p) for p in plateau_cakes()]
    out += [("sc-pass", sc_pass()), ("sc-trim", sc_trim()),
            ("sc-trim-third-takes-trimmed", sc_trim_third_takes_trimmed()),
            ("chooser-tie", chooser_tie())]
    return out


def _outcome(fn, *args):
    """What a call did: its result, or its exception type and message."""
    try:
        return ("returned", fn(*args))
    except Exception as e:
        return ("raised", type(e), str(e))


# ---------------------------------------------------------------------------
# The differential tests


@pytest.mark.parametrize("name", list(PROTOCOLS))
def test_protocol_matches_oracle(name):
    rule, oracle = PROTOCOLS[name]
    mismatches = []
    for case, p in cases():
        got, want = _outcome(rule, p), _outcome(oracle, p)
        if got != want:
            mismatches.append((case, got, want))
    assert not mismatches, mismatches[:3]


def _faulty(p, x):
    """Divisions of p that validation refuses: x's last piece's last end
    moved past c, x's first piece doubled (overlapping itself), the second
    agent handed the first piece too (overlapping across agents), and the
    first piece handed to an unknown agent."""
    c = p.cake_length
    (a, ivs), *rest = x.assignments
    out = [Division(((a, ivs + ivs),) + tuple(rest)),
           Division(x.assignments + (("nobody", ivs),))]
    if rest:
        b, last = rest[-1]
        if last:
            moved = last[:-1] + (Interval(last[-1].lo, c + 1),)
            out.append(Division(x.assignments[:-1] + ((b, moved),)))
        b, second = rest[0]
        out.append(Division(((a, ivs), (b, second + ivs)) + tuple(rest[1:])))
    return out


@cache
def outputs():
    """(case, problem, division) for every protocol output of every case."""
    out = []
    for case, p in cases():
        for name, (_, oracle) in PROTOCOLS.items():
            result = _outcome(oracle, p)
            if result[0] == "returned":
                out.append((f"{case}/{name}", p, result[1]))
    return out


def valuation_inputs():
    """The protocol outputs and the faulty divisions built from them."""
    for case, p, x in outputs():
        yield case, p, x
        for i, bad in enumerate(_faulty(p, x)):
            yield f"{case}/fault-{i}", p, bad


def _utility_outcome(fn, p, x, mode):
    """utilities' outcome, with the type of every absolute value, so that
    an int where a Fraction belongs does not compare equal."""
    out = _outcome(fn, p, x, mode)
    if out[0] == "returned":
        return out + (sorted((a, type(v)) for a, v in out[1].absolute.items()),)
    return out


@pytest.mark.parametrize("mode", [CONNECTED, ADDITIVE, "bogus"])
def test_utilities_and_check_ef_match_oracle(mode):
    mismatches = []
    for case, p, x in valuation_inputs():
        got = _utility_outcome(divisions.utilities, p, x, mode)
        want = _utility_outcome(utilities, p, x, mode)
        if got != want:
            mismatches.append((case, "utilities", got, want))
        got = _outcome(divisions.check_ef, p, x, mode)
        want = _outcome(check_ef, p, x, mode)
        if got != want:
            mismatches.append((case, "check_ef", got, want))
    assert not mismatches, mismatches[:3]


def test_check_ef_with_given_utilities_matches_oracle():
    """check_ef handed the utilities of the valid division values the
    faulty ones without validating them."""
    mismatches = []
    for case, p, x in outputs():
        for mode in (CONNECTED, ADDITIVE):
            u = utilities(p, x, mode)
            for y in (x, *_faulty(p, x)):
                got = _outcome(divisions.check_ef, p, y, mode, u)
                want = _outcome(check_ef, p, y, mode, u)
                if got != want:
                    mismatches.append((case, y, got, want))
    assert not mismatches, mismatches[:3]


# ---------------------------------------------------------------------------
# The cases reach every branch and tie rule the protocols have


def test_cases_reach_every_tie_rule(monkeypatch):
    oracle = sys.modules[__name__]
    picks, splits = [], []
    pick, split = oracle._pick_rightmost_best, oracle.split_equal

    def recorded_pick(d, parts, candidates):
        vals = [value_piece(d, parts[i], ADDITIVE) for i in candidates]
        picks.append(vals.count(max(vals)) > 1)
        return pick(d, parts, candidates)

    def recorded_split(d, piece, k):
        splits.append((len(merge_components(piece)),
                       value_piece(d, piece, ADDITIVE)))
        return split(d, piece, k)

    monkeypatch.setattr(oracle, "_pick_rightmost_best", recorded_pick)
    monkeypatch.setattr(oracle, "split_equal", recorded_split)
    reached = set()
    for case, p in cases():
        if p.n == 2:
            x = cut_and_choose(p)
            left, right = (x.piece(a)[0] for a in p.agents)
            dc = p.density(p.agents[1])
            if value(dc, left) == value(dc, right) and left.lo == 0:
                reached.add("chooser tie to the right piece")
        if p.n >= 2:
            # the first round of the lowest-mark loop
            first = [leftmost_mark(d, F(0), total(d) / p.n)
                     for d in p.densities]
            if first.count(min(first)) > 1:
                reached.add("lowest index on a stop")
        del picks[:], splits[:]
        fink(p)
        if any(picks):
            reached.add("rightmost part on a pick (fink)")
        if any(n > 1 for n, _ in splits):
            reached.add("split_equal over several components")
        if p.n == 3:
            del picks[:], splits[:]
            selfridge_conway(p)
            if any(picks):
                reached.add("rightmost part on a pick (selfridge-conway)")
            if not splits:
                reached.add("selfridge-conway pass")
            elif splits[0][1] == 0:
                reached.add("trimmings worth 0 to the splitter")
            else:
                reached.add("selfridge-conway trim")
    assert reached == {
        "chooser tie to the right piece", "lowest index on a stop",
        "rightmost part on a pick (fink)",
        "split_equal over several components",
        "rightmost part on a pick (selfridge-conway)",
        "selfridge-conway pass", "selfridge-conway trim",
        "trimmings worth 0 to the splitter"}


def test_cases_reach_every_error():
    """The valuation inputs raise each of validation's errors."""
    errors = set()
    for _, p, x in valuation_inputs():
        for mode in (CONNECTED, "bogus"):
            out = _outcome(utilities, p, x, mode)
            if out[0] == "raised":
                errors.add(" ".join(w for w in out[2].split()
                                    if w.isalpha()))
    assert errors == {"division mentions unknown agents",
                      "interval outside cake",
                      "overlapping intervals in piece", "pieces overlap near",
                      "unknown utility mode"}
