"""Differential tests: the integer-keyed measure layer against the plain
Fraction-bisect implementation it replaced.

The reference functions below build their own Fraction running sums of
the slice lengths and of the slice values, search them with ``bisect``
and do every step in Fraction arithmetic, reading nothing the kernel
derives.  On a fixed-seed corpus of densities (length denominators 1, 2,
3, 7 and 10, fractional densities, leading, trailing and interior zero
stretches) the library must return the same normalised Fraction, or
None, or raise the same exception type with the same message, for every
query point and target.  The kernel's own ints are held to the lcm over
the Fraction sums that built them before they were summed as ints, on the
corpus and as a Hypothesis property.
"""

import bisect
import inspect
import random
import re
import textwrap
from fractions import Fraction as F
from functools import cache
from itertools import accumulate
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cakecut import cake_measure
from cakecut.cake_measure import (
    CakeError,
    Density,
    Interval,
    SliceGrid,
    leftmost_mark,
    maximal_mark,
    parse_rat,
    suffix_mark,
    total,
    total_pair,
    value,
)

# ---------------------------------------------------------------------------
# Reference implementation: Fraction bisect over Fraction running sums


_SUMS = {}


def ref_sums(d):
    """(breakpoints, prefix): the running sums of the slice lengths from 0,
    and prefix[k], the value of [0, breakpoints[k]], in Fractions.
    Memoised by identity (hashing a density costs more than a lookup);
    each entry holds its density, so its id is not reused while cached."""
    if id(d) not in _SUMS:
        lengths = d.grid.lengths
        _SUMS[id(d)] = d, (
            tuple(accumulate(lengths, initial=F(0))),
            tuple(accumulate((x * v for x, v in zip(lengths, d.values)),
                             initial=F(0))))
    return _SUMS[id(d)][1]


def ref_breakpoints(d):
    return ref_sums(d)[0]


def ref_prefix(d):
    return ref_sums(d)[1]


def ref_slice_right_of(d, x):
    bps = ref_breakpoints(d)
    if x < 0 or x >= bps[-1]:
        raise CakeError(f"point {x} has no slice to its right")
    return bisect.bisect_right(bps, x) - 1


def ref_next_breakpoint(d, x):
    bps = ref_breakpoints(d)
    if x >= bps[-1]:
        raise CakeError(f"no breakpoint beyond {x}")
    return bps[bisect.bisect_right(bps, x)]


def ref_prefix_at(d, x):
    bps, pre = ref_sums(d)
    if x < 0 or x > bps[-1]:
        raise CakeError(f"point {x} outside cake")
    if x == bps[-1]:
        return pre[-1]
    k = ref_slice_right_of(d, x)
    return pre[k] + d.values[k] * (x - bps[k])


def ref_density_right_of(d, x):
    return d.values[ref_slice_right_of(d, x)]


def ref_leftmost_mark(d, start, target):
    bps, pre = ref_sums(d)
    if target < 0:
        raise CakeError("target must be nonnegative")
    if start < 0 or start > bps[-1]:
        raise CakeError(f"start {start} outside cake")
    if target == 0:
        return start
    goal = ref_prefix_at(d, start) + target
    if goal > pre[-1]:
        return None
    k = bisect.bisect_right(pre, goal) - 1
    if k == len(bps) - 1 or pre[k] == goal:
        while k > 0 and pre[k - 1] == goal:
            k -= 1
        y = bps[k]
    else:
        y = bps[k] + (goal - pre[k]) / d.values[k]
    return y if y >= start else start


def ref_maximal_mark(d, start, target):
    y = ref_leftmost_mark(d, start, target)
    if y is None:
        return None
    bps = ref_breakpoints(d)
    while y < bps[-1]:
        k = ref_slice_right_of(d, y)
        if d.values[k] != 0:
            break
        y = bps[k + 1]
    return y


def ref_suffix_mark(d, end, target):
    bps, pre = ref_sums(d)
    if target < 0:
        raise CakeError("target must be nonnegative")
    if end < 0 or end > bps[-1]:
        raise CakeError(f"end {end} outside cake")
    goal = ref_prefix_at(d, end) - target
    if goal < 0:
        return None
    k = bisect.bisect_right(pre, goal) - 1
    if pre[k] == goal:
        while k + 1 < len(pre) and pre[k + 1] == goal:
            k += 1
        x = bps[k]
    else:
        x = bps[k] + (goal - pre[k]) / d.values[k]
    return min(x, end)


def ref_suffix_start(d, end, target):
    """Minimum x <= end with value[x, end] == target, or None: the first
    point at which the prefix value reaches value[0, end] - target."""
    bps, pre = ref_sums(d)
    if target < 0:
        raise CakeError("target must be nonnegative")
    if end < 0 or end > bps[-1]:
        raise CakeError(f"end {end} outside cake")
    goal = ref_prefix_at(d, end) - target
    if goal < 0:
        return None
    k = bisect.bisect_left(pre, goal)
    if pre[k] == goal:
        return bps[k]
    return bps[k - 1] + (goal - pre[k - 1]) / d.values[k - 1]


POINT_FUNCTIONS = {
    "prefix_at": (lambda d, x: d.prefix_at(x), ref_prefix_at),
}
MARK_FUNCTIONS = {
    "leftmost_mark": (leftmost_mark, ref_leftmost_mark),
    "maximal_mark": (maximal_mark, ref_maximal_mark),
    "suffix_mark": (suffix_mark, ref_suffix_mark),
}

# ---------------------------------------------------------------------------
# Fixed-seed corpus

DENOMINATORS = (1, 2, 3, 7, 10)
SEED = 20261018
CORPUS_SIZE = 1000
EPS = F(1, 1000)


def _zero_stretches(rng, values):
    """Zero a leading, a trailing and/or an interior run of slices."""
    k = len(values)
    if rng.random() < 0.35:
        for i in range(rng.randint(1, k)):
            values[i] = F(0)
    if rng.random() < 0.35:
        for i in range(k - rng.randint(1, k), k):
            values[i] = F(0)
    if k >= 3 and rng.random() < 0.5:
        lo = rng.randint(1, k - 2)
        for i in range(lo, rng.randint(lo + 1, k - 1)):
            values[i] = F(0)
    if not any(values):
        values[rng.randrange(k)] = F(rng.randint(1, 9), rng.choice((1, 3)))


def _density(rng):
    k = rng.randint(1, 6)
    den = rng.choice(DENOMINATORS)
    lengths = [F(rng.randint(1, 2 * den), rng.choice((den, den, 1)))
               for _ in range(k)]
    values = [F(rng.randint(0, 9), rng.choice((1, 1, 2, 3, 5)))
              for _ in range(k)]
    _zero_stretches(rng, values)
    return Density(SliceGrid(tuple(lengths)), tuple(values))


def _points(rng, d):
    """Every breakpoint (0 and c among them), one interior point per slice
    (its midpoint or a point at an odd fraction of it), and one point
    outside on each side."""
    bps = ref_breakpoints(d)
    pts = list(bps)
    for lo, hi in zip(bps, bps[1:]):
        pts.append(lo + (hi - lo) * rng.choice((F(1, 2), F(3, 11), F(8, 13))))
    return pts + [F(-1, 7), bps[-1] + F(1, 3)]


def _targets(rng, d):
    """Marks are queried at each point with 0, a negative target, the
    total plus epsilon, and two targets drawn from every prefix value
    (plateaus included), a third of the total and the total."""
    whole = ref_prefix(d)[-1]
    pool = [*ref_prefix(d), whole / 3, whole]
    return [F(0), F(-1, 5), whole + EPS, *rng.sample(pool, 2)]


@cache
def corpus():
    """(density, query points, (point, target) pairs for the marks)."""
    rng = random.Random(SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        d = _density(rng)
        points = _points(rng, d)
        out.append((d, points,
                    [(x, t) for x in points for t in _targets(rng, d)]))
    return out


def _outcome(fn, *args):
    """What a call did; repr keeps a Fraction's exact numerator and
    denominator, so an unnormalised result would not compare equal."""
    try:
        result = fn(*args)
    except Exception as e:
        return ("raised", type(e), str(e))
    return ("returned", type(result), repr(result))


def test_corpus_covers_the_cases():
    dens = [d for d, _, _ in corpus()]
    denominators = {x.denominator for d in dens for x in d.grid.lengths}
    assert set(DENOMINATORS) <= denominators
    assert any(v.denominator > 1 for d in dens for v in d.values)
    assert any(d.values[0] == 0 for d in dens)
    assert any(d.values[-1] == 0 for d in dens)
    assert any(0 in d.values[1:-1] and d.values[0] and d.values[-1]
               for d in dens)


@pytest.mark.parametrize("name", list(POINT_FUNCTIONS))
def test_point_lookups_match_reference(name):
    fn, ref = POINT_FUNCTIONS[name]
    mismatches = []
    for d, points, _ in corpus():
        for x in points:
            got, want = _outcome(fn, d, x), _outcome(ref, d, x)
            if got != want:
                mismatches.append((d, x, got, want))
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("name", list(MARK_FUNCTIONS))
def test_marks_match_reference(name):
    fn, ref = MARK_FUNCTIONS[name]
    mismatches = []
    for d, _, pairs in corpus():
        for x, t in pairs:
            got, want = _outcome(fn, d, x, t), _outcome(ref, d, x, t)
            if got != want:
                mismatches.append((d, x, t, got, want))
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# The integer kernel's entries: the mark entry, the sweep step, value and
# the value entry

MARK_KINDS = {"leftmost_mark": (1, False), "maximal_mark": (1, True),
              "suffix_mark": (-1, True), "suffix_start": (-1, False)}
MARK_REFS = {**{name: ref for name, (_, ref) in MARK_FUNCTIONS.items()},
             "suffix_start": ref_suffix_start}


def mark_entry(sign, last):
    """Density._mark on the numerators and denominators of the point and
    the target, its pair required to be ints in lowest terms over a
    positive denominator and built as the Fraction the reference returns."""
    def mark(d, x, t):
        y = Density._mark(d, x.numerator, x.denominator, t.numerator,
                          t.denominator, sign, last)
        if y is None:
            return None
        num, den = y
        if (type(num) is not int or type(den) is not int or den <= 0
                or gcd(num, den) != 1):
            raise TypeError(f"mark must be ints in lowest terms: {y}")
        return F(num, den)
    return mark


@pytest.mark.parametrize("name", list(MARK_KINDS))
def test_mark_entry_matches_reference(name):
    entry, ref = mark_entry(*MARK_KINDS[name]), MARK_REFS[name]
    mismatches = []
    for d, _, pairs in corpus():
        for x, t in pairs:
            got, want = _outcome(entry, d, x, t), _outcome(ref, d, x, t)
            if got != want:
                mismatches.append((d, x, t, got, want))
    assert not mismatches, mismatches[:5]


def test_suffix_start_cases_cover_the_edges():
    """The leftmost suffix start, which only the equitable builder reads,
    is reached with a goal below 0 (None), a zero target across a zero
    stretch (the start moves back to the stretch's left end) and a goal on
    a plateau (the value across a zero run), read with the reference."""
    kinds = set()
    for d, _, pairs in corpus():
        c = ref_breakpoints(d)[-1]
        for x, t in pairs:
            if not 0 <= x <= c or t < 0:
                continue
            goal = ref_prefix_at(d, x) - t
            if goal < 0:
                kinds.add("goal below 0")
            elif ref_prefix(d).count(goal) > 1:
                kinds.add("goal on a plateau")
            if t == 0 and ref_suffix_start(d, x, t) < x:
                kinds.add("zero target across a zero stretch")
    assert kinds == {"goal below 0", "goal on a plateau",
                     "zero target across a zero stretch"}


def ref_sweep_step(d, pos, target):
    """The sweep step as the composition the sweep made before the kernel:
    the value left over the target, then maximal_mark and the three grid
    lookups only when some value is left."""
    left = ref_prefix(d)[-1] - ref_prefix_at(d, pos) - target
    if left <= 0:
        return left, None, None, None, None
    y = ref_maximal_mark(d, pos, target)
    return (left, y, ref_density_right_of(d, pos), ref_density_right_of(d, y),
            ref_next_breakpoint(d, y))


def sweep_step(d, pos, target):
    """Density._mark in its step mode (sign 1, last) on the numerators and
    denominators of pos and the target, built in the reference's shape:
    the value left, an int pair over a positive denominator, and the mark,
    ints in lowest terms over a positive denominator, as normalised
    Fractions, and the slice indices as the densities right of pos and of
    the mark and the breakpoint after the mark's slice."""
    (num, den), y, k, j = Density._mark(d, pos.numerator, pos.denominator,
                                        target.numerator, target.denominator,
                                        1, True, True)
    if type(num) is not int or type(den) is not int or den <= 0:
        raise TypeError(f"value left must be ints over den > 0: {num, den}")
    if y is None:
        return F(num, den), None, None, None, None
    yn, yd = y
    if (type(yn) is not int or type(yd) is not int or yd <= 0
            or gcd(yn, yd) != 1 or type(k) is not int or type(j) is not int):
        raise TypeError(f"mark must be ints in lowest terms and slices "
                        f"ints: {y, k, j}")
    return (F(num, den), F(yn, yd), d.values[k], d.values[j],
            d.grid.breakpoints[j + 1])


def ref_value(d, iv):
    if iv.hi > ref_breakpoints(d)[-1]:
        raise CakeError(f"interval {iv} outside cake")
    return ref_prefix_at(d, iv.hi) - ref_prefix_at(d, iv.lo)


def _step_targets(rng, d, x):
    """Targets from x whose goal value[0, x] + target lands on every
    plateau value (the value across a zero run) beyond x, exactly at the
    total (nothing left) and past it, on one other breakpoint value and
    inside one slice beyond x, plus 0 and a negative target."""
    base = ref_prefix_at(d, x)
    pre = ref_prefix(d)
    whole = pre[-1]
    above = [v for v in pre if v > base]
    plateaus = {v for v, w in zip(pre, pre[1:]) if v == w and v > base}
    inside = [(v + w) / 2 for v, w in zip(pre, pre[1:])
              if v > base and w > v]
    goals = {*plateaus, whole, rng.choice(above),
             *rng.sample(inside, min(1, len(inside)))} if above else set()
    return [F(0), F(-1, 5), whole - base + EPS, *(g - base for g in goals)]


@cache
def step_cases():
    """(density, pos, target) for every density of the corpus, at every
    query point (every breakpoint, c among them, and one interior point
    per slice, zero slices included); outside points take target 0."""
    rng = random.Random(SEED + 1)
    cases = []
    for d, points, _ in corpus():
        for x in points:
            if x < 0 or x > ref_breakpoints(d)[-1]:
                cases.append((d, x, F(0)))
                continue
            cases += [(d, x, t) for t in _step_targets(rng, d, x)]
    return cases


def _on_plateau(d, x, t):
    """The goal value[0, x] + t is the value across a zero run."""
    return ref_prefix(d).count(d.prefix_at(x) + t) > 1


def _step_mismatches():
    """The sweep step's disagreements with the reference, lazily."""
    return ((d, x, t, got, want) for d, x, t in step_cases()
            if (got := _outcome(sweep_step, d, x, t))
            != (want := _outcome(ref_sweep_step, d, x, t)))


def test_step_cases_cover_the_edges():
    """Read with the library's prefix_at, which the tests above hold to
    the reference, and the reference's density lookup and running
    sums."""
    kinds = set()
    for d, x, t in step_cases():
        c = ref_breakpoints(d)[-1]
        if x < 0 or x > c:
            kinds.add("outside")
            continue
        if t < 0:
            kinds.add("negative target")
            continue
        goal = d.prefix_at(x) + t
        if x == c:
            kinds.add("pos at c")
        if goal == total(d):
            kinds.add("goal at c")
        elif goal > total(d):
            kinds.add("goal past c")
        elif _on_plateau(d, x, t):
            kinds.add("goal on a plateau")
        if x < c and ref_density_right_of(d, x) == 0:
            kinds.add("pos in a zero run")
        bps = ref_breakpoints(d)
        if x in bps[1:-1]:
            k = bps.index(x)
            if (d.values[k - 1] == 0) != (d.values[k] == 0):
                kinds.add("pos on a zero-stretch edge")
    assert kinds == {"outside", "negative target", "pos at c", "goal at c",
                     "goal past c", "goal on a plateau", "pos in a zero run",
                     "pos on a zero-stretch edge"}


def test_sweep_step_matches_reference():
    mismatches = list(_step_mismatches())
    assert not mismatches, mismatches[:5]


def test_sweep_step_differential_catches_first_for_last(monkeypatch):
    """A kernel whose goal locate takes the first point of a plateau where
    the sweep step needs the last one fails the differential, on plateau
    goals only.  The goal locate is written inside the mark body, so the
    mistake is made in a copy of that body's source: its one walk back
    along a plateau, taken only for a first point, is taken always."""
    source = textwrap.dedent(inspect.getsource(Density._mark))
    walk_back = "if not last:"
    assert source.count(walk_back) == 1
    namespace = dict(vars(cake_measure))
    exec(source.replace(walk_back, "if True:"), namespace)
    monkeypatch.setattr(Density, "_mark", namespace["_mark"])
    mismatches = list(_step_mismatches())
    assert mismatches
    assert all(_on_plateau(d, x, t) for d, x, t, _, _ in mismatches)


@cache
def value_cases():
    """Empty intervals at every point, intervals inside one slice, every
    pair of breakpoints, and one interval reaching past c per density."""
    rng = random.Random(SEED + 2)
    cases = []
    for d, points, _ in corpus():
        bps = ref_breakpoints(d)
        c = bps[-1]
        cases += [(d, Interval(x, x)) for x in points if 0 <= x <= c]
        for lo, hi in zip(bps, bps[1:]):
            a, b = sorted(rng.sample((F(1, 5), F(1, 3), F(5, 8), F(9, 10)),
                                     2))
            cases.append((d, Interval(lo + (hi - lo) * a, lo + (hi - lo) * b)))
        cases += [(d, Interval(lo, hi)) for i, lo in enumerate(bps)
                  for hi in bps[i:]]
        cases.append((d, Interval(c / 2, c + F(1, 3))))
    return cases


def test_value_matches_reference():
    mismatches = [(d, iv, got, want) for d, iv in value_cases()
                  if (got := _outcome(value, d, iv))
                  != (want := _outcome(ref_value, d, iv))]
    assert not mismatches, mismatches[:5]


def value_entry(d, iv, scale=1):
    """Density._value on the ends' numerators and denominators, each
    multiplied by scale (the entry takes unreduced pairs), its pair required
    to be ints over a positive denominator and built as the Fraction the
    reference returns; None past c."""
    lo, hi = iv.lo, iv.hi
    v = Density._value(d, lo.numerator * scale, lo.denominator * scale,
                       hi.numerator * scale, hi.denominator * scale)
    if v is None:
        return None
    num, den = v
    if type(num) is not int or type(den) is not int or den <= 0:
        raise TypeError(f"value must be ints over den > 0: {v}")
    return F(num, den)


def ref_value_entry(d, iv):
    if iv.hi > ref_breakpoints(d)[-1]:
        return None
    return ref_value(d, iv)


def test_value_cases_cover_the_edges():
    kinds = set()
    for d, iv in value_cases():
        bps = ref_breakpoints(d)
        if iv.hi > bps[-1]:
            kinds.add("past c")
            continue
        if iv.empty:
            kinds.add("empty")
        elif ref_value(d, iv) == 0:
            kinds.add("zero run")
        if iv.lo in bps and iv.hi in bps and not iv.empty:
            kinds.add("ends on breakpoints")
        if iv.hi == bps[-1]:
            kinds.add("end at c")
    assert kinds == {"past c", "empty", "zero run", "ends on breakpoints",
                     "end at c"}


@pytest.mark.parametrize("scale", [1, 3], ids=["reduced", "unreduced"])
def test_value_entry_matches_reference(scale):
    mismatches = [(d, iv, got, want) for d, iv in value_cases()
                  if (got := _outcome(value_entry, d, iv, scale))
                  != (want := _outcome(ref_value_entry, d, iv))]
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# The kernel's ints against the lcm over the Fraction running sums


def _over(m, xs):
    """Each x * m as an int (m a multiple of every x's denominator)."""
    return tuple(x.numerator * (m // x.denominator) for x in xs)


def _flat_pairs(xs):
    """Each Fraction's numerator and denominator in turn."""
    return tuple(n for x in xs for n in (x.numerator, x.denominator))


def ref_kernel(d):
    """(S, B), (K, P, R), the breakpoints and the total as the kernel was
    built from Fractions: S is the lcm of the breakpoint denominators, and
    K the lcm of the denominators of the prefix sums and of the rates
    values[k] / S; then the int-pair views as their Fraction definitions:
    the breakpoints' and the densities' numerators and denominators, c,
    and the total over K."""
    bps, pre = ref_sums(d)
    s = lcm(*(x.denominator for x in bps))
    rates = [v / s for v in d.values]
    k = lcm(*(x.denominator for x in (*pre, *rates)))
    return ((s, _over(s, bps)), (k, _over(k, pre), _over(k, rates)),
            bps, pre[-1],
            _flat_pairs(bps), _flat_pairs(d.values), bps[-1],
            (_over(k, pre)[-1], k))


def kernel(d):
    """The library's kernels, the Fraction views read from them and the
    int-pair views the one-pass build sets."""
    return (d.grid.scaled, d.scaled, d.grid.breakpoints, total(d),
            d.grid.breakpoint_pairs, d.value_pairs, d.grid.cake_length,
            total_pair(d))


def test_kernel_matches_the_fraction_construction():
    mismatches = [(d, kernel(d), ref_kernel(d)) for d, _, _ in corpus()
                  if kernel(d) != ref_kernel(d)]
    assert not mismatches, mismatches[:5]


PRIMES = (2, 3, 7, 10007, 65537, 2_147_483_647, 2**61 - 1)


def _rationals(numerators):
    """Fractions over small denominators or large primes."""
    return st.builds(F, numerators,
                     st.integers(1, 12) | st.sampled_from(PRIMES))


@st.composite
def kernel_densities(draw):
    """One to eight slices, lengths and densities over small denominators
    or large primes, and zero runs at the start, at the end and inside."""
    k = draw(st.integers(1, 8))
    lengths = draw(st.lists(_rationals(st.integers(1, 10**12)),
                            min_size=k, max_size=k))
    values = draw(st.lists(_rationals(st.integers(0, 10**12)),
                           min_size=k, max_size=k))
    lead, trail = draw(st.integers(0, k)), draw(st.integers(0, k))
    lo = draw(st.integers(0, k))
    hi = draw(st.integers(lo, k))
    for i in (*range(lead), *range(k - trail, k), *range(lo, hi)):
        values[i] = F(0)
    if not any(values):
        values[draw(st.integers(0, k - 1))] = draw(
            _rationals(st.integers(1, 10**12)))
    return Density(SliceGrid(tuple(lengths)), tuple(values))


@settings(max_examples=200)
@given(kernel_densities())
@example(Density(SliceGrid((F(3, 65537),)), (F(5, 2**61 - 1),)))
@example(Density(SliceGrid((F(1, 7), F(2, 10007), F(1), F(5, 3), F(1, 2))),
                 (F(0), F(3, 65537), F(0), F(2, 3), F(0))))
@example(Density(SliceGrid((F(6, 4), F(2, 3), F(10, 4))),
                 (F(4, 6), F(0), F(9, 12))))
def test_kernel_matches_the_fraction_construction_property(d):
    assert kernel(d) == ref_kernel(d)


def test_kernel_is_built_in_one_pass_on_first_read():
    """Reading any one entry builds them all, on the grid and the
    density; the Fraction breakpoints are built only when read."""
    for name in ("scaled", "value_pairs"):
        d = Density(SliceGrid((F(1, 2), F(3))), (F(2), F(1, 3)))
        getattr(d, name)
        assert set(vars(d)) >= {"scaled", "value_pairs"}
        assert set(vars(d.grid)) == {"lengths", "scaled", "breakpoint_pairs",
                                     "cake_length"}
    for name in ("scaled", "breakpoint_pairs", "cake_length"):
        g = SliceGrid((F(1, 2), F(3)))
        getattr(g, name)
        assert set(vars(g)) == {"lengths", "scaled", "breakpoint_pairs",
                                "cake_length"}


# ---------------------------------------------------------------------------
# The one-frame entries against the two-step evaluator they replaced: the
# prefix evaluator as its own call, which the mark and value entries called
# on the same kernel ints


def two_step_prefix(d, num, den):
    """(k, K * den * value[0, x]) for x = num/den (den > 0), k the slice
    right of x (len(values) at x = c); None outside the cake."""
    s, b = d.grid.scaled
    q, r = divmod(num * s, den)
    c = b[-1]
    if q < 0 or q > c or (q == c and r):
        return None
    m, p, rate = d.scaled
    if q == c:
        return len(d.values), p[-1] * den
    k = bisect.bisect_right(b, q) - 1
    return k, p[k] * den + rate[k] * ((q - b[k]) * den + r)


def two_step_mark(d, xn, xd, tn, td, sign=1, last=False, step=False):
    """The mark entry as one prefix evaluation (two_step_prefix) and then
    the goal locate, a breakpoint mark read from the Fraction
    breakpoints."""
    if tn < 0:
        raise CakeError("target must be nonnegative")
    at = two_step_prefix(d, xn, xd)
    if at is None:
        what = "end" if sign < 0 else "point" if step else "start"
        raise CakeError(f"{what} {F(xn, xd)} outside cake")
    if tn == 0 and last != (sign > 0):
        return xn, xd
    m, p, rate = d.scaled
    den = xd * td
    g = at[1] * td + sign * tn * m * xd
    if step:
        left = p[-1] * den - g, m * den
        if left[0] <= 0:
            return left, None, at[0], None
    elif g > p[-1] * den if sign > 0 else g < 0:
        return None
    q, r = divmod(g, den)
    k = bisect.bisect_right(p, q) - 1
    if r or p[k] != q:
        s, b = d.grid.scaled
        yn, yd = (b[k] * rate[k] + q - p[k]) * den + r, rate[k] * s * den
        h = gcd(yn, yd)
        y = yn // h, yd // h
    else:
        if not last:
            while k > 0 and p[k - 1] == q:
                k -= 1
        y = ref_breakpoints(d)[k]
        y = y.numerator, y.denominator
    return (left, y, at[0], k) if step else y


def two_step_value(d, an, ad, bn, bd):
    """The value entry as two prefix evaluations (two_step_prefix)."""
    top = two_step_prefix(d, bn, bd)
    if top is None:
        return None
    bottom = two_step_prefix(d, an, ad)[1]
    return top[1] * ad - bottom * bd, d.scaled[0] * ad * bd


def _pairs(x, t):
    return x.numerator, x.denominator, t.numerator, t.denominator


@pytest.mark.parametrize("name", list(MARK_KINDS))
def test_one_frame_mark_matches_the_two_step_evaluator(name):
    """The mark entry's raw int pairs (or None, or the same CakeError and
    message) equal the two-step evaluator's in every mark mode, at every
    corpus point and target: outside points and negative targets
    included."""
    sign, last = MARK_KINDS[name]
    mismatches = [
        (d, x, t, got, want) for d, _, pairs in corpus() for x, t in pairs
        if (got := _outcome(Density._mark, d, *_pairs(x, t), sign, last))
        != (want := _outcome(two_step_mark, d, *_pairs(x, t), sign, last))]
    assert not mismatches, mismatches[:5]


def test_one_frame_step_matches_the_two_step_evaluator():
    mismatches = [
        (d, x, t, got, want) for d, x, t in step_cases()
        if (got := _outcome(Density._mark, d, *_pairs(x, t), 1, True, True))
        != (want := _outcome(two_step_mark, d, *_pairs(x, t), 1, True,
                             True))]
    assert not mismatches, mismatches[:5]


@pytest.mark.parametrize("scale", [1, 3], ids=["reduced", "unreduced"])
def test_one_frame_value_matches_the_two_step_evaluator(scale):
    """The value entry's raw pair (or None past c) equals the two-step
    evaluator's on the value cases, and prefix_at (the value entry from 0)
    equals the evaluator's prefix at every corpus point, outside points
    included."""
    def ends(iv):
        lo, hi = iv.lo, iv.hi
        return (lo.numerator * scale, lo.denominator * scale,
                hi.numerator * scale, hi.denominator * scale)

    mismatches = [(d, iv, got, want) for d, iv in value_cases()
                  if (got := _outcome(Density._value, d, *ends(iv)))
                  != (want := _outcome(two_step_value, d, *ends(iv)))]
    for d, points, _ in corpus():
        for x in points:
            at = two_step_prefix(d, x.numerator, x.denominator)
            want = (("raised", CakeError, f"point {x} outside cake")
                    if at is None else
                    ("returned", F, repr(F(at[1],
                                           d.scaled[0] * x.denominator))))
            if (got := _outcome(d.prefix_at, x)) != want:
                mismatches.append((d, x, got, want))
    assert not mismatches, mismatches[:5]


# ---------------------------------------------------------------------------
# parse_rat against the regex that states its language


RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def ref_parse_rat(s):
    """parse_rat as the regex alone decided it."""
    if isinstance(s, (float, bool)):
        raise CakeError(f"bad rational {s!r}: write it as a \"p/q\" string")
    if isinstance(s, int):
        return F(s)
    m = RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise CakeError(f"bad rational {s!r}")
    num, den = m.groups()
    try:
        return F(int(num), int(den or 1))
    except (ValueError, ZeroDivisionError) as e:
        raise CakeError(f"bad rational {s!r}") from e


BOUNDARY = ["\u0663", " 3 ", "1_000", "1/0", "3/-4", "", "1.5", "2E-2",
            "1e3000000", "3\n", "\u00b2", "1/\u00b2", "\u00b2/3", "3/",
            "/3", "/", "1//2", "1/2/3", "+3", "-3/4", "+-3", "007", "0/5",
            "0", "-0", "10/4", "9" * 5000, "1/" + "9" * 5000, 1.5, 2.0, True,
            False, None, [1], 7, -7]


def _rational_strings():
    """Short strings over digits, signs, slashes, spaces and look-alikes
    (non-ASCII digits, fullwidth digits, an underscore), and well-formed
    rationals with and without signs."""
    chars = st.sampled_from("0123456789/+- _.eE\n\u0663\u00b2\uff11")
    digits = st.text("0123456789", min_size=1, max_size=6)
    return (st.text(chars, max_size=8)
            | st.builds(lambda sign, n, d: sign + n + d,
                        st.sampled_from(["", "+", "-"]), digits,
                        st.sampled_from([""]) | digits.map("/".__add__)))


@settings(max_examples=500)
@given(_rational_strings())
def test_parse_rat_matches_the_regex(s):
    assert _outcome(parse_rat, s) == _outcome(ref_parse_rat, s)


@pytest.mark.parametrize("s", BOUNDARY, ids=lambda s: repr(s)[:12])
def test_parse_rat_matches_the_regex_on_the_boundary(s):
    assert _outcome(parse_rat, s) == _outcome(ref_parse_rat, s)
