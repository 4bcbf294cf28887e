"""Differential tests: the integer-keyed measure layer against the plain
Fraction-bisect implementation it replaced.

The reference functions below search the Fraction breakpoints and prefix
sums with ``bisect`` and do every step in Fraction arithmetic.  On a
fixed-seed corpus of densities (length denominators 1, 2, 3, 7 and 10,
fractional densities, leading, trailing and interior zero stretches) the
library must return the same normalised Fraction, or None, or raise the
same exception type with the same message, for every query point and
target.
"""

import bisect
import random
from fractions import Fraction as F
from functools import cache

import pytest

from cakecut.cake_measure import (
    CakeError,
    Density,
    SliceGrid,
    leftmost_mark,
    maximal_mark,
    suffix_mark,
)

# ---------------------------------------------------------------------------
# Reference implementation: Fraction bisect over the cached Fraction tuples


def ref_slice_right_of(d, x):
    if x < 0 or x >= d.grid.cake_length:
        raise CakeError(f"point {x} has no slice to its right")
    return bisect.bisect_right(d.grid.breakpoints, x) - 1


def ref_next_breakpoint(d, x):
    if x >= d.grid.cake_length:
        raise CakeError(f"no breakpoint beyond {x}")
    bps = d.grid.breakpoints
    return bps[bisect.bisect_right(bps, x)]


def ref_prefix_at(d, x):
    if x < 0 or x > d.grid.cake_length:
        raise CakeError(f"point {x} outside cake")
    if x == d.grid.cake_length:
        return d.prefix[-1]
    k = ref_slice_right_of(d, x)
    return d.prefix[k] + d.values[k] * (x - d.grid.breakpoints[k])


def ref_density_right_of(d, x):
    return d.values[ref_slice_right_of(d, x)]


def ref_leftmost_mark(d, start, target):
    if target < 0:
        raise CakeError("target must be nonnegative")
    if start < 0 or start > d.grid.cake_length:
        raise CakeError(f"start {start} outside cake")
    if target == 0:
        return start
    goal = ref_prefix_at(d, start) + target
    if goal > d.prefix[-1]:
        return None
    bps = d.grid.breakpoints
    k = bisect.bisect_right(d.prefix, goal) - 1
    if k == len(bps) - 1 or d.prefix[k] == goal:
        while k > 0 and d.prefix[k - 1] == goal:
            k -= 1
        y = bps[k]
    else:
        y = bps[k] + (goal - d.prefix[k]) / d.values[k]
    return y if y >= start else start


def ref_maximal_mark(d, start, target):
    y = ref_leftmost_mark(d, start, target)
    if y is None:
        return None
    while y < d.grid.cake_length:
        k = ref_slice_right_of(d, y)
        if d.values[k] != 0:
            break
        y = d.grid.breakpoints[k + 1]
    return y


def ref_suffix_mark(d, end, target):
    if target < 0:
        raise CakeError("target must be nonnegative")
    if end < 0 or end > d.grid.cake_length:
        raise CakeError(f"end {end} outside cake")
    goal = ref_prefix_at(d, end) - target
    if goal < 0:
        return None
    bps = d.grid.breakpoints
    k = bisect.bisect_right(d.prefix, goal) - 1
    if d.prefix[k] == goal:
        while k + 1 < len(d.prefix) and d.prefix[k + 1] == goal:
            k += 1
        x = bps[k]
    else:
        x = bps[k] + (goal - d.prefix[k]) / d.values[k]
    return min(x, end)


POINT_FUNCTIONS = {
    "prefix_at": (lambda d, x: d.prefix_at(x), ref_prefix_at),
    "slice_right_of": (lambda d, x: d.grid.slice_right_of(x),
                       ref_slice_right_of),
    "next_breakpoint": (lambda d, x: d.grid.next_breakpoint(x),
                        ref_next_breakpoint),
    "density_right_of": (lambda d, x: d.density_right_of(x),
                         ref_density_right_of),
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
    bps = d.grid.breakpoints
    pts = list(bps)
    for lo, hi in zip(bps, bps[1:]):
        pts.append(lo + (hi - lo) * rng.choice((F(1, 2), F(3, 11), F(8, 13))))
    return pts + [F(-1, 7), bps[-1] + F(1, 3)]


def _targets(rng, d):
    """Marks are queried at each point with 0, a negative target, the
    total plus epsilon, and two targets drawn from every prefix value
    (plateaus included), a third of the total and the total."""
    whole = d.prefix[-1]
    pool = [*d.prefix, whole / 3, whole]
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
