"""Seeded problem generator for the benchmark.

Covers n = 2..6 named agents, 4..16 slices of mixed lengths, and a
zero-density stretch in every agent's valuation.  Generation is separate
from construction: ``random_spec`` returns plain data (names, lengths,
density rows) so the same inputs can be built into fresh ``Problem``
objects, written as problem files, or replayed, without sharing any lazily
filled cache between runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

NAMES = ("Ann", "Bob", "Cat", "Dan", "Eve", "Fay")
LENGTHS = (Fraction(1), Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2))


@dataclass(frozen=True)
class Spec:
    """One problem as plain data, in the order the problem file lists it."""

    agents: tuple[str, ...]
    lengths: tuple[Fraction, ...]
    rows: tuple[tuple[Fraction, ...], ...]

    def build(self, cake_measure):
        """A fresh Problem (cold per-problem caches) from the given module."""
        return cake_measure.problem(self.agents, self.lengths, self.rows)

    def to_json(self) -> dict:
        """The problem-file object documented in the cakecut README, written
        here rather than with the library's problem_to_json so that the
        inputs do not depend on the code under test."""
        return {
            "slices": [{"length": str(x)} for x in self.lengths],
            "agents": [{"name": a, "densities": [str(v) for v in row]}
                       for a, row in zip(self.agents, self.rows)],
        }


def rng_for(workload: str, seed: int) -> random.Random:
    """Independent, reproducible stream per (workload, seed)."""
    return random.Random(f"{workload}/{seed}")


def random_spec(rng: random.Random, n: int, k: int) -> Spec:
    """n agents with shuffled names, k slices; densities 1..9 except one
    zero-density stretch of 1..max(1, k // 5) slices per agent."""
    if not 2 <= n <= len(NAMES) or not 4 <= k <= 16:
        raise ValueError(f"unsupported size n={n}, k={k}")
    agents = list(rng.sample(NAMES, n))
    lengths = tuple(rng.choice(LENGTHS) for _ in range(k))
    rows = []
    for _ in range(n):
        row = [Fraction(rng.randint(1, 9)) for _ in range(k)]
        run = rng.randint(1, max(1, k // 5))
        start = rng.randrange(k - run + 1)
        row[start:start + run] = [Fraction(0)] * run
        rows.append(tuple(row))
    return Spec(tuple(agents), lengths, tuple(rows))


def random_enlargement(rng: random.Random, spec: Spec):
    """One or two appended slices; densities 0..9 per agent (zeros allowed).
    Returns (lengths, {agent: densities}) as ``append``/``check_rm`` take."""
    m = rng.randint(1, 2)
    lengths = [rng.choice(LENGTHS) for _ in range(m)]
    rows = {a: [Fraction(rng.randint(0, 9)) for _ in range(m)]
            for a in spec.agents}
    return lengths, rows
