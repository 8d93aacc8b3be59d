"""Shared deterministic generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from modwalk import IDENTITY, DegenerateStepError, GroupWord, StepOnS, reduce_concat


def random_step(rng: random.Random, grid: int = 20) -> StepOnS:
    """Random non-degenerate step distribution with small rational weights."""
    while True:
        weights = [Fraction(rng.randint(0, grid)) for _ in range(5)]
        total = sum(weights)
        if total == 0:
            continue
        try:
            return StepOnS(*[w / total for w in weights])
        except (DegenerateStepError, ValueError):
            continue


def random_nn(rng: random.Random, grid: int = 50) -> StepOnS:
    """Random nearest-neighbour walk: ``af`` and ``delta = bf - bbarf`` on a grid."""
    af = Fraction(rng.randint(1, grid - 1), grid)
    span = 1 - af
    delta = Fraction(rng.randint(-grid, grid), grid) * span
    return StepOnS(af, (span + delta) / 2, (span - delta) / 2, 0, 0)


def random_word(rng: random.Random, max_moves: int = 8) -> GroupWord:
    """Random group element as a product of random generators."""
    out = IDENTITY
    for _ in range(rng.randint(0, max_moves)):
        out = reduce_concat(out, GroupWord(rng.choice(["a", "b", "B"])))
    return out


def random_rational(rng: random.Random, max_den: int = 10_000) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)
