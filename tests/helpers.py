"""Shared deterministic generators and oracles for the test suite."""

from __future__ import annotations

import math
import os
import random
from fractions import Fraction

import modwalk.montecarlo as montecarlo
from modwalk import (
    IDENTITY,
    Cylinder,
    DegenerateStepError,
    DenjoyParams,
    GroupWord,
    PiWeights,
    StepOnS,
    reduce_concat,
)


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


def swap_b_letters(w: GroupWord) -> GroupWord:
    """The automorphism of the group exchanging ``b`` and ``B``."""
    return GroupWord(w.letters.translate(str.maketrans("bB", "Bb")))


def swap_involution(d: DenjoyParams) -> DenjoyParams:
    """Parameter change induced by the automorphism exchanging ``b`` and ``B``."""
    return DenjoyParams(1 - d.alpha, d.p)


def params_to_pi(d: DenjoyParams) -> PiWeights:
    """Radon-Nikodym weights ``(x, y)`` of a family member: the inverse
    of ``pi_to_params``."""
    return PiWeights(d.p / (1 - d.p), d.alpha)


def cylinder_diameter(c: Cylinder) -> float:
    """Diameter ``e^-|g|`` of the shadow of ``g`` in the ultrametric
    ``e^-(.|.)`` of the Gromov product at the identity."""
    return math.exp(-len(c.prefix))


def children_exit_at_once(monkeypatch) -> None:
    """Make every forked simulator child exit before it draws a batch, so it
    writes nothing into its pipe; the calling process runs as before."""
    parent, step_codes = os.getpid(), montecarlo._step_codes

    def exiting(*args):
        if os.getpid() != parent:
            os._exit(1)
        return step_codes(*args)

    monkeypatch.setattr(montecarlo, "_step_codes", exiting)


def children_raise(monkeypatch, exc: BaseException) -> None:
    """Make every forked simulator child raise ``exc`` when it draws a batch;
    the calling process runs as before."""
    parent, step_codes = os.getpid(), montecarlo._step_codes

    def raising(*args):
        if os.getpid() != parent:
            raise exc
        return step_codes(*args)

    monkeypatch.setattr(montecarlo, "_step_codes", raising)


def unpicklable_error() -> ValueError:
    """A ``ValueError`` that ``pickle.dumps`` refuses: it holds a lambda."""
    exc = ValueError("raised in the child")
    exc.hook = lambda: None
    return exc


class NeedsTwoArguments(Exception):
    """Pickles, but ``pickle.loads`` calls it with its one stored argument and fails."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")
