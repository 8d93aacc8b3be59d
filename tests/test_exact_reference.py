"""The closed-form exact layers against the walks they replace.

The references below are the node-by-node Stern-Brocot descent, the
bisection loops that ``mediant`` and ``solver`` used before those layers
were computed in closed form, and the factored membership relation the
solver's quadratic was expanded from; every output must be ``==`` to theirs.
"""

import itertools
import random
from fractions import Fraction

import pytest

from modwalk import (
    ExtRational,
    LRCode,
    MediantInterval,
    NoRootInCube,
    PassageTriple,
    ROOT_INTERVAL,
    RationalCodes,
    SolverContradictionError,
    StepOnS,
    hyperbola_point,
    lr_to_cf,
    lr_to_interval,
    question_mark,
    rational_to_cf,
    rational_to_lr,
    denjoy_membership_residual,
    residual,
    solve_master,
)
from modwalk.solver import _exact_sqrt, y_equation_coefficients

from helpers import random_step


# ---------------------------------------------------------------------------
# References: the walks as they were.

def reference_lr_to_interval(word: str) -> MediantInterval:
    iv = ROOT_INTERVAL
    for ch in word:
        iv = iv.child(ch)
    return iv


def reference_rational_to_lr(q) -> RationalCodes:
    q = Fraction(q)
    point = ExtRational.from_fraction(q)
    iv = ROOT_INTERVAL
    stem: list[str] = []
    while True:
        m = iv.mediant()
        if m == point:
            break
        letter = "L" if point < m else "R"
        stem.append(letter)
        iv = iv.child(letter)
    word = "".join(stem)
    return RationalCodes(word, LRCode(word + "L", "R"), LRCode(word + "R", "L"))


def reference_question_mark(right_stem: str, depth: int) -> Fraction:
    bits = right_stem[1 : depth + 1]
    return Fraction(int(bits.replace("L", "0").replace("R", "1"), 2), 1 << len(bits))


def reference_solve_master(mu: StepOnS, tol: float) -> PassageTriple:
    A, B, C = y_equation_coefficients(mu)

    def f(t: Fraction) -> Fraction:
        return (A * t + B) * t + C

    lo, hi = Fraction(0), Fraction(1)
    if not (f(lo) < 0 < f(hi)):
        raise NoRootInCube("no sign change")
    if A == 0:
        y = -C / B
    else:
        sq = _exact_sqrt(B * B - 4 * A * C)
        if sq is not None:
            inside = sorted(r for r in {(-B + sq) / (2 * A), (-B - sq) / (2 * A)} if 0 < r < 1)
            y = inside[0]
        else:
            width = Fraction(tol) / 8
            while hi - lo > width:
                mid = (lo + hi) / 2
                value = f(mid)
                if value == 0:
                    lo = hi = mid
                    break
                if value < 0:
                    lo = mid
                else:
                    hi = mid
            y = (lo + hi) / 2
    ybar = 1 - y
    denom = 1 - mu.bprime * ybar - mu.bbarprime * y
    x = (1 - mu.bf * y - mu.bbarf * ybar - mu.bprime - mu.bbarprime) / denom
    triple = PassageTriple(x, y, ybar)
    if max(abs(float(r)) for r in residual(mu, triple)) > tol:
        raise SolverContradictionError("residuals exceed tolerance at the located root")
    return triple


def reference_membership_residual(mu: StepOnS, alpha):
    af, bf, bb, bp, bbp = mu.as_tuple()
    (a1, a0), (b1, b0), (c1, c0), (d1, d0) = (
        (1 + bb, -(bb + bp)),
        (bp - af, af + bb),
        (af - bbp, bbp + bf),
        (-(1 + bf), 1 - bbp),
    )
    return (a1 * alpha + a0) * (b1 * alpha + b0) - (c1 * alpha + c0) * (d1 * alpha + d0)


def reference_hyperbola_point(bbarf, bits: int) -> StepOnS:
    bb = Fraction(bbarf)
    sq = _exact_sqrt(3 * bb**2 + 1)
    if sq is not None:
        bf = ((bb + 1) - sq) / 2
    else:
        def q(t: Fraction) -> Fraction:
            return 2 * t * t - 2 * (bb + 1) * t + (bb - bb * bb)

        lo, hi = Fraction(0), (1 - bb) / 2
        width = Fraction(1, 2**bits)
        while hi - lo > width:
            mid = (lo + hi) / 2
            if q(mid) > 0:
                lo = mid
            else:
                hi = mid
        bf = (lo + hi) / 2
    return StepOnS(1 - 2 * bf - bb, bf, bb, bf, Fraction(0))


def outcome(fn, *args):
    """The value ``fn`` returns, or the type of the exception it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# Inputs.

def criterion_10_points() -> list[Fraction]:
    """The question-mark samples and the round-trip rationals of criterion 10."""
    rng = random.Random(1010)
    samples = set()
    while len(samples) < 1000:
        den = rng.randint(2, 10_000)
        samples.add(Fraction(rng.randint(1, den - 1), den))
    trips = []
    for _ in range(1000):
        den = rng.randint(2, 10_000)
        trips.append(Fraction(rng.randint(1, 10_000), den))
    return sorted(samples) + trips


def fibonacci_ratios(count: int = 60) -> list[Fraction]:
    out, (f0, f1) = [], (1, 1)
    for _ in range(count):
        f0, f1 = f1, f0 + f1
        out += [Fraction(f1, f0), Fraction(f0, f1)]
    return out


SMALL = sorted({Fraction(p, q) for q in range(1, 61) for p in range(1, 61)})
POINTS = (
    criterion_10_points()
    + SMALL
    + [Fraction(n) for n in range(1, 101)]
    + fibonacci_ratios()
    + [Fraction(10**5), Fraction(1, 10**5)]
)


# ---------------------------------------------------------------------------
# Encodings.

class TestEncodings:
    def test_rational_to_lr_and_interval(self):
        for q in POINTS:
            codes = rational_to_lr(q)
            assert codes == reference_rational_to_lr(q), q
            assert lr_to_interval(codes.stem) == reference_lr_to_interval(codes.stem), q
            assert rational_to_cf(q) == lr_to_cf(codes.right), q

    def test_every_word_up_to_length_10(self):
        count = 0
        for n in range(11):
            for letters in itertools.product("LR", repeat=n):
                word = "".join(letters)
                assert lr_to_interval(word) == reference_lr_to_interval(word), word
                count += 1
        assert count == 2**11 - 1

    def test_question_mark(self):
        for x in POINTS:
            if x < 1:
                word = reference_rational_to_lr(x).right.stem
                for depth in (1, 5, 64, 25_000):
                    assert question_mark(x, depth) == reference_question_mark(word, depth), (x, depth)


# ---------------------------------------------------------------------------
# Solver.

class TestSolver:
    @pytest.mark.parametrize("tol", [1e-15, 1e-3, 0.5, 10.0])
    def test_solve_master(self, tol):
        rng = random.Random(2024)
        signs = set()
        for _ in range(1000):
            mu = random_step(rng)
            A, B, C = y_equation_coefficients(mu)
            if A and _exact_sqrt(B * B - 4 * A * C) is None:
                signs.add(A > 0)
            assert outcome(solve_master, mu, tol) == outcome(reference_solve_master, mu, tol), mu
        assert signs == {True, False}  # the bisection branch ran with both leading signs

    def test_membership_residual(self):
        rng = random.Random(7)
        for _ in range(1000):
            mu = random_step(rng)
            for alpha in (Fraction(1, 2), Fraction(rng.randint(1, 999), 1000)):
                expected = reference_membership_residual(mu, alpha)
                assert denjoy_membership_residual(mu, alpha) == expected, (mu, alpha)

    @pytest.mark.parametrize("bits", [1, 8, 64])
    @pytest.mark.parametrize(
        "bbarf",
        ["1/1000", "1/7", "1/3", "4/11", "2/5", "1/2", "3/4", "9/10", "999/1000"],
    )
    def test_hyperbola_point(self, bbarf, bits):
        assert hyperbola_point(bbarf, bits) == reference_hyperbola_point(bbarf, bits)
