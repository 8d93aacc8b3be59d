"""The closed-form exact layers against the walks they replace.

The references below are the node-by-node Stern-Brocot descent, the
bisection loops that ``mediant`` and ``solver`` used before those layers
were computed in closed form, and the factored membership relation the
solver's quadratic was expanded from; every output must be ``==`` to theirs.
The solver's references build on the ``Fraction`` forms of the quadratic's
coefficients, the residuals and the exact square root, copied here so they
stay independent of the solver's integer core.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from modwalk import (
    ExtRational,
    LRCode,
    MediantInterval,
    NoRootInCube,
    PiWeights,
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
from modwalk.group import _integer_masses
from modwalk.solver import _y_equation_integers

from helpers import random_step


class MultipleRoots(SolverContradictionError):
    """The reference solver's check for two roots in (0, 1); the solver has
    no such check, because its sign test leaves exactly one root there."""


# ---------------------------------------------------------------------------
# References: the walks as they were.

ROOT_INTERVAL = MediantInterval(ExtRational(0, 1), ExtRational(1, 0))


def reference_child(iv: MediantInterval, letter: str) -> MediantInterval:
    """One step of the descent: L keeps the left endpoint, R the right one."""
    m = iv.mediant()
    return MediantInterval(iv.left, m) if letter == "L" else MediantInterval(m, iv.right)


def reference_lr_to_interval(word: str) -> MediantInterval:
    iv = ROOT_INTERVAL
    for ch in word:
        iv = reference_child(iv, ch)
    return iv


def reference_rational_to_lr(q) -> RationalCodes:
    q = Fraction(q)
    point = ExtRational(q.numerator, q.denominator)
    iv = ROOT_INTERVAL
    stem: list[str] = []
    while True:
        m = iv.mediant()
        if m == point:
            break
        letter = "L" if point < m else "R"
        stem.append(letter)
        iv = reference_child(iv, letter)
    word = "".join(stem)
    return RationalCodes(word, LRCode(word + "L", "R"), LRCode(word + "R", "L"))


def reference_question_mark(right_stem: str, depth: int) -> Fraction:
    bits = right_stem[1 : depth + 1]
    return Fraction(int(bits.replace("L", "0").replace("R", "1"), 2), 1 << len(bits))


def reference_y_equation_coefficients(mu: StepOnS) -> tuple[Fraction, Fraction, Fraction]:
    af, bf, bb, bp, bbp = mu.as_tuple()
    a1, a0 = 1 + bb, -(bb + bp)
    b1, b0 = bp - af, af + bb
    c1, c0 = af - bbp, bbp + bf
    d1, d0 = -(1 + bf), 1 - bbp
    A = a1 * b1 - c1 * d1
    B = a1 * b0 + a0 * b1 - (c1 * d0 + c0 * d1)
    C = a0 * b0 - c0 * d0
    return A, B, C


def reference_residual(mu: StepOnS, t: PiWeights) -> tuple[Fraction, Fraction, Fraction]:
    af, bf, bb, bp, bbp = mu.as_tuple()
    x, y, yb = t.x, t.y, t.ybar
    r1 = af + bf * yb + bb * y + bp * x * yb + bbp * x * y - x
    r2 = af * x * y + bf * x + bb * yb + bp + bbp * x * yb - y
    r3 = af * x * yb + bf * y + bb * x + bp * x * y + bbp - yb
    return (r1, r2, r3)


def reference_exact_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def reference_branch(mu: StepOnS) -> str:
    A, B, C = reference_y_equation_coefficients(mu)
    if A == 0:
        return "linear"
    return "rational" if reference_exact_sqrt(B * B - 4 * A * C) is not None else "irrational"


def reference_solve_master(mu: StepOnS, tol: float) -> PiWeights:
    triple = reference_triple(mu, tol)
    if max(abs(float(r)) for r in reference_residual(mu, triple)) > tol:
        raise SolverContradictionError("residuals exceed tolerance at the located root")
    return triple


def reference_triple(mu: StepOnS, tol: float) -> PiWeights:
    """The solver's triple before its residual check."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    A, B, C = reference_y_equation_coefficients(mu)

    def f(t: Fraction) -> Fraction:
        return (A * t + B) * t + C

    lo, hi = Fraction(0), Fraction(1)
    if not (f(lo) < 0 < f(hi)):
        raise NoRootInCube("no sign change")
    if A == 0:
        y = -C / B
    else:
        sq = reference_exact_sqrt(B * B - 4 * A * C)
        if sq is not None:
            inside = sorted(r for r in {(-B + sq) / (2 * A), (-B - sq) / (2 * A)} if 0 < r < 1)
            if not inside:
                raise NoRootInCube("rational roots all fall outside (0,1)")
            if len(inside) > 1:
                raise MultipleRoots("two roots inside (0,1)")
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
    for name, value in (("x", x), ("y", y), ("ybar", ybar)):
        if not 0 < value < 1:
            raise ValueError(f"{name} must lie in (0,1), got {value}")
    return PiWeights(x, y)


def reference_membership_residual(mu: StepOnS, alpha):
    af, bf, bb, bp, bbp = mu.as_tuple()
    (a1, a0), (b1, b0), (c1, c0), (d1, d0) = (
        (1 + bb, -(bb + bp)),
        (bp - af, af + bb),
        (af - bbp, bbp + bf),
        (-(1 + bf), 1 - bbp),
    )
    return (a1 * alpha + a0) * (b1 * alpha + b0) - (c1 * alpha + c0) * (d1 * alpha + d0)


def reference_hyperbola_point(bbarf) -> StepOnS:
    bb = Fraction(bbarf)
    sq = reference_exact_sqrt(3 * bb**2 + 1)
    if sq is not None:
        bf = ((bb + 1) - sq) / 2
    else:
        def q(t: Fraction) -> Fraction:
            return 2 * t * t - 2 * (bb + 1) * t + (bb - bb * bb)

        lo, hi = Fraction(0), (1 - bb) / 2
        width = Fraction(1, 2**64)
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
            assert rational_to_cf(q) == lr_to_cf(codes.right.stem), q

    def test_a_million_letter_address(self):
        q = Fraction(1, 10**6)
        assert rational_to_lr(q) == reference_rational_to_lr(q)

    def test_rational_to_cf_reads_the_right_code(self):
        # POINTS run through test_rational_to_lr_and_interval, against the same reference
        rng = random.Random(1919)
        for _ in range(20_000):
            q = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
            assert rational_to_cf(q) == lr_to_cf(reference_rational_to_lr(q).right.stem), q

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
                # cut w R one letter short, exactly, with room to spare, and
                # one letter short of the end of its longest run
                start, (k, at) = 0, (0, 0)
                for _, grp in itertools.groupby(word):
                    run = len(list(grp))
                    k, at = max((k, at), (run, start))
                    start += run
                cuts = (len(word) - 2, len(word) - 1, len(word), at + k - 2 if k > 1 else 0)
                for depth in (1, 5, 64, 25_000, *(d for d in cuts if d >= 1)):
                    assert question_mark(x, depth) == reference_question_mark(word, depth), (x, depth)

    def test_question_mark_at_every_depth(self):
        # every truncation depth, up to one past the length of w R, against
        # the bits of the right code's stem after its leading L
        rng = random.Random(2929)
        xs = {Fraction(1, rng.randint(2, 400)) for _ in range(20)}
        while len(xs) < 300:
            den = rng.randint(2, 10**6)
            xs.add(Fraction(rng.randint(1, den - 1), den))
        for x in sorted(xs):
            stem = rational_to_lr(x).right.stem
            for depth in range(1, len(stem) + 2):
                assert question_mark(x, depth) == reference_question_mark(stem, depth), (x, depth)


# ---------------------------------------------------------------------------
# Solver.

def unchecked_step(*weights: Fraction) -> StepOnS:
    """A ``StepOnS`` built without its validation, so weights may be negative;
    it keeps the integer core as ``StepOnS.__post_init__`` does."""
    mu = object.__new__(StepOnS)
    for name, w in zip(("af", "bf", "bbarf", "bprime", "bbarprime"), weights):
        object.__setattr__(mu, name, w)
    object.__setattr__(mu, "_core", _integer_masses(weights))
    return mu


def unchecked_walks() -> list[StepOnS]:
    """Weights of either sign summing to 1."""
    rng = random.Random(99)
    walks = []
    for _ in range(1000):
        raw = [Fraction(rng.randint(-20, 20)) for _ in range(5)]
        if sum(raw):
            walks.append(unchecked_step(*(w / sum(raw) for w in raw)))
    return walks


def criterion_01_walks() -> list[StepOnS]:
    rng = random.Random(1001)
    return [random_step(rng) for _ in range(1000)]


class TestSolver:
    @pytest.mark.parametrize("tol", [1e-15, 1e-3, 0.5, 10.0])
    def test_solve_master(self, tol):
        branches = set()
        for mu in criterion_01_walks():
            A, B, C = reference_y_equation_coefficients(mu)
            weights = _integer_masses(mu.as_tuple())
            D = weights[0]
            assert tuple(Fraction(c, D * D) for c in _y_equation_integers(weights)) == (A, B, C), mu
            branches.add((reference_branch(mu), A > 0))
            got = outcome(solve_master, mu, tol)
            assert got == outcome(reference_solve_master, mu, tol), mu
            if isinstance(got, PiWeights):
                assert residual(mu, got) == reference_residual(mu, got), mu
        # every branch ran, the bisection with both leading signs
        assert {"linear", "rational"} < {b for b, _ in branches}
        assert {("irrational", True), ("irrational", False)} <= set(branches)

    def test_residual_at_any_weights(self):
        # exact off the solution too, a float weight at its binary value
        rng = random.Random(1002)
        for mu in criterion_01_walks()[:300]:
            x, y = Fraction(rng.randint(1, 99), rng.randint(1, 99)), Fraction(rng.randint(1, 99), 100)
            assert residual(mu, PiWeights(x, y)) == reference_residual(mu, PiWeights(x, y)), mu
            binary = PiWeights(Fraction(float(x)), Fraction(float(y)))
            assert residual(mu, PiWeights(float(x), float(y))) == reference_residual(mu, binary), mu

    def test_symmetric_walk_takes_the_linear_branch(self):
        mu = StepOnS(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), 0, 0)
        assert reference_branch(mu) == "linear"
        assert solve_master(mu) == reference_solve_master(mu, 1e-15)

    @pytest.mark.parametrize("bbarf", ["4/11", "3/13", "1/3", "1/2"])
    def test_hyperbola_walks(self, bbarf):
        # exact branch points (4/11, 3/13) and bisected ones
        mu = hyperbola_point(bbarf)
        assert mu == reference_hyperbola_point(bbarf)
        assert outcome(solve_master, mu, 1e-15) == outcome(reference_solve_master, mu, 1e-15)

    def test_failures_on_the_same_inputs(self):
        # the sign test, the triple's bounds and the residual check each
        # fail on some of these walks
        seen = set()
        for mu in unchecked_walks():
            for tol in (1e-15, 0.5):
                got = outcome(solve_master, mu, tol)
                assert got == outcome(reference_solve_master, mu, tol), mu.as_tuple()
                seen.add(got if isinstance(got, type) else PiWeights)
        assert {NoRootInCube, SolverContradictionError, ValueError, PiWeights} <= seen
        # a quadratic that changes sign on (0, 1) has one root there, so the
        # MultipleRoots check is never reached behind the sign test
        assert MultipleRoots not in seen

    def test_tolerance_decides_at_the_float_residual(self):
        # every tol in [1/2, 1) bisects to the same cell, so the triple is
        # fixed while tol crosses its largest float residual r
        crossed = 0
        for mu in unchecked_walks():
            triple = outcome(reference_triple, mu, 0.5)
            if not isinstance(triple, PiWeights) or reference_branch(mu) != "irrational":
                continue
            r = max(abs(float(v)) for v in reference_residual(mu, triple))
            if 0.5 < r < 1:
                crossed += 1
                assert outcome(solve_master, mu, r) == triple
                assert outcome(solve_master, mu, math.nextafter(r, 0)) is SolverContradictionError
        assert crossed

    def test_results_pass_the_public_checks(self):
        # solve_master builds its PiWeights without their checks, and each walk
        # keeps the integer core its unit-mass test computed
        solved = 0
        for mu in criterion_01_walks() + unchecked_walks():
            assert mu._core == _integer_masses(mu.as_tuple())
            got = outcome(solve_master, mu, 1e-15)
            if isinstance(got, PiWeights):
                assert PiWeights(got.x, got.y) == got
                solved += 1
        assert solved > 1000

    def test_first_residual_is_zero_by_construction(self):
        # x solves the first equation at y, which is why solve_master's
        # tolerance check reads only the other two
        solved = 0
        for mu in criterion_01_walks() + unchecked_walks():
            for tol in (1e-15, 0.5):
                got = outcome(solve_master, mu, tol)
                if isinstance(got, PiWeights):
                    assert residual(mu, got)[0] == reference_residual(mu, got)[0] == 0, (mu.as_tuple(), tol)
                    solved += 1
        assert solved > 2000

    def test_core_changes_nothing_visible(self):
        for mu in criterion_01_walks()[:100]:
            twin = StepOnS.from_json_dict(mu.to_json_dict())
            assert twin == mu and hash(twin) == hash(mu) and repr(twin) == repr(mu)
            assert "_core" not in repr(mu) and twin._core == mu._core

    @pytest.mark.parametrize("tol", [0.0, -1e-15, math.inf, math.nan])
    def test_bad_tolerance(self, tol):
        mu = criterion_01_walks()[0]
        assert outcome(solve_master, mu, tol) is ValueError
        assert outcome(reference_solve_master, mu, tol) is ValueError

    def test_membership_residual(self):
        rng = random.Random(7)
        for _ in range(1000):
            mu = random_step(rng)
            for alpha in (Fraction(1, 2), Fraction(rng.randint(1, 999), 1000)):
                expected = reference_membership_residual(mu, alpha)
                assert denjoy_membership_residual(mu, alpha) == expected, (mu, alpha)

    @pytest.mark.parametrize(
        "bbarf",
        ["1/1000", "1/7", "1/3", "4/11", "2/5", "1/2", "3/4", "9/10", "999/1000"],
    )
    def test_hyperbola_point(self, bbarf):
        assert hyperbola_point(bbarf) == reference_hyperbola_point(bbarf)
