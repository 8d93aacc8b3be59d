"""Passage probabilities and harmonic-measure parameters for walks with
steps in ``{a, b, B, ba, Ba}``.

For a non-degenerate step distribution on this set the passage probabilities
``x = pi_a``, ``y = pi_ba``, ``ybar = pi_Ba`` satisfy a three-equation
stationarity system whose unique solution in the open unit cube has
``y + ybar = 1``: the weights ``denjoy.PiWeights`` of the harmonic measure,
which ``denjoy.pi_to_params`` realizes in the Denjoy family.  The ``y``
variable solves a quadratic with exact rational coefficients.  Rational roots
are returned exactly; an irrational root is returned as the midpoint of the
dyadic bisection enclosure that brackets it, computed in closed form from
one integer square root (``_bisection_midpoint``).  The solver works on one
integer core: the weights and the quadratic are taken over the common
denominator of the weights (``_y_equation_integers``), and a solve stays on
integers until it builds the ``Fraction``s it returns.

Also here: the Denjoy/Minkowski membership residuals, the closed-form
nearest-neighbour solution, the level-set function of nearest-neighbour
equivalence, the hyperbola family of Minkowski-filling measures with a
two-letter step, and the three compound-walk counterexample reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import copysign, hypot, isfinite, isqrt, lcm
from typing import Mapping, Sequence, Union

from .denjoy import DenjoyParams, PiWeights, Scalar, pi_to_params
from .group import (
    GroupMeasure,
    _provably_degenerate,
    _require_probability,
    _weight,
    conjugate,
    convolve,
    parse_word,
    strip_identity_renormalize,
    translate_right,
)

__all__ = [
    "DegenerateStepError",
    "SolverContradictionError",
    "NoRootInCube",
    "StepOnS",
    "NNParams",
    "S_WORDS",
    "solve_master",
    "residual",
    "harmonic_params",
    "denjoy_membership_residual",
    "minkowski_residual",
    "nn_step",
    "nn_solve",
    "phi",
    "hyperbola_point",
    "EX0_PAIR",
    "EX0_LEVEL",
    "example_ex0",
    "example_ex1",
    "example_ex2",
    "Ex0Report",
    "Ex1Report",
    "Ex2Report",
]


class DegenerateStepError(ValueError):
    """Support fails to generate the group as a semigroup."""


class SolverContradictionError(ArithmeticError):
    """The root structure promised by uniqueness of the solution is violated."""


class NoRootInCube(SolverContradictionError):
    pass


# JSON field names for the five step weights, in order (bb = B, bba = Ba).
S_KEYS = ("a", "b", "bb", "ba", "bba")
S_WORDS = tuple(parse_word(w) for w in ("a", "b", "B", "ba", "Ba"))

RationalLike = Union[Fraction, int, str]


@dataclass(frozen=True, slots=True)
class StepOnS:
    """A probability step distribution supported on ``{a, b, B, ba, Ba}``.

    Weights are exact rationals summing to 1.  Non-degeneracy (the support
    generates the group as a semigroup) amounts to the support not being
    contained in ``{a}``, ``{b, B}``, or ``{ba, Ba}``; on this set that is
    exactly the test of ``group._provably_degenerate``.
    """

    af: Fraction
    bf: Fraction
    bbarf: Fraction
    bprime: Fraction
    bbarprime: Fraction

    def __post_init__(self) -> None:
        for name in ("af", "bf", "bbarf", "bprime", "bbarprime"):
            object.__setattr__(self, name, _weight(getattr(self, name)))
        if sum(self.as_tuple()) != 1:
            raise ValueError(f"weights must sum to 1, got {sum(self.as_tuple())}")
        if _provably_degenerate(w for w, m in zip(S_WORDS, self.as_tuple()) if m):
            raise DegenerateStepError(
                "support contained in {a}, {b, B}, or {ba, Ba} does not generate"
            )

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.af, self.bf, self.bbarf, self.bprime, self.bbarprime)

    def swapped(self) -> "StepOnS":
        """Image under the automorphism exchanging ``b`` and ``B``."""
        return StepOnS(self.af, self.bbarf, self.bf, self.bbarprime, self.bprime)

    def combine(self, other: "StepOnS", t: RationalLike) -> "StepOnS":
        """Convex combination ``t * self + (1-t) * other``."""
        t = Fraction(t)
        if not 0 < t < 1:
            raise ValueError(f"need 0 < t < 1, got {t}")
        return StepOnS(
            *(t * u + (1 - t) * v for u, v in zip(self.as_tuple(), other.as_tuple()))
        )

    def to_group_measure(self) -> GroupMeasure:
        return GroupMeasure(
            {w: m for w, m in zip(S_WORDS, self.as_tuple()) if m}
        )

    @classmethod
    def from_group_measure(cls, m: GroupMeasure) -> "StepOnS":
        _require_probability(m, "m")
        extra = m.support() - set(S_WORDS)
        if extra:
            raise ValueError(
                f"support must lie in {{a, b, B, ba, Ba}}, found {sorted(w.letters for w in extra)}"
            )
        return cls(*(m(w) for w in S_WORDS))

    def to_json_dict(self) -> dict[str, str]:
        return {k: str(w) for k, w in zip(S_KEYS, self.as_tuple())}

    @classmethod
    def from_json_dict(cls, data: Mapping[str, RationalLike]) -> "StepOnS":
        extra = set(data) - set(S_KEYS)
        if extra:
            raise ValueError(f"unknown step keys {sorted(extra)}; use {S_KEYS}")
        return cls(*(data.get(k, 0) for k in S_KEYS))


def _integer_weights(mu: StepOnS) -> tuple[int, ...]:
    """``D``, the lcm of the weight denominators, then the five weights times
    ``D``: integers that sum to ``D``."""
    weights = mu.as_tuple()
    D = lcm(*(w.denominator for w in weights))
    return (D, *(w.numerator * (D // w.denominator) for w in weights))


def _y_equation_integers(weights: tuple[int, ...]) -> tuple[int, int, int]:
    """``D^2`` times the coefficients of the quadratic ``A t^2 + B t + C`` in ``y``."""
    # The membership relation reads (a1 t + a0)(b1 t + b0) = (c1 t + c0)(d1 t + d0)
    # in the unknown t; at t = y it is the consistency condition of the
    # stationarity system.  A t^2 + B t + C is its left side minus its right,
    # each factor taken times D.
    D, af, bf, bb, bp, bbp = weights
    a1, a0 = D + bb, -(bb + bp)
    b1, b0 = bp - af, af + bb
    c1, c0 = af - bbp, bbp + bf
    d1, d0 = -(D + bf), D - bbp
    A = a1 * b1 - c1 * d1
    B = a1 * b0 + a0 * b1 - (c1 * d0 + c0 * d1)
    C = a0 * b0 - c0 * d0
    return A, B, C


def denjoy_membership_residual(mu: StepOnS, alpha: Scalar) -> Scalar:
    """Signed defect of the membership relation at ``alpha``.

    Zero exactly when the harmonic measure of ``mu`` lies in the class with
    parameter ``alpha``; exact rational for rational ``alpha``.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    weights = _integer_weights(mu)
    A, B, C = _y_equation_integers(weights)
    return ((A * alpha + B) * alpha + C) / weights[0] ** 2


def minkowski_residual(mu: StepOnS) -> Fraction:
    """Membership residual at ``alpha = 1/2``; exact, zero iff Minkowski-filling."""
    return denjoy_membership_residual(mu, Fraction(1, 2))


def _exact_isqrt(n: int) -> int | None:
    """The square root of ``n`` if ``n`` is a perfect square, else ``None``."""
    if n < 0:
        return None
    root = isqrt(n)
    return root if root * root == n else None


def _bisection_midpoint(coeffs: tuple[int, int, int], hi: Fraction, width: Fraction) -> Fraction:
    """Midpoint of the enclosure that bisecting ``[0, hi]`` to ``width`` ends on.

    ``f(t) = a t^2 + b t + c`` (integers, ``a != 0``) must satisfy
    ``f(0) < 0 < f(hi)`` and have an irrational root between.  Bisection
    keeping that sign change halves ``n`` times, the least ``n >= 0`` with
    ``hi / 2^n <= width``, and ends on the grid cell ``[t_k, t_{k+1}]``,
    ``t_j = j hi / 2^n``, where ``f`` changes sign.  With ``hi = u/v`` and
    ``E = v 2^n``, ``E^2 f(t_j)`` is the integer quadratic
    ``g(j) = a u^2 j^2 + b u E j + c E^2``; one integer square root of its
    discriminant places ``k`` to within one, and the exact signs
    ``g(k) < 0 < g(k+1)`` confirm it.
    """
    a, b, c = coeffs
    u, v = hi.numerator, hi.denominator
    span, cell = u * width.denominator, v * width.numerator  # hi / width = span / cell
    n = max(0, span.bit_length() - cell.bit_length())
    if cell << n < span:
        n += 1
    E = v << n
    ia, ib, ic = a * u * u, b * u * E, c * E * E

    def g(j: int) -> int:
        return (ia * j + ib) * j + ic

    # g rises through its root, so the root is (-ib + sqrt(disc)) / (2 ia).
    k = (isqrt(ib * ib - 4 * ia * ic) - ib) // (2 * ia)
    while g(k) >= 0:
        k -= 1
    while g(k + 1) <= 0:
        k += 1
    return Fraction((2 * k + 1) * u, 2 * E)


def _passage_weights(x: Scalar, y: Scalar) -> PiWeights:
    """``PiWeights(x, y, 1 - y)``, once each passage probability is checked to lie in (0, 1)."""
    for name, value in (("x", x), ("y", y), ("ybar", 1 - y)):
        if not 0 < value < 1:
            raise ValueError(f"{name} must lie in (0,1), got {value}")
    return PiWeights(x, y, 1 - y)


def solve_master(mu: StepOnS, tol: float = 1e-15) -> PiWeights:
    """Unique solution of the stationarity system in the open unit cube.

    The quadratic in ``y`` is solved exactly when its discriminant is a
    rational square (in particular in the linear symmetric case).  Otherwise
    ``y`` is the midpoint of the dyadic enclosure of width at most
    ``tol / 8`` that bisecting the guaranteed sign change on ``(0, 1)``
    reaches, computed directly; all three residuals must stay below ``tol``.

    Everything runs on the integers of ``_y_equation_integers``: the
    discriminant over ``D^4`` is a rational square exactly when its integer
    numerator is a perfect square, and with ``y = Y/M`` and ``x = X/N`` the
    residuals are three integers over ``D M N``, so one correctly rounded
    division decides the tolerance as the float residuals would.
    """
    if not (tol > 0 and isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    weights = _integer_weights(mu)
    A, B, C = _y_equation_integers(weights)
    if not C < 0 < A + B + C:  # D^2 f(0) and D^2 f(1)
        raise NoRootInCube(
            f"no sign change of the y-equation on (0,1) for weights {mu.as_tuple()}"
        )

    y: Fraction
    if A == 0:
        y = Fraction(-C, B)
    else:
        sq = _exact_isqrt(B * B - 4 * A * C)
        if sq is not None:
            # f(0) < 0 < f(1) puts exactly one root in (0, 1): the larger
            # root when A > 0 (0 lies between the roots), the smaller when
            # A < 0 (1 does); either way it is (-B + sq) / 2A.
            y = Fraction(-B + sq, 2 * A)
        else:
            y = _bisection_midpoint((A, B, C), Fraction(1), Fraction(tol) / 8)

    D, af, bf, bb, bp, bbp = weights
    Y, M = y.numerator, y.denominator
    Yb = M - Y  # ybar = Yb / M
    x = Fraction(D * M - bf * Y - bb * Yb - (bp + bbp) * M, D * M - bp * Yb - bbp * Y)
    triple = _passage_weights(x, y)
    X, N = x.numerator, x.denominator
    MN = M * N
    numerators = (  # D M N times the residuals of ``residual``
        af * MN + bf * Yb * N + bb * Y * N + bp * X * Yb + bbp * X * Y - D * M * X,
        af * X * Y + bf * X * M + bb * Yb * N + bp * MN + bbp * X * Yb - D * Y * N,
        af * X * Yb + bf * Y * N + bb * X * M + bp * X * Y + bbp * MN - D * Yb * N,
    )
    if max(map(abs, numerators)) / (D * MN) > tol:
        raise SolverContradictionError("residuals exceed tolerance at the located root")
    return triple


def residual(mu: StepOnS, t: PiWeights) -> tuple[Scalar, Scalar, Scalar]:
    """Signed residuals (right side minus left side) of the three stationarity equations."""
    af, bf, bb, bp, bbp = mu.as_tuple()
    x, y, yb = t.x, t.y, t.ybar
    r1 = af + bf * yb + bb * y + bp * x * yb + bbp * x * y - x
    r2 = af * x * y + bf * x + bb * yb + bp + bbp * x * yb - y
    r3 = af * x * yb + bf * y + bb * x + bp * x * y + bbp - yb
    return (r1, r2, r3)


def harmonic_params(mu: StepOnS) -> DenjoyParams:
    """Parameters of the harmonic measure: ``alpha = y`` and ``p < 1/2``."""
    return pi_to_params(solve_master(mu))


# ---------------------------------------------------------------------------
# Nearest-neighbour specialization: steps on {a, b, B} only.

@dataclass(frozen=True, slots=True)
class NNParams:
    """Nearest-neighbour step data ``(af, delta)`` with ``delta = bf - bbarf``."""

    af: Fraction
    delta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "af", _weight(self.af))
        object.__setattr__(self, "delta", Fraction(self.delta))
        if not 0 < self.af < 1:
            raise ValueError(f"af must lie in (0,1), got {self.af}")
        if abs(self.delta) > 1 - self.af:
            raise ValueError(f"|delta| must be at most 1 - af, got {self.delta}")

    def combine(self, other: "NNParams", t: RationalLike) -> "NNParams":
        """Convex combination ``t * self + (1-t) * other``."""
        t = Fraction(t)
        if not 0 < t < 1:
            raise ValueError(f"need 0 < t < 1, got {t}")
        return NNParams(
            t * self.af + (1 - t) * other.af, t * self.delta + (1 - t) * other.delta
        )


def nn_step(nn: NNParams) -> StepOnS:
    half = Fraction(1, 2)
    return StepOnS(
        nn.af,
        half * (1 - nn.af + nn.delta),
        half * (1 - nn.af - nn.delta),
        Fraction(0),
        Fraction(0),
    )


def nn_solve(nn: NNParams) -> tuple[Scalar, PiWeights, DenjoyParams]:
    """Closed-form passage data of a nearest-neighbour walk.

    For ``delta = 0`` everything is exact rational with ``z = 0``; otherwise
    ``z`` solves ``z^2 + 2 D z - 1 = 0`` with ``D = (4-(af+1)^2+delta^2)/(2 af delta)``
    and is evaluated in the cancellation-free form ``sgn(D)/(sqrt(D^2+1)+|D|)``.
    """
    if nn.delta == 0:
        z: Scalar = Fraction(0)
        x: Scalar = (1 + nn.af) / 2
        y: Scalar = Fraction(1, 2)
    else:
        D = float((4 - (nn.af + 1) ** 2 + nn.delta**2) / (2 * nn.af * nn.delta))
        z = copysign(1.0 / (hypot(D, 1.0) + abs(D)), D)
        x = (1 + float(nn.af) - float(nn.delta) * z) / 2
        y = (1 + z) / 2
    triple = _passage_weights(x, y)
    return z, triple, pi_to_params(triple)


def phi(nn: NNParams) -> Fraction:
    """Level-set function of nearest-neighbour walks: equal values mean
    harmonic measures in the same class."""
    return nn.af * nn.delta / (4 - (nn.af + 1) ** 2 + nn.delta**2)


# ---------------------------------------------------------------------------
# The hyperbola family: mu = (1-2b-bb) d_a + b (d_b + d_ba) + bb d_B, which is
# Minkowski-filling exactly on the branch 2b^2 - 2b*bb - bb^2 - 2b + bb = 0
# joining (0,0) to (0,1) in the (b, bb) plane.

def hyperbola_equation(bf: Fraction, bbarf: Fraction) -> Fraction:
    return 2 * bf**2 - 2 * bf * bbarf - bbarf**2 - 2 * bf + bbarf


def hyperbola_point(bbarf: RationalLike, bits: int = 64) -> StepOnS:
    """The Minkowski-filling member of the family with the given ``B`` weight.

    The branch value ``bf = ((bbarf+1) - sqrt(3 bbarf^2 + 1)) / 2`` is
    returned exactly when the square root is rational and otherwise as the
    midpoint of the bisection enclosure of width at most ``2^-bits`` on
    ``[0, (1-bbarf)/2]``, tight enough at the default that the Minkowski
    residual stays far below 1e-12.
    """
    bb = _weight(bbarf)
    if not 0 < bb < 1:
        raise ValueError(f"need 0 < bbarf < 1, got {bb}")

    u, v = bb.numerator, bb.denominator
    sq = _exact_isqrt(3 * u * u + v * v)  # v^2 (3 bbarf^2 + 1)
    if sq is not None:
        bf = Fraction(u + v - sq, 2 * v)
    else:
        # v^2 times minus the branch quadratic 2 t^2 - 2 (bbarf+1) t + bbarf - bbarf^2,
        # which rises through the root, as the helper requires
        a, b, c = -2 * v * v, 2 * (u + v) * v, u * (u - v)
        # it is v^2 bbarf (bbarf - 1) < 0 at 0 and v^2 (1 - bbarf^2) / 2 > 0 at hi
        hi = Fraction(v - u, 2 * v)
        bf = _bisection_midpoint((a, b, c), hi, Fraction(1, 2**bits))
    return StepOnS(1 - 2 * bf - bb, bf, bb, bf, Fraction(0))


# ---------------------------------------------------------------------------
# Counterexample reports: equivalent endpoints whose compounds leave the class.

# Float alphas closer than this count as one class: endpoints must agree
# within it, and a combination must miss their class by more.
_ALPHA_GAP = 1e-12

# Frozen level-set pair on phi = 1/8: the chord through (1/2, 1/2) with
# slope -3/4 meets the level set again at (157/206, 31/206); both points
# are exact rational members, certified below by evaluating phi.
EX0_LEVEL = Fraction(1, 8)
EX0_PAIR = (
    NNParams(Fraction(1, 2), Fraction(1, 2)),
    NNParams(Fraction(157, 206), Fraction(31, 206)),
)


@dataclass(frozen=True)
class Ex0Report:
    """Two nearest-neighbour walks with equal harmonic class whose convex
    combinations all leave it."""

    pair: tuple[NNParams, NNParams]
    level: Fraction
    alpha_common: float
    endpoint_gap: float
    combinations: tuple[tuple[Fraction, float, float], ...]  # (t, alpha, gap)

    def as_dict(self) -> dict:
        return {
            "pair": [
                {"af": str(nn.af), "delta": str(nn.delta)} for nn in self.pair
            ],
            "phi_level": str(self.level),
            "alpha_common": self.alpha_common,
            "endpoint_alpha_gap": self.endpoint_gap,
            "combinations": [
                {"t": str(t), "alpha": a, "alpha_gap": g}
                for t, a, g in self.combinations
            ],
        }


def example_ex0(
    ts: Sequence[RationalLike] = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)),
) -> Ex0Report:
    """Certify the frozen level-set pair and the failure of its combinations.

    Both endpoints lie exactly on the same nonzero level set, hence share
    ``alpha``; each tested combination must miss the common ``alpha`` by
    more than ``1e-12``.
    """
    first, second = EX0_PAIR
    if phi(first) != EX0_LEVEL or phi(second) != EX0_LEVEL:
        raise SolverContradictionError("frozen pair left its level set")
    _, _, params1 = nn_solve(first)
    _, _, params2 = nn_solve(second)
    alpha1, alpha2 = float(params1.alpha), float(params2.alpha)
    gap_end = abs(alpha1 - alpha2)
    if gap_end > _ALPHA_GAP:
        raise SolverContradictionError("endpoints disagree on alpha")
    combos = []
    for t in ts:
        t = Fraction(t)
        mixed = first.combine(second, t)
        _, _, params_mix = nn_solve(mixed)
        gap = abs(float(params_mix.alpha) - alpha1)
        if gap <= _ALPHA_GAP:
            raise SolverContradictionError(
                f"combination t={t} failed to leave the class (gap {gap})"
            )
        combos.append((t, float(params_mix.alpha), gap))
    return Ex0Report(EX0_PAIR, EX0_LEVEL, alpha1, gap_end, tuple(combos))


@dataclass(frozen=True)
class Ex1Report:
    """Two Minkowski-filling walks whose convex combination is not filling."""

    endpoints: tuple[StepOnS, StepOnS]
    endpoint_residuals: tuple[float, float]
    t: Fraction
    combination: StepOnS
    alpha: float
    p: float
    alpha_gap: float

    def as_dict(self) -> dict:
        return {
            "endpoints": [m.to_json_dict() for m in self.endpoints],
            "endpoint_minkowski_residuals": list(self.endpoint_residuals),
            "t": str(self.t),
            "combination": self.combination.to_json_dict(),
            "alpha": self.alpha,
            "p": self.p,
            "alpha_gap": self.alpha_gap,
        }


def example_ex1(
    bbar1: RationalLike,
    bbar2: RationalLike,
    t: RationalLike = Fraction(1, 2),
) -> Ex1Report:
    """Convex combination of two distinct hyperbola points leaves the Minkowski class:
    its ``alpha`` misses ``1/2`` by more than ``1e-12``.

    The report carries the combined step distribution, ready to hand to the
    simulator for an independent confirmation.
    """
    mu1 = hyperbola_point(bbar1)
    mu2 = hyperbola_point(bbar2)
    if mu1 == mu2:
        raise ValueError(f"endpoints must differ, got bbar1 = bbar2 = {mu1.bbarf}")
    r1, r2 = float(minkowski_residual(mu1)), float(minkowski_residual(mu2))
    if max(abs(r1), abs(r2)) > 1e-12:
        raise SolverContradictionError("hyperbola endpoints are not filling")
    t = Fraction(t)
    mixed = mu1.combine(mu2, t)
    params = harmonic_params(mixed)
    gap = abs(float(params.alpha) - 0.5)
    if gap <= _ALPHA_GAP:
        raise SolverContradictionError(f"combination stayed Minkowski (gap {gap})")
    return Ex1Report(
        (mu1, mu2), (r1, r2), t, mixed, float(params.alpha), float(params.p), gap
    )


@dataclass(frozen=True)
class Ex2Report:
    """A filling walk whose convolution with its conjugate is not filling."""

    mu1: StepOnS
    mu_prime: StepOnS
    minkowski_defect: Fraction
    quadric_value: Fraction  # 2b^2 - 2b*bb - bb^2 at the fixture
    hyperbola_value: Fraction  # the same minus 2b - bb, zero on the branch
    witness: Fraction  # their difference 2b - bb, nonzero on the open branch

    def as_dict(self) -> dict:
        return {
            "mu1": self.mu1.to_json_dict(),
            "mu_prime": self.mu_prime.to_json_dict(),
            "minkowski_residual": float(self.minkowski_defect),
            "minkowski_residual_exact": str(self.minkowski_defect),
            "quadric_value": str(self.quadric_value),
            "hyperbola_value": str(self.hyperbola_value),
            "witness_2b_minus_bb": str(self.witness),
        }


def example_ex2(bbarf: RationalLike = Fraction(1, 2)) -> Ex2Report:
    """Convolution of a hyperbola point with its ``a``-conjugate leaves the class.

    The convolution has the harmonic measure of the right translate by
    ``a``, which after dropping the identity atom is again supported on the
    step set; its Minkowski condition reads ``2b^2 - 2b*bb - bb^2 = 0``,
    off the hyperbola branch by the exactly nonzero amount ``2b - bb``.
    """
    mu1 = hyperbola_point(bbarf)
    m1 = mu1.to_group_measure()
    m2 = conjugate(m1, parse_word("a"))
    product = convolve(m1, m2)
    translated = translate_right(m1, parse_word("a"))
    if product != convolve(translated, translated):
        raise SolverContradictionError("convolution identity mu1 * a mu1 a = (mu1 a)^2 failed")
    reduced = strip_identity_renormalize(translated)

    bf, bb = mu1.bf, mu1.bbarf
    scale = 2 * bf + bb
    expected = GroupMeasure(
        {
            parse_word("b"): bf / scale,
            parse_word("ba"): bf / scale,
            parse_word("Ba"): bb / scale,
        }
    )
    if reduced != expected:
        raise SolverContradictionError("reduction of mu1 a differs from the closed form")

    mu_prime = StepOnS.from_group_measure(reduced)
    defect = minkowski_residual(mu_prime)
    quadric = 2 * bf**2 - 2 * bf * bb - bb**2
    on_branch = hyperbola_equation(bf, bb)
    witness = quadric - on_branch  # identically 2 bf - bb
    if witness != 2 * bf - bb or witness == 0:
        raise SolverContradictionError("incompatibility witness degenerated")
    return Ex2Report(mu1, mu_prime, defect, quadric, on_branch, witness)
