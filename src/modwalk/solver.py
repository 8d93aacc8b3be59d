"""Passage probabilities and harmonic-measure parameters for walks with
steps in ``{a, b, B, ba, Ba}``.

For a non-degenerate step distribution on this set the passage probabilities
``x = pi_a``, ``y = pi_ba``, ``ybar = pi_Ba`` satisfy a three-equation
stationarity system whose unique solution in the open unit cube has
``y + ybar = 1``: the weights ``denjoy.PiWeights`` of the harmonic measure,
which ``denjoy.pi_to_params`` realizes in the Denjoy family.  The system is
written once, as a table of integer rows over the weights' common denominator
(``_passage_rows``): eliminating ``x`` from its last two rows gives the
quadratic in ``y`` (``_y_equation_integers``), ``x`` solves its first row,
and the residuals are the rows' numerators (``_row_numerator``).  One
routine, ``_quadratic_root``, finds ``y`` and the hyperbola family's root:
rational roots exactly, and an irrational root as the midpoint of the dyadic
bisection enclosure that brackets it, computed in closed form from one
integer square root (``_bisection_midpoint``).  A solve stays on integers
until it builds the ``Fraction``s it returns.

Also here: the Denjoy/Minkowski membership residuals, the level-set
function ``phi`` of nearest-neighbour walks (equal ``phi`` means the same
class, unequal ``phi`` means different classes), the hyperbola family of
Minkowski-filling measures with a two-letter step, and the three
compound-walk counterexample reports, which decide their class claims
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, isqrt
from numbers import Integral
from typing import Mapping, Sequence

from .denjoy import DenjoyParams, PiWeights, Scalar, _check_open_unit, _real_between, pi_to_params
from .group import (
    GroupMeasure,
    RationalLike,
    _integer_masses,
    _provably_degenerate,
    _rational,
    _require_probability,
    _trusted,
    _unit_mass,
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
    "S_WORDS",
    "solve_master",
    "residual",
    "harmonic_params",
    "denjoy_membership_residual",
    "minkowski_residual",
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
    _core: tuple[int, ...] = field(init=False, repr=False, compare=False)  # _integer_masses, for the solver

    def __post_init__(self) -> None:
        for name in ("af", "bf", "bbarf", "bprime", "bbarprime"):
            object.__setattr__(self, name, _weight(getattr(self, name)))
        object.__setattr__(self, "_core", _integer_masses(self.as_tuple()))
        if not _unit_mass(self._core):
            raise ValueError(f"weights must sum to 1, got {sum(self.as_tuple())}")
        if _provably_degenerate(w for w, m in zip(S_WORDS, self.as_tuple()) if m):
            raise DegenerateStepError(
                "support contained in {a}, {b, B}, or {ba, Ba} does not generate"
            )

    def as_tuple(self) -> tuple[Fraction, ...]:
        return (self.af, self.bf, self.bbarf, self.bprime, self.bbarprime)

    def combine(self, other: "StepOnS", t: RationalLike) -> "StepOnS":
        """Convex combination ``t * self + (1-t) * other``."""
        t = _rational(t, "t")
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


def _passage_rows(weights: tuple[int, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """Rows ``(p, p0, q, q0)`` of the ``x``, ``y``, ``ybar = 1 - y`` passage equations, from
    ``mu._core``: ``D`` times right side minus left is ``x P(y) + Q(y)``, ``P = p y + p0``,
    ``Q = q y + q0``."""
    D, af, bf, bb, bp, bbp = weights
    return (
        (bbp - bp, bp - D, bb - bf, af + bf),
        (af - bbp, bf + bbp, -(D + bb), bb + bp),
        (bp - af, af + bb, D + bf, bbp - D),
    )


def _row_numerator(row: tuple[int, ...], X: int, N: int, Y: int, M: int) -> int:
    """``M N`` times a row at ``x = X/N``, ``y = Y/M``: its residual's numerator over ``D M N``."""
    p, p0, q, q0 = row
    return X * (p * Y + p0 * M) + N * (q * Y + q0 * M)


def _y_quadratic(rows: Sequence[tuple[int, ...]]) -> tuple[int, int, int]:
    """Rows 2 and 3 with ``x`` eliminated: ``P2 Q3 - P3 Q2 = A t^2 + B t + C``, as ``(A, B, C)``."""
    _, (p2, p20, q2, q20), (p3, p30, q3, q30) = rows
    return (
        p2 * q3 - p3 * q2,
        p2 * q30 + p20 * q3 - p3 * q20 - p30 * q2,
        p20 * q30 - p30 * q20,
    )


def _y_equation_integers(weights: tuple[int, ...]) -> tuple[int, int, int]:
    """``D^2`` times the coefficients of the quadratic ``A t^2 + B t + C`` in ``y``."""
    return _y_quadratic(_passage_rows(weights))


def denjoy_membership_residual(mu: StepOnS, alpha: Scalar) -> Scalar:
    """Signed defect of the membership relation at ``alpha``.

    Zero exactly when the harmonic measure of ``mu`` lies in the class with
    parameter ``alpha``; exact rational for rational ``alpha``.
    """
    _check_open_unit(alpha, "alpha")
    A, B, C = _y_equation_integers(mu._core)
    return ((A * alpha + B) * alpha + C) / mu._core[0] ** 2


def minkowski_residual(mu: StepOnS) -> Fraction:
    """Membership residual at ``alpha = 1/2``; exact, zero iff Minkowski-filling."""
    return denjoy_membership_residual(mu, Fraction(1, 2))


def _bisection_midpoint(coeffs: tuple[int, int, int], hi: Fraction, width: tuple[int, int]) -> Fraction:
    """Midpoint of the enclosure that bisecting ``[0, hi]`` to ``width`` ends on.

    ``width`` is a positive ratio ``(num, den)`` of integers, in any terms.

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
    u, v = hi.as_integer_ratio()
    span, cell = u * width[1], v * width[0]  # hi / width = span / cell
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


def _quadratic_root(coeffs: tuple[int, int, int], hi: Fraction, width: tuple[int, int]) -> Fraction:
    """The root of ``f(t) = a t^2 + b t + c`` (integers) in ``(0, hi)``, where ``f(0) < 0 < f(hi)``.

    Exact when the discriminant is a perfect square, else ``_bisection_midpoint``
    (``a != 0`` there).  The sign change puts exactly one root in ``(0, hi)``:
    the larger root when ``a > 0`` (0 lies between the roots), the smaller when
    ``a < 0`` (``hi`` does); either way it is ``(-b + sq) / 2a = 2c / (-b - sq)``,
    and the second form is also the root ``-c/b`` of the linear case ``a = 0``.
    As ``4ac = b^2 - sq^2`` and ``c < 0``, ``-b - sq`` is never 0.
    """
    a, b, c = coeffs
    disc = b * b - 4 * a * c  # >= 0, since f has a real root
    sq = isqrt(disc)
    if sq * sq == disc:
        return Fraction(2 * c, -b - sq)
    return _bisection_midpoint(coeffs, hi, width)


_ONE = Fraction(1)  # the right end of the y-equation's bracket (0, 1)
_pi_weights = _trusted(PiWeights)  # solve_master's builder


def solve_master(mu: StepOnS, tol: float = 1e-15) -> PiWeights:
    """Unique solution of the stationarity system in the open unit cube.

    ``y`` is the root of the quadratic on ``(0, 1)`` that ``_quadratic_root``
    gives: exact when its discriminant is a rational square (in particular in
    the linear symmetric case), and otherwise the midpoint of the dyadic
    enclosure of width at most ``tol / 8`` that bisecting the guaranteed sign
    change reaches, computed directly.  ``x`` solves the first equation
    exactly at that ``y``, so its residual is 0 by construction; the other two
    residuals must stay below ``tol``, which may be any positive finite real
    number (numpy scalars included).

    Everything runs on the integer rows of ``_passage_rows``, built once: the
    quadratic is their ``_y_quadratic``, and the residuals are their
    ``_row_numerator``s over ``D M N``, so one correctly rounded division
    decides the tolerance as the float residuals would.
    """
    if not _real_between(tol, inf):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    rows = _passage_rows(mu._core)
    A, B, C = _y_quadratic(rows)
    if not C < 0 < A + B + C:  # D^2 f(0) and D^2 f(1)
        raise NoRootInCube(f"no sign change of the y-equation on (0,1) for weights {mu.as_tuple()}")

    if type(tol) is not float and isinstance(tol, Integral):  # numpy integers lack as_integer_ratio
        num, den = int(tol), 1
    else:
        num, den = tol.as_integer_ratio()
    y = _quadratic_root((A, B, C), _ONE, (num, 8 * den))  # width tol / 8

    Y, M = y.as_integer_ratio()
    p, p0, q, q0 = rows[0]
    x = Fraction(q * Y + q0 * M, -(p * Y + p0 * M))  # solves the first equation
    X, N = x.as_integer_ratio()
    if not (0 < X < N and 0 < Y < M):
        raise ValueError(f"passage probabilities must lie in (0,1), got x = {x}, y = {y}")
    worst = max(abs(_row_numerator(rows[1], X, N, Y, M)), abs(_row_numerator(rows[2], X, N, Y, M)))
    if worst / (mu._core[0] * M * N) > tol:
        raise SolverContradictionError("residuals exceed tolerance at the located root")
    return _pi_weights(x, y)  # PiWeights' checks hold: 0 < x and 0 < y < 1


def residual(mu: StepOnS, t: PiWeights) -> tuple[Fraction, Fraction, Fraction]:
    """Signed residuals (right side minus left side) of the three stationarity
    equations, exact; a float weight counts at its binary value."""
    X, N = Fraction(t.x).as_integer_ratio()
    Y, M = Fraction(t.y).as_integer_ratio()
    DMN = mu._core[0] * M * N
    return tuple(Fraction(_row_numerator(row, X, N, Y, M), DMN) for row in _passage_rows(mu._core))


def harmonic_params(mu: StepOnS) -> DenjoyParams:
    """Parameters of the harmonic measure: ``alpha = y`` and ``p < 1/2``."""
    return pi_to_params(solve_master(mu))


# ---------------------------------------------------------------------------
# Nearest-neighbour specialization: walks with no ba or Ba step, read as
# (af, delta) with delta = bf - bbarf.

def _nn_data(mu: StepOnS) -> tuple[Fraction, Fraction]:
    if mu.bprime or mu.bbarprime:
        raise ValueError(f"not a nearest-neighbour walk: ba, Ba weights {mu.bprime}, {mu.bbarprime}")
    return mu.af, mu.bf - mu.bbarf


def phi(mu: StepOnS) -> Fraction:
    """Level-set function of nearest-neighbour walks: equal values mean
    harmonic measures in the same class, unequal values different classes.

    With ``alpha`` the harmonic parameter, ``phi = (2 alpha - 1) / (4 alpha (1 - alpha))``,
    which rises strictly with ``alpha`` on (0, 1), so ``phi`` decides the
    class exactly.
    """
    af, delta = _nn_data(mu)
    return af * delta / (4 - (af + 1) ** 2 + delta**2)


# ---------------------------------------------------------------------------
# The hyperbola family: mu = (1-2b-bb) d_a + b (d_b + d_ba) + bb d_B, which is
# Minkowski-filling exactly on the branch 2b^2 - 2b*bb - bb^2 - 2b + bb = 0
# joining (0,0) to (0,1) in the (b, bb) plane.

def _branch_coefficients(bbarf: Fraction) -> tuple[int, int, int]:
    """``v^2`` times minus the branch quadratic ``2 t^2 - 2 (bbarf+1) t + bbarf - bbarf^2`` in
    ``t = bf`` as integers ``(a, b, c)``, with ``bbarf = u/v``: ``v^2 bbarf (bbarf - 1) < 0`` at 0,
    ``v^2 (1 - bbarf^2) / 2 > 0`` at ``(1 - bbarf) / 2``, discriminant ``4 v^2 (3 u^2 + v^2)``."""
    u, v = bbarf.as_integer_ratio()
    return -2 * v * v, 2 * (u + v) * v, u * (u - v)


def _hyperbola_equation(bf: Fraction, bbarf: Fraction) -> Fraction:
    a, b, c = _branch_coefficients(bbarf)
    return -((a * bf + b) * bf + c) / bbarf.denominator**2


def hyperbola_point(bbarf: RationalLike) -> StepOnS:
    """The Minkowski-filling member of the family with the given ``B`` weight.

    The branch value ``bf = ((bbarf+1) - sqrt(3 bbarf^2 + 1)) / 2`` comes from
    ``_quadratic_root``, as ``solve_master``'s ``y`` does: exactly when the
    square root is rational (``bbarf = 2m/(3 - m^2)`` for rational ``m``, such
    as 4/11, 3/13, 8/47 and 12/23; the Minkowski residual is then exactly 0),
    and otherwise as the midpoint of the bisection enclosure of width at most
    ``2^-64`` on ``[0, (1-bbarf)/2]``, tight enough that the Minkowski
    residual stays far below 1e-12.
    """
    bb = _weight(bbarf)
    if not 0 < bb < 1:
        raise ValueError(f"need 0 < bbarf < 1, got {bb}")
    bf = _quadratic_root(_branch_coefficients(bb), (1 - bb) / 2, (1, 1 << 64))
    return StepOnS(1 - 2 * bf - bb, bf, bb, bf, Fraction(0))


# ---------------------------------------------------------------------------
# Counterexample reports: equivalent endpoints whose compounds leave the class.

# Frozen level-set pair on phi = 1/8: in (af, delta), the chord through
# (1/2, 1/2) with slope -3/4 meets the level set again at (157/206, 31/206);
# both points are exact rational members, certified below by evaluating phi.
EX0_LEVEL = Fraction(1, 8)
EX0_PAIR = (
    StepOnS(Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0), Fraction(0)),
    StepOnS(Fraction(157, 206), Fraction(20, 103), Fraction(9, 206), Fraction(0), Fraction(0)),
)


@dataclass(frozen=True)
class Ex0Report:
    """Two nearest-neighbour walks with equal harmonic class whose convex
    combinations all leave it."""

    pair: tuple[StepOnS, StepOnS]
    level: Fraction
    alpha_common: float
    endpoint_gap: float
    combinations: tuple[tuple[Fraction, float, float], ...]  # (t, alpha, gap)

    def as_dict(self) -> dict:
        return {
            "pair": [
                {"af": str(af), "delta": str(delta)} for af, delta in map(_nn_data, self.pair)
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

    Both endpoints lie exactly on the same nonzero level set of ``phi``,
    hence share ``alpha``; each tested combination must lie off it, hence
    leave the class.  The reported ``alpha``s are midpoints of enclosures
    of width ``2^-73``: the correctly rounded float of the root unless it
    lies within ``2^-74`` of a rounding boundary.
    """

    def alpha(mu: StepOnS) -> float:
        return float(solve_master(mu, tol=2**-70).y)

    first, second = EX0_PAIR
    if phi(first) != EX0_LEVEL or phi(second) != EX0_LEVEL:
        raise SolverContradictionError("frozen pair left its level set")
    alpha1 = alpha(first)
    combos = []
    for t in ts:
        t = _rational(t, "t")
        mixed = first.combine(second, t)
        if phi(mixed) == EX0_LEVEL:
            raise SolverContradictionError(f"combination t={t} failed to leave the class")
        alpha_mix = alpha(mixed)
        combos.append((t, alpha_mix, abs(alpha_mix - alpha1)))
    return Ex0Report(EX0_PAIR, EX0_LEVEL, alpha1, abs(alpha1 - alpha(second)), tuple(combos))


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
    its exact Minkowski residual is nonzero, so its ``alpha`` is not ``1/2``.

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
    t = _rational(t, "t")
    mixed = mu1.combine(mu2, t)
    if minkowski_residual(mixed) == 0:
        raise SolverContradictionError("combination stayed Minkowski: its residual is 0")
    params = harmonic_params(mixed)
    alpha = float(params.alpha)
    return Ex1Report((mu1, mu2), (r1, r2), t, mixed, alpha, float(params.p), abs(alpha - 0.5))


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
    on_branch = _hyperbola_equation(bf, bb)
    witness = quadric - on_branch  # identically 2 bf - bb
    if witness != 2 * bf - bb or witness == 0:
        raise SolverContradictionError("incompatibility witness degenerated")
    return Ex2Report(mu1, mu_prime, defect, quadric, on_branch, witness)
