"""The Minkowski-Denjoy family of boundary measures.

A pair ``(alpha, p)`` in ``(0,1)^2`` determines the measure that draws the
letters ``b`` / ``B`` of an infinite word independently with probabilities
``alpha`` / ``1-alpha`` and puts weight ``p`` on the component of words
starting with ``a`` (weight ``1-p`` on its complement).  Equivalent data:
the positive weights ``(pi_a, pi_ba, pi_Ba)`` with ``pi_ba + pi_Ba = 1``,
or the base distribution of the associated multiplicative Markov measure.

Arithmetic is exact whenever the parameters are rationals; irrational
parameters (for instance the Hausdorff normalization) go through floats.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .boundary import Cylinder, act_on_cylinder, cylinders_up_to_depth
from .group import GroupMeasure, GroupWord, _require_probability, inverse
from .mediant import _stem_runs

__all__ = [
    "Scalar",
    "DenjoyParams",
    "PiWeights",
    "MarkovBase",
    "NotNormalizedError",
    "params_to_pi",
    "pi_to_params",
    "markov_base_to_params",
    "params_to_markov_base",
    "cylinder_mass",
    "component_mass",
    "rn_derivative",
    "check_stationarity",
    "hausdorff_constants",
    "question_mark",
    "swap_involution",
]

Scalar = Union[Fraction, float]
_NORMALIZATION_TOL = 1e-12  # float weights this close to y + ybar = 1 are normalized


class NotNormalizedError(ValueError):
    """The prescribed weights admit no quasi-invariant measure."""


def _check_open_unit(value: Scalar, name: str) -> None:
    if not 0 < value < 1:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


@dataclass(frozen=True, slots=True)
class DenjoyParams:
    """Parameters of one measure of the family; ``alpha = 1/2`` is the Minkowski case."""

    alpha: Scalar
    p: Scalar

    def __post_init__(self) -> None:
        _check_open_unit(self.alpha, "alpha")
        _check_open_unit(self.p, "p")


@dataclass(frozen=True, slots=True)
class PiWeights:
    """Positive weights ``x = pi_a``, ``y = pi_ba``, ``ybar = pi_Ba`` (for a walk, its
    passage probabilities: ``solver.solve_master``); normalized means ``y + ybar = 1``."""

    x: Scalar
    y: Scalar
    ybar: Scalar

    def __post_init__(self) -> None:
        for name in ("x", "y", "ybar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def is_normalized(self) -> bool:
        defect = self.y + self.ybar - 1
        exact = isinstance(self.y, Fraction) and isinstance(self.ybar, Fraction)
        return defect == 0 if exact else abs(defect) <= _NORMALIZATION_TOL


@dataclass(frozen=True, slots=True)
class MarkovBase:
    """Base distribution on the letters ``a, b, B`` of a multiplicative Markov measure."""

    sigma_a: Scalar
    sigma_b: Scalar
    sigma_bbar: Scalar

    def __post_init__(self) -> None:
        for name in ("sigma_a", "sigma_b", "sigma_bbar"):
            _check_open_unit(getattr(self, name), name)
        total = self.sigma_a + self.sigma_b + self.sigma_bbar
        exact = all(
            isinstance(v, Fraction)
            for v in (self.sigma_a, self.sigma_b, self.sigma_bbar)
        )
        if (total != 1) if exact else (abs(total - 1) > 1e-12):
            raise ValueError(f"base weights must sum to 1, got {total}")


def params_to_pi(d: DenjoyParams) -> PiWeights:
    return PiWeights(d.p / (1 - d.p), d.alpha, 1 - d.alpha)


def pi_to_params(w: PiWeights) -> DenjoyParams:
    """The realization problem: the unique normalized measure whose Radon-Nikodym cocycle
    has weights ``w``: ``alpha = y``, ``p = x/(1+x)``; solvable exactly when ``y + ybar = 1``
    (Kolmogorov consistency of the prescribed cylinder masses), else :class:`NotNormalizedError`."""
    if not w.is_normalized():
        raise NotNormalizedError(f"y + ybar = {w.y + w.ybar}, expected 1")
    return DenjoyParams(w.y, w.x / (1 + w.x))


def markov_base_to_params(m: MarkovBase) -> DenjoyParams:
    return DenjoyParams(m.sigma_b / (m.sigma_b + m.sigma_bbar), m.sigma_a)


def params_to_markov_base(d: DenjoyParams) -> MarkovBase:
    return MarkovBase(d.p, (1 - d.p) * d.alpha, (1 - d.p) * (1 - d.alpha))


def cylinder_mass(d: DenjoyParams, c: Cylinder) -> Scalar:
    """Measure of a cylinder: ``p`` or ``1-p`` times one letter factor per ``b``/``B``."""
    s = c.prefix.letters
    mass = d.p if s[0] == "a" else 1 - d.p
    for ch in s:
        if ch == "b":
            mass = mass * d.alpha
        elif ch == "B":
            mass = mass * (1 - d.alpha)
    return mass


def component_mass(alpha: Scalar, c: Cylinder) -> Scalar:
    """Mass under the Bernoulli component carried by the ``a``-started words alone.

    This is the conditional measure of the family on its first component;
    cylinders outside that component get zero.
    """
    _check_open_unit(alpha, "alpha")
    s = c.prefix.letters
    if s[0] != "a":
        return alpha * 0
    mass = alpha / alpha  # one of matching arithmetic type
    for ch in s:
        if ch == "b":
            mass = mass * alpha
        elif ch == "B":
            mass = mass * (1 - alpha)
    return mass


def rn_derivative(d: DenjoyParams, g: GroupWord, c: Cylinder) -> Scalar:
    """Density of the translated measure against the original one on ``c``.

    Computed as the mass ratio ``mass(g^-1 c) / mass(c)``; the cylinder must
    be longer than ``|g| + 1`` letters, so that ``g^-1`` acts on it without
    refining and the pullback is a single cylinder, which makes the ratio
    independent of further refinement.
    """
    if len(c.prefix) <= len(g) + 1:
        raise ValueError(
            f"cylinder {c} is too shallow for the action of {g.letters!r}"
        )
    (pulled,) = act_on_cylinder(inverse(g), c)
    return cylinder_mass(d, pulled) / cylinder_mass(d, c)


_Monomial = tuple[bool, int, int]  # (starts with a, #b, #B) of a cylinder's mass


@functools.lru_cache(maxsize=32)
def _pullback_monomials(letters: str, depth: int) -> tuple[tuple[_Monomial, ...], ...]:
    """Mass monomials ``(starts with a, #b, #B)`` of the pieces of ``h^-1 C`` (``h`` spelled
    ``letters``), sorted, for each ``C`` in ``cylinders_up_to_depth(depth)``; they do not
    depend on params."""
    h_inv = inverse(GroupWord(letters))
    return tuple(
        tuple(sorted((s[0] == "a", s.count("b"), s.count("B")) for s in map(str, act_on_cylinder(h_inv, c))))
        for c in cylinders_up_to_depth(depth)
    )


@functools.lru_cache(maxsize=64)
def _distinct_rows(
    support: tuple[str, ...], depth: int
) -> tuple[tuple[tuple[int, _Monomial], ...], tuple[tuple[int, ...], ...]]:
    """The distinct rows of the residuals over ``cylinders_up_to_depth(depth)``.

    A cylinder's row holds its pullback monomials under the identity (table 0) and
    under each word spelled in ``support`` (table ``i + 1``); a residual depends on
    its cylinder only through its row.  Returns the distinct ``(table, monomial)``
    terms and each distinct row as the indices of its terms, one per piece."""
    rows = set(zip(*(_pullback_monomials(h, depth) for h in ("", *support))))
    terms = sorted({(t, m) for row in rows for t, pieces in enumerate(row) for m in pieces})
    index = {term: k for k, term in enumerate(terms)}
    return tuple(terms), tuple(
        sorted(tuple(index[t, m] for t, pieces in enumerate(row) for m in pieces) for row in rows)
    )


def check_stationarity(d: DenjoyParams, mu: GroupMeasure, depth: int = 8) -> float:
    """Max residual ``|nu(C) - sum_h mu(h) nu(h^-1 C)|`` over cylinders of depth <= depth.

    Exact, float params taken at their binary values: with ``alpha = n/q``, ``p = pn/pq``
    and ``W`` the lcm of the weight denominators, each residual is one integer over
    ``W pq q^K`` (``K`` the most ``b``/``B`` letters in a piece).  Cylinders with equal
    rows (``_distinct_rows``: 108 of 765 at depth 8 on the support ``{a, b, B, ba, Ba}``)
    have equal residuals, so each row is summed once, and only the largest numerator is
    divided: rounding is monotone, so that is the largest rounded residual."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _require_probability(mu, "mu")
    n, q = Fraction(d.alpha).as_integer_ratio()
    pn, pq = Fraction(d.p).as_integer_ratio()
    weights = sorted((h.letters, w) for h, w in mu.weights.items())
    W = math.lcm(*(w.denominator for _, w in weights))
    factors = (-W, *(w.numerator * (W // w.denominator) for _, w in weights))  # table 0 holds nu(C)
    terms, rows = _distinct_rows(tuple(h for h, _ in weights), depth)
    monomials = {m for _, m in terms}
    K = max(i + j for _, i, j in monomials)
    mass = {
        (first, i, j): (pn if first else pq - pn) * n**i * (q - n) ** j * q ** (K - i - j)
        for first, i, j in monomials
    }
    values = [factors[t] * mass[m] for t, m in terms]
    worst = max(abs(sum(map(values.__getitem__, row))) for row in rows)
    return worst / (W * pq * q**K)


def hausdorff_constants() -> tuple[float, DenjoyParams]:
    """Dimension and parameters of the Hausdorff measure class of the boundary.

    The ultrametric boundary has Hausdorff dimension ``ln(2)/2`` and its
    Hausdorff measure is the ``alpha = 1/2`` member with ``p = 1/(1+sqrt 2)``
    (so ``pi_a = sqrt(2)/2``, the well-scaling normalization).
    """
    dimension = math.log(2) / 2
    return dimension, DenjoyParams(Fraction(1, 2), 1 / (1 + math.sqrt(2)))


def question_mark(x: Union[Fraction, int, str], depth: int = 256) -> Fraction:
    """Minkowski's question-mark function at a rational of ``[0, 1]``.

    Reads binary digits off the right L/R code ``w R L^oo`` of ``x`` (L
    after the leading L gives 0, R gives 1); the repeating tail of a
    rational resolves exactly, so the result is an exact dyadic whenever
    ``w R`` fits within ``depth + 1`` letters, and a truncation to ``depth``
    digits otherwise.  Only those letters are built, run by run from
    Euclid's digits of ``x``, so the cost is bounded by ``depth`` however
    long the code.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if x == 0:
        return Fraction(0)
    if x == 1:
        return Fraction(1)
    word, size = [], 0
    for letter, k in itertools.chain(_stem_runs(x), [("R", 1)]):  # w R
        word.append(letter * min(k, depth + 1 - size))
        size += k
        if size > depth:
            break
    bits = "".join(word)[1:]  # the dropped tail L^oo adds nothing
    value = int(bits.replace("L", "0").replace("R", "1"), 2)
    return Fraction(value, 1 << len(bits))


def swap_involution(d: DenjoyParams) -> DenjoyParams:
    """Parameter change induced by the automorphism exchanging ``b`` and ``B``."""
    return DenjoyParams(1 - d.alpha, d.p)
