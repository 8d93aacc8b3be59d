"""The Minkowski-Denjoy family of boundary measures.

A pair ``(alpha, p)`` in ``(0,1)^2`` determines the measure that draws the
letters ``b`` / ``B`` of an infinite word independently with probabilities
``alpha`` / ``1-alpha`` and puts weight ``p`` on the component of words
starting with ``a`` (weight ``1-p`` on its complement).  Equivalent data:
the positive weights ``(pi_a, pi_ba, pi_Ba)`` with ``pi_ba + pi_Ba = 1``.

Arithmetic is exact whenever the parameters are rationals; irrational
parameters (for instance the Hausdorff normalization) go through floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .boundary import Cylinder, act_on_cylinder, cylinders_up_to_depth
from .group import (
    GroupMeasure, GroupWord, RationalLike, _integer, _integer_masses, _rational, _require_probability, inverse
)
from .mediant import _cf_digits

__all__ = [
    "Scalar",
    "DenjoyParams",
    "PiWeights",
    "pi_to_params",
    "cylinder_mass",
    "component_mass",
    "rn_derivative",
    "check_stationarity",
    "hausdorff_constants",
    "question_mark",
]

Scalar = Union[Fraction, float]


def _real_between(value: object, hi: float) -> Optional[bool]:
    """The one real-number check: ``None`` unless ``value`` is a real number
    (booleans and strings are not), else whether ``0 < value < hi``; ``hi`` is
    1 or ``inf``.  A ``Fraction``, always finite, compares its integer
    numerator and denominator; a ``float`` or an ``int`` compares directly;
    only other types reach ``numbers.Real``."""
    kind = type(value)
    if kind is Fraction:
        n = value.numerator
        return 0 < n and (hi != 1 or n < value.denominator)
    if kind is not float and kind is not int and (kind is bool or not isinstance(value, numbers.Real)):
        return None
    return 0 < value < hi


def _check_open_unit(value: Scalar, name: str) -> None:
    """The one open-interval check: ``ValueError`` unless ``value`` is a real number
    strictly between 0 and 1.  Booleans and strings are refused, not read as numbers."""
    inside = _real_between(value, 1)
    if inside is None:
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not inside:
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
    """Weights ``x = pi_a``, finite and positive, ``y = pi_ba`` in (0, 1) and
    ``ybar = pi_Ba = 1 - y`` (for a walk, its passage probabilities:
    ``solver.solve_master``).  They are normalized, ``y + ybar = 1``, by
    construction."""

    x: Scalar
    y: Scalar

    def __post_init__(self) -> None:
        if not _real_between(self.x, math.inf):
            raise ValueError(f"x must be a positive real number, got {self.x!r}")
        _check_open_unit(self.y, "y")

    @property
    def ybar(self) -> Scalar:
        return 1 - self.y


def pi_to_params(w: PiWeights) -> DenjoyParams:
    """The realization problem: the unique measure whose Radon-Nikodym cocycle has
    weights ``w``: ``alpha = y``, ``p = x/(1+x)``.  Its cylinder masses are
    Kolmogorov-consistent because ``y + ybar = 1``.  An integer ``x`` is read
    exactly, so a rational ``x`` gives a rational ``p``; a float ``x`` whose
    ``p`` rounds to 1 (from about ``2**53`` up) raises ``ValueError``."""
    x = Fraction(int(w.x)) if isinstance(w.x, numbers.Integral) else w.x
    p = x / (1 + x)
    if p == 1:
        raise ValueError(f"x = {w.x!r} is too large: p = x/(1 + x) rounds to 1")
    return DenjoyParams(w.y, p)


def _letter_mass(mass: Scalar, alpha: Scalar, letters: str) -> Scalar:
    """``mass`` times ``alpha`` per ``b`` and ``1 - alpha`` per ``B`` of ``letters``,
    one factor at a time in letter order (a float product depends on the order)."""
    for ch in letters:
        if ch == "b":
            mass = mass * alpha
        elif ch == "B":
            mass = mass * (1 - alpha)
    return mass


def cylinder_mass(d: DenjoyParams, c: Cylinder) -> Scalar:
    """Measure of a cylinder: ``p`` or ``1-p`` times one letter factor per ``b``/``B``."""
    s = c.prefix.letters
    return _letter_mass(d.p if s[0] == "a" else 1 - d.p, d.alpha, s)


def component_mass(alpha: Scalar, c: Cylinder) -> Scalar:
    """Mass under the Bernoulli component carried by the ``a``-started words alone.

    This is the conditional measure of the family on its first component;
    cylinders outside that component get zero.
    """
    _check_open_unit(alpha, "alpha")
    s = c.prefix.letters
    if s[0] != "a":
        return alpha * 0
    return _letter_mass(alpha / alpha, alpha, s)  # from a one of matching arithmetic type


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
def _distinct_rows(support: tuple[str, ...], depth: int) -> tuple[
    tuple[_Monomial, ...], int, tuple[tuple[int, int], ...], tuple[tuple[int, ...], ...]
]:
    """The distinct rows of the residuals over ``cylinders_up_to_depth(depth)``.

    A cylinder's row holds its pullback monomials under the identity (table 0) and
    under each word spelled in ``support`` (table ``i + 1``); a residual depends on
    its cylinder only through its row.  Returns the distinct monomials, sorted; ``K``,
    the most ``b``/``B`` letters in one; the distinct terms as ``(table, monomial
    index)``; and each distinct row as the indices of its terms, one per piece."""
    rows = set(zip(*(_pullback_monomials(h, depth) for h in ("", *support))))
    terms = sorted({(t, m) for row in rows for t, pieces in enumerate(row) for m in pieces})
    monomials = sorted({m for _, m in terms})
    at = {m: k for k, m in enumerate(monomials)}
    index = {term: k for k, term in enumerate(terms)}
    return (
        tuple(monomials),
        max(i + j for _, i, j in monomials),
        tuple((t, at[m]) for t, m in terms),
        tuple(sorted(tuple(index[t, m] for t, pieces in enumerate(row) for m in pieces) for row in rows)),
    )


def check_stationarity(d: DenjoyParams, mu: GroupMeasure, depth: int = 8) -> float:
    """Max residual ``|nu(C) - sum_h mu(h) nu(h^-1 C)|`` over cylinders of depth <= depth.

    Exact, float params taken at their binary values: with ``alpha = n/q``, ``p = pn/pq``
    and ``W`` the lcm of the weight denominators, each residual is one integer over
    ``W pq q^K`` (``K`` the most ``b``/``B`` letters in a piece).  Cylinders with equal
    rows (``_distinct_rows``) have equal residuals, so each row is summed once, and only
    the largest numerator is divided: rounding is monotone, so that is the largest
    rounded residual.  Each distinct monomial's mass is one product from the power
    tables ``n^i``, ``(q-n)^j``, ``q^k``.

    Rows are built only to depth ``min(depth, D)``, ``D = L // 2 + 2`` for ``L`` the
    letters of the longest support word (18 rows at depth 3 on ``{a, b, B, ba, Ba}``,
    against 108 at depth 8), because the value at every depth ``>= D`` is the value
    at ``D``:

    - A depth-``k`` prefix has ``2k - 1`` letters (``a`` first) or ``2k``.  At
      ``k >= D`` that is at least ``L + 2``, so ``act_on_cylinder(h^-1, C)`` returns
      one piece for every support word ``h``.
    - ``reduce_concat`` rewrites only the first ``|h| + 1`` letters of the prefix, and
      a cylinder's mass is a product over its letters.  So ``nu(h^-1 C) / nu(C)``
      equals the same ratio on ``C``'s depth-``D`` ancestor ``A``.
    - Hence ``residual(C) = (nu(C) / nu(A)) residual(A)``, and
      ``|residual(C)| <= |residual(A)|``: no cylinder deeper than ``D`` raises the max.

    The max is then the same rational at every depth ``>= D``; ``K`` may differ, but
    ``int / int`` is correctly rounded, so it is the same float too."""
    depth = _integer(depth, "depth")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _require_probability(mu, "mu")
    n, q = Fraction(d.alpha).as_integer_ratio()
    pn, pq = Fraction(d.p).as_integer_ratio()
    weights = sorted((h.letters, w) for h, w in mu.weights.items())
    W, *scaled = _integer_masses(w for _, w in weights)
    factors = (-W, *scaled)  # table 0 holds nu(C)
    support = tuple(h for h, _ in weights)
    monomials, K, terms, rows = _distinct_rows(support, min(depth, max(map(len, support)) // 2 + 2))
    nb, nB, nq = (list(itertools.accumulate([r] * K, operator.mul, initial=1)) for r in (n, q - n, q))
    mass = [(pn if first else pq - pn) * nb[i] * nB[j] * nq[K - i - j] for first, i, j in monomials]
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


def question_mark(x: RationalLike, depth: int = 256) -> Fraction:
    """Minkowski's question-mark function at a rational of ``[0, 1]``.

    Reads binary digits off the right L/R code ``w R L^oo`` of ``x`` (L
    after the leading L gives 0, R gives 1); the repeating tail of a
    rational resolves exactly, so the result is an exact dyadic whenever
    ``w R`` fits within ``depth + 1`` letters, and a truncation to ``depth``
    digits otherwise.  The bits are shifted in run by run from Euclid's
    digits of ``x``, so the cost is bounded by ``depth`` however long the
    code, and no letter string is built.
    """
    depth = _integer(depth, "depth")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x = _rational(x, "x")
    n, d = x.as_integer_ratio()
    if not 0 <= n <= d:
        raise ValueError(f"need 0 <= x <= 1, got {x}")
    if n == 0:
        return Fraction(0)
    if n == d:
        return Fraction(1)
    # Euclid's digits [0; a1, ..., an] spell R^0 L^a1 R^a2 ..., which is w R but
    # for its last letter: that one is always R, so its bit is set unless cut off
    value, room = 0, depth + 1  # room: the letters still to take
    for i, digit in enumerate(_cf_digits(x)):
        k = digit if digit < room else room
        value = value << k | (0 if i % 2 else (1 << k) - 1)
        room -= k
        if k < digit:
            break
    else:
        value |= 1
    # the leading L is a 0 bit, and the dropped tail L^oo adds nothing
    return Fraction(value, 1 << (depth - room))
