"""Mediant (Stern-Brocot) encoding of the extended real line.

The maps ``R: z -> z+1`` and ``L: z -> z/(z+1)`` generate a binary tree of
unimodular intervals starting from ``[0, oo]``; descending left keeps the
lower endpoint and descending right keeps the upper one, with the Farey
mediant as the shared endpoint.  Finite L/R words address tree nodes,
infinite L/R words encode points of the extended positive ray, and the
involution ``z -> -1/z`` carries the encoding to the negative ray.  L/R
syllable runs translate to continued-fraction digits, so addresses come
from Euclid's algorithm and intervals are built a whole run at a time
(``R^k`` adds ``k`` times the right endpoint to the left one, ``L^k`` the
reverse).  One Euclid pass (``_cf_digits``) lists the digits of a
rational: its address takes them as runs, and :func:`rational_to_cf` takes
them as they are, so no letter string is built to get them.  The intervals
and codes built here are valid by construction, so each class's
``group._trusted`` builder stores them without the public checks.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .group import GroupWord, RationalLike, _rational, _trusted

__all__ = [
    "ExtRational",
    "MediantInterval",
    "LRCode",
    "RationalCodes",
    "lr_to_interval",
    "rational_to_lr",
    "lr_to_cf",
    "cf_to_lr",
    "cf_value",
    "rational_to_cf",
    "tau_enclosure",
]


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class ExtRational:
    """A point of the extended real line as a formal fraction ``num/den``.

    ``den >= 0`` and ``gcd(num, den) == 1``; ``1/0`` is ``+oo`` and ``-1/0``
    is ``-oo``.
    """

    num: int
    den: int

    def __post_init__(self) -> None:
        if self.den < 0:
            raise ValueError("denominator must be nonnegative")
        if self.den == 0 and self.num not in (-1, 1):
            raise ValueError("infinity must be normalized to +-1/0")
        if self.den and gcd(abs(self.num), self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not in lowest terms")

    @classmethod
    def of(cls, num: int, den: int) -> "ExtRational":
        if den == 0:
            if num == 0:
                raise ZeroDivisionError("0/0 is not a point of the extended line")
            return cls(1 if num > 0 else -1, 0)
        if den < 0:
            num, den = -num, -den
        g = gcd(abs(num), den)
        return cls(num // g, den // g)

    def as_fraction(self) -> Fraction:
        if not self.den:
            raise ValueError("infinity is not a fraction")
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    def __lt__(self, other: "ExtRational") -> bool:
        if self.den == 0 and other.den == 0:
            return self.num < other.num
        return self.num * other.den < other.num * self.den

    def mediant(self, other: "ExtRational") -> "ExtRational":
        """Farey sum of the two fractions."""
        return ExtRational.of(self.num + other.num, self.den + other.den)

    def neg_reciprocal(self) -> "ExtRational":
        """The involution ``z -> -1/z`` (monotone on each open ray)."""
        return ExtRational.of(-self.den, self.num)


@dataclass(frozen=True, slots=True)
class MediantInterval:
    """A unimodular interval ``[left, right]`` of the extended line.

    Unimodularity means ``right.num * left.den - left.num * right.den == 1``,
    which every node of the mediant tree satisfies; images under ``z -> -1/z``
    keep the property.
    """

    left: ExtRational
    right: ExtRational

    def __post_init__(self) -> None:
        if not self.left < self.right:
            raise ValueError(f"endpoints out of order: {self.left} >= {self.right}")
        det = self.right.num * self.left.den - self.left.num * self.right.den
        if det != 1:
            raise ValueError(f"interval [{self.left}, {self.right}] is not unimodular")

    def mediant(self) -> ExtRational:
        return self.left.mediant(self.right)

    def neg_reciprocal(self) -> "MediantInterval":
        return MediantInterval(self.left.neg_reciprocal(), self.right.neg_reciprocal())

    def __str__(self) -> str:
        return f"{self.left}..{self.right}"


def _check_lr(word: str) -> None:
    if type(word) is str and not word.strip("LR"):  # no other letter
        return
    if not isinstance(word, str):
        raise ValueError(f"an L/R word must be a string, got {word!r}")
    bad = set(word) - {"L", "R"}
    if bad:
        raise ValueError(f"invalid L/R letters {sorted(bad)} in {word!r}")


def lr_to_interval(word: str) -> MediantInterval:
    """Interval addressed by a finite L/R word, starting from ``[0, oo]``."""
    _check_lr(word)
    ln, ld, rn, rd = 0, 1, 1, 0  # the root interval [0/1, 1/0]
    for run in _RUN.findall(word):
        k = len(run)
        if run[0] == "R":
            ln, ld = ln + k * rn, ld + k * rd
        else:
            rn, rd = rn + k * ln, rd + k * ld
    # each run keeps the determinant 1, so the endpoints are in lowest terms and in order
    return _mediant_interval(_ext_rational(ln, ld), _ext_rational(rn, rd))


@dataclass(frozen=True, slots=True)
class LRCode:
    """An eventually constant infinite L/R word: ``stem`` then ``tail`` forever."""

    stem: str
    tail: str

    def __post_init__(self) -> None:
        _check_lr(self.stem)
        if self.tail not in ("L", "R"):
            raise ValueError("tail must be 'L' or 'R'")

    def __str__(self) -> str:
        return f"{self.stem}({self.tail})^oo"


# Builders (group._trusted) of lr_to_interval's and rational_to_lr's results.
_ext_rational, _mediant_interval, _lr_code = map(_trusted, (ExtRational, MediantInterval, LRCode))


class RationalCodes(NamedTuple):
    stem: str
    left: LRCode  # ends with R repeated forever
    right: LRCode  # ends with L repeated forever


def rational_to_lr(q: RationalLike) -> RationalCodes:
    """Mediant-tree address of a positive rational.

    Returns the finite word ``w`` whose interval has mediant ``q`` together
    with the two infinite codes of ``q``: the left one ``w L R^oo`` and the
    right one ``w R L^oo``.
    """
    digits = _cf_digits(_positive(q))
    digits[-1] -= 1  # R^a0 L^a1 R^a2 ... over Euclid's digits [a0; a1, ..., an - 1] is w
    word = _syllables(digits, sum(digits) + 1)  # each code's stem has one letter more
    return RationalCodes(word, _lr_code(word + "L", "R"), _lr_code(word + "R", "L"))


# Most letters of an L/R string built from digits: the letter count is checked
# before any string is built, so 2**80 letters are refused, not attempted.
_LETTER_LIMIT = 10**8


def _syllables(digits: Sequence[int], letters: int) -> str:
    """``R^d0 L^d1 R^d2 ...``; ``ValueError`` if ``letters``, the longest word built, is over the limit."""
    if letters > _LETTER_LIMIT:
        raise ValueError(f"the L/R word would have {letters} letters, over the limit of {_LETTER_LIMIT}")
    return "".join(["RL"[i % 2] * d for i, d in enumerate(digits)])


def _positive(q: RationalLike) -> Fraction:
    q = _rational(q, "q")
    if q.numerator <= 0:
        raise ValueError(f"need a positive rational, got {q}")
    return q


def _cf_digits(q: Fraction) -> list[int]:
    """Euclid's digits ``q = [a0; a1, ..., an]`` of a positive rational;
    ``an >= 2`` unless ``q`` is an integer."""
    num, den = q.as_integer_ratio()
    digits = []
    while den:
        digits.append(num // den)
        num, den = den, num % den
    return digits


_RUN = re.compile("L+|R+")  # findall gives a word's syllable runs


def lr_to_cf(word: str) -> tuple[int, ...]:
    """Continued-fraction digits of a finite L/R word, one digit per syllable run.

    The first digit counts the leading run of R (zero for words starting
    with L).  An infinite code reads its digits from its stem: its constant
    tail adds a vanishing ``1/oo`` term, so truncation is exact.
    """
    _check_lr(word)
    runs = _RUN.findall(word)
    if not runs:
        return ()
    digits = []
    if runs[0][0] == "L":
        digits.append(0)
    digits.extend(map(len, runs))
    return tuple(digits)


def _check_digits(digits: Sequence[int]) -> None:
    """The one digit check: every digit is an ``int`` (not a bool), none is
    negative, and only the first may be 0."""
    for i, d in enumerate(digits):
        if not isinstance(d, int) or isinstance(d, bool):  # true and false are not digits
            raise ValueError(f"digit {d!r} at position {i} is not an integer")
        if d < 0 or (i > 0 and d == 0):
            raise ValueError(f"digit {d} at position {i}: only the first digit may be 0")


def cf_to_lr(digits: Sequence[int]) -> str:
    """Inverse of :func:`lr_to_cf` on finite words: digits back to syllables."""
    _check_digits(digits)
    return _syllables(digits, sum(digits))


def cf_value(digits: Sequence[int]) -> Fraction:
    """Value of a finite continued fraction ``[d0; d1, d2, ...]``."""
    if not digits:
        raise ValueError("empty continued fraction")
    _check_digits(digits)
    value = Fraction(digits[-1])
    for d in reversed(digits[:-1]):
        value = d + 1 / value
    return value


def rational_to_cf(q: RationalLike) -> tuple[int, ...]:
    """Continued-fraction digits of a positive rational's right code.

    These are the runs of ``w R L^oo`` (:func:`lr_to_cf`), so the last digit
    is 1 unless ``w`` ends in ``R``: ``1/2`` gives ``(0, 1, 1)``, not the
    canonical ``(0, 2)``.  :func:`cf_value` of the digits is ``q``.  They are
    Euclid's digits of ``q``, the last one split as ``(an - 1, 1)`` when their
    count is even (``w`` ends in ``L``), so the cost is bounded by the digit count.
    """
    digits = _cf_digits(_positive(q))
    if not len(digits) % 2:
        digits[-1:] = digits[-1] - 1, 1
    return tuple(digits)


def tau_enclosure(prefix: GroupWord) -> MediantInterval:
    """Interval of the extended line enclosing the image of a boundary prefix.

    Prefixes starting with ``a`` map into the positive ray through the
    mediant tree, letter pair by letter pair: ``ab -> R`` and ``aB -> L``,
    and a trailing lone ``a`` carries no information.  Prefixes starting
    with ``b`` or ``B`` are handled by equivariance under ``z -> -1/z`` and
    land on the negative ray.
    """
    s = prefix.letters
    if not s:
        raise ValueError("the empty prefix encloses the whole boundary")
    if s[0] == "a":
        return lr_to_interval(s[1::2].replace("b", "R").replace("B", "L"))
    inner = tau_enclosure(GroupWord("a" + s))
    return inner.neg_reciprocal()
