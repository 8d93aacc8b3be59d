"""Exact word arithmetic in the modular group Z2 * Z3 and finitely
supported rational measures on it.

Group elements are reduced words over the alphabet ``{a, b, B}`` where
``a`` generates the order-2 factor, ``b`` the order-3 factor, and ``B``
stands for ``b^2 = b^-1``.  A word is admissible (reduced) when ``a``
alternates with letters from ``{b, B}``; the empty word is the identity.
All measure weights are arbitrary-precision rationals, so measure
identities can be tested exactly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

__all__ = [
    "GroupWord",
    "GroupMeasure",
    "IDENTITY",
    "reduce_concat",
    "inverse",
    "parse_word",
    "word_to_matrix",
    "swap_b_letters",
    "convolve",
    "translate_right",
    "conjugate",
    "strip_identity_renormalize",
]

_INVERSE_LETTER = {"a": "a", "b": "B", "B": "b"}

Matrix = tuple[int, int, int, int]

# Images of the generators in PSL(2,Z): a -> (0 -1; 1 0), b -> (0 -1; 1 1),
# B = b^2 -> (-1 -1; 1 0).  Matrices are stored row-major.
_LETTER_MATRIX: dict[str, Matrix] = {
    "a": (0, -1, 1, 0),
    "b": (0, -1, 1, 1),
    "B": (-1, -1, 1, 0),
}

WeightLike = Union[Fraction, int, str]


def _weight(value: object) -> Fraction:
    """``value`` as an exact nonnegative rational weight.  A ``Fraction``, an
    ``int``, a finite ``float`` or a string such as ``"1/3"`` converts;
    booleans, ``None``, non-finite floats, zero denominators and negative
    values raise ``ValueError``."""
    if not isinstance(value, bool):  # an int subclass: true and false are not weights
        try:
            mass = Fraction(value)
        except (TypeError, ValueError, ArithmeticError):
            pass
        else:
            if mass >= 0:
                return mass
    raise ValueError(f"weight {value!r} is not a finite nonnegative rational")


# The longest admissible prefix ('a' alternating with 'b'/'B') ends at a word's first fault.
_ADMISSIBLE = re.compile("[bB]?(?:a[bB])*a?")


def _check_letters(letters: str) -> None:
    end = _ADMISSIBLE.match(letters).end()
    if end == len(letters):
        return
    if letters[end] not in "abB":
        raise ValueError(f"invalid letter {letters[end]!r}: words use 'a', 'b', 'B'")
    raise ValueError(f"non-admissible pair {letters[end - 1 : end + 1]!r} in {letters!r}")


@dataclass(frozen=True, slots=True)
class GroupWord:
    """A reduced word of Z2 * Z3.  The empty word is the identity."""

    letters: str = ""

    def __post_init__(self) -> None:
        _check_letters(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return reduce_concat(self, other)

    def sort_key(self) -> tuple[int, str]:
        return (len(self.letters), self.letters)


IDENTITY = GroupWord("")


def _push_reduced(stack: list[str], letter: str) -> None:
    # One letter at a time keeps the stack reduced: a.a cancels, b.B and
    # B.b cancel, b.b merges to B, B.B merges to b; anything else pushes.
    if not stack:
        stack.append(letter)
        return
    top = stack[-1]
    if top == "a" or letter == "a":
        if top == letter:
            stack.pop()
        else:
            stack.append(letter)
    elif top == letter:
        stack[-1] = _INVERSE_LETTER[top]
    else:
        stack.pop()


def reduce_concat(u: GroupWord, v: GroupWord) -> GroupWord:
    """Reduced word of the product ``u v``."""
    stack = list(u.letters)
    for ch in v.letters:
        _push_reduced(stack, ch)
    return GroupWord("".join(stack))


def inverse(w: GroupWord) -> GroupWord:
    """Group inverse: reverse the word and invert each letter."""
    return GroupWord("".join(_INVERSE_LETTER[ch] for ch in reversed(w.letters)))


def _reach(words: Iterable[GroupWord]) -> tuple[float, float]:
    """Most letters 'a' and most letters 'b'/'B' that a word of the walk on
    the support ``words`` can hold: without 'a' the walk stays in the
    subgroup of 'b', without 'b'/'B' in ``{'', 'a'}``; any other support
    has no bound."""
    letters = "".join(w.letters for w in words)
    has_a, has_b = "a" in letters, bool(letters.replace("a", ""))
    if has_a and has_b:
        return math.inf, math.inf
    return int(has_a), int(has_b)


def _provably_degenerate(words: Iterable[GroupWord]) -> bool:
    """Sufficient (not complete) conditions for a support to fail to
    generate the group as a semigroup: stuck in the order-2 or the order-3
    factor (a bounded ``_reach``), or trapped in the free semigroup of words
    that start with b/B and end with a (products never cancel there)."""
    words = list(words)
    if _reach(words) != (math.inf, math.inf):
        return True
    return all(s and s[0] != "a" and s[-1] == "a" for s in map(str, words))


def parse_word(s: str) -> GroupWord:
    """Parse a word string over ``{a, b, B}``; the empty string is ``e``.

    Non-reduced strings such as ``"aa"`` or ``"bB"`` are rejected.
    """
    return GroupWord(s)


def swap_b_letters(w: GroupWord) -> GroupWord:
    """The automorphism of the group exchanging ``b`` and ``B``."""
    return GroupWord("".join(_INVERSE_LETTER[ch] for ch in w.letters))


def _mat_mul(m: Matrix, n: Matrix) -> Matrix:
    return (
        m[0] * n[0] + m[1] * n[2],
        m[0] * n[1] + m[1] * n[3],
        m[2] * n[0] + m[3] * n[2],
        m[2] * n[1] + m[3] * n[3],
    )


def canonical_sign(m: Matrix) -> Matrix:
    """Representative of ``{m, -m}`` whose first nonzero top-row entry is positive."""
    lead = m[0] if m[0] != 0 else m[1]
    if lead < 0:
        return (-m[0], -m[1], -m[2], -m[3])
    return m


def word_to_matrix(w: GroupWord) -> Matrix:
    """Canonical PSL(2,Z) matrix of a word; equal words give equal matrices."""
    m: Matrix = (1, 0, 0, 1)
    for ch in w.letters:
        m = _mat_mul(m, _LETTER_MATRIX[ch])
    return canonical_sign(m)


class GroupMeasure:
    """A finitely supported measure on the group with exact rational weights.

    Instances are immutable; zero weights are dropped on construction.
    """

    __slots__ = ("_weights",)

    def __init__(self, weights: Mapping[GroupWord, WeightLike]):
        clean: dict[GroupWord, Fraction] = {}
        for word, mass in weights.items():
            mass = _weight(mass)
            if mass:
                clean[word] = mass
        self._weights = clean

    @classmethod
    def dirac(cls, word: GroupWord) -> "GroupMeasure":
        return cls({word: Fraction(1)})

    @classmethod
    def uniform(cls, words: Iterable[GroupWord]) -> "GroupMeasure":
        words = list(words)
        if len(set(words)) != len(words):
            raise ValueError("uniform measure needs distinct atoms")
        mass = Fraction(1, len(words))
        return cls({w: mass for w in words})

    @property
    def weights(self) -> Mapping[GroupWord, Fraction]:
        return MappingProxyType(self._weights)

    def __call__(self, word: GroupWord) -> Fraction:
        return self._weights.get(word, Fraction(0))

    def support(self) -> frozenset[GroupWord]:
        return frozenset(self._weights)

    @property
    def total_mass(self) -> Fraction:
        return sum(self._weights.values(), Fraction(0))

    def is_probability(self) -> bool:
        return self.total_mass == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupMeasure):
            return NotImplemented
        return self._weights == other._weights

    def __hash__(self) -> int:
        return hash(frozenset(self._weights.items()))

    def __repr__(self) -> str:
        items = ", ".join(
            f"{w.letters!r}: {m}" for w, m in sorted(self._weights.items(), key=lambda kv: kv[0].sort_key())
        )
        return f"GroupMeasure({{{items}}})"

    def to_json_dict(self) -> dict[str, str]:
        return {
            w.letters: str(m)
            for w, m in sorted(self._weights.items(), key=lambda kv: kv[0].sort_key())
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, WeightLike]) -> "GroupMeasure":
        return cls({parse_word(k): v for k, v in data.items()})


def _require_probability(m: GroupMeasure, name: str) -> None:
    """The one total-mass check: ``ValueError`` unless ``m`` has mass 1."""
    if not m.is_probability():
        raise ValueError(f"{name} must be a probability measure (total mass {m.total_mass})")


def convolve(m1: GroupMeasure, m2: GroupMeasure) -> GroupMeasure:
    """Convolution of probability measures: mass of ``g`` is sum over ``h k = g``."""
    _require_probability(m1, "m1")
    _require_probability(m2, "m2")
    out: dict[GroupWord, Fraction] = {}
    for h, wh in m1.weights.items():
        for k, wk in m2.weights.items():
            g = reduce_concat(h, k)
            out[g] = out.get(g, Fraction(0)) + wh * wk
    return GroupMeasure(out)


def translate_right(m: GroupMeasure, g: GroupWord) -> GroupMeasure:
    """Push the mass at ``h`` to ``h g``."""
    return GroupMeasure({reduce_concat(h, g): w for h, w in m.weights.items()})


def conjugate(m: GroupMeasure, g: GroupWord) -> GroupMeasure:
    """Push the mass at ``h`` to ``g h g^-1``."""
    ginv = inverse(g)
    return GroupMeasure(
        {reduce_concat(reduce_concat(g, h), ginv): w for h, w in m.weights.items()}
    )


def strip_identity_renormalize(m: GroupMeasure) -> GroupMeasure:
    """Drop the atom at the identity and renormalize to a probability measure."""
    _require_probability(m, "m")
    at_e = m(IDENTITY)
    if at_e == 1:
        raise ValueError("measure is concentrated at the identity")
    if at_e == 0:
        return m
    rest = 1 - at_e
    return GroupMeasure(
        {w: mass / rest for w, mass in m.weights.items() if not w.is_identity()}
    )
