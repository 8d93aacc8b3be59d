"""The boundary at infinity as a space of admissible infinite words.

Cylinders are shadows of group elements; the canonical representative of a
shadow has a prefix ending in ``a`` (a shadow is unchanged by appending
``a`` to its base word).  Cylinders of a fixed depth partition the
boundary, and left translation maps cylinders to finite disjoint unions
of cylinders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .group import GroupWord, _trusted, reduce_concat

__all__ = ["Cylinder", "cylinders_up_to_depth", "act_on_cylinder"]


@dataclass(frozen=True, slots=True)
class Cylinder:
    """All infinite admissible words beginning with ``prefix`` (which ends in ``a``)."""

    prefix: GroupWord

    def __post_init__(self) -> None:
        s = self.prefix.letters
        if not s:
            raise ValueError("a cylinder needs a nonempty prefix")
        if s[-1] != "a":
            raise ValueError(f"canonical cylinder prefixes end in 'a', got {s!r}")

    @classmethod
    def of(cls, letters: str) -> "Cylinder":
        return cls(GroupWord(letters))

    @classmethod
    def _unchecked(cls, letters: str) -> "Cylinder":
        """``Cylinder.of(letters)`` without its checks, for a reduced prefix
        ending in ``a`` that the caller built as such."""
        return _cylinder(_group_word(letters))

    def __hash__(self) -> int:
        # Equal cylinders have equal prefix letters; one call of str's hash
        # replaces the generated hashes of two nested dataclasses.
        return hash(self.prefix.letters)

    @classmethod
    def canonical(cls, word: GroupWord) -> "Cylinder":
        """Canonical cylinder of the shadow of ``word`` (append ``a`` if needed)."""
        s = word.letters
        if not s:
            raise ValueError("the identity has no shadow cylinder")
        return cls(word if s[-1] == "a" else GroupWord(s + "a"))

    def children(self) -> tuple["Cylinder", "Cylinder"]:
        s = self.prefix.letters
        return (Cylinder.of(s + "ba"), Cylinder.of(s + "Ba"))

    def sort_key(self) -> tuple[int, str]:
        return self.prefix.sort_key()

    def __str__(self) -> str:
        return self.prefix.letters


_group_word, _cylinder = _trusted(GroupWord), _trusted(Cylinder)  # Cylinder._unchecked's builders


def cylinders_up_to_depth(depth: int) -> Iterator[Cylinder]:
    """Every cylinder of depth 1 to ``depth``, level by level, starting
    from the three depth-1 cylinders that partition the boundary."""
    level = [Cylinder.of("a"), Cylinder.of("ba"), Cylinder.of("Ba")]
    for _ in range(depth):
        yield from level
        level = [child for c in level for child in c.children()]


def act_on_cylinder(h: GroupWord, c: Cylinder) -> tuple[Cylinder, ...]:
    """Image ``h . c`` of a cylinder under left translation, as disjoint cylinders.

    The cylinder is refined until every refined prefix is at least two
    letters longer than ``h``, so cancellation in ``h . prefix`` can never
    swallow a whole prefix; each refined piece then maps onto a single
    cylinder.  The images of the refined pieces are returned sorted; they
    are disjoint and cover ``h . c``.
    """
    if h.is_identity():
        return (c,)
    target = len(h) + 2
    stack = [c]
    images: list[str] = []
    while stack:
        cyl = stack.pop()
        if len(cyl.prefix) < target:
            stack.extend(cyl.children())
        else:
            images.append(reduce_concat(h, cyl.prefix).letters)
    return tuple(sorted(map(Cylinder.of, images), key=Cylinder.sort_key))
