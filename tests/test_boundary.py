import math
import random
from fractions import Fraction

import pytest

from modwalk import (
    Cylinder,
    DenjoyParams,
    act_on_cylinder,
    cylinder_mass,
    cylinders_up_to_depth,
    inverse,
    parse_word,
)

from helpers import cylinder_diameter, random_word

ROOTS = tuple(cylinders_up_to_depth(1))


class TestCylinders:
    def test_canonical_form(self):
        assert Cylinder.canonical(parse_word("ab")) == Cylinder.of("aba")
        assert Cylinder.canonical(parse_word("ba")) == Cylinder.of("ba")
        with pytest.raises(ValueError):
            Cylinder.of("ab")
        with pytest.raises(ValueError):
            Cylinder.canonical(parse_word(""))

    def test_root_partition_and_children(self):
        assert tuple(str(c) for c in ROOTS) == ("a", "ba", "Ba")
        assert tuple(str(c) for c in Cylinder.of("a").children()) == ("aba", "aBa")
        assert tuple(str(c) for c in Cylinder.of("ba").children()) == ("baba", "baBa")

    def test_depth_counts(self):
        # a cylinder's depth is the number of letters a in its prefix
        depths = [str(c).count("a") for c in cylinders_up_to_depth(3)]
        assert [depths.count(d) for d in (1, 2, 3)] == [3, 6, 12]
        assert len(list(cylinders_up_to_depth(3))) == 21

    def test_diameter(self):
        assert cylinder_diameter(Cylinder.of("a")) == pytest.approx(math.exp(-1))
        assert cylinder_diameter(Cylinder.of("aba")) == pytest.approx(math.exp(-3))


class TestAction:
    def test_examples(self):
        a, b = parse_word("a"), parse_word("b")
        assert tuple(map(str, act_on_cylinder(a, Cylinder.of("a")))) == ("Ba", "ba")
        # the images of the refined pieces, sorted
        assert tuple(map(str, act_on_cylinder(a, Cylinder.of("ba")))) == ("abaBa", "ababa")
        assert tuple(map(str, act_on_cylinder(b, Cylinder.of("Ba")))) == ("aBa", "aba")

    def test_identity_action(self):
        c = Cylinder.of("baba")
        assert act_on_cylinder(parse_word(""), c) == (c,)

    def test_images_partition_boundary(self):
        # the image family of the root partition has total mass 1 under any
        # member of the measure family, and the images are pairwise disjoint
        rng = random.Random(17)
        d = DenjoyParams(Fraction(2, 7), Fraction(3, 11))
        for _ in range(60):
            h = random_word(rng, 5)
            pieces = [
                piece for c in ROOTS for piece in act_on_cylinder(h, c)
            ]
            assert sum(cylinder_mass(d, piece) for piece in pieces) == 1
            for i, p in enumerate(pieces):
                for q in pieces[i + 1 :]:
                    assert not str(p).startswith(str(q)) and not str(q).startswith(str(p))

    def test_inverse_action_returns_home(self):
        rng = random.Random(19)
        d = DenjoyParams(Fraction(1, 3), Fraction(2, 5))
        for _ in range(60):
            h = random_word(rng, 4)
            c = rng.choice(list(cylinders_up_to_depth(3)))
            forward = act_on_cylinder(h, c)
            back = [
                piece
                for image in forward
                for piece in act_on_cylinder(inverse(h), image)
            ]
            assert all(str(piece).startswith(str(c)) for piece in back)
            assert sum(cylinder_mass(d, piece) for piece in back) == cylinder_mass(d, c)

    def test_mass_is_preserved_piecewise(self):
        # kappa(h C) computed from the image family equals the pullback sum
        rng = random.Random(23)
        d = DenjoyParams(Fraction(1, 2), Fraction(1, 3))
        for _ in range(40):
            h = random_word(rng, 3)
            for c in ROOTS:
                pieces = act_on_cylinder(h, c)
                total = sum(cylinder_mass(d, piece) for piece in pieces)
                assert 0 < total <= 1
