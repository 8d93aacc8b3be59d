"""Cross-module consistency oracles.

The boundary encoding, the matrix homomorphism, and the cylinder action
were implemented independently of each other; here each is checked
against the others.  The image of a cylinder under the boundary map is
the image of the negative ray under the prefix matrix, and the left
action on cylinders must match the Moebius action on encoded points.
"""

import random
from fractions import Fraction

from modwalk import (
    Cylinder,
    ExtRational,
    act_on_cylinder,
    cylinders_up_to_depth,
    inverse,
    parse_word,
    tau_enclosure,
    word_to_matrix,
)

from helpers import random_word


def mobius(matrix, point: ExtRational) -> ExtRational:
    a, b, c, d = matrix
    return ExtRational.of(a * point.num + b * point.den, c * point.num + d * point.den)


def projective(point: ExtRational):
    # +oo and -oo are the same boundary point of the hyperbolic plane
    return "inf" if point.den == 0 else point.as_fraction()


class TestEnclosureMatrixOracle:
    def test_enclosure_endpoints_are_matrix_images_of_the_negative_ray(self):
        # words in the shadow of g are g.omega with omega in the complement
        # component, whose image is [-oo, 0]; so tau(C_g) = M_g([-oo, 0])
        neg_inf, zero = ExtRational(-1, 0), ExtRational(0, 1)
        for c in cylinders_up_to_depth(6):
            m = word_to_matrix(c.prefix)
            expected = {projective(mobius(m, neg_inf)), projective(mobius(m, zero))}
            iv = tau_enclosure(c.prefix)
            got = {projective(iv.left), projective(iv.right)}
            assert got == expected, (str(c), got, expected)


class TestActionMobiusOracle:
    def _sample_points(self, iv, rng, n=5):
        # rational interior points of an enclosure, found by Farey descent
        points = []
        left, right = iv.left, iv.right
        for _ in range(n):
            mid = left.mediant(right)
            points.append(mid)
            if rng.random() < 0.5:
                right = mid
            else:
                left = mid
        return points

    def test_action_matches_mobius_on_sample_points(self):
        rng = random.Random(97)
        cylinders = list(cylinders_up_to_depth(4))
        for _ in range(120):
            h = random_word(rng, 4)
            c = rng.choice(cylinders)
            m = word_to_matrix(h)
            images = act_on_cylinder(h, c)
            enclosures = [tau_enclosure(piece.prefix) for piece in images]
            # forward: encoded points of c land inside the image family
            for q in self._sample_points(tau_enclosure(c.prefix), rng):
                moved = mobius(m, q)
                assert any(iv.left <= moved <= iv.right for iv in enclosures), (
                    str(h), str(c), str(q), str(moved),
                )
            # backward: encoded points of every image pull back into c
            m_inv = word_to_matrix(inverse(h))
            home = tau_enclosure(c.prefix)
            for iv in enclosures:
                for q in self._sample_points(iv, rng, n=3):
                    back = mobius(m_inv, q)
                    assert home.left <= back <= home.right, (str(h), str(c), str(q), str(back))
