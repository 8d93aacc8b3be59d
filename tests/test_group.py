import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwalk import (
    GroupMeasure,
    GroupWord,
    IDENTITY,
    StepOnS,
    conjugate,
    convolve,
    inverse,
    parse_word,
    reduce_concat,
    strip_identity_renormalize,
    swap_b_letters,
    translate_right,
    word_to_matrix,
)
from modwalk.group import _check_letters, _provably_degenerate, _reach

from helpers import random_word

words = st.builds(
    lambda moves: _product(moves),
    st.lists(st.sampled_from(["a", "b", "B"]), max_size=10),
)


def _product(moves):
    out = IDENTITY
    for ch in moves:
        out = reduce_concat(out, GroupWord(ch))
    return out


class TestWords:
    def test_concat_examples(self):
        assert reduce_concat(parse_word("b"), parse_word("B")) == IDENTITY
        assert reduce_concat(parse_word("ab"), parse_word("ba")) == parse_word("aBa")
        assert reduce_concat(parse_word("a"), parse_word("a")) == IDENTITY

    def test_inverse_examples(self):
        assert inverse(IDENTITY) == IDENTITY
        assert inverse(parse_word("ab")) == parse_word("Ba")
        assert inverse(parse_word("ba")) == parse_word("aB")

    def test_length_examples(self):
        assert len(IDENTITY) == 0
        assert len(parse_word("ba")) == 2
        assert len(parse_word("aBa")) == 3

    def test_parse_format_round_trip(self):
        for text in ("", "aBa", "bab", "Bababa"):
            assert parse_word(text).letters == text

    @pytest.mark.parametrize("bad", ["aa", "bb", "bB", "Bb", "BB", "xy", "ab b"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_word(bad)

    @settings(derandomize=True, max_examples=500)
    @given(
        st.text(alphabet="abBx\n", max_size=12)
        | st.text(alphabet="abB", max_size=12)
        | words.map(str)
    )
    def test_letter_check_matches_the_loop(self, letters):
        # The validation as it was: one loop over the letters.
        def loop(letters):
            prev = ""
            for ch in letters:
                if ch not in "abB":
                    raise ValueError(f"invalid letter {ch!r}: words use 'a', 'b', 'B'")
                if prev and (prev == "a") == (ch == "a"):
                    raise ValueError(f"non-admissible pair {prev + ch!r} in {letters!r}")
                prev = ch

        def outcome(check):
            try:
                check(letters)
            except ValueError as exc:
                return str(exc)
            return None

        assert outcome(_check_letters) == outcome(loop)

    @settings(derandomize=True, max_examples=200)
    @given(words, words, words)
    def test_associativity_identity_inverse(self, u, v, w):
        assert reduce_concat(reduce_concat(u, v), w) == reduce_concat(u, reduce_concat(v, w))
        assert reduce_concat(u, IDENTITY) == u
        assert reduce_concat(IDENTITY, u) == u
        assert reduce_concat(u, inverse(u)) == IDENTITY
        assert reduce_concat(inverse(u), u) == IDENTITY

    @settings(derandomize=True, max_examples=200)
    @given(words, words)
    def test_length_subadditive(self, u, v):
        assert len(reduce_concat(u, v)) <= len(u) + len(v)

    def test_swap_is_automorphism(self):
        rng = random.Random(5)
        for _ in range(100):
            u, v = random_word(rng), random_word(rng)
            assert swap_b_letters(reduce_concat(u, v)) == reduce_concat(
                swap_b_letters(u), swap_b_letters(v)
            )


class TestMatrices:
    def test_generator_images(self):
        assert word_to_matrix(parse_word("a")) == (0, 1, -1, 0)
        assert word_to_matrix(parse_word("ab")) == (1, 1, 0, 1)
        b = parse_word("b")
        assert word_to_matrix(reduce_concat(reduce_concat(b, b), b)) == (1, 0, 0, 1)

    @settings(derandomize=True, max_examples=200)
    @given(words, words)
    def test_homomorphism(self, u, v):
        from modwalk.group import _mat_mul, canonical_sign

        lhs = word_to_matrix(reduce_concat(u, v))
        rhs = canonical_sign(_mat_mul(word_to_matrix(u), word_to_matrix(v)))
        assert lhs == rhs

    def test_injective_up_to_length_8(self):
        level = [IDENTITY]
        seen = {word_to_matrix(IDENTITY): IDENTITY}
        words_so_far = [IDENTITY]
        for _ in range(8):
            level = [
                ext
                for w in level
                for ch in "abB"
                if len(ext := reduce_concat(w, GroupWord(ch))) == len(w) + 1
            ]
            level = sorted(set(level), key=GroupWord.sort_key)
            words_so_far.extend(level)
            for w in level:
                m = word_to_matrix(w)
                assert m not in seen, (w, seen[m])
                seen[m] = w
        assert len(seen) == len(words_so_far)


class TestMeasures:
    def test_convolve_examples(self):
        d_a = GroupMeasure.dirac(parse_word("a"))
        assert convolve(d_a, d_a) == GroupMeasure.dirac(IDENTITY)
        half = Fraction(1, 2)
        m = GroupMeasure({parse_word("b"): half, parse_word("B"): half})
        assert convolve(m, d_a) == GroupMeasure(
            {parse_word("ba"): half, parse_word("Ba"): half}
        )

    def test_convolution_square_identity(self):
        # (mu a) * (mu a) = mu * (a mu a) for any probability mu
        rng = random.Random(11)
        a = parse_word("a")
        for _ in range(100):
            support = {random_word(rng, 3) for _ in range(rng.randint(1, 4))}
            weights = [Fraction(rng.randint(1, 9)) for _ in support]
            total = sum(weights)
            mu = GroupMeasure({w: q / total for w, q in zip(support, weights)})
            lhs = convolve(translate_right(mu, a), translate_right(mu, a))
            rhs = convolve(mu, conjugate(mu, a))
            assert lhs == rhs

    def test_convolve_associative_dirac_identity(self):
        rng = random.Random(13)
        mus = []
        for _ in range(3):
            support = {random_word(rng, 2) for _ in range(rng.randint(1, 3))}
            weights = [Fraction(rng.randint(1, 5)) for _ in support]
            total = sum(weights)
            mus.append(GroupMeasure({w: q / total for w, q in zip(support, weights)}))
        m1, m2, m3 = mus
        assert convolve(convolve(m1, m2), m3) == convolve(m1, convolve(m2, m3))
        e = GroupMeasure.dirac(IDENTITY)
        assert convolve(m1, e) == m1
        assert convolve(e, m1) == m1
        assert convolve(m1, m2).total_mass == 1

    def test_convolve_rejects_non_probability(self):
        half = GroupMeasure({parse_word("a"): Fraction(1, 2)})
        with pytest.raises(ValueError):
            convolve(half, half)

    def test_translate_and_conjugate(self):
        b, a = parse_word("b"), parse_word("a")
        assert translate_right(GroupMeasure.dirac(b), a) == GroupMeasure.dirac(
            parse_word("ba")
        )
        assert conjugate(GroupMeasure.dirac(b), a) == GroupMeasure.dirac(
            parse_word("aba")
        )

    def test_translate_hyperbola_family_example(self):
        bf, bb = Fraction(1, 10), Fraction(3, 10)
        mu = GroupMeasure(
            {
                parse_word("a"): 1 - 2 * bf - bb,
                parse_word("b"): bf,
                parse_word("ba"): bf,
                parse_word("B"): bb,
            }
        )
        moved = translate_right(mu, parse_word("a"))
        assert moved == GroupMeasure(
            {
                IDENTITY: 1 - 2 * bf - bb,
                parse_word("ba"): bf,
                parse_word("b"): bf,
                parse_word("Ba"): bb,
            }
        )
        reduced = strip_identity_renormalize(moved)
        scale = 2 * bf + bb
        assert reduced == GroupMeasure(
            {
                parse_word("b"): bf / scale,
                parse_word("ba"): bf / scale,
                parse_word("Ba"): bb / scale,
            }
        )

    def test_strip_identity(self):
        m = GroupMeasure({IDENTITY: Fraction(1, 2), parse_word("a"): Fraction(1, 2)})
        assert strip_identity_renormalize(m) == GroupMeasure.dirac(parse_word("a"))
        no_atom = GroupMeasure.dirac(parse_word("a"))
        assert strip_identity_renormalize(no_atom) == no_atom
        with pytest.raises(ValueError):
            strip_identity_renormalize(GroupMeasure.dirac(IDENTITY))

    def test_json_round_trip(self):
        m = GroupMeasure(
            {parse_word("a"): Fraction(1, 3), parse_word("ba"): Fraction(2, 3)}
        )
        assert GroupMeasure.from_json_dict(m.to_json_dict()) == m
        assert m.to_json_dict() == {"a": "1/3", "ba": "2/3"}
        decimals = GroupMeasure.from_json_dict({"a": "0.25", "b": "0.75"})
        assert decimals(parse_word("a")) == Fraction(1, 4)


BAD_WEIGHTS = [True, False, None, "1/0", float("inf"), float("nan"), Fraction(-1, 2)]


class TestWeights:
    """Every constructor of a walk refuses the same weights with ValueError.
    The other weights are chosen so that the bad one read as 0 would build
    a valid walk."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda w: GroupMeasure({parse_word("a"): w}),
            lambda w: GroupMeasure.from_json_dict({"a": "1/2", "b": "1/2", "B": w}),
            lambda w: StepOnS(Fraction(1, 2), Fraction(1, 2), w, 0, 0),
            lambda w: StepOnS.from_json_dict({"a": "1/2", "b": "1/2", "bb": w}),
        ],
        ids=["GroupMeasure", "GroupMeasure.from_json_dict", "StepOnS", "StepOnS.from_json_dict"],
    )
    @pytest.mark.parametrize("bad", BAD_WEIGHTS, ids=repr)
    def test_bad_weight(self, build, bad):
        with pytest.raises(ValueError, match="is not a finite nonnegative rational"):
            build(bad)

    def test_weight_forms(self):
        m = GroupMeasure.from_json_dict({"a": 0.25, "b": "1/4", "B": 1, "ba": 0})
        assert m.to_json_dict() == {"a": "1/4", "b": "1/4", "B": "1"}
        mu = StepOnS.from_json_dict({"a": 0.5, "b": "1/4", "bb": Fraction(1, 4)})
        assert mu.as_tuple() == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), 0, 0)


class TestReach:
    @pytest.mark.parametrize(
        "support, reach, degenerate",
        [
            ([""], (0, 0), True),
            (["", "a"], (1, 0), True),
            (["b", "B"], (0, 1), True),
            (["", "b"], (0, 1), True),
            (["ba", "Ba"], (math.inf, math.inf), True),  # trapped: no product cancels
            (["a", "b"], (math.inf, math.inf), False),
            (["", "ba", "a"], (math.inf, math.inf), False),
        ],
    )
    def test_reach(self, support, reach, degenerate):
        words = [parse_word(w) for w in support]
        assert _reach(words) == reach
        assert _provably_degenerate(iter(words)) == degenerate
