import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modwalk.mediant as mediant
from modwalk import (
    ExtRational,
    LRCode,
    MediantInterval,
    cf_to_lr,
    cf_value,
    lr_to_cf,
    lr_to_interval,
    parse_word,
    rational_to_cf,
    rational_to_lr,
    tau_enclosure,
)

from helpers import random_rational

lr_words = st.text(alphabet="LR", max_size=24)
positive_rationals = st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4))  # codes of <= 10^4 letters


class TestExtRational:
    def test_order_with_infinities(self):
        lo, hi = ExtRational(-1, 0), ExtRational(1, 0)
        mid = ExtRational(7, 3)
        assert lo < mid < hi and lo < hi
        assert not hi < hi

    def test_neg_reciprocal(self):
        assert ExtRational(0, 1).neg_reciprocal() == ExtRational(-1, 0)
        assert ExtRational(1, 0).neg_reciprocal() == ExtRational(0, 1)
        assert ExtRational(1, 2).neg_reciprocal() == ExtRational(-2, 1)
        assert ExtRational(-2, 1).neg_reciprocal() == ExtRational(1, 2)


class TestIntervals:
    def test_llr_example(self):
        iv = lr_to_interval("LLR")
        assert (str(iv.left), str(iv.right)) == ("1/3", "1/2")
        assert iv.mediant() == ExtRational(2, 5)

    def test_r_and_empty(self):
        assert str(lr_to_interval("R")) == "1/1..1/0"
        assert lr_to_interval("") == MediantInterval(ExtRational(0, 1), ExtRational(1, 0))

    def test_ll_example(self):
        iv = lr_to_interval("LL")
        assert (str(iv.left), str(iv.right)) == ("0/1", "1/2")

    @settings(derandomize=True, max_examples=300)
    @given(lr_words)
    def test_unimodular_and_nested(self, word):
        iv = lr_to_interval(word)
        det = iv.right.num * iv.left.den - iv.left.num * iv.right.den
        assert det == 1
        m = iv.mediant()
        left, right = lr_to_interval(word + "L"), lr_to_interval(word + "R")
        assert left.right == m == right.left
        assert left.left == iv.left and right.right == iv.right

    def test_depth_100_exact_big_integers(self):
        iv = lr_to_interval("LR" * 50)
        assert min(iv.left.den, iv.right.den) > 2**60  # Fibonacci-type growth


class TestRationalCodes:
    def test_two_fifths(self):
        codes = rational_to_lr(Fraction(2, 5))
        assert codes.stem == "LLR"
        assert codes.left == LRCode("LLRL", "R")
        assert codes.right == LRCode("LLRR", "L")

    def test_one(self):
        codes = rational_to_lr(1)
        assert codes.stem == ""
        assert (codes.left, codes.right) == (LRCode("L", "R"), LRCode("R", "L"))

    def test_one_third_derived(self):
        # oracle: the mediant of the interval of the returned stem is the input
        codes = rational_to_lr(Fraction(1, 3))
        assert codes.stem == "LL"
        assert lr_to_interval(codes.stem).mediant() == ExtRational(1, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rational_to_lr(0)
        with pytest.raises(ValueError):
            rational_to_lr(Fraction(-2, 5))

    def test_round_trip_random_rationals(self):
        rng = random.Random(29)
        for _ in range(1000):
            q = random_rational(rng)
            codes = rational_to_lr(q)
            assert lr_to_interval(codes.stem).mediant().as_fraction() == q
            # both infinite codes truncate into the stem's interval
            for code in (codes.left, codes.right):
                deep = lr_to_interval(code.stem + code.tail * 4)
                iv = lr_to_interval(codes.stem)
                assert iv.left <= deep.left and deep.right <= iv.right


LONG_WORD = "LR" * 50_000  # 10^5 letters


def _with_letter(bad: str, at: int) -> str:
    """``LONG_WORD`` with ``bad`` written over position ``at``."""
    return LONG_WORD[:at] + bad + LONG_WORD[at + 1 :]


class TestLetterCheck:
    """Every L/R entry point refuses a stray letter anywhere in a long word with
    the message the letter-set check has always given."""

    @pytest.mark.parametrize("at", [0, len(LONG_WORD) // 2, len(LONG_WORD) - 1], ids=["start", "middle", "end"])
    @pytest.mark.parametrize(
        "check", [lr_to_interval, lr_to_cf, lambda w: LRCode(w, "L")], ids=["lr_to_interval", "lr_to_cf", "LRCode"]
    )
    def test_bad_letter_in_a_long_word(self, check, at):
        word = _with_letter("X", at)
        with pytest.raises(ValueError) as exc:
            check(word)
        assert str(exc.value) == f"invalid L/R letters ['X'] in {word!r}"

    def test_bad_letters_are_listed_sorted(self):
        word = "x" + _with_letter("Q", len(LONG_WORD) - 1)[1:]
        with pytest.raises(ValueError) as exc:
            lr_to_interval(word)
        assert str(exc.value) == f"invalid L/R letters ['Q', 'x'] in {word!r}"

    def test_long_good_word(self):
        assert lr_to_cf(LONG_WORD) == (0,) + (1,) * len(LONG_WORD)

    @pytest.mark.parametrize(
        "check, word",
        [(lambda w: LRCode(w, "R"), ["L", "R"]), (lr_to_interval, ["L"]), (lr_to_cf, ("R", "L"))],
        ids=["LRCode", "lr_to_interval", "lr_to_cf"],
    )
    def test_words_that_are_not_strings(self, check, word):
        # a list of letters once made a list stem, or a TypeError from re
        with pytest.raises(ValueError) as exc:
            check(word)
        assert str(exc.value) == f"an L/R word must be a string, got {word!r}"


class TestValidByConstruction:
    """Intervals and codes built without the public checks pass them when
    rebuilt through the public constructors, and compare equal."""

    @settings(derandomize=True, max_examples=300)
    @given(st.text(alphabet="LR", max_size=200))
    def test_intervals(self, word):
        iv = lr_to_interval(word)
        left, right = ExtRational(iv.left.num, iv.left.den), ExtRational(iv.right.num, iv.right.den)
        assert MediantInterval(left, right) == iv

    @settings(derandomize=True, max_examples=300)
    @given(positive_rationals)
    def test_codes(self, q):
        codes = rational_to_lr(q)
        for code in (codes.left, codes.right):
            assert type(code.stem) is str and LRCode(code.stem, code.tail) == code
        assert codes.left.stem[:-1] == codes.stem == codes.right.stem[:-1]


class TestContinuedFractions:
    def test_syllable_examples(self):
        assert lr_to_cf("RRLLLR") == (2, 3, 1)
        assert lr_to_cf("LLL") == (0, 3)
        assert lr_to_cf("") == ()

    def test_infinite_code_truncation(self):
        # a code's constant tail adds a vanishing 1/oo term, so the digits of
        # its stem give its value: both classical codes of 2/5
        assert lr_to_cf("LLRR") == (0, 2, 2)
        assert lr_to_cf("LLRL") == (0, 2, 1, 1)
        assert cf_value((0, 2, 2)) == cf_value((0, 2, 1, 1)) == Fraction(2, 5)

    def test_cf_to_lr_inverse(self):
        assert cf_to_lr((2, 3, 1)) == "RRLLLR"
        assert cf_to_lr((0, 3)) == "LLL"
        assert cf_to_lr(()) == ""
        with pytest.raises(ValueError):
            cf_to_lr((1, 0, 2))

    @pytest.mark.parametrize(
        "call, arg", [(rational_to_lr, 10**10), (cf_to_lr, [0, 10**10])], ids=["rational_to_lr", "cf_to_lr"]
    )
    def test_letter_limit_refuses_before_building(self, call, arg):
        # 10^10 letters are over the limit: refused before any string of them exists
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="10000000000 letters, over the limit of 100000000"):
                call(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_letter_limit_counts_every_letter(self, monkeypatch):
        # the address R^q of q spells its q digits' letters; so does cf_to_lr
        monkeypatch.setattr(mediant, "_LETTER_LIMIT", 10)
        assert rational_to_lr(10).left == LRCode("R" * 9 + "L", "R")
        assert cf_to_lr([3, 7]) == "RRRLLLLLLL"
        for call, arg in ((rational_to_lr, 11), (rational_to_lr, Fraction(1, 11)), (cf_to_lr, [3, 8])):
            with pytest.raises(ValueError, match="11 letters, over the limit of 10"):
                call(arg)

    def test_round_trip_random_syllables(self):
        rng = random.Random(31)
        for _ in range(1000):
            digits = [rng.randint(0, 6)] + [
                rng.randint(1, 6) for _ in range(rng.randint(0, 8))
            ]
            word = cf_to_lr(digits)
            expected = tuple(digits) if (digits[0] or len(digits) > 1) else ()
            assert lr_to_cf(word) == expected

    def test_value_agrees_with_rational(self):
        rng = random.Random(37)
        for _ in range(500):
            q = random_rational(rng)
            digits = rational_to_cf(q)
            assert cf_value(digits) == q
        assert rational_to_cf(Fraction(2, 5)) == (0, 2, 2)
        assert rational_to_cf(Fraction(9, 4)) == (2, 3, 1)

    def test_cf_cost_is_bounded_by_the_digits(self):
        # read off the code, each of these digits would be a 10^9-letter run
        big = 10**9
        assert rational_to_cf(Fraction(1, big)) == (0, big - 1, 1)
        assert rational_to_cf(big) == (big,)
        assert rational_to_cf(cf_value((0, 2, big))) == (0, 2, big)  # odd count: as is
        assert rational_to_cf(cf_value((2, 3, 5, big))) == (2, 3, 5, big - 1, 1)  # even: split


class TestBoundaryCorrespondence:
    def test_letterwise_image(self):
        # ab -> R and aB -> L pair by pair; a trailing lone a adds nothing
        for letters, lr in [("aBaB", "LL"), ("ab", "R"), ("a", ""), ("abaBa", "RL")]:
            assert tau_enclosure(parse_word(letters)) == lr_to_interval(lr)

    def test_enclosure_positive_ray(self):
        assert str(tau_enclosure(parse_word("aBaB"))) == "0/1..1/2"
        assert str(tau_enclosure(parse_word("ab"))) == "1/1..1/0"
        assert str(tau_enclosure(parse_word("a"))) == "0/1..1/0"

    def test_enclosure_negative_ray(self):
        # z -> -1/z applied to the enclosure of the word prefixed with 'a'
        assert str(tau_enclosure(parse_word("BaB"))) == "-1/0..-2/1"
        assert str(tau_enclosure(parse_word("b"))) == "-1/1..0/1"
        assert str(tau_enclosure(parse_word("B"))) == "-1/0..-1/1"

    def test_enclosures_nest(self):
        rng = random.Random(41)
        for _ in range(200):
            start = rng.choice(["a", "b", "B"])
            letters = start
            for _ in range(rng.randint(1, 6)):
                letters += "a" if letters[-1] != "a" else rng.choice(["b", "B"])
            prefix = parse_word(letters)
            outer = tau_enclosure(prefix)
            extended = letters + ("a" if letters[-1] != "a" else rng.choice(["b", "B"]))
            inner = tau_enclosure(parse_word(extended))
            assert outer.left <= inner.left and inner.right <= outer.right

        with pytest.raises(ValueError):
            tau_enclosure(parse_word(""))
