import dataclasses
import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwalk import (
    EX0_PAIR,
    Cylinder,
    DenjoyParams,
    ExtRational,
    GroupMeasure,
    GroupWord,
    IDENTITY,
    LRCode,
    MediantInterval,
    PiWeights,
    SimConfig,
    StepOnS,
    cf_to_lr,
    cf_value,
    component_mass,
    conjugate,
    convolve,
    denjoy_membership_residual,
    example_ex0,
    example_ex1,
    inverse,
    letter_test_power,
    parse_word,
    paths_for_power,
    question_mark,
    rational_to_cf,
    rational_to_lr,
    reduce_concat,
    strip_identity_renormalize,
    translate_right,
    word_to_matrix,
)
from modwalk import boundary, cli, denjoy, group, mediant, montecarlo, solver
from modwalk.group import _check_letters, _integer_masses, _provably_degenerate, _reach, _unit_mass

from helpers import random_word, swap_b_letters

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
        from modwalk.group import _canonical_sign, _mat_mul

        lhs = word_to_matrix(reduce_concat(u, v))
        rhs = _canonical_sign(_mat_mul(word_to_matrix(u), word_to_matrix(v)))
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
        d_a = GroupMeasure({parse_word("a"): 1})
        assert convolve(d_a, d_a) == GroupMeasure({IDENTITY: 1})
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
        e = GroupMeasure({IDENTITY: 1})
        assert convolve(m1, e) == m1
        assert convolve(e, m1) == m1
        assert convolve(m1, m2).total_mass == 1

    def test_convolve_rejects_non_probability(self):
        half = GroupMeasure({parse_word("a"): Fraction(1, 2)})
        with pytest.raises(ValueError):
            convolve(half, half)

    def test_translate_and_conjugate(self):
        b, a = parse_word("b"), parse_word("a")
        assert translate_right(GroupMeasure({b: 1}), a) == GroupMeasure({parse_word("ba"): 1})
        assert conjugate(GroupMeasure({b: 1}), a) == GroupMeasure({parse_word("aba"): 1})

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
        assert strip_identity_renormalize(m) == GroupMeasure({parse_word("a"): 1})
        no_atom = GroupMeasure({parse_word("a"): 1})
        assert strip_identity_renormalize(no_atom) == no_atom
        with pytest.raises(ValueError):
            strip_identity_renormalize(GroupMeasure({IDENTITY: 1}))

    def test_json_round_trip(self):
        m = GroupMeasure(
            {parse_word("a"): Fraction(1, 3), parse_word("ba"): Fraction(2, 3)}
        )
        assert GroupMeasure.from_json_dict(m.to_json_dict()) == m
        assert m.to_json_dict() == {"a": "1/3", "ba": "2/3"}
        decimals = GroupMeasure.from_json_dict({"a": "0.25", "b": "0.75"})
        assert decimals(parse_word("a")) == Fraction(1, 4)

    def test_uniform(self):
        a, b = parse_word("a"), parse_word("b")
        assert GroupMeasure.uniform([a, b]) == GroupMeasure({a: Fraction(1, 2), b: Fraction(1, 2)})
        with pytest.raises(ValueError, match="at least one atom"):
            GroupMeasure.uniform([])
        with pytest.raises(ValueError, match="distinct"):
            GroupMeasure.uniform([a, a])


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


def mass_cases() -> list[list[Fraction]]:
    """Seeded five-weight walks over coprime denominators: each sums to exactly 1,
    or misses 1 by ``1/10**30`` either way in its last weight."""
    rng = random.Random(2323)
    primes = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    cases = []
    for _ in range(40):
        head = [Fraction(rng.randint(1, d // 4), d) for d in rng.sample(primes, 4)]
        last = 1 - sum(head)
        for miss in (0, Fraction(1, 10**30), -Fraction(1, 10**30)):
            cases.append([*head, last + miss])
    return cases


class TestUnitMass:
    """The integer total-mass test decides as the ``Fraction`` sum does, and the
    refusals print that sum."""

    @pytest.mark.parametrize("weights", mass_cases(), ids=lambda w: str(sum(w)))
    def test_integer_test_matches_the_fraction_sum(self, weights):
        total = sum(weights)
        assert _unit_mass(_integer_masses(weights)) == (total == 1)
        m = GroupMeasure(dict(zip(map(parse_word, ("a", "b", "B", "ba", "Ba")), weights)))
        assert m.is_probability() == (total == 1)
        assert m.total_mass == total
        if total == 1:
            assert StepOnS(*weights).as_tuple() == tuple(weights)
            assert convolve(m, m).is_probability()
            return
        with pytest.raises(ValueError) as exc:
            StepOnS(*weights)
        assert str(exc.value) == f"weights must sum to 1, got {total}"
        with pytest.raises(ValueError) as exc:
            convolve(m, m)
        assert str(exc.value) == f"m1 must be a probability measure (total mass {total})"

    def test_empty_and_single_masses(self):
        assert not _unit_mass(_integer_masses([]))
        assert _unit_mass(_integer_masses([Fraction(1)]))
        assert not GroupMeasure({}).is_probability()
        assert not GroupMeasure({IDENTITY: Fraction(1, 10**30)}).is_probability()


BAD_RATIONALS = [True, None, "1/0", float("inf"), float("nan")]

# Each exact input other than a weight, with a call that reads the bad value
# and values that are otherwise valid.
RATIONAL_INPUTS = {
    "combine-t": lambda v: EX0_PAIR[0].combine(EX0_PAIR[1], v),
    "ex0-t": lambda v: example_ex0(ts=(v,)),
    "ex1-t": lambda v: example_ex1("1/2", "1/3", v),
    "question_mark-x": question_mark,
    "rational_to_lr-q": rational_to_lr,
    "rational_to_cf-q": rational_to_cf,
}
SIM_CONFIG = {"paths": 10, "steps": 400, "seed": 1, "depth": 3}
BAD_INTEGERS = {"paths": 10.5, "steps": 400.0, "seed": 1.5, "depth": 3.0}
# Each integer count outside SimConfig, read through the same coercion.
INTEGER_INPUTS = {
    "question_mark-depth": lambda v: question_mark("1/3", depth=v),
    "letter_test_power-k": lambda v: letter_test_power(0.5, 0.4, v, 10),
    "letter_test_power-n": lambda v: letter_test_power(0.5, 0.4, 3, v),
    "paths_for_power-k": lambda v: paths_for_power(0.5, 0.4, v, 0.99),
}
# Each parameter that must lie in (0, 1): numbers only, strings refused, not parsed.
OPEN_UNIT_INPUTS = {
    "DenjoyParams-alpha": lambda v: DenjoyParams(v, Fraction(1, 3)),
    "DenjoyParams-p": lambda v: DenjoyParams(Fraction(1, 2), v),
    "component_mass-alpha": lambda v: component_mass(v, Cylinder.of("a")),
    "denjoy_membership_residual-alpha": lambda v: denjoy_membership_residual(EX0_PAIR[0], v),
    "letter_test_power-alpha": lambda v: letter_test_power(v, 0.4, 3, 10),
}


def _sim_config(field):
    return lambda v: SimConfig(**{**SIM_CONFIG, field: v})


BAD_VALUES = [
    *(
        pytest.param(call, bad, id=f"{name}={bad!r}")
        for name, call in RATIONAL_INPUTS.items()
        for bad in BAD_RATIONALS
    ),
    *(
        pytest.param(_sim_config(field), bad, id=f"SimConfig-{field}={bad!r}")
        for field, value in BAD_INTEGERS.items()
        for bad in (value, True, str(SIM_CONFIG[field]), None)
    ),
    *(
        pytest.param(call, bad, id=f"{name}={bad!r}")
        for name, call in INTEGER_INPUTS.items()
        for bad in (2.5, 3.0, True, "3", None)
    ),
    *(
        pytest.param(call, bad, id=f"{name}={bad!r}")
        for name, call in OPEN_UNIT_INPUTS.items()
        for bad in ("1/2", "1/0", True, None, float("nan"), Fraction(3, 2))
    ),
    *(
        pytest.param(cf_value, digits, id=f"cf_value{digits}")
        for digits in ([1, 0], [1, -1], [-2], [2, 3, 0, 1])
    ),
    *(
        pytest.param(call, digits, id=f"{call.__name__}{digits}")
        for call in (cf_to_lr, cf_value)
        for digits in ([True, 2], [1, False], [1.5, 2], [1, 2.0], [1, "2"])
    ),
]


@pytest.mark.parametrize("call, bad", BAD_VALUES)
def test_bad_value_is_a_value_error(call, bad):
    """Exact inputs other than weights go through the same coercions and
    refuse a bad value with ``ValueError``, never another exception or a
    silently converted value."""
    with pytest.raises(ValueError):
        call(bad)


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


def _builders() -> dict[type, object]:
    """Every module-level builder that ``group._trusted`` made, by its class."""
    found = {}
    for module in (boundary, cli, denjoy, group, mediant, montecarlo, solver):
        for value in vars(module).values():
            if getattr(value, "__qualname__", "") == "_trusted.<locals>.build":
                found[inspect.getclosurevars(value).nonlocals["cls"]] = value
    return found


# For each class given to _trusted: field values its public constructor takes,
# and values it refuses.
BUILT = {
    ExtRational: ([(2, 5), (-3, 7), (0, 1), (1, 0), (-1, 0)], (2, 4)),
    MediantInterval: (
        [(ExtRational(0, 1), ExtRational(1, 0)), (ExtRational(1, 2), ExtRational(1, 1))],
        (ExtRational(1, 0), ExtRational(0, 1)),
    ),
    LRCode: ([("LRR", "L"), ("", "R")], ("LX", "Q")),
    PiWeights: ([(Fraction(3, 2), Fraction(1, 3)), (0.25, 0.5)], (Fraction(-1), Fraction(2))),
    GroupWord: ([("",), ("a",), ("baBab",)], ("aa",)),
    Cylinder: ([(GroupWord("a"),), (GroupWord("baBa"),)], (GroupWord("ab"),)),
}


class TestTrustedBuilders:
    """The builders store fields positionally, without ``__post_init__``."""

    def test_every_builder_is_listed(self):
        assert set(_builders()) == set(BUILT)

    @pytest.mark.parametrize("cls", BUILT, ids=lambda cls: cls.__name__)
    def test_slots_are_the_fields_in_order(self, cls):
        # a builder stores its arguments in slot order, so a non-field slot or
        # a reordered field would store a value under the wrong name
        assert cls.__slots__ == tuple(f.name for f in dataclasses.fields(cls))

    @pytest.mark.parametrize("cls", BUILT, ids=lambda cls: cls.__name__)
    def test_built_values_match_the_public_constructor(self, cls):
        build = _builders()[cls]
        for args in BUILT[cls][0]:
            built, public = build(*args), cls(*args)
            assert type(built) is cls
            assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(built, cls.__slots__[0], args[0])

    @pytest.mark.parametrize("cls", BUILT, ids=lambda cls: cls.__name__)
    def test_builders_skip_the_checks(self, cls):
        bad = BUILT[cls][1]
        with pytest.raises(ValueError):
            cls(*bad)
        built = _builders()[cls](*bad)
        assert tuple(getattr(built, name) for name in cls.__slots__) == bad
