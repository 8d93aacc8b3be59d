import math
import random
import time
from fractions import Fraction

import pytest

from modwalk import (
    Cylinder,
    EX0_PAIR,
    DenjoyParams,
    GroupMeasure,
    PiWeights,
    check_stationarity,
    component_mass,
    cylinder_mass,
    cylinders_up_to_depth,
    denjoy_membership_residual,
    harmonic_params,
    hausdorff_constants,
    parse_word,
    pi_to_params,
    question_mark,
    rn_derivative,
    StepOnS,
)
from modwalk import denjoy
from modwalk.boundary import act_on_cylinder
from modwalk.group import IDENTITY, inverse

from helpers import (
    cylinder_diameter,
    params_to_pi,
    random_rational,
    random_step,
    random_word,
    swap_b_letters,
    swap_involution,
)


def _reference_residuals(d, mu, depth):
    # The per-cylinder Fraction loop that check_stationarity used before its
    # cached integer form: one act_on_cylinder and one cylinder_mass per piece.
    # Yields each cylinder's rounded residual, level by level.
    pulled_by = {h: inverse(h) for h in mu.support()}
    for c in cylinders_up_to_depth(depth):
        expected = cylinder_mass(d, c)
        convolved = 0
        for h, weight in mu.weights.items():
            pulled = act_on_cylinder(pulled_by[h], c)
            for piece in pulled:
                convolved = convolved + weight * cylinder_mass(d, piece)
        yield abs(float(expected - convolved))


def _check_stationarity_reference(d, mu, depth):
    return max(_reference_residuals(d, mu, depth))


def _reference_at_each_depth(d, mu, depth):
    """``_check_stationarity_reference`` at depths 1 to ``depth`` from one pass:
    the first ``3 (2^k - 1)`` cylinders are those of depth at most ``k``."""
    residuals = list(_reference_residuals(d, mu, depth))
    return [max(residuals[: 3 * (2**k - 1)]) for k in range(1, depth + 1)]


class TestParameterizations:
    def test_pi_examples(self):
        w = params_to_pi(DenjoyParams(Fraction(1, 2), Fraction(1, 2)))
        assert (w.x, w.y, w.ybar) == (1, Fraction(1, 2), Fraction(1, 2))

    def test_hausdorff_pi_weights(self):
        _, params = hausdorff_constants()
        w = params_to_pi(params)
        assert w.x == pytest.approx(math.sqrt(2) / 2)
        assert float(w.y) == 0.5 and float(w.ybar) == 0.5
        assert params.p == pytest.approx(1 / (1 + math.sqrt(2)))

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(1000):
            d = DenjoyParams(random_rational(rng, 97), random_rational(rng, 97))
            back = pi_to_params(params_to_pi(d))
            assert back == d

    def test_pi_normalization_exact(self):
        rng = random.Random(5)
        for _ in range(200):
            w = params_to_pi(DenjoyParams(random_rational(rng), random_rational(rng)))
            assert w.y + w.ybar == 1

    def test_parameters_are_numbers(self):
        # strings are refused, not parsed; floats stay floats
        for alpha, p in (("1/0", "1/3"), ("1/2", "1/3")):
            with pytest.raises(ValueError):
                DenjoyParams(alpha, p)
        with pytest.raises(ValueError):
            denjoy_membership_residual(EX0_PAIR[0], "1/2")
        assert type(DenjoyParams(0.25, 0.5).alpha) is float
        assert type(hausdorff_constants()[1].p) is float

    def test_solve_rn_problem(self):
        good = pi_to_params(PiWeights(1, Fraction(1, 2)))
        assert good == DenjoyParams(Fraction(1, 2), Fraction(1, 2))
        hausdorff = pi_to_params(PiWeights(math.sqrt(2) / 2, 0.5))
        assert hausdorff.p == pytest.approx(1 / (1 + math.sqrt(2)))
        assert hausdorff.alpha == 0.5

    def test_pi_weights_are_normalized(self):
        w = PiWeights(Fraction(3, 2), Fraction(3, 10))
        assert w.ybar == Fraction(7, 10)
        assert PiWeights(2, 0.25).ybar == 0.75

    @pytest.mark.parametrize("x", [0, -1, Fraction(-1, 3), -0.5, True, "1/2"])
    def test_pi_weights_refuse_x(self, x):
        with pytest.raises(ValueError, match="x"):
            PiWeights(x, Fraction(1, 2))

    @pytest.mark.parametrize("y", [0, 1, Fraction(3, 2), -0.25, 1.0, True, "1/2"])
    def test_pi_weights_refuse_y(self, y):
        with pytest.raises(ValueError, match="y"):
            PiWeights(1, y)


class TestMasses:
    def test_examples(self):
        d = DenjoyParams(Fraction(2, 7), Fraction(3, 11))
        assert cylinder_mass(d, Cylinder.of("a")) == Fraction(3, 11)
        assert cylinder_mass(d, Cylinder.of("ba")) == (1 - d.p) * d.alpha
        d2 = DenjoyParams(Fraction(1, 2), Fraction(1, 3))
        assert cylinder_mass(d2, Cylinder.of("aba")) == Fraction(1, 6)

    def test_additivity_to_depth_10(self):
        d = DenjoyParams(Fraction(2, 5), Fraction(4, 9))
        assert sum(cylinder_mass(d, c) for c in cylinders_up_to_depth(1)) == 1
        for c in cylinders_up_to_depth(9):
            left, right = c.children()
            assert cylinder_mass(d, c) == cylinder_mass(d, left) + cylinder_mass(d, right)

    def test_component_mass(self):
        alpha = Fraction(1, 2)
        assert component_mass(alpha, Cylinder.of("aBa")) == Fraction(1, 2)
        assert component_mass(alpha, Cylinder.of("ba")) == 0
        assert component_mass(alpha, Cylinder.of("a")) == 1

    def test_float_masses_are_the_per_letter_product(self):
        # One factor per letter b/B, multiplied in letter order: bit for bit.
        def reference(first, alpha, letters):
            mass = first
            for ch in letters:
                if ch == "b":
                    mass = mass * alpha
                elif ch == "B":
                    mass = mass * (1 - alpha)
            return mass

        alpha, p = 0.3, 0.7
        d = DenjoyParams(alpha, p)
        for c in cylinders_up_to_depth(8):
            s = str(c)
            starts_a = s[0] == "a"
            assert cylinder_mass(d, c) == reference(p if starts_a else 1 - p, alpha, s)
            assert component_mass(alpha, c) == (reference(1.0, alpha, s) if starts_a else 0.0)


class TestRadonNikodym:
    def test_generator_closed_forms(self):
        d = DenjoyParams(Fraction(2, 7), Fraction(3, 11))
        w = params_to_pi(d)
        a, b = parse_word("a"), parse_word("b")
        inside_a = Cylinder.of("abaBa")
        inside_b = Cylinder.of("baba")
        outside_a = Cylinder.of("baBa")
        assert rn_derivative(d, a, inside_a) == 1 / w.x
        assert rn_derivative(d, b, inside_b) == w.x / w.y
        assert rn_derivative(d, a, outside_a) == w.x
        # the two remaining branches of the b-action
        assert rn_derivative(d, b, Cylinder.of("ababa")) == w.ybar / w.x
        assert rn_derivative(d, b, Cylinder.of("BaBa")) == w.y / w.ybar

    def test_constant_under_refinement(self):
        d = DenjoyParams(Fraction(3, 8), Fraction(2, 9))
        g = parse_word("ab")
        c = Cylinder.of("baba")
        value = rn_derivative(d, g, c)
        for child in c.children():
            assert rn_derivative(d, g, child) == value

    def test_shallow_cylinder_rejected(self):
        d = DenjoyParams(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            rn_derivative(d, parse_word("ab"), Cylinder.of("ba"))

    def test_quasi_invariance_mass_ratio(self):
        rng = random.Random(7)
        d = DenjoyParams(Fraction(2, 7), Fraction(3, 11))
        for _ in range(80):
            g = random_word(rng, 4)
            c = rng.choice(
                [c for c in cylinders_up_to_depth(5) if len(str(c)) > len(g.letters) + 1]
            )
            pulled = act_on_cylinder(inverse(g), c)
            lhs = sum(cylinder_mass(d, piece) for piece in pulled)
            assert lhs == rn_derivative(d, g, c) * cylinder_mass(d, c)


class TestStationarity:
    def test_dirac_identity_is_stationary_for_everything(self):
        mu = GroupMeasure({parse_word(""): 1})
        d = DenjoyParams(Fraction(2, 5), Fraction(1, 5))
        assert check_stationarity(d, mu, depth=4) == 0

    def test_harmonic_params_are_stationary(self):
        rng = random.Random(9)
        for _ in range(5):
            mu = random_step(rng)
            params = harmonic_params(mu)
            r = check_stationarity(params, mu.to_group_measure(), depth=6)
            assert r <= 1e-10

    def test_perturbed_params_are_not(self):
        rng = random.Random(10)
        mu = random_step(rng)
        params = harmonic_params(mu)
        alpha = float(params.alpha)
        shift = 0.1 if alpha < 0.85 else -0.1
        bad = DenjoyParams(alpha + shift, float(params.p))
        assert check_stationarity(bad, mu.to_group_measure(), depth=4) > 1e-3

    def test_validates_input(self):
        d = DenjoyParams(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            check_stationarity(d, GroupMeasure({parse_word("a"): Fraction(1, 2)}))

    @pytest.mark.parametrize("depth", [True, 2.5, "2", 0])
    def test_depth_must_be_a_positive_integer(self, depth):
        d = DenjoyParams(Fraction(1, 2), Fraction(2, 5))
        mu = GroupMeasure.from_json_dict({"a": "1/3", "b": "1/3", "B": "1/3"})
        with pytest.raises(ValueError, match="depth"):
            check_stationarity(d, mu, depth=depth)

    def test_matches_reference_on_harmonic_params(self):
        rng = random.Random(31)
        for _ in range(10):
            mu = random_step(rng)
            params, g = harmonic_params(mu), mu.to_group_measure()
            for depth in range(1, 7):
                r = check_stationarity(params, g, depth=depth)
                assert r == _check_stationarity_reference(params, g, depth)

    def test_matches_reference_off_the_family(self):
        rng = random.Random(32)
        mu = random_step(rng)
        params = harmonic_params(mu)
        bad = DenjoyParams((params.alpha + Fraction(1, 3)) / 2, (params.p + Fraction(2, 3)) / 2)
        r = check_stationarity(bad, mu.to_group_measure(), depth=6)
        assert r > 1e-3
        assert r == _check_stationarity_reference(bad, mu.to_group_measure(), 6)

    def test_matches_reference_with_identity_in_support(self):
        # a lazy walk has the same harmonic measure as the walk it slows down
        mu = StepOnS(Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 4), 0)
        steps = {h: w * Fraction(3, 5) for h, w in mu.to_group_measure().weights.items()}
        lazy = GroupMeasure({IDENTITY: Fraction(2, 5), **steps})
        assert IDENTITY in lazy.support()
        harmonic, off = harmonic_params(mu), DenjoyParams(Fraction(2, 7), Fraction(3, 11))
        r_harmonic, r_off = (check_stationarity(d, lazy, depth=6) for d in (harmonic, off))
        assert r_harmonic <= 1e-10 and r_off > 1e-3
        assert r_harmonic == _check_stationarity_reference(harmonic, lazy, 6)
        assert r_off == _check_stationarity_reference(off, lazy, 6)

    def test_matches_reference_with_coprime_weight_denominators(self):
        # denominators 6, 10 and 15 have no common factor, yet any two share one,
        # so the common denominator 30 is neither one of them nor their product
        mu = StepOnS(Fraction(1, 6), Fraction(3, 10), 0, 0, Fraction(8, 15))
        g = mu.to_group_measure()
        for d in (harmonic_params(mu), DenjoyParams(Fraction(2, 7), Fraction(3, 11))):
            assert check_stationarity(d, g, depth=6) == _check_stationarity_reference(d, g, 6)

    def test_float_params_agree_with_reference(self):
        # check_stationarity takes float params at their exact binary values and
        # the reference rounds every float product, so they agree to within 1e-15
        rng = random.Random(10)
        mu = random_step(rng)
        params = harmonic_params(mu)
        d = DenjoyParams(float(params.alpha) * 0.9, float(params.p))
        g = mu.to_group_measure()
        r = check_stationarity(d, g, depth=6)
        assert r > 1e-3
        assert abs(r - _check_stationarity_reference(d, g, 6)) <= 1e-15

    def test_pullback_cache_is_bounded(self):
        assert denjoy._pullback_monomials.cache_info().maxsize is not None


def _walks():
    """An S-walk, the same walk made lazy, criterion 07's 9-atom walk and a
    walk outside the family, each with params on and off its harmonic ones."""
    mu = StepOnS(Fraction(1, 5), Fraction(2, 5), Fraction(1, 10), Fraction(1, 5), Fraction(1, 10))
    steps = {h: w * Fraction(3, 5) for h, w in mu.to_group_measure().weights.items()}
    lazy = GroupMeasure({IDENTITY: Fraction(2, 5), **steps})
    nine = GroupMeasure.uniform(
        parse_word(w) for w in ("b", "ba", "ab", "aba", "B", "Ba", "aB", "aBa", "a")
    )
    outside = GroupMeasure.uniform(parse_word(w) for w in ("a", "bab", "B", "aBa"))
    off = DenjoyParams(Fraction(2, 7), Fraction(3, 11))
    half = DenjoyParams(Fraction(1, 2), Fraction(1, 2))
    return {
        "S": (mu.to_group_measure(), (harmonic_params(mu), off)),
        "lazy": (lazy, (harmonic_params(mu), off)),
        "nine-atom": (nine, (half, off)),
        "outside": (outside, (half, off)),
    }


class TestDistinctRows:
    def test_matches_reference_at_depth_8_cold_and_warm(self):
        # float params are taken at their binary values, so the reference
        # run on those values as Fractions gives the same float
        mu, (harmonic, off) = _walks()["S"]
        _, hausdorff = hausdorff_constants()
        for d in (harmonic, off, hausdorff):
            exact = DenjoyParams(Fraction(d.alpha), Fraction(d.p))
            expected = _check_stationarity_reference(exact, mu, 8)
            denjoy._distinct_rows.cache_clear()
            denjoy._pullback_monomials.cache_clear()
            cold = check_stationarity(d, mu, 8)
            warm = check_stationarity(d, mu, 8)
            assert repr(cold) == repr(warm) == repr(expected)

    def test_weight_order_does_not_matter(self):
        mu, (harmonic, off) = _walks()["nine-atom"]
        reordered = GroupMeasure(dict(reversed(list(mu.weights.items()))))
        denjoy._distinct_rows.cache_clear()
        for d in (harmonic, off):
            assert check_stationarity(d, reordered, 6) == check_stationarity(d, mu, 6)
        assert denjoy._distinct_rows.cache_info().currsize == 1  # one entry per support

    def test_full_support_has_108_rows_at_depth_8(self):
        monomials, K, terms, rows = denjoy._distinct_rows(("B", "Ba", "a", "b", "ba"), 8)
        assert len(rows) == 108
        assert len(monomials) == 89 and list(monomials) == sorted(set(monomials))
        assert K == 8 == max(i + j for _, i, j in monomials)
        assert {m for _, m in terms} == set(range(len(monomials)))
        assert len(denjoy._pullback_monomials("", 8)) == len(list(cylinders_up_to_depth(8))) == 765

    def test_row_cache_is_bounded(self):
        assert denjoy._distinct_rows.cache_info().maxsize is not None


def _capped_walks():
    """``_walks()``, two supports whose longest word has 4 letters, and three seeded
    random supports of four words, one of 4 letters and three of 1 to 4.
    Outside ``S`` there is no solver, so those take ``(1/2, 1/2)`` and params off it.
    On ``late`` the value still grows from depth 2 to 3."""
    walks = _walks()
    half = DenjoyParams(Fraction(1, 2), Fraction(1, 2))
    four = GroupMeasure.uniform(parse_word(w) for w in ("a", "b", "B", "baba"))
    walks["four-letter"] = (four, (half, DenjoyParams(Fraction(2, 7), Fraction(3, 11))))
    late = GroupMeasure.uniform(parse_word(w) for w in ("a", "b", "aBab"))
    walks["late"] = (late, (half, DenjoyParams(Fraction(1, 10), Fraction(49, 50))))
    rng = random.Random(26)
    for k in range(3):
        words = set()
        while len(words) < 4:
            w = random_word(rng, 6)
            if len(w) == 4 or words and 0 < len(w) < 4:
                words.add(w)
        weights = {w: rng.randint(1, 5) for w in words}
        total = sum(weights.values())
        mu = GroupMeasure({w: Fraction(m, total) for w, m in weights.items()})
        walks[f"random-{k}"] = (mu, (half, DenjoyParams(random_rational(rng, 20), random_rational(rng, 20))))
    return walks


def _cap(mu):
    """The depth ``D = L // 2 + 2`` at which ``check_stationarity`` stops building rows."""
    return max(len(h) for h in mu.support()) // 2 + 2


class TestDepthCap:
    @pytest.mark.parametrize("name", [
        "S", "lazy", "nine-atom", "outside", "four-letter", "late", "random-0", "random-1", "random-2",
    ])
    def test_matches_reference_at_every_depth_to_8(self, name):
        mu, params = _capped_walks()[name]
        for d in params:
            expected = _reference_at_each_depth(d, mu, 8)
            assert [check_stationarity(d, mu, depth) for depth in range(1, 9)] == expected
            # from depth D on, the value no longer changes
            assert len(set(expected[_cap(mu) - 1 :])) == 1

    def test_longer_supports_have_four_letter_words(self):
        walks = _capped_walks()
        for name in ("four-letter", "late", "random-0", "random-1", "random-2"):
            assert max(len(h) for h in walks[name][0].support()) == 4
            assert _cap(walks[name][0]) == 4
        late, (_, off) = walks["late"]
        assert check_stationarity(off, late, 2) < check_stationarity(off, late, 3)

    @pytest.mark.parametrize("name", ["S", "lazy", "four-letter"])
    def test_rows_are_built_only_to_depth_D(self, name):
        mu, (d, _) = _capped_walks()[name]
        D = _cap(mu)
        support = ("", *sorted(h.letters for h in mu.support()))
        denjoy._distinct_rows.cache_clear()
        denjoy._pullback_monomials.cache_clear()
        for depth in range(D, 9):
            check_stationarity(d, mu, depth)
        assert denjoy._distinct_rows.cache_info().currsize == 1
        # one table per word (the identity's twice for a lazy walk), each at depth D
        cold = denjoy._pullback_monomials.cache_info()
        assert cold.currsize == len(set(support))
        for h in support:
            denjoy._pullback_monomials(h, D)
        warm = denjoy._pullback_monomials.cache_info()
        assert (warm.hits - cold.hits, warm.misses, warm.currsize) == (len(support), cold.misses, cold.currsize)

    @pytest.mark.parametrize("name, counts", [
        ("S", [3, 9, 18]), ("outside", [3, 9, 20]), ("nine-atom", [3, 9, 19]),
    ])
    def test_row_counts_to_depth_D(self, name, counts):
        mu, _ = _walks()[name]
        assert _cap(mu) == 3
        support = tuple(sorted(h.letters for h in mu.support()))
        assert [len(denjoy._distinct_rows(support, depth)[3]) for depth in (1, 2, 3)] == counts


class TestHausdorff:
    def test_constants(self):
        dim, params = hausdorff_constants()
        assert dim == pytest.approx(math.log(2) / 2)
        assert params.alpha == Fraction(1, 2)
        assert params.p == pytest.approx(1 / (1 + math.sqrt(2)))

    def test_well_scaling_depth_10(self):
        dim, _ = hausdorff_constants()
        norm = 1 / math.sqrt(2)
        for c in cylinders_up_to_depth(10):
            if str(c)[0] != "a":
                continue
            lhs = norm * float(component_mass(Fraction(1, 2), c))
            rhs = cylinder_diameter(c) ** dim
            assert abs(lhs - rhs) <= 1e-12


class TestQuestionMark:
    def test_endpoints_and_symmetry_point(self):
        assert question_mark(0) == 0
        assert question_mark(1) == 1
        assert question_mark(Fraction(1, 2)) == Fraction(1, 2)

    def test_one_third_against_mass_oracle(self):
        # CDF value at 1/3: the words mapping into [0, 1/3] form the cylinder
        # with prefix aBaBaBa, and [0, 1] corresponds to prefix aBa
        alpha = Fraction(1, 2)
        oracle = component_mass(alpha, Cylinder.of("aBaBaBa")) / component_mass(
            alpha, Cylinder.of("aBa")
        )
        assert oracle == Fraction(1, 4)
        assert question_mark(Fraction(1, 3)) == oracle

    def test_classical_values(self):
        assert question_mark(Fraction(2, 5)) == Fraction(3, 8)
        assert question_mark(Fraction(3, 4)) == Fraction(7, 8)
        assert question_mark(Fraction(1, 4)) == Fraction(1, 8)

    def test_monotone_and_reflection(self):
        rng = random.Random(12)
        xs = sorted({random_rational(rng) for _ in range(1000)})
        values = [question_mark(x, depth=25_000) for x in xs]
        for left, right in zip(values, values[1:]):
            assert left < right
        for x in xs[:200]:
            assert question_mark(x, depth=25_000) + question_mark(1 - x, depth=25_000) == 1

    def test_depth_truncates(self):
        exact = question_mark(Fraction(5, 7), depth=4096)
        truncated = question_mark(Fraction(5, 7), depth=3)
        assert truncated <= exact < truncated + Fraction(1, 8)

    def test_long_codes_cost_only_depth(self):
        # the right codes have 10^9 letters; only the first 65 are read
        tiny = Fraction(1, 10**9)
        start = time.perf_counter()
        assert question_mark(tiny, 64) == 0  # L^(10^9 - 1) R: all 64 bits are 0
        assert question_mark(1 - tiny, 64) == 1 - Fraction(1, 2**64)  # L R^(10^9 - 1)
        assert time.perf_counter() - start < 0.5

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            question_mark(Fraction(3, 2))
        with pytest.raises(ValueError):
            question_mark(Fraction(-1, 2))


class TestSwap:
    def test_involution(self):
        d = DenjoyParams(Fraction(2, 7), Fraction(3, 11))
        assert swap_involution(swap_involution(d)) == d
        sym = DenjoyParams(Fraction(1, 2), Fraction(1, 5))
        assert swap_involution(sym) == sym

    def test_mass_equality_under_letter_swap(self):
        rng = random.Random(14)
        d = DenjoyParams(Fraction(2, 7), Fraction(3, 11))
        swapped = swap_involution(d)
        for c in cylinders_up_to_depth(5):
            mirrored = Cylinder(swap_b_letters(c.prefix))
            assert cylinder_mass(d, c) == cylinder_mass(swapped, mirrored)
