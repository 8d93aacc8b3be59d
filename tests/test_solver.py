import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from modwalk import (
    DegenerateStepError,
    EX0_LEVEL,
    EX0_PAIR,
    PiWeights,
    StepOnS,
    denjoy_membership_residual,
    example_ex0,
    example_ex1,
    example_ex2,
    harmonic_params,
    hyperbola_point,
    minkowski_residual,
    phi,
    residual,
    solve_master,
)
from modwalk.group import _integer_masses, _provably_degenerate
from modwalk.solver import (
    S_WORDS,
    _hyperbola_equation,
    _y_equation_integers,
)

from helpers import random_nn, random_step


@dataclass(frozen=True)
class Surd:
    """Exact arithmetic in Q(sqrt(radicand)): value = r + s * sqrt(radicand)."""

    r: Fraction
    s: Fraction
    radicand: Fraction

    def _lift(self, other):
        if isinstance(other, Surd):
            assert other.radicand == self.radicand
            return other
        return Surd(Fraction(other), Fraction(0), self.radicand)

    def __add__(self, other):
        o = self._lift(other)
        return Surd(self.r + o.r, self.s + o.s, self.radicand)

    def __radd__(self, other):
        return self._lift(other) + self

    def __sub__(self, other):
        o = self._lift(other)
        return Surd(self.r - o.r, self.s - o.s, self.radicand)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return Surd(
            self.r * o.r + self.s * o.s * self.radicand,
            self.r * o.s + self.s * o.r,
            self.radicand,
        )

    def __rmul__(self, other):
        return self._lift(other) * self

    def __pow__(self, n):
        out = Surd(Fraction(1), Fraction(0), self.radicand)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self):
        return self.r == 0 and self.s == 0


SYMMETRIC = StepOnS(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(0))


class TestStepOnS:
    def test_degenerate_supports_rejected(self):
        one = Fraction(1)
        with pytest.raises(DegenerateStepError):
            StepOnS(one, 0, 0, 0, 0)
        with pytest.raises(DegenerateStepError):
            StepOnS(0, Fraction(1, 2), Fraction(1, 2), 0, 0)
        with pytest.raises(DegenerateStepError):
            StepOnS(0, 0, 0, Fraction(1, 2), Fraction(1, 2))
        # mixed supports generate
        StepOnS(0, Fraction(1, 2), 0, Fraction(1, 2), 0)

    @pytest.mark.parametrize("mask", range(1, 32))
    def test_degeneracy_is_the_simulator_rule(self, mask):
        # Every nonempty support in S at uniform weights.
        support = [w for i, w in enumerate(S_WORDS) if mask >> i & 1]
        weights = [Fraction(mask >> i & 1, len(support)) for i in range(5)]
        if _provably_degenerate(support):
            with pytest.raises(DegenerateStepError, match="does not generate"):
                StepOnS(*weights)
        else:
            assert StepOnS(*weights).to_group_measure().support() == set(support)

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            StepOnS(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 0, 0)
        with pytest.raises(ValueError):
            StepOnS(Fraction(3, 2), Fraction(-1, 2), 0, 0, 0)

    def test_json_round_trip(self):
        mu = StepOnS(Fraction(1, 3), 0, Fraction(1, 3), Fraction(1, 3), 0)
        assert StepOnS.from_json_dict(mu.to_json_dict()) == mu
        assert mu.to_json_dict() == {"a": "1/3", "b": "0", "bb": "1/3", "ba": "1/3", "bba": "0"}
        with pytest.raises(ValueError):
            StepOnS.from_json_dict({"a": "1/2", "bogus": "1/2"})

    def test_group_measure_round_trip(self):
        mu = StepOnS(Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))
        assert StepOnS.from_group_measure(mu.to_group_measure()) == mu


class TestMasterSystem:
    def test_symmetric_fixture_exact(self):
        t = solve_master(SYMMETRIC)
        assert (t.x, t.y, t.ybar) == (Fraction(2, 3), Fraction(1, 2), Fraction(1, 2))
        params = harmonic_params(SYMMETRIC)
        assert params.alpha == Fraction(1, 2)
        assert params.p == Fraction(2, 5)

    @pytest.mark.parametrize("tol", [True, "1e-15", 0, -1e-15, math.inf, math.nan])
    def test_tol_must_be_a_positive_finite_number(self, tol):
        with pytest.raises(ValueError, match="tol"):
            solve_master(EX0_PAIR[0], tol=tol)

    @pytest.mark.parametrize(
        "tol",
        [np.int64(1), np.float32(1e-6), 1, Fraction(1, 10**20), 10**400],
        ids=["int64", "float32", "int", "Fraction", "huge-int"],
    )
    def test_every_admitted_tol_solves(self, tol):
        # An irrational root, so the bisection reads tol's ratio.
        mu = StepOnS(Fraction(1, 5), Fraction(1, 7), Fraction(2, 9), Fraction(1, 11), Fraction(1192, 3465))
        t = solve_master(mu, tol)
        assert t.y.denominator & (t.y.denominator - 1) == 0  # a dyadic midpoint
        assert max(abs(float(r)) for r in residual(mu, t)) <= tol
        if tol == 1:
            assert solve_master(mu, np.int64(1)) == t

    def test_residual_detects_wrong_triple(self):
        wrong = PiWeights(Fraction(1, 2), Fraction(1, 2))
        r = residual(SYMMETRIC, wrong)
        assert r[0] != 0

    def test_residuals_and_bounds_on_random_steps(self):
        rng = random.Random(101)
        for _ in range(300):
            mu = random_step(rng)
            t = solve_master(mu)
            assert t.y + t.ybar == 1
            assert 0 < t.x < 1 and 0 < t.y < 1
            assert max(abs(float(v)) for v in residual(mu, t)) <= 1e-12
            params = harmonic_params(mu)
            assert 0 < params.p < Fraction(1, 2)

    def test_swap_equivariance(self):
        rng = random.Random(103)
        for _ in range(100):
            mu = random_step(rng)
            t = solve_master(mu)
            # the automorphism exchanging b and B swaps bf with bbarf and bprime with bbarprime
            s = solve_master(StepOnS(mu.af, mu.bbarf, mu.bf, mu.bbarprime, mu.bprime))
            assert abs(float(s.x - t.x)) < 1e-14
            assert abs(float(s.y - t.ybar)) < 1e-14

    def test_membership_residual_vanishes_at_harmonic_alpha(self):
        rng = random.Random(107)
        for _ in range(300):
            mu = random_step(rng)
            params = harmonic_params(mu)
            assert abs(float(denjoy_membership_residual(mu, params.alpha))) <= 1e-14

    def test_single_sign_change_on_grid(self):
        rng = random.Random(109)
        grid = np.linspace(0.0, 1.0, 10_001)
        for _ in range(1000):
            mu = random_step(rng)
            weights = _integer_masses(mu.as_tuple())
            A, B, C = (c / weights[0] ** 2 for c in _y_equation_integers(weights))
            values = (A * grid + B) * grid + C
            signs = np.sign(values[values != 0.0])
            assert int(np.sum(signs[1:] != signs[:-1])) == 1

    def test_alpha_roots_unique(self):
        # D^2 f(0) < 0 < D^2 f(1) for the quadratic f of y: f has an odd
        # number of roots in (0, 1), so exactly one.
        rng = random.Random(113)
        for _ in range(200):
            A, B, C = _y_equation_integers(_integer_masses(random_step(rng).as_tuple()))
            assert C < 0 < A + B + C


def nn_walk(af: Fraction, bf: Fraction, bbarf: Fraction) -> StepOnS:
    return StepOnS(af, bf, bbarf, Fraction(0), Fraction(0))


class TestNearestNeighbour:
    def test_symmetric_case(self):
        # delta = 0: phi = 0, and the walk is Minkowski with x = (1 + af) / 2
        for af in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
            mu = nn_walk(af, (1 - af) / 2, (1 - af) / 2)
            assert phi(mu) == 0
            assert solve_master(mu) == PiWeights((1 + af) / 2, Fraction(1, 2))

    def test_half_half_hand_values(self):
        # the y-quadratic is a multiple of y^2 + 3y - 2, so alpha = (sqrt(17) - 3) / 2
        mu = nn_walk(Fraction(1, 2), Fraction(1, 2), Fraction(0))
        A, B, C = _y_equation_integers(_integer_masses(mu.as_tuple()))
        assert (B, C) == (3 * A, -2 * A)
        t = solve_master(mu)
        assert float(t.y) == pytest.approx((math.sqrt(17) - 3) / 2, abs=1e-15)
        assert float(t.x) == pytest.approx((7 - math.sqrt(17)) / 4, abs=1e-15)
        assert harmonic_params(mu).alpha == t.y

    def test_agrees_with_master_solver(self):
        # phi orders nearest-neighbour walks as the master solver's alpha does:
        # sorted by exact phi, y rises strictly across each rise of phi and
        # stays put where phi does
        rng = random.Random(127)
        walks = [random_nn(rng) for _ in range(600)] + list(EX0_PAIR)
        pairs = sorted((phi(mu), solve_master(mu).y) for mu in walks)
        assert len({level for level, _ in pairs}) < len(pairs)  # some levels repeat
        for (phi1, y1), (phi2, y2) in zip(pairs, pairs[1:]):
            assert (y1 < y2) if phi1 < phi2 else (y1 == y2)
        for level, y in pairs:
            assert float(level) == pytest.approx(float((2 * y - 1) / (4 * y * (1 - y))), abs=1e-12)

    def test_phi_examples(self):
        assert phi(nn_walk(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))) == 0
        assert phi(nn_walk(Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))) == 0
        assert phi(nn_walk(Fraction(1, 2), Fraction(1, 2), Fraction(0))) == Fraction(1, 8)

    def test_equal_phi_means_equal_alpha(self):
        first, second = EX0_PAIR
        assert phi(first) == phi(second) == EX0_LEVEL
        assert harmonic_params(first).alpha == harmonic_params(second).alpha

    @pytest.mark.parametrize("function", [phi])
    @pytest.mark.parametrize("two_letter", ["ba", "Ba"])
    def test_two_letter_step_is_refused(self, function, two_letter):
        # a walk the master solver takes, with one step off {a, b, B}
        weights = {"a": "1/3", "b": "1/3", "bb": "1/6", two_letter.replace("B", "bb"): "1/6"}
        mu = StepOnS.from_json_dict(weights)
        solve_master(mu)
        with pytest.raises(ValueError, match="not a nearest-neighbour walk"):
            function(mu)


class TestHyperbola:
    def test_half_fixture(self):
        mu = hyperbola_point(Fraction(1, 2))
        assert float(mu.bf) == pytest.approx((3 - math.sqrt(7)) / 4, abs=1e-15)
        assert mu.bprime == mu.bf and mu.bbarprime == 0
        assert abs(float(minkowski_residual(mu))) <= 1e-15
        assert abs(float(_hyperbola_equation(mu.bf, mu.bbarf))) <= 1e-15

    def test_exact_rational_point(self):
        # (bf, bb) = (1/13, 3/13) lies on the branch exactly
        mu = hyperbola_point(Fraction(3, 13))
        assert mu.bf == Fraction(1, 13)
        assert _hyperbola_equation(mu.bf, mu.bbarf) == 0
        # bb = 2m/(3 - m^2) makes 3 bb^2 + 1 the square of (3 + m^2)/(3 - m^2):
        # bb = 4/11, 3/13, 8/47 and 12/23
        for m in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3)):
            bb = 2 * m / (3 - m**2)
            mu = hyperbola_point(bb)
            assert mu.bf == (bb + 1 - (3 + m**2) / (3 - m**2)) / 2
            assert minkowski_residual(mu) == 0

    def test_branch_certified_in_quadratic_field(self):
        # the true branch value ((bb+1) - sqrt(3 bb^2 + 1))/2 satisfies the
        # branch equation exactly, and the incompatibility witness 2 bf - bb
        # is exactly nonzero there
        for bb in (Fraction(1, 2), Fraction(1, 3), Fraction(4, 5)):
            radicand = 3 * bb**2 + 1
            root = Surd(Fraction(0), Fraction(1), radicand)  # sqrt(radicand)
            bf = Surd((bb + 1) / 2, Fraction(0), radicand) - Surd(
                Fraction(0), Fraction(1, 2), radicand
            )
            value = 2 * bf**2 - 2 * bf * bb - Surd(bb**2, 0, radicand) - 2 * bf + bb
            assert value.is_zero()
            witness = 2 * bf - bb
            assert not witness.is_zero()
            assert root * root == Surd(radicand, Fraction(0), radicand)

    def test_small_bb_approaches_excluded_vertex(self):
        tiny = hyperbola_point(Fraction(1, 1000))
        assert 0 < tiny.bf < Fraction(1, 1000)

    def test_distinct_points_distinct_filling_measures(self):
        mu1 = hyperbola_point(Fraction(1, 3))
        mu2 = hyperbola_point(Fraction(1, 2))
        assert mu1 != mu2
        assert abs(float(minkowski_residual(mu1))) <= 1e-12
        assert abs(float(minkowski_residual(mu2))) <= 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hyperbola_point(Fraction(0))
        with pytest.raises(ValueError):
            hyperbola_point(Fraction(7, 5))


class TestMinkowskiSymmetry:
    def test_nn_membership_iff_symmetric(self):
        # exact rational test: residual factors as -(bf - bbarf) * af
        rng = random.Random(131)
        for _ in range(200):
            mu = random_nn(rng)
            defect = minkowski_residual(mu)
            assert (defect == 0) == (mu.bf == mu.bbarf)


class TestExamples:
    def test_ex0_report(self):
        report = example_ex0()
        assert report.level == Fraction(1, 8)
        assert report.endpoint_gap <= 1e-12
        for t, _, gap in report.combinations:
            assert gap > 1e-12
        mid = dict((t, gap) for t, _, gap in report.combinations)[Fraction(1, 2)]
        assert mid > 1e-3
        # correctly rounded roots; the solver's default tol is one ulp off at t = 1/4
        assert report.alpha_common == 0.5615528128088303 and report.endpoint_gap == 0.0
        assert report.combinations[0][:2] == (Fraction(1, 4), 0.5689837934052572)

    def test_ex0_pair_reads_as_af_delta(self):
        assert example_ex0().as_dict()["pair"] == [
            {"af": "1/2", "delta": "1/2"},
            {"af": "157/206", "delta": "31/206"},
        ]

    def test_ex1_report(self):
        report = example_ex1(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2))
        assert max(abs(r) for r in report.endpoint_residuals) <= 1e-12
        assert report.alpha_gap > 1e-3
        combo = report.combination
        assert combo.bf == (report.endpoints[0].bf + report.endpoints[1].bf) / 2

    def test_ex2_report(self):
        report = example_ex2(Fraction(1, 2))
        scale = 2 * report.mu1.bf + report.mu1.bbarf
        assert report.mu_prime.bf == report.mu1.bf / scale
        assert report.mu_prime.bprime == report.mu1.bf / scale
        assert report.mu_prime.bbarprime == report.mu1.bbarf / scale
        assert report.mu_prime.af == 0 and report.mu_prime.bbarf == 0
        # exact incompatibility: the defect is nonzero with a wide margin
        assert report.minkowski_defect != 0
        assert abs(float(report.minkowski_defect)) > 1e-3
        assert report.witness == 2 * report.mu1.bf - report.mu1.bbarf
        assert report.witness != 0
        assert abs(float(report.hyperbola_value)) <= 1e-15

    def test_ex2_exact_rational_fixture(self):
        report = example_ex2(Fraction(3, 13))
        assert report.hyperbola_value == 0  # exactly on the branch
        assert report.witness == Fraction(-1, 13)
        assert report.minkowski_defect != 0

    def test_ex2_reduced_walk_leaves_minkowski_class(self):
        report = example_ex2(Fraction(1, 2))
        alpha = harmonic_params(report.mu_prime).alpha
        assert abs(float(alpha) - 0.5) > 1e-3
