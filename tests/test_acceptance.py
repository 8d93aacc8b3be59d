"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced.  Criterion 4 is split into its analytic half (4a) and its
Monte Carlo half (4b).  4b uses the letter test, whose single z-score
against alpha = 1/2 rejects every (1/2, p) at once; its detail line states
the test's power at the run's sample size.
"""

import math
import random
import time
from fractions import Fraction

from modwalk import (
    Cylinder,
    DenjoyParams,
    GroupMeasure,
    PiWeights,
    SimConfig,
    check_stationarity,
    component_mass,
    cylinders_up_to_depth,
    estimate_alpha,
    example_ex0,
    example_ex1,
    example_ex2,
    harmonic_params,
    hausdorff_constants,
    lr_to_interval,
    minkowski_residual,
    parse_word,
    question_mark,
    rational_to_cf,
    rational_to_lr,
    residual,
    simulate,
    solve_master,
    cf_value,
    ExtRational,
    StepOnS,
)

from helpers import cylinder_diameter, random_nn, random_step

QMARK_DEPTH = 25_000  # resolves every rational with denominator <= 10^4 exactly


def report(number: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:>3} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_solver_correctness():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        mu = random_step(rng)
        t = solve_master(mu)
        worst = max(worst, max(abs(float(r)) for r in residual(mu, t)))
        assert t.y + t.ybar == 1
        assert 0 < t.x < 1 and 0 < t.y < 1
        p = t.x / (1 + t.x)
        assert 0 < p < Fraction(1, 2)
    elapsed = time.perf_counter() - t0
    report(
        "1",
        worst <= 1e-12 and elapsed < 5.0,
        f"1000 random solves: worst residual {worst:.2e} (<=1e-12), {elapsed:.2f}s (<5s)",
    )


def test_criterion_02_symmetric_fixture():
    mu = StepOnS(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(0))
    params = harmonic_params(mu)
    ok = (
        solve_master(mu) == PiWeights(Fraction(2, 3), Fraction(1, 2))
        and params == DenjoyParams(Fraction(1, 2), Fraction(2, 5))
    )
    report("2", ok, f"af=1/3 symmetric walk: alpha={params.alpha}, p={params.p} (=2/5 exactly)")


def test_criterion_03_minkowski_iff_symmetric():
    rng = random.Random(1003)
    ok = True
    for _ in range(200):
        mu = random_nn(rng)
        defect = minkowski_residual(mu)
        ok = ok and ((defect == 0) == (mu.bf == mu.bbarf))
    report("3", ok, "200 random nearest-neighbour walks: residual = 0 iff b-weight = B-weight (exact)")


def test_criterion_04a_ex1_analytic():
    r = example_ex1(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2))
    worst_endpoint = max(abs(v) for v in r.endpoint_residuals)
    ok = worst_endpoint <= 1e-12 and r.alpha_gap > 1e-3
    report(
        "4a",
        ok,
        f"hyperbola endpoints residual {worst_endpoint:.2e} (<=1e-12); "
        f"combination |alpha - 1/2| = {r.alpha_gap:.6f} (>1e-3, margin recorded)",
    )


def test_criterion_04b_ex1_monte_carlo():
    # Under every (1/2, p) the b/B letters of the limit word are fair coins,
    # so one z-score of the b-fraction against 1/2 rejects the whole
    # Minkowski class; the z-score against the solved alpha guards the fit.
    r = example_ex1(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2))
    cfg = SimConfig(paths=100_000, steps=800, seed=1, depth=35)
    t0 = time.perf_counter()
    test = estimate_alpha(r.combination.to_group_measure(), cfg).as_dict(0.5, r.alpha)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    z_half, z_own, power = test["z_vs_class"], test["z_vs_harmonic"], test["power"]
    ok = abs(z_half) > 4.0 and abs(z_own) <= 4.0 and power >= 0.99
    report(
        "4b",
        ok,
        f"letter test over the first {test['letters']} b/B letters of {test['resolved']} "
        f"resolved paths: alpha estimate {test['estimate']:.5f} +- {test['stderr']:.5f}, "
        f"z vs 1/2 = {z_half:.2f} (|z| > 4 rejects every (1/2, p)), "
        f"z vs solved alpha {r.alpha:.6f} = {z_own:.2f} (<= 4); "
        f"power of the 4-SE test {power:.3f} (>= 0.99) ({elapsed:.1f}s)",
    )


def test_criterion_05_ex2_convolution():
    r = example_ex2(Fraction(1, 2))
    # example_ex2 itself verifies, with exact rational arithmetic, that
    # convolve(mu1, a mu1 a) = (mu1 a)^(*2) and that stripping the identity
    # atom reproduces the closed-form reduced step distribution.
    defect = r.minkowski_defect
    ok = (
        defect != 0
        and abs(float(defect)) > 1e-3
        and r.witness == 2 * r.mu1.bf - r.mu1.bbarf
        and r.witness != 0
    )
    report(
        "5",
        ok,
        f"convolution pipeline exact; minkowski residual {float(defect):.6f} (>1e-3), "
        f"branch incompatibility witness 2b - bb = {float(r.witness):.6f} != 0 (exact)",
    )


def test_criterion_06_ex0_level_set():
    r = example_ex0()
    mid_gap = {t: gap for t, _, gap in r.combinations}[Fraction(1, 2)]
    ok = r.endpoint_gap <= 1e-12 and mid_gap > 1e-3
    report(
        "6",
        ok,
        f"frozen level-set pair: endpoint alpha gap {r.endpoint_gap:.2e} (<=1e-12), "
        f"t=1/2 combination gap {mid_gap:.6f} (>1e-3)",
    )


def test_criterion_07_letac_piccioni():
    words = [parse_word(w) for w in ("b", "ba", "ab", "aba", "B", "Ba", "aB", "aBa", "a")]
    mu = GroupMeasure.uniform(words)
    t0 = time.perf_counter()
    rep = simulate(mu, SimConfig(paths=100_000, steps=400, seed=7, depth=3))
    elapsed = time.perf_counter() - t0
    est_a, se_a = rep.cylinder_freq[Cylinder.of("a")]
    est_ba, se_ba = rep.cylinder_freq[Cylinder.of("ba")]
    za = abs(est_a - 0.5) / se_a
    zba = abs(est_ba - 0.25) / se_ba
    ok = za <= 4 and zba <= 4 and elapsed < 30.0
    report(
        "7",
        ok,
        f"uniform 9-atom walk: nu(C_a)={est_a:.4f} ({za:.2f} SE from 1/2), "
        f"nu(C_ba)={est_ba:.4f} ({zba:.2f} SE from 1/4), {elapsed:.1f}s (<30s)",
    )


def test_criterion_08_stationarity():
    rng = random.Random(1008)
    worst = 0.0
    for _ in range(50):
        mu = random_step(rng)
        params = harmonic_params(mu)
        worst = max(worst, check_stationarity(params, mu.to_group_measure(), depth=8))
    report("8", worst <= 1e-10, f"50 random walks: worst stationarity residual {worst:.2e} (<=1e-10)")


def test_criterion_09_hausdorff_well_scaling():
    dim, _ = hausdorff_constants()
    norm = 1 / math.sqrt(2)
    worst = 0.0
    for c in cylinders_up_to_depth(10):
        if str(c)[0] != "a":
            continue
        defect = abs(norm * float(component_mass(Fraction(1, 2), c)) - cylinder_diameter(c) ** dim)
        worst = max(worst, defect)
    report(
        "9",
        worst <= 1e-12,
        f"well-scaling over all depth<=10 cylinders in the 'a' component: worst defect {worst:.2e}",
    )


def test_criterion_10_question_mark_and_encodings():
    ok = question_mark(0) == 0 and question_mark(1) == 1
    ok = ok and question_mark(Fraction(1, 2)) == Fraction(1, 2)
    # derived oracle for 1/3: ratio of component masses of the enclosing cylinders
    oracle = component_mass(Fraction(1, 2), Cylinder.of("aBaBaBa")) / component_mass(
        Fraction(1, 2), Cylinder.of("aBa")
    )
    ok = ok and question_mark(Fraction(1, 3)) == oracle == Fraction(1, 4)

    rng = random.Random(1010)
    samples = set()
    while len(samples) < 1000:
        den = rng.randint(2, 10_000)
        samples.add(Fraction(rng.randint(1, den - 1), den))
    xs = sorted(samples)[:1000]
    assert len(xs) == 1000
    values = {x: question_mark(x, depth=QMARK_DEPTH) for x in xs}
    ordered = [values[x] for x in xs]
    ok = ok and all(a < b for a, b in zip(ordered, ordered[1:]))
    ok = ok and all(
        values[x] + question_mark(1 - x, depth=QMARK_DEPTH) == 1 for x in xs
    )

    # encodings: exact round trips for denominators up to 10^4
    trips = True
    for _ in range(1000):
        den = rng.randint(2, 10_000)
        num = rng.randint(1, 10_000)
        q = Fraction(num, den)
        codes = rational_to_lr(q)
        iv = lr_to_interval(codes.stem)
        trips = trips and iv.mediant().as_fraction() == q
        trips = trips and cf_value(rational_to_cf(q)) == q
        det = iv.right.num * iv.left.den - iv.left.num * iv.right.den
        trips = trips and det == 1
    llr = lr_to_interval("LLR")
    trips = trips and (llr.left, llr.right, llr.mediant()) == (
        ExtRational(1, 3),
        ExtRational(1, 2),
        ExtRational(2, 5),
    )
    ok = ok and trips
    report(
        "10",
        ok,
        "question-mark endpoints/symmetry/monotonicity (1000 samples) and exact "
        "rational<->LR<->CF round trips (denominators <= 1e4), I_LLR = [1/3,1/2]",
    )
