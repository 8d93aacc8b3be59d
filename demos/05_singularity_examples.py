"""Compounds of filling walks need not be filling.

Three constructions, each certified analytically; ex1's is also confirmed
by Monte Carlo, with the letter test.  "Filling" means the harmonic
measure lies in the Minkowski (equivalently Hausdorff) class alpha = 1/2;
more generally two walks are equivalent at infinity when they share alpha.

  ex0: two nearest-neighbour walks on one level set of the equivalence
       function; every proper convex combination leaves the level set.
  ex1: two Minkowski-filling walks on the hyperbola branch; their average
       is not filling.
  ex2: a filling walk whose convolution with its own conjugate is not
       filling.
"""

from fractions import Fraction

from modwalk import (
    SimConfig,
    estimate_alpha,
    example_ex0,
    example_ex1,
    example_ex2,
    harmonic_params,
)

print("== ex0: convex combinations leave a level set ==")
r0 = example_ex0()
print(f"  frozen pair on the level {r0.level}: common alpha = {r0.alpha_common:.12f}")
for t, alpha, gap in r0.combinations:
    print(f"  t = {t}: alpha = {alpha:.12f}, gap {gap:.2e}")

print()
print("== ex1: the average of two filling walks is not filling ==")
r1 = example_ex1(Fraction(1, 3), Fraction(1, 2), Fraction(1, 2))
print(f"  endpoint residuals: {r1.endpoint_residuals}")
print(f"  combination: alpha = {r1.alpha:.9f}, |alpha - 1/2| = {r1.alpha_gap:.2e}")

print()
print("  Monte Carlo confirmation by the letter test (1e5 paths): under every")
print("  (1/2, p) the b/B letters of the limit word are fair coins, so one")
print("  z-score of the b-fraction against 1/2 tests the whole Minkowski class:")
cfg = SimConfig(paths=100_000, steps=800, seed=42, depth=35)
test = estimate_alpha(r1.combination.to_group_measure(), cfg).as_dict(0.5, r1.alpha)
print(f"  alpha estimate {test['estimate']:.5f} +- {test['stderr']:.5f}"
      f" from the first {test['letters']} b/B letters of {test['resolved']} resolved paths")
print(f"  vs solved alpha: z = {test['z_vs_harmonic']:+.2f} (|z| <= 4 is consistent)")
print(f"  vs alpha = 1/2:  z = {test['z_vs_class']:+.2f} (|z| > 4 rejects every (1/2, p);"
      f" power {test['power']:.3f} at this sample size)")

print()
print("== ex2: convolution with the conjugate walk ==")
r2 = example_ex2(Fraction(1, 2))
print(f"  walk weights b = ba = {float(r2.mu1.bf):.10f}, B = {r2.mu1.bbarf}")
reduced = {k: f"{float(Fraction(v)):.10f}" for k, v in r2.mu_prime.to_json_dict().items()}
print(f"  reduced convolution walk: {reduced}")
print(f"  its Minkowski membership residual: {float(r2.minkowski_defect):.6f} != 0")
print(f"  exact witness 2b - B = {float(r2.witness):.6f}")
alpha2 = harmonic_params(r2.mu_prime).alpha
print(f"  harmonic alpha of the convolution: {float(alpha2):.9f}")
