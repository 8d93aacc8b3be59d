"""From a step distribution to its harmonic measure, exactly.

For walks with steps in {a, b, B, ba, Ba} the passage probabilities
(x, y, 1-y) solve a three-equation stationarity system; the harmonic
measure on the boundary is the family member with alpha = y and
p = x/(1+x).  The solver works on exact rational coefficients, and an
independent stationarity check confirms the result on cylinders.
"""

import math
from fractions import Fraction

from modwalk import (
    StepOnS,
    check_stationarity,
    cylinder_mass,
    Cylinder,
    harmonic_params,
    hausdorff_constants,
    minkowski_residual,
    residual,
    solve_master,
)

print("the symmetric nearest-neighbour walk solves exactly:")
mu = StepOnS(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(0), Fraction(0))
t = solve_master(mu)
params = harmonic_params(mu)
print(f"  x = {t.x}, y = {t.y}; alpha = {params.alpha}, p = {params.p}")
print(f"  residuals of the three equations: {[float(r) for r in residual(mu, t)]}")
print(f"  mass of the depth-1 cylinders: a -> {cylinder_mass(params, Cylinder.of('a'))},"
      f" ba -> {cylinder_mass(params, Cylinder.of('ba'))}")

print()
print("an asymmetric walk leaves the Minkowski class (alpha != 1/2):")
skew = StepOnS(Fraction(1, 3), Fraction(1, 2), Fraction(1, 6), Fraction(0), Fraction(0))
sp = harmonic_params(skew)
print(f"  alpha = {float(sp.alpha):.12f}, p = {float(sp.p):.12f}")
print(f"  membership residual at alpha = 1/2: {float(minkowski_residual(skew)):.6f}")

print()
print("stationarity of the computed parameters, checked on cylinders of depth <= 6:")
r = check_stationarity(sp, skew.to_group_measure(), depth=6)
print(f"  max residual {r:.2e}")

print()
print("a nearest-neighbour walk (a: 1/2, b: 1/2) with an irrational alpha:")
half = harmonic_params(StepOnS.from_json_dict({"a": "1/2", "b": "1/2"}))
print(f"  alpha = {float(half.alpha):.15f} (= (sqrt(17) - 3)/2 = {(math.sqrt(17) - 3) / 2:.15f})")

print()
dim, hp = hausdorff_constants()
print(f"the Hausdorff measure of the boundary: dimension ln(2)/2 = {dim:.6f},")
print(f"parameters alpha = {hp.alpha}, p = 1/(1+sqrt 2) = {hp.p:.12f}")
