"""
Two-sided bounds for the parameter-shift ratio
==============================================

For decreasing weight ratios the shift ratio

    Q(x) = f(b+delta, x) f(a, x) / [f(a+delta, x) f(b, x)],   b > a > 0,

is sandwiched between a Gamma-function quotient and 1 for every x > 0.
The script certifies the sandwich on a grid and shows the ratio drifting
toward the lower bound as x grows.
"""

from fractions import Fraction as F

from turankit import (cross_ratio, gamma_quotient, kummer_upper,
                      verify_corollary_twosided, verify_turan)

spec = kummer_upper(F(3))
a, b, delta = F(1), F(2), F(1)

# The lower bound is the Gamma quotient Gamma(a+delta)Gamma(b) over
# Gamma(a)Gamma(b+delta).  An integer delta or b - a makes it an exact
# rational.
lower = gamma_quotient(b, a, delta)
print("exact lower bound:", lower.exact, "  upper bound: 1\n")

xs = [F(1, 4), F(1), F(4), F(16), F(50)]
rep = verify_corollary_twosided(spec, a, b, delta, xs)
print("x       Q(x) enclosure                              inside")
for x, q, ok in zip(rep.x_grid, rep.ratio_values, rep.within):
    print(f"{str(x):<7} [{float(q.lo):.15f}, {float(q.hi):.15f}]  {ok}")
print("\nverdict:", rep.verdict.value)
print(f"relative gap to the lower bound at x={xs[-1]}: "
      f"{rep.rel_gap_at_top:.2%}  (sharp as x grows)")

# Setting b = a + delta turns the sandwich into a Turan-type inequality:
# f(a+delta)^2 >= f(a) f(a+2delta) with an explicit constant.
trep = verify_turan(kummer_upper(F(5)), a=F(2), delta=F(1), x_grid=[F(3)])
q = trep.ratio_values[0]
print("\nTuran form at a=2, delta=1, c=5, x=3:")
print(f"  a/(a+delta) = {trep.lower_bound.exact} < "
      f"Q = {float(q.midpoint):.6f} < 1")

# The same ratio evaluated directly, for a single point off the grid.
q17 = cross_ratio(spec, a, b, delta, F(17, 3))
print(f"\nspot check at x=17/3: Q in "
      f"[{float(q17.lo):.12f}, {float(q17.hi):.12f}]")
