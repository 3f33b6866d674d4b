"""
Coefficient signs of hypergeometric product differences
=======================================================

Shifting a series parameter up by delta and cross-multiplying gives a
product difference whose power-series coefficients have one fixed sign.
This script computes those coefficients exactly and shows the half-range
profile that explains the sign.
"""

from fractions import Fraction as F

from turankit import (Sign, kummer_gamma, kummer_lower, kummer_upper,
                      lambda_coefficients, mk_profile, phi_coefficients,
                      pochhammer, psi_coefficients)

# A confluent-type series with weights w_n = 1/(c)_n, here c = 3.  The
# weight ratios w_{n+1}/w_n = 1/(c+n) decrease, which is the only
# structural input the sign theorems need.
spec = kummer_upper(F(3), order=12)
a, b, delta = F(1), F(2), F(1, 2)

print("family:", spec.family.name, " weights w_n = 1/(3)_n")
print(f"shifts a={a}, b={b}, delta={delta}\n")

# phi_m is the coefficient of x^m in f(a+delta)f(b) - f(b+delta)f(a),
# an exact rational.  The first two vanish identically; the rest share
# one sign (positive here because b > a and the ratios decrease).
phis = phi_coefficients(spec, a, b, delta)
print("m   phi_m")
for m, v in enumerate(phis[:8]):
    print(f"{m:<3} {v}")

# Each phi_m is a weighted sum of half-range profile values M_k.  The
# profile is weight-independent: it always sums to zero and changes
# sign exactly once, so any decreasing weight sequence tilts the total
# to one side.
prof = mk_profile(spec, a, b, delta, m=6)
print("\nprofile at m=6:", [str(v) for v in prof.values])
print("profile sum:", sum(prof.values), " sign changes:",
      prof.sign_change_count())
assert sum(prof.values) == 0

# Reattaching the weights w_k w_{6-k} recovers phi_6 exactly.
weighted = sum(v / (pochhammer(3, k) * pochhammer(3, 6 - k))
               for k, v in enumerate(prof.values))
print("weighted sum:", weighted, "== phi_6:", phis[6])
assert weighted == phis[6]

# The reciprocal family h with weights 1/(a0)_n uses lambda_m, again an
# exact rational, negative for every m >= 1 with no monotonicity
# assumption at all.
lspec = kummer_lower(F(1, 2), order=8)
lams = lambda_coefficients(lspec, a, b, delta)
print("\nlambda_m for the reciprocal family:",
      [str(v) for v in lams[:5]])

# The Gamma-weighted family g needs transcendental Gamma quotients, so
# its psi_m signs are certified with interval arithmetic instead of
# computed as rationals.  Each decision is still rigorous.
gspec = kummer_gamma(F(3), order=8)
psis = psi_coefficients(gspec, a, b, delta)
signs = [p.sign.value for p in psis]
print("\npsi_m certified signs (gamma family):", signs)
assert all(s == Sign.NEGATIVE.value for s in signs)
