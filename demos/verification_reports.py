"""
Verification reports and default grids
======================================

The verifier wraps the exact coefficient machinery in pass/fail
reports: expected sign per index, profile checks, and a verdict.  The
default grids then sweep shift tuples and weight families, one case at
a time.
"""

from fractions import Fraction as F

from turankit import (Verdict, default_cases, kummer_gamma, kummer_upper,
                      run_case, verify_theorem1, verify_theorem2)

# One explicit case: decreasing weight ratios, b > a, fractional delta.
rep = verify_theorem1(kummer_upper(F(3)), a=1, b=2, delta=F(1, 2), M=20)
print("verdict:", rep.verdict.value)
print("signs m=0..20:", "".join(s.value for s in rep.per_index_sign))
print("profiles: one sign change each ->", rep.mk_single_sign_change)

# Equal shifts degenerate to the zero series; reported distinctly so a
# suite full of real checks cannot hide behind trivial ones.
degenerate = verify_theorem1(kummer_upper(F(3)), 2, 2, 1, M=10)
print("\na=b verdict:", degenerate.verdict.value)
assert degenerate.verdict is Verdict.VERIFIED_DEGENERATE

# The gamma-weight variant reports its interval bookkeeping: how many
# indices needed a precision escalation before the sign was certified.
grep = verify_theorem2(kummer_gamma(F(3)), 1, 2, F(1, 2), M=25)
print("\ngamma family verdict:", grep.verdict.value)
print("undecided at first pass:", grep.inconclusive_before_escalation,
      " escalated:", grep.escalated)

# Default grids: 150 shift/weight combinations checked exactly in seconds.
reports = [run_case(c) for c in default_cases("thm1", M=15)]
verdicts = {r.verdict.value for r in reports}
print(f"\ngrid of {len(reports)} cases -> verdicts {verdicts}")

# Constant weights kill every coefficient; each case checks that too.
flat = [run_case(c) for c in default_cases("binomial", M=15)]
print(f"constant-weight grid: {len(flat)} cases, all coefficients "
      f"identically zero")
