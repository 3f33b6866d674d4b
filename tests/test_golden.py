"""Golden digests of every exact value the sign checks rest on, and of
every report they give.

The first digest covers, for each of the 420 default-grid sign cases, the
coefficients phi_m or lambda_m, the factored psi_m (S1, S2 and the
certified sign), and the value and sign of every half-range profile value
M_k for m = 2..M.  Gamma-family profile values are enclosures and enter
through their endpoints at 30 digits.  Any change to the series kernel
that moves one of these numbers changes the digest.  The second covers
every field of the ``SignReport`` of each of those cases.
"""

import dataclasses
import hashlib

from turankit.intervals import CertifiedInterval, working_precision
from turankit.series import (Family, Sign, lambda_coefficients, mk_profile,
                             phi_coefficients, psi_coefficients)
from turankit.verify import default_cases, run_case

# computed by the Fraction implementation of the half-range pass, which
# the integer kernel replaced value for value
GOLDEN_SHA256 = "ea00540e3b4ba673b0c164a15fb3efac4b1a4131b1cbd1e56c3d0c7c9fb66717"
# computed by the three separate Theorem 1-3 checkers that the rule-table
# checker replaced field for field
REPORT_SHA256 = "234a4349e641fdd3f0b173c03e916217cc0314a40c003e1f3155f5b54324cd03"


def _text(value) -> str:
    if isinstance(value, CertifiedInterval):
        return f"[{_text(value.lo)},{_text(value.hi)}]"
    if isinstance(value, Sign):
        return value.value
    return f"{value.numerator}/{value.denominator}"


def _case_lines(case):
    spec, p = case.spec(), case.params
    a, b, d = p["a"], p["b"], p["delta"]
    if spec.family is Family.UPPER_FACTOR:
        coeffs = [_text(v) for v in phi_coefficients(spec, a, b, d)]
    elif spec.family is Family.LOWER_FACTOR:
        coeffs = [_text(v) for v in lambda_coefficients(spec, a, b, d)]
    else:
        coeffs = [f"{_text(c.s1)};{_text(c.s2)};{_text(c.sign)}"
                  for c in psi_coefficients(spec, a, b, d)]
    yield " ".join(coeffs)
    for m in range(2, spec.order + 1):
        prof = mk_profile(spec, a, b, d, m)
        yield " ".join(f"{_text(v)};{_text(s)}"
                       for v, s in zip(prof.values, prof.signs()))


def _sign_cases():
    cases = [c for c in default_cases("all")
             if c.theorem in ("thm1", "thm2", "thm3", "binomial")]
    assert len(cases) == 420
    return cases


def test_sign_case_values_match_golden_digest():
    digest = hashlib.sha256()
    with working_precision(30):
        for case in _sign_cases():
            for line in _case_lines(case):
                digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_SHA256


def test_sign_reports_match_golden_digest():
    digest = hashlib.sha256()
    with working_precision(30):
        for case in _sign_cases():
            fields = dataclasses.asdict(run_case(case))
            digest.update(repr(fields).encode() + b"\n")
    assert digest.hexdigest() == REPORT_SHA256
