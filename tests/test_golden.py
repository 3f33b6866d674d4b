"""Golden digests of every exact value the sign checks rest on, and of
every report they give.

The first digest covers, for each of the 420 default-grid sign cases, the
coefficients phi_m or lambda_m, the factored psi_m (S1, S2 and the
certified sign), and the value and sign of every half-range profile value
M_k for m = 2..M.  Gamma-family profile values are enclosures and enter
through their endpoints at 30 digits.  Any change to the series kernel
that moves one of these numbers changes the digest.  The second covers
every field of the ``SignReport`` of each of those cases.  The third
covers every field of every ``EvalResult`` that ``eval_pfq`` returns for
the 600 transformation checks of the acceptance suite, the 64-point
conjecture scan, two long confluent sums and one sum per special path of
the summation.  The fourth covers the endpoints of the ln(Gamma)
enclosure at every reduced n/d with d <= 12 and n < 200, at 10, 30 and
60 digits.  The last cover the bytes of the command line's JSON and CSV
reports of ``verify --theorem all --grid default`` and of ``explore``.
"""

import dataclasses
import hashlib
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

import turankit.evalf as evalf_module
from turankit.cli import main
from turankit.evalf import (PFQSpec, check_euler_pfaff,
                            check_kummer_transform, default_log_grid,
                            eval_1f1, explore_conjecture)
from turankit.intervals import CertifiedInterval, log_gamma, working_precision
from turankit.series import (Family, Sign, lambda_coefficients, mk_profile,
                             phi_coefficients, psi_coefficients)
from turankit.verify import default_cases, run_case

# computed by the Fraction implementation of the half-range pass, which
# the integer kernel replaced value for value
GOLDEN_SHA256 = "ea00540e3b4ba673b0c164a15fb3efac4b1a4131b1cbd1e56c3d0c7c9fb66717"
# computed by the three separate Theorem 1-3 checkers that the rule-table
# checker replaced field for field
REPORT_SHA256 = "234a4349e641fdd3f0b173c03e916217cc0314a40c003e1f3155f5b54324cd03"
# computed by the Fraction summation loops of eval_pfq, which the integer
# accumulator replaced result for result
EVAL_SHA256 = "23e6c3eed902594a03dd4d05e291e3aef9d0a4f25e6ca15d7001749001d46a0f"
# computed by the log_gamma that added each Stirling term as an exact
# CertifiedInterval, which the integer term loop replaced endpoint for
# endpoint
LOG_GAMMA_SHA256 = "19dd0b5a16bf5dbe27906d4d5d422b66f832b2684cde9be8e2855bd31fe2d1ec"
# computed by the command line that sent each case's CSV rows back from the
# pool as lists of strings and wrote them with csv.writer, which the
# one-pass writer of the sign strings replaced byte for byte
CLI_SHA256 = {
    "verify": ("d6374a553cdd0e3a7eb90878f8b44770c72963d9a37804fc4d05829103bcc120",
               "719aafbbb3b1af45c0a608d2efb89ce5cf50c343542890d935320b171a6018b9"),
    "explore": ("14b97728fb04e4b220a8eb6afcaac14da98e1ed26812908ff459c71c10d0af77",
                "515d8ad4de48615ec23b3cec168c0cbb89bed13d323b099fc16a814fb7d7ed2d"),
}
CLI_ARGV = {
    "verify": ["verify", "--theorem", "all", "--grid", "default", "--jobs", "1"],
    "explore": ["explore"],
}

GRID_PARAMS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
               Fraction(3))
GRID_X_SIGNED = tuple(Fraction(s, 4) * sgn for s in (1, 2, 3)
                      for sgn in (1, -1))


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


def _eval_workload():
    """The eval_pfq calls of the acceptance suite's transformation checks
    and conjecture scan, two long 1F1 sums, and one sum per special path
    of the summation."""
    for a, c, x in product(GRID_PARAMS, GRID_PARAMS, GRID_X_SIGNED):
        check_kummer_transform(a, c, x)
    for i, a in enumerate(GRID_PARAMS):
        for b in GRID_PARAMS[i:]:
            for c, x in product(GRID_PARAMS, GRID_X_SIGNED):
                check_euler_pfaff(a, b, c, x)
    explore_conjecture(1, 2, 1, 3, default_log_grid(64, 50))
    for x in (200, 1000):
        eval_1f1(1, 3, x)
    F = Fraction
    for up, lo, x, kwargs in [
            ((F(-3), F(2, 3)), (F(4),), F(7), {}),            # terminating
            ((F(1, 2),), (F(3),), F(0), {}),                  # x = 0
            ((F(1, 2),), (F(3),), F(1, 2), {"term_cap": 3}),  # capped
            ((F(-7, 2),), (F(2),), F(1, 2), {}),          # negative upper
            ((F(1),), (F(-5, 2),), F(3), {}),             # negative lower
            ((F(5, 2), F(1, 3)), (F(7, 3), F(1, 2)), F(-2), {}),
            ((), (F(1),), F(2), {}),
            ((F(1),), (F(2),), F(3), {"tol": F(1, 10 ** 40)})]:
        evalf_module.eval_pfq(PFQSpec(up, lo), x, **kwargs)


def _hex(value) -> str:
    # hex, since a long sum's tail bound has more decimal digits than str()
    # converts by default
    if value is None:
        return "-"
    return f"{value.numerator:x}/{value.denominator:x}"


def test_eval_results_match_golden_digest(monkeypatch):
    digest = hashlib.sha256()
    real = evalf_module.eval_pfq
    calls = 0

    def recorder(spec, x, *args, **kwargs):
        nonlocal calls
        res = real(spec, x, *args, **kwargs)
        calls += 1
        line = " ".join([
            ",".join(_hex(u) for u in spec.upper),
            ",".join(_hex(l) for l in spec.lower), _hex(x),
            str(res.terms_used), _hex(res.truncation_bound),
            str(res.conclusive), _hex(res.value.lo), _hex(res.value.hi),
            _hex(res.value.exact)])
        digest.update(line.encode() + b"\n")
        return res

    monkeypatch.setattr(evalf_module, "eval_pfq", recorder)
    with working_precision(30):
        _eval_workload()
    assert calls == 2002
    assert digest.hexdigest() == EVAL_SHA256


def test_log_gamma_endpoints_match_golden_digest():
    digest = hashlib.sha256()
    for dps in (10, 30, 60):
        with working_precision(dps):
            for d in range(1, 13):
                for n in range(1, 200):
                    if gcd(n, d) != 1:
                        continue
                    ci = log_gamma(Fraction(n, d))
                    digest.update(f"{dps} {n}/{d} {_hex(ci.lo)} "
                                  f"{_hex(ci.hi)}\n".encode())
    assert digest.hexdigest() == LOG_GAMMA_SHA256


@pytest.mark.parametrize("command", sorted(CLI_ARGV))
def test_cli_reports_match_golden_digest(command, tmp_path):
    out_json, out_csv = tmp_path / "report.json", tmp_path / "report.csv"
    code = main(CLI_ARGV[command] + ["--precision", "30", "--out-json",
                                     str(out_json), "--out-csv", str(out_csv)])
    assert code == 0
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out_json, out_csv))
    assert digests == CLI_SHA256[command]
