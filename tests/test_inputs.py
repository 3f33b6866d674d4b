"""One way in for a rational: every public function that takes a rational
parameter converts it with ``exact.parse_rational``, so each refuses a
float, malformed text and a huge decimal exponent with DomainError, and
reads the Fraction, int and string spellings of one value alike."""

import sys
import time
from fractions import Fraction

import pytest

import turankit as tk
from turankit.errors import DomainError
from turankit.intervals import rational_power
from turankit.series import WeightRule, mk_profile, shift_point

def _case(**params):
    """A thm1 case at order 6 with the parameters given changed."""
    return tk.Case("thm1", "1f1-upper", {"a": 1, "b": 2, "delta": 1, "c": 1, **params},
                   M=6)


# name -> a call with the rational under test in one place, which succeeds
# at VALUE
VALUE = 2
ENTRY_POINTS = {
    "parse_rational": lambda q: tk.parse_rational(q),
    "pochhammer": lambda q: tk.pochhammer(q, 3),
    "log_gamma": lambda q: tk.log_gamma(q),
    "gamma_ratio": lambda q: tk.gamma_ratio(q, "1/2"),
    "gamma_ratio.delta": lambda q: tk.gamma_ratio(1, q),
    "rational_power": lambda q: rational_power(q, "1/2"),
    "rational_power.expo": lambda q: rational_power("1/2", q),
    "from_fraction": lambda q: tk.CertifiedInterval.from_fraction(q),
    "from_fraction_bounds": lambda q: tk.CertifiedInterval.from_fraction_bounds(1, q),
    "contains": lambda q: tk.CertifiedInterval.from_fraction(2).contains(q),
    "WeightRule.upper": lambda q: WeightRule(upper=(q,)),
    "WeightRule.lower": lambda q: WeightRule(lower=(q,)),
    "kummer_upper": lambda q: tk.kummer_upper(q),
    "gauss_upper.b": lambda q: tk.gauss_upper(q, 3),
    "gauss_upper.c": lambda q: tk.gauss_upper(1, q),
    "kummer_gamma": lambda q: tk.kummer_gamma(q),
    "kummer_lower": lambda q: tk.kummer_lower(q),
    "gauss_lower.a0": lambda q: tk.gauss_lower(q, 3),
    "gauss_lower.b0": lambda q: tk.gauss_lower(1, q),
    "shift_point": lambda q: shift_point(tk.kummer_upper(1, 6), 1, q, 1),
    "phi_coefficients": lambda q: tk.phi_coefficients(tk.kummer_upper(1, 6), 1, q, 1),
    "mk_profile": lambda q: mk_profile(tk.kummer_upper(1, 6), 1, q, 1, 4),
    "gamma_quotient": lambda q: tk.gamma_quotient(q, 1, "1/2"),
    "PFQSpec.upper": lambda q: tk.PFQSpec((q,), (3,)),
    "PFQSpec.lower": lambda q: tk.PFQSpec((1,), (q,)),
    "PFQSpec.from_series": lambda q: tk.PFQSpec.from_series(tk.kummer_upper(3), q),
    "eval_pfq": lambda q: tk.eval_pfq(tk.PFQSpec((1,), (2,)), q),
    "eval_pfq.tol": lambda q: tk.eval_pfq(tk.PFQSpec((1,), (2,)), 1, q),
    "eval_1f1": lambda q: tk.eval_1f1(1, q, 1),
    "cross_ratio": lambda q: tk.cross_ratio(tk.kummer_upper(3, 0), 1, q, 1, 1),
    "check_kummer_transform": lambda q: tk.check_kummer_transform(1, q, 1),
    "check_euler_pfaff": lambda q: tk.check_euler_pfaff(1, 1, q, "1/2"),
    "explore_conjecture": lambda q: tk.explore_conjecture(1, q, 1, 3, [1, 2]),
    "explore_conjecture.xs": lambda q: tk.explore_conjecture(1, 2, 1, 3, [1, q]),
    "default_log_grid": lambda q: tk.default_log_grid(4, q),
    "verify_theorem1": lambda q: tk.verify_theorem1(tk.kummer_upper(1, 6), 1, q, 1),
    "verify_theorem2": lambda q: tk.verify_theorem2(tk.kummer_gamma(1, 6), 1, q, 1),
    "verify_theorem3": lambda q: tk.verify_theorem3(tk.kummer_lower(1, 6), 1, q, 1),
    "verify_corollary_twosided":
        lambda q: tk.verify_corollary_twosided(tk.kummer_upper(3), 1, q, 1, [1]),
    "verify_corollary_twosided.x_grid":
        lambda q: tk.verify_corollary_twosided(tk.kummer_upper(3), 1, 2, 1, [q]),
    "verify_turan": lambda q: tk.verify_turan(tk.kummer_upper(3), q, 1, [1]),
    "verify_turan.x_grid": lambda q: tk.verify_turan(tk.kummer_upper(3), 1, 1, [q]),
    "Case.shift_point": lambda q: _case(b=q).shift_point(),
    "run_case": lambda q: tk.run_case(_case(c=q)),
    "PositivePolynomial": lambda q: tk.PositivePolynomial((1, q)),
    "PositivePolynomial.__call__": lambda q: tk.PositivePolynomial((1, 2))(q),
    "elementary_symmetric": lambda q: tk.elementary_symmetric([1, q]),
    "check_symmetric_chain": lambda q: tk.check_symmetric_chain([q], [1]),
    "truncated_chain_holds": lambda q: tk.truncated_chain_holds([q], [1, 3]),
    "two_f_two_condition": lambda q: tk.two_f_two_condition(q, 1, 3),
    "ratio_R_monotone": lambda q: tk.ratio_R_monotone([q], [1]),
    "TerminatingSum": lambda q: tk.TerminatingSum((-2, q), (3,), 2),
    "thm4d_sum": lambda q: tk.thm4d_sum(q, 1, 3, 2),
    "link_factor": lambda q: tk.link_factor(q, 3, 2),
    "check_4f3_coefficient_link": lambda q: tk.check_4f3_coefficient_link(q, 1, 3, 2),
    "qfq_sum": lambda q: tk.qfq_sum(q, 1, (), (3,), 2),
    "qfq_sum.b_list": lambda q: tk.qfq_sum(2, 1, (), (q,), 2),
    "eval_qfq_sum": lambda q: tk.eval_qfq_sum(q, 1, (), (3,), 2),
}
DIGITS = getattr(sys, "get_int_max_str_digits", int)()


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_float_refused(call):
    with pytest.raises(DomainError, match="refusing float"):
        call(float(VALUE))


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_malformed_text_refused(call):
    with pytest.raises(DomainError, match="not an exact rational: 'abc'"):
        call("abc")


@pytest.mark.skipif(not DIGITS, reason="ints of any size print")
@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_huge_exponent_refused_at_once(call):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="has the decimal exponent 2000000"):
        call("1e2000000")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=list(ENTRY_POINTS))
def test_spellings_agree(call):
    # the int, a string that needs parsing, and the Fraction
    results = [repr(call(q)) for q in (VALUE, f"{2 * VALUE}/2", Fraction(VALUE))]
    assert results[0] == results[1] == results[2]
