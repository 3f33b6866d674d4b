"""Theorem-level verdicts: sign suites, degenerate and swapped-shift
handling, escalation bookkeeping, and the two-sided function bounds."""

from fractions import Fraction as F

import pytest

from turankit.errors import DomainError
from turankit.series import (Sign, binomial_upper, gauss_lower, gauss_upper,
                             kummer_gamma, kummer_lower, kummer_upper,
                             pfq_upper)
from turankit.verify import (Case, Verdict, default_cases,
                             suite_binomial_degeneracy, suite_corollary,
                             suite_theorem1, suite_theorem2, suite_theorem3,
                             suite_turan, verify_corollary_twosided,
                             verify_theorem1, verify_theorem2, verify_theorem3,
                             verify_turan)

NEG = {Sign.POSITIVE: Sign.NEGATIVE, Sign.NEGATIVE: Sign.POSITIVE,
       Sign.ZERO: Sign.ZERO}


class TestTheorem1:
    def test_reference_case(self):
        rep = verify_theorem1(kummer_upper(F(3)), 1, 2, F(1, 2), 40)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.first_violation is None
        assert rep.truncation_order == 40
        assert rep.per_index_sign[0] is Sign.ZERO
        assert rep.per_index_sign[1] is Sign.ZERO
        assert all(s is Sign.POSITIVE for s in rep.per_index_sign[2:])
        assert rep.mk_single_sign_change

    def test_increasing_weights_flip_sign(self):
        rep = verify_theorem1(gauss_upper(F(1), F(2)), 1, 2, 1, 20)
        assert rep.verdict is Verdict.VERIFIED
        assert all(s is Sign.NEGATIVE for s in rep.per_index_sign[2:])

    def test_swapped_shifts_negate_pointwise(self):
        fwd = verify_theorem1(kummer_upper(F(3)), 1, 2, F(1, 2), 15)
        rev = verify_theorem1(kummer_upper(F(3)), 2, 1, F(1, 2), 15)
        assert rev.verdict is Verdict.VERIFIED
        assert [NEG[s] for s in fwd.per_index_sign] == list(rev.per_index_sign)

    def test_degenerate_equal_shifts(self):
        rep = verify_theorem1(kummer_upper(F(3)), 2, 2, 1, 12)
        assert rep.verdict is Verdict.VERIFIED_DEGENERATE
        assert all(s is Sign.ZERO for s in rep.per_index_sign)

    def test_nonmonotone_weights_inconclusive(self):
        spec = pfq_upper((F(1, 4), F(8)), (F(2), F(2)), 10)
        rep = verify_theorem1(spec, 1, 2, 1, 10)
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.reason is not None

    def test_constant_weights_all_zero(self):
        rep = verify_theorem1(binomial_upper(15), F(1, 2), F(7, 2), F(3, 2))
        assert rep.verdict is Verdict.VERIFIED
        assert set(rep.per_index_sign) == {Sign.ZERO}

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            verify_theorem1(kummer_upper(F(3)), 1, 2, 0, 10)

    def test_parameter_tuple(self):
        rep = verify_theorem1(kummer_upper(F(3)), 1, 2, 1, 8)
        assert rep.parameter_tuple == (F(1), F(2), F(1))


class TestTheorem2:
    def test_reference_case(self):
        rep = verify_theorem2(kummer_gamma(F(3)), 1, 2, F(1, 2), 30)
        assert rep.verdict is Verdict.VERIFIED
        assert all(s is Sign.NEGATIVE for s in rep.per_index_sign)
        assert rep.mk_all_negative
        assert not rep.inconclusive_indices

    def test_swapped_shifts_positive(self):
        rep = verify_theorem2(kummer_gamma(F(1)), 3, 1, F(1, 2), 20)
        assert rep.verdict is Verdict.VERIFIED
        assert all(s is Sign.POSITIVE for s in rep.per_index_sign)

    def test_degenerate(self):
        rep = verify_theorem2(kummer_gamma(F(2)), F(3, 2), F(3, 2), 1, 10)
        assert rep.verdict is Verdict.VERIFIED_DEGENERATE

    def test_escalation_bookkeeping_default_clean(self):
        rep = verify_theorem2(kummer_gamma(F(2)), F(1, 2), F(5, 2), F(3, 4), 25)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.inconclusive_before_escalation == 0
        assert not rep.escalated

    def test_integer_delta_stays_exact(self):
        # integer shift difference: the Gamma quotient is exact, no
        # interval comparison can be undecided
        rep = verify_theorem2(kummer_gamma(F(1)), F(1, 2), F(7, 2), 2, 20)
        assert rep.verdict is Verdict.VERIFIED
        assert not rep.escalated

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            verify_theorem2(kummer_gamma(F(2)), 0, 1, 1, 10)


class TestTheorem3:
    def test_reference_case(self):
        rep = verify_theorem3(kummer_lower(F(1, 2)), 1, 2, 1, 40)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.per_index_sign[0] is Sign.ZERO
        assert all(s is Sign.NEGATIVE for s in rep.per_index_sign[1:])
        assert rep.mk_all_negative

    def test_gauss_weights(self):
        rep = verify_theorem3(gauss_lower(F(1, 2), F(2)), F(3, 2), 3, F(1, 2), 25)
        assert rep.verdict is Verdict.VERIFIED

    def test_swapped(self):
        rep = verify_theorem3(kummer_lower(F(1)), 2, 1, 1, 15)
        assert rep.verdict is Verdict.VERIFIED
        assert all(s is Sign.POSITIVE for s in rep.per_index_sign[1:])

    def test_degenerate(self):
        rep = verify_theorem3(kummer_lower(F(1)), 2, 2, 1, 10)
        assert rep.verdict is Verdict.VERIFIED_DEGENERATE

    def test_no_monotonicity_hypothesis_needed(self):
        # lower-family negativity needs no weight-ratio monotonicity at
        # all; even non-monotone weights verify
        spec_weights = pfq_upper((F(1, 4), F(8)), (F(2), F(2)), 12).weights
        from turankit.series import Family, HypSeriesSpec

        spec = HypSeriesSpec(Family.LOWER_FACTOR, spec_weights, 12)
        rep = verify_theorem3(spec, 1, 2, 1, 12)
        assert rep.verdict is Verdict.VERIFIED


class TestTwoSidedBounds:
    def test_reference_case(self):
        xs = [F(1, 4), F(1), F(4), F(16), F(50)]
        rep = verify_corollary_twosided(kummer_upper(F(3)), 1, 2, 1, xs)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.within == [True] * 5
        assert rep.lower_bound.exact == F(1, 2)
        assert rep.upper_bound == 1
        assert rep.approaches_lower
        assert rep.rel_gap_at_top < 0.05

    def test_unsorted_grid_sorted(self):
        rep = verify_corollary_twosided(kummer_upper(F(3)), 1, 2, 1,
                                        [F(4), F(1, 4)])
        assert rep.x_grid == [F(1, 4), F(4)]

    def test_turan_specialization(self):
        rep = verify_turan(kummer_upper(F(5)), 2, 1, [F(3)])
        assert rep.verdict is Verdict.VERIFIED
        assert rep.lower_bound.exact == F(2, 3)
        assert rep.params == {"a": F(2), "delta": F(1)}
        v = rep.ratio_values[0]
        assert F(2, 3) < v.lo and v.hi < 1

    def test_fractional_delta_bound_is_interval(self):
        rep = verify_corollary_twosided(kummer_upper(F(3)), 1, 2, F(1, 2),
                                        [F(1), F(4)])
        assert rep.verdict is Verdict.VERIFIED
        assert rep.lower_bound.exact is None
        assert rep.lower_bound.lo > 0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            verify_corollary_twosided(kummer_upper(F(3)), 2, 1, 1, [F(1)])
        with pytest.raises(DomainError):
            verify_corollary_twosided(kummer_upper(F(3)), 1, 2, 1, [])
        with pytest.raises(DomainError):
            verify_corollary_twosided(kummer_upper(F(3)), 1, 2, 1, [F(-1)])
        with pytest.raises(DomainError):
            # increasing weight ratios: the bound direction does not apply
            verify_corollary_twosided(gauss_upper(F(1), F(2)), 1, 2, 1, [F(1, 2)])

    def test_needs_upper_factor_family(self):
        with pytest.raises(DomainError):
            verify_corollary_twosided(kummer_lower(F(3)), 1, 2, 1, [F(1)])
        with pytest.raises(DomainError):
            verify_turan(kummer_lower(F(3)), 1, 1, [F(1)])


@pytest.mark.parametrize("check, spec", [
    (verify_theorem1, kummer_lower(F(1), 6)),
    (verify_theorem2, kummer_upper(F(1), 6)),
    (verify_theorem3, kummer_gamma(F(1), 6)),
])
def test_sign_check_needs_its_family(check, spec):
    with pytest.raises(DomainError):
        check(spec, 1, 2, 1)


class TestSuites:
    def test_theorem1_suite_all_verified(self):
        reports = suite_theorem1(M=12)
        assert len(reports) == 150
        assert all(r.verdict is Verdict.VERIFIED for r in reports)

    def test_theorem2_suite_all_verified(self):
        reports = suite_theorem2(M=10)
        assert len(reports) == 90
        assert all(r.verdict is Verdict.VERIFIED for r in reports)

    def test_theorem3_suite_all_verified(self):
        reports = suite_theorem3(M=12)
        assert len(reports) == 150
        assert all(r.verdict is Verdict.VERIFIED for r in reports)

    def test_binomial_suite_degenerate_zero(self):
        reports = suite_binomial_degeneracy(M=12)
        assert len(reports) == 30
        for r in reports:
            assert r.verdict is Verdict.VERIFIED
            assert set(r.per_index_sign) == {Sign.ZERO}

    def test_bound_suites(self):
        for rep in suite_corollary() + suite_turan():
            assert rep.verdict is Verdict.VERIFIED


class TestCases:
    def test_default_grid_sizes_in_order(self):
        cases = default_cases("all")
        counts: dict = {}
        for c in cases:
            counts[c.theorem] = counts.get(c.theorem, 0) + 1
        assert list(counts.items()) == [("thm1", 150), ("thm2", 90),
                                        ("thm3", 150), ("binomial", 30),
                                        ("corollary", 1), ("turan", 2)]
        assert {c.spec().order for c in cases if c.theorem == "thm2"} == {30}
        assert default_cases("thm3", 12)[0].M == 12

    def test_spec_order_defaults(self):
        params = {"a": 1, "b": 2, "delta": 1, "c": 3}
        assert Case("corollary", "1f1-upper", params).spec() == kummer_upper(F(3))
        assert Case("thm2", "1f1-gamma", params).spec().order == 30
        assert Case("thm2", "1f1-gamma", params, 12).spec().order == 12

    @pytest.mark.parametrize("theorem, family, params, extra", [
        ("binomial", "1f1-upper", {"a": 1, "b": 2, "delta": 1, "c": 3}, {}),
        ("corollary", "1f1-lower", {"a": 1, "b": 2, "delta": 1, "a0": 3}, {}),
        ("thm1", "2f1-upper", {"a": 1, "b": 2, "delta": 1, "c": 3}, {}),
        ("turan", "1f1-upper", {"a": 1, "b": 2, "delta": 1, "c": 3}, {}),
        ("thm1", "1f1-upper", {"a": 1, "b": 2, "delta": 1, "c": 3},
         {"x_grid": (F(1),)}),
        ("turan", "1f1-upper", {"a": 1, "delta": 1, "c": 3}, {"M": 8}),
    ])
    def test_rejected_cases(self, theorem, family, params, extra):
        with pytest.raises(DomainError):
            Case(theorem, family, params, **extra)
