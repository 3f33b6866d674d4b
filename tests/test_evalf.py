"""Certified series evaluation, classical transformation cross-checks, and
the monotone cross-ratio explorer.

The reference oracle is mpmath.hyper at 60 digits with arguments converted
inside the high-precision context and results captured as exact dyadic
rationals, so containment assertions are meaningful at any width."""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.rational import mpq

from turankit.errors import DomainError, TermCapError
from turankit.evalf import (ConjectureReport, PFQSpec, StepKind,
                            check_euler_pfaff, check_kummer_transform,
                            cross_ratio, default_log_grid, eval_1f1, eval_pfq,
                            explore_conjecture)
from turankit.exact import is_nonpositive_integer, pochhammer
from turankit.intervals import _raw_to_fraction, get_precision
from turankit.series import (gauss_upper, kummer_gamma, kummer_lower,
                             kummer_upper)


def _ref(uppers, lowers, x) -> F:
    with mpmath.workdps(60):
        mpq = lambda q: mpmath.mpf(F(q).numerator) / F(q).denominator
        val = mpmath.hyper([mpq(u) for u in uppers],
                           [mpq(l) for l in lowers], mpq(x))
        return _raw_to_fraction(mpmath.mpf(val)._mpf_)


class TestPFQSpec:
    def test_too_many_uppers(self):
        with pytest.raises(DomainError):
            PFQSpec((F(1), F(2), F(3)), (F(1),))

    def test_nonpositive_integer_lower(self):
        with pytest.raises(DomainError):
            PFQSpec((F(1),), (F(-2),))
        with pytest.raises(DomainError):
            PFQSpec((F(1),), (F(0),))

    def test_from_series_upper(self):
        spec = PFQSpec.from_series(kummer_upper(F(3)), F(1, 2))
        assert spec.upper == (F(1, 2),)
        assert spec.lower == (F(3),)
        spec = PFQSpec.from_series(gauss_upper(F(2), F(5)), F(3, 2))
        assert spec.upper == (F(3, 2), F(2))
        assert spec.lower == (F(5),)

    def test_from_series_lower(self):
        spec = PFQSpec.from_series(kummer_lower(F(3, 4)), F(5, 2))
        assert spec.upper == (F(3, 4),)
        assert spec.lower == (F(5, 2),)

    def test_from_series_gamma_rejected(self):
        with pytest.raises(DomainError):
            PFQSpec.from_series(kummer_gamma(F(2)), F(1))


class TestEvalPfq:
    @pytest.mark.parametrize("up,lo,x", [
        ((F(1, 2),), (F(3, 2),), F(1)),
        ((F(1),), (F(3),), F(5)),
        ((F(1),), (F(3),), F(-4)),
        ((F(1), F(2)), (F(3),), F(1, 2)),
        ((F(1), F(2)), (F(3),), F(-3, 4)),
        ((), (F(1),), F(2)),
        ((F(1), F(2)), (F(3), F(4)), F(5)),
        ((F(5, 2), F(1, 3)), (F(7, 3), F(1, 2)), F(-2)),
    ])
    def test_containment(self, up, lo, x):
        res = eval_pfq(PFQSpec(up, lo), x)
        ref = _ref(up, lo, x)
        assert res.conclusive
        assert res.value.lo <= ref <= res.value.hi

    def test_at_zero_exact(self):
        res = eval_pfq(PFQSpec((F(1, 2),), (F(3),)), F(0))
        assert res.value.exact == 1
        assert res.truncation_bound == 0

    def test_terminating_exact(self):
        spec = PFQSpec((F(-3), F(2)), (F(4),))
        res = eval_pfq(spec, F(7))
        hand = sum(pochhammer(F(-3), n) * pochhammer(F(2), n) * F(7) ** n
                   / (pochhammer(F(4), n) * pochhammer(F(1), n))
                   for n in range(4))
        assert res.value.exact == hand
        assert res.truncation_bound == 0

    def test_divergent_rejected(self):
        with pytest.raises(DomainError):
            eval_pfq(PFQSpec((F(1), F(2)), (F(3),)), F(1))
        with pytest.raises(DomainError):
            eval_pfq(PFQSpec((F(1), F(2)), (F(3),)), F(-3, 2))

    def test_tolerance_controls_width(self):
        tol = F(1, 10 ** 40)
        res = eval_pfq(PFQSpec((F(1),), (F(2),)), F(3), tol=tol)
        assert res.value.width <= tol * F(11, 10)
        ref = _ref((F(1),), (F(2),), F(3))
        assert res.value.lo <= ref <= res.value.hi

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            eval_pfq(PFQSpec((F(1),), (F(2),)), F(1), tol=F(0))

    def test_term_cap_inconclusive_still_contains(self):
        res = eval_pfq(PFQSpec((F(1, 2),), (F(3),)), F(1, 2), term_cap=3)
        assert not res.conclusive
        assert res.truncation_bound > 0
        ref = _ref((F(1, 2),), (F(3),), F(1, 2))
        assert res.value.lo <= ref <= res.value.hi

    def test_term_cap_unbounded_tail_raises(self):
        with pytest.raises(TermCapError):
            eval_pfq(PFQSpec((F(10), F(10)), (F(1, 2),)), F(9, 10), term_cap=3)

    def test_negative_upper_waits_for_positive_shift(self):
        # noninteger negative upper: early terms grow, bound only applies
        # after the parameter turns positive
        res = eval_pfq(PFQSpec((F(-7, 2),), (F(2),)), F(1, 2))
        ref = _ref((F(-7, 2),), (F(2),), F(1, 2))
        assert res.value.lo <= ref <= res.value.hi


# rational parameters, with nonpositive integers drawn often enough that
# terminating sums are common among the upper ones
params = st.fractions(min_value=-6, max_value=6, max_denominator=8)
uppers = st.one_of(params, st.integers(min_value=-6, max_value=0).map(F))
lowers = params.filter(lambda q: not is_nonpositive_integer(q))


def _contains_doubled_ref(res, up, lo, x) -> bool:
    """True when the enclosure contains mpmath's value at twice the working
    digits, give or take that value's own rounding: a relative 10^-(2p-2),
    far inside the 10^-p tolerance, so an exact dyadic sum such as 3/8
    still matches a reference of 0.3749...9.  Parameters enter mpmath as
    exact rationals and x is dyadic, so mpmath sums the very series asked
    for and returns an exact zero as 0."""
    dps = 2 * get_precision()
    with mpmath.workdps(dps):
        val = mpmath.hyper([mpq(u.numerator, u.denominator) for u in up],
                           [mpq(l.numerator, l.denominator) for l in lo],
                           mpq(x.numerator, x.denominator),
                           zeroprec=8 * mpmath.mp.prec)
        ref = _raw_to_fraction(mpmath.mpf(val)._mpf_)
    slack = abs(ref) / 10 ** (dps - 2)
    return res.value.lo - slack <= ref <= res.value.hi + slack


class TestDifferentialAgainstMpmath:
    """Every enclosure contains mpmath's value at twice the precision."""

    @settings(max_examples=150, deadline=None)
    @given(uppers, lowers,
           st.integers(min_value=-96, max_value=96).map(lambda k: F(k, 8)))
    def test_1f1(self, a, c, x):
        res = eval_pfq(PFQSpec((a,), (c,)), x)
        assert _contains_doubled_ref(res, (a,), (c,), x)

    @settings(max_examples=150, deadline=None)
    @given(uppers, uppers, lowers,
           st.integers(min_value=-63, max_value=63).map(lambda k: F(k, 64)))
    def test_2f1_inside_unit_disk(self, a, b, c, x):
        # may stop at the term cap near |x| = 1; still an enclosure
        res = eval_pfq(PFQSpec((a, b), (c,)), x)
        assert _contains_doubled_ref(res, (a, b), (c,), x)


class TestEval1F1:
    @pytest.mark.parametrize("a,c,x", [
        (F(1), F(3), F(4)), (F(1, 2), F(5, 2), F(-6)), (F(2), F(2), F(3)),
    ])
    def test_containment(self, a, c, x):
        res = eval_1f1(a, c, x)
        ref = _ref((a,), (c,), x)
        assert res.value.lo <= ref <= res.value.hi

    def test_transform_agrees_with_direct(self):
        a, c, x = F(1), F(3), F(-5)
        auto = eval_1f1(a, c, x)                      # routed through exp
        direct = eval_1f1(a, c, x, use_transform=False)
        assert auto.value.overlaps(direct.value)
        ref = _ref((a,), (c,), x)
        assert auto.value.lo <= ref <= auto.value.hi

    def test_no_transform_when_difference_negative(self):
        # c - a < 0: alternating route unavailable, direct sum still certified
        res = eval_1f1(F(3), F(2), F(-3))
        ref = _ref((F(3),), (F(2),), F(-3))
        assert res.value.lo <= ref <= res.value.hi
        assert ref < 0  # the enclosure must brave genuine cancellation


class TestKummerTransform:
    @pytest.mark.parametrize("a,c,x", [
        (F(1), F(3), F(1, 2)), (F(1, 2), F(3, 2), F(-3, 4)),
        (F(2), F(3), F(3, 4)), (F(3), F(1, 2), F(-1, 4)),
    ])
    def test_overlap_and_residual(self, a, c, x):
        rep = check_kummer_transform(a, c, x)
        assert rep.overlap
        assert rep.residual < 1e-12

    def test_equal_parameters_exponential(self):
        # a = c: both sides are exp(x)
        rep = check_kummer_transform(F(2), F(2), F(1, 2))
        assert rep.overlap
        ref = _raw_to_fraction(mpmath.mp.e._mpf_) if False else None
        with mpmath.workdps(60):
            ref = _raw_to_fraction(mpmath.exp(mpmath.mpf(1) / 2)._mpf_)
        assert rep.lhs.lo <= ref <= rep.lhs.hi


class TestEulerPfaff:
    def test_all_four_branches_inside_half_disk(self):
        rep = check_euler_pfaff(F(1, 2), F(2), F(3), F(1, 4))
        assert set(rep.values) == {"direct", "euler", "pfaff_a", "pfaff_b"}
        assert rep.all_overlap
        assert rep.max_residual < 1e-12

    def test_negative_x_all_four(self):
        rep = check_euler_pfaff(F(1), F(3, 2), F(2), F(-1, 2))
        assert set(rep.values) == {"direct", "euler", "pfaff_a", "pfaff_b"}
        assert rep.all_overlap

    def test_pfaff_skipped_past_half(self):
        rep = check_euler_pfaff(F(1), F(2), F(3), F(3, 4))
        assert set(rep.values) == {"direct", "euler"}
        assert rep.all_overlap

    def test_direct_skipped_far_negative(self):
        rep = check_euler_pfaff(F(1), F(2), F(3), F(-3))
        assert set(rep.values) == {"pfaff_a", "pfaff_b"}
        assert rep.all_overlap

    def test_x_at_or_past_one_rejected(self):
        with pytest.raises(DomainError):
            check_euler_pfaff(F(1), F(2), F(3), F(1))

    def test_agrees_with_reference(self):
        rep = check_euler_pfaff(F(1, 2), F(5, 2), F(7, 2), F(1, 3))
        ref = _ref((F(1, 2), F(5, 2)), (F(7, 2),), F(1, 3))
        for v in rep.values.values():
            assert v.lo <= ref <= v.hi


class TestCrossRatio:
    def test_containment(self):
        q = cross_ratio(kummer_upper(F(3), 0), F(1), F(2), F(1), F(4))
        with mpmath.workdps(60):
            h = lambda s: mpmath.hyp1f1(s, 3, 4)
            ref = _raw_to_fraction(mpmath.mpf(h(3) * h(1) / (h(2) * h(2)))._mpf_)
        assert q.lo <= ref <= q.hi

    def test_strictly_inside_unit_band(self):
        q = cross_ratio(kummer_upper(F(3), 0), F(1), F(2), F(1), F(4))
        assert F(1, 2) < q.lo and q.hi < 1


class TestConjectureExplorer:
    def test_positive_branch_monotone_down(self):
        xs = default_log_grid(12, F(20))
        rep = explore_conjecture(F(1), F(2), F(1), F(3), xs)
        assert rep.branch == "positive"
        assert rep.violations == 0
        assert rep.undecided == 0
        assert all(s is StepKind.DOWN for s in rep.steps)
        assert rep.expected is StepKind.DOWN
        assert rep.bound.exact == F(1, 2)

    def test_negative_branch_monotone_up(self):
        xs = default_log_grid(10, F(20), negative=True)
        rep = explore_conjecture(F(1), F(2), F(1), F(4), xs)
        assert rep.branch == "negative"
        assert rep.violations == 0
        assert all(s is StepKind.UP for s in rep.steps)
        assert rep.expected is StepKind.UP

    def test_values_stay_in_band(self):
        xs = default_log_grid(8, F(10))
        rep = explore_conjecture(F(1), F(2), F(1), F(3), xs)
        for v in rep.values:
            assert rep.bound.strictly_less(v)
            assert v.hi < 1

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            explore_conjecture(F(1), F(2), F(1), F(3), [])
        with pytest.raises(DomainError):
            explore_conjecture(F(1), F(2), F(1), F(3), [F(1), F(1)])
        with pytest.raises(DomainError):
            explore_conjecture(F(1), F(2), F(1), F(3), [F(-1), F(1)])

    def test_branch_hypotheses(self):
        with pytest.raises(DomainError):
            explore_conjecture(F(2), F(1), F(1), F(3), [F(1), F(2)])
        with pytest.raises(DomainError):
            explore_conjecture(F(1), F(2), F(1), F(3), [F(-2), F(-1)])


class TestDefaultLogGrid:
    def test_shape(self):
        xs = default_log_grid(16, F(50))
        assert len(xs) == 16
        assert xs == sorted(xs)
        assert xs[-1] == 50
        assert all(x > 0 for x in xs)
        assert xs[1] / xs[0] == F(8, 7)

    def test_negative_mirror(self):
        xs = default_log_grid(5, F(10), negative=True)
        assert len(xs) == 5
        assert xs[0] == -10
        assert all(x < 0 for x in xs)
        assert xs == sorted(xs)

    def test_single_point(self):
        assert default_log_grid(1, F(3)) == [F(3)]

    def test_validation(self):
        with pytest.raises(DomainError):
            default_log_grid(0)
        with pytest.raises(DomainError):
            default_log_grid(4, F(-1))
        with pytest.raises(DomainError):
            default_log_grid(4, F(1), ratio=F(3, 2))
