"""Certified series evaluation, classical transformation cross-checks, and
the monotone cross-ratio explorer.

The reference oracle is mpmath.hyper at 60 digits with arguments converted
inside the high-precision context and results captured as exact dyadic
rationals, so containment assertions are meaningful at any width."""

from dataclasses import dataclass
from fractions import Fraction as F
from math import lcm
from unittest.mock import patch

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.rational import mpq

import turankit.evalf as evalf_mod
from turankit.errors import DomainError, PoleError, TermCapError
from turankit.evalf import (TERM_CAP, ConjectureReport, PFQSpec, StepKind,
                            check_euler_pfaff, check_kummer_transform,
                            cross_ratio, default_log_grid, eval_1f1,
                            eval_pfq, explore_conjecture)
from turankit.exact import is_nonpositive_integer, parse_rational, pochhammer
from turankit.intervals import (CertifiedInterval, _raw_to_fraction,
                                get_precision)
from turankit.series import (gauss_upper, kummer_gamma, kummer_lower,
                             kummer_upper)


def _ref(uppers, lowers, x) -> F:
    with mpmath.workdps(60):
        mpq = lambda q: mpmath.mpf(F(q).numerator) / F(q).denominator
        val = mpmath.hyper([mpq(u) for u in uppers],
                           [mpq(l) for l in lowers], mpq(x))
        return _raw_to_fraction(mpmath.mpf(val)._mpf_)


def _stop(upper) -> int | None:
    """The index of the last term of a series with these upper parameters,
    or None when it does not stop, found afresh."""
    return min((-int(u) for u in upper if u <= 0 and u.denominator == 1),
               default=None)


def _stopped_sum(up, lo, x, stop) -> F:
    """Oracle: the terms 0..stop of pFq(up; lo; x), each from its own
    Pochhammer products."""
    total = F(0)
    for k in range(stop + 1):
        num, den = F(x) ** k, pochhammer(F(1), k)
        for u in up:
            num *= pochhammer(F(u), k)
        for l in lo:
            den *= pochhammer(F(l), k)
        total += num / den
    return total


class TestPFQSpec:
    def test_too_many_uppers(self):
        with pytest.raises(DomainError):
            PFQSpec((F(1), F(2), F(3)), (F(1),))

    def test_too_many_uppers_allowed_when_stopping(self):
        assert PFQSpec((F(-2), F(1), F(3)), ()).stop == 2

    def test_nonpositive_integer_lower(self):
        with pytest.raises(PoleError):
            PFQSpec((F(1),), (F(-2),))
        with pytest.raises(PoleError):
            PFQSpec((F(1),), (F(0),))

    @pytest.mark.parametrize("up,lo,stop", [
        ((F(-1),), (F(-2),), 1),
        ((F(-2),), (F(-2),), 2),
        ((F(-5), F(1, 2), F(-3)), (F(-3), F(4)), 3),
        ((F(0),), (F(0),), 0),
    ])
    def test_lower_past_stop_allowed(self, up, lo, stop):
        assert PFQSpec(up, lo).stop == stop

    @pytest.mark.parametrize("up,lo", [
        ((F(-3),), (F(-2),)),
        ((F(-5), F(1, 2)), (F(-4), F(4))),
        ((F(-1),), (F(0),)),
    ])
    def test_pole_before_stop(self, up, lo):
        with pytest.raises(PoleError):
            PFQSpec(up, lo)

    def test_stop_is_none_without_integer_upper(self):
        assert PFQSpec((F(-1, 2), F(3)), (F(1),)).stop is None

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

    def test_lower_past_stop_matches_mpmath_convention(self):
        # mpmath: hyp1f1(-1, -2, 0.5) = 1.25
        res = eval_pfq(PFQSpec((F(-1),), (F(-2),)), F(1, 2))
        assert res.value.exact == F(5, 4) == _ref((F(-1),), (F(-2),), F(1, 2))
        assert res.terms_used == 2

    @pytest.mark.parametrize("up,lo,x", [
        ((F(-3), F(1, 2)), (F(-5),), F(2, 3)),
        ((F(-2), F(-4)), (F(-2), F(3, 2)), F(-1)),
        ((F(-4), F(7, 3)), (F(-4), F(-6)), F(5)),
        ((F(-2), F(1), F(1)), (), F(3)),
        ((F(-6), F(5, 2), F(-7, 3), F(1, 3)), (F(-6), F(-9, 2), F(2)), F(-1)),
    ])
    def test_lower_past_stop_exact(self, up, lo, x):
        spec = PFQSpec(up, lo)
        res = eval_pfq(spec, x)
        assert res.value.exact == _stopped_sum(up, lo, x, _stop(up))
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

    def test_no_transform_at_nonpositive_integer_c(self):
        # 1F1(-1; -1; x) = 1 + x, but exp(x) 1F1(0; -1; -x) = exp(x)
        assert eval_1f1(F(-1), F(-1), F(-1, 2)).value.exact == F(1, 2)
        with pytest.raises(DomainError, match="transformation fails"):
            eval_1f1(F(-1), F(-1), F(-1, 2), use_transform=True)

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

    def test_c_nonpositive_integer_refused(self):
        # both sides stop before the pole at c = -2, but 1F1(-1; -2; 1/2)
        # = 5/4 while exp(1/2) 1F1(-1; -2; -1/2) = 3/4 exp(1/2)
        with pytest.raises(DomainError, match="transformation"):
            check_kummer_transform(F(-1), F(-2), F(1, 2))

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

    def test_c_nonpositive_integer_refused(self):
        with pytest.raises(DomainError, match="transformation"):
            check_euler_pfaff(F(-1), F(1), F(-2), F(1, 4))

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

    @pytest.mark.parametrize("delta", [F(0), F(-1, 2)])
    def test_delta_must_be_positive(self, delta, monkeypatch):
        def no_work(*args):
            raise AssertionError("a bad delta must be refused before any work")

        monkeypatch.setattr(evalf_mod, "cross_ratio", no_work)
        monkeypatch.setattr(evalf_mod, "gamma_quotient", no_work)
        for xs in ([F(1), F(2)], [F(-2), F(-1)]):
            with pytest.raises(DomainError, match="need delta > 0"):
                explore_conjecture(F(1), F(2), delta, F(4), xs)

    def test_branch_hypotheses(self):
        with pytest.raises(DomainError):
            explore_conjecture(F(2), F(1), F(1), F(3), [F(1), F(2)])
        with pytest.raises(DomainError):
            explore_conjecture(F(1), F(2), F(1), F(3), [F(-2), F(-1)])


class TestTamperedExplore:
    """explore_conjecture reads each step from the two enclosures
    cross_ratio returns; these return chosen ones, as no true input gives
    a wrong-direction step."""

    # enclosures by name: two certainly apart, and one that overlaps both
    LEVELS = {"low": (F(1, 2), F(5, 8)), "high": (F(3, 4), F(7, 8)),
              "wide": (F(9, 16), F(13, 16))}

    def _scan(self, monkeypatch, xs, names):
        table = dict(zip(xs, names))

        def tampered(spec, a, b, delta, x, tol=None):
            return CertifiedInterval.from_fraction_bounds(*self.LEVELS[table[x]])

        monkeypatch.setattr(evalf_mod, "cross_ratio", tampered)
        return explore_conjecture(F(1), F(2), F(1), F(4), xs)

    @pytest.mark.parametrize("branch, xs, violations", [
        ("positive", [F(1), F(2), F(3), F(4), F(5)], 1),
        ("negative", [F(-5), F(-4), F(-3), F(-2), F(-1)], 2),
    ])
    def test_steps_violations_and_undecided(self, monkeypatch, branch, xs,
                                            violations):
        # down, up, down, undecided: on the positive branch the up step is
        # the violation, on the negative branch the two down steps
        rep = self._scan(monkeypatch, xs, ["high", "low", "high", "low", "wide"])
        assert rep.branch == branch
        assert rep.steps == [StepKind.DOWN, StepKind.UP, StepKind.DOWN,
                             StepKind.UNDECIDED]
        assert (rep.violations, rep.undecided) == (violations, 1)

    @pytest.mark.parametrize("xs, names, expected", [
        ([F(1), F(2), F(3)], ["high", "low", "low"], StepKind.DOWN),
        ([F(-3), F(-2), F(-1)], ["low", "high", "high"], StepKind.UP),
    ])
    def test_a_tie_is_undecided_never_expected(self, monkeypatch, xs, names,
                                               expected):
        # equal enclosures overlap, so that step is undecided on either branch
        rep = self._scan(monkeypatch, xs, names)
        assert rep.steps == [expected, StepKind.UNDECIDED]
        assert (rep.violations, rep.undecided) == (0, 1)


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


# -- the summation loop before the bit-length tail screen -------------------
# Kept verbatim as the reference that eval_pfq must match field for field,
# apart from the names of the result type and helpers, and with the
# CertifiedInterval.widened it called kept as a function here.

@dataclass
class _ReferenceResult:
    value: CertifiedInterval
    terms_used: int
    truncation_bound: F
    conclusive: bool = True


def _widened(ci: CertifiedInterval, radius) -> CertifiedInterval:
    radius = F(radius)
    if radius < 0:
        raise DomainError("negative widening radius")
    return ci + CertifiedInterval.from_fraction_bounds(-radius, radius)


def _reference_tail_pairs(spec: PFQSpec, scale: int):
    dens = sorted(spec.lower + (F(1),), reverse=True)
    ups = sorted(spec.upper, reverse=True)
    pairs = [(int(u * scale), int(d * scale))
             for u, d in zip(ups, dens) if u > d]
    return pairs, [int(d * scale) for d in dens[len(ups):]]


def _reference_eval_pfq(spec: PFQSpec, x, tol=None, term_cap: int = TERM_CAP):
    Fraction = F
    x = parse_rational(x) if not isinstance(x, Fraction) else x
    if tol is None:
        tol = Fraction(1, 10 ** get_precision())
    else:
        tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    if tol <= 0:
        raise DomainError("tolerance must be positive")

    stop = _stop(spec.upper)
    if x == 0:
        return _ReferenceResult(CertifiedInterval.from_fraction(Fraction(1)), 1, Fraction(0))
    if stop is None and spec.p == spec.q + 1 and abs(x) >= 1:
        raise DomainError(
            f"series with p = q + 1 diverges at |x| = {abs(x)} >= 1")

    # ratio bound is valid only once every shifted parameter is positive
    n_min = 0
    for u in spec.upper:
        if u <= 0:
            n_min = max(n_min, 1 + int(-u))
    for l in spec.lower:
        if l <= 0:
            n_min = max(n_min, 1 + int(-l))

    D = lcm(*(v.denominator for v in spec.upper + spec.lower))
    ups = [int(u * D) for u in spec.upper]
    lows = [int(l * D) for l in spec.lower]
    x_num, x_den = x.numerator, x.denominator
    a_scale = x_num * D ** max(spec.q - spec.p, 0)
    b_scale = x_den * D ** max(spec.p - spec.q, 0)
    pairs, unpaired = _reference_tail_pairs(spec, D)
    rn_scale = abs(x_num) * D ** len(unpaired)
    tol_lhs, tol_rhs = 2 * tol.denominator, tol.numerator

    def ratio_bound(nD: int) -> tuple[int, int]:
        rn, rd = rn_scale, x_den
        for u, d in pairs:
            rn *= u + nD
            rd *= d + nD
        for d in unpaired:
            rd *= d + nD
        return rn, rd

    cap = term_cap if stop is None else stop
    tn = sn = T = 1
    n = 0
    while n < cap:
        nD = n * D
        a, b = a_scale, b_scale * (n + 1)
        for u in ups:
            a *= u + nD
        for l in lows:
            b *= l + nD
        if b < 0:
            a, b = -a, -b
        tn *= a
        sn = sn * b + tn
        T *= b
        n += 1
        if stop is None and n >= n_min:
            rn, rd = ratio_bound(nD + D)
            if rn < rd and (abs(tn) * (rn * tol_lhs)
                            <= T * ((rd - rn) * tol_rhs)):
                bound = Fraction(abs(tn) * rn, T * (rd - rn))
                value = CertifiedInterval.from_fraction(Fraction(sn, T))
                return _ReferenceResult(_widened(value, bound), n + 1, bound)
    if stop is not None:
        return _ReferenceResult(CertifiedInterval.from_fraction(Fraction(sn, T)),
                                stop + 1, Fraction(0))
    r = Fraction(*ratio_bound(n * D))
    if r >= 1:
        raise TermCapError(
            f"no certifiable tail bound within {term_cap} terms")
    bound = Fraction(abs(tn), T) * r / (1 - r)
    value = _widened(CertifiedInterval.from_fraction(Fraction(sn, T)), bound)
    return _ReferenceResult(value, n + 1, bound, conclusive=False)


def _n_min(spec: PFQSpec) -> int:
    return max([1 + int(-v) for v in spec.upper + spec.lower if v <= 0],
               default=0)


def _outcome(fn, *args, **kwargs):
    """Every field of the result, or the type of the error raised."""
    try:
        res = fn(*args, **kwargs)
    except (DomainError, TermCapError) as exc:
        return type(exc)
    return (res.terms_used, res.truncation_bound, res.conclusive,
            res.value.lo, res.value.hi, res.value.exact)


def _assert_matches_reference(spec, x, **kwargs):
    got = _outcome(eval_pfq, spec, x, **kwargs)
    if (_stop(spec.upper) is None and x != 0
            and kwargs.get("term_cap", TERM_CAP) < _n_min(spec)
            and got is not DomainError):
        # the reference used its ratio bound at a cap where it does not
        # hold yet; eval_pfq finds no tail bound there
        assert got is TermCapError
        return
    assert got == _outcome(_reference_eval_pfq, spec, x, **kwargs)


TINY = F(1, 10 ** 1000)
small = st.fractions(min_value=-5, max_value=5, max_denominator=6)
diff_upper = st.one_of(small, st.integers(min_value=-4, max_value=0).map(F))
diff_lower = small.filter(lambda q: not is_nonpositive_integer(q))


@st.composite
def pfq_cases(draw):
    """A spec with p <= 3 and q <= 2, an x inside the disk of convergence
    when p = q + 1, and a tolerance and term cap, some of them drawn so
    that the tail test lands within a few bits of a tie."""
    q = draw(st.integers(min_value=0, max_value=2))
    p = draw(st.integers(min_value=0, max_value=q + 1))
    upper = tuple(draw(st.lists(diff_upper, min_size=p, max_size=p)))
    stop = _stop(upper)
    # a lower parameter -n with n >= stop is no pole
    lower = diff_lower if stop is None else st.one_of(
        diff_lower, st.integers(min_value=stop, max_value=stop + 3).map(lambda n: F(-n)))
    spec = PFQSpec(upper, tuple(draw(st.lists(lower, min_size=q, max_size=q))))
    limit = 1 if p == q + 1 else 6
    x = draw(st.fractions(min_value=-limit, max_value=limit,
                          max_denominator=16))
    if p == q + 1 and abs(x) == 1:
        x /= 2
    kwargs = {}
    if draw(st.booleans()):
        kwargs["term_cap"] = draw(st.integers(min_value=0, max_value=30))
    tol = draw(st.sampled_from(["default", "power", "tie"]))
    if tol == "power":
        kwargs["tol"] = F(1, 10 ** draw(st.integers(min_value=0, max_value=60)))
    elif tol == "tie":
        # twice the capped bound at n is the tolerance at which the tail
        # test at n ties, here nudged by a factor (m + j)/m, j in {-1, 0, 1},
        # that varies the leading bits of both sides
        k = draw(st.integers(min_value=max(_n_min(spec), 1), max_value=40))
        try:
            capped = _reference_eval_pfq(spec, x, tol=TINY, term_cap=k)
        except (DomainError, TermCapError):
            capped = None
        if capped is not None and not capped.conclusive:
            m = draw(st.integers(min_value=2 ** 40, max_value=2 ** 80))
            j = draw(st.integers(min_value=-1, max_value=1))
            kwargs["tol"] = 2 * capped.truncation_bound * F(m + j, m)
    return spec, x, kwargs


class TestAgainstReferenceLoop:
    """eval_pfq gives, field for field, what the summation loop gave before
    the tail test was screened by bit lengths."""

    @settings(max_examples=400, deadline=None)
    @given(pfq_cases())
    # a tolerance met by the first term alone: the test is never tried at
    # n = 0, and a cap of 0 still gives the bound after the first term
    @example((PFQSpec((F(1, 2),), (F(3),)), F(1, 16), {"tol": F(1)}))
    @example((PFQSpec((F(1, 2),), (F(3),)), F(1, 16), {"term_cap": 0}))
    def test_every_field_matches(self, case):
        spec, x, kwargs = case
        _assert_matches_reference(spec, x, **kwargs)

    @pytest.mark.parametrize("n", [3, 5, 20, 40])
    def test_tie_passes_at_its_index(self, n):
        # The tail bound of 1F1(1; 2; 3) exists from n = 3 on and falls at
        # every n, so the test at n ties when tol is twice the bound there.
        # Nudged by (m + j)/m for m across [2^40, 2^41), the two sides of
        # the test differ by a hair, either way, with varied leading bits:
        # some of these land one bit either side of the screen's band.
        spec, x = PFQSpec((F(1),), (F(2),)), F(3)
        tie = 2 * eval_pfq(spec, x, tol=TINY, term_cap=n).truncation_bound
        for m in range(2 ** 40, 2 ** 41, 2 ** 34):
            for j in (-1, 0, 1):
                tol = tie * F(m + j, m)
                res = eval_pfq(spec, x, tol=tol)
                assert res.terms_used == (n + 2 if j < 0 else n + 1)
                assert res.conclusive
                _assert_matches_reference(spec, x, tol=tol)

    def test_cap_below_positive_shift_has_no_tail_bound(self):
        # 1F1(-21/2; 1; 1/2): the ratio bound holds from n = 11 on; the
        # reference loop used it at n = 1 and returned an interval that
        # misses the true value
        spec, x = PFQSpec((F(-21, 2),), (F(1),)), F(1, 2)
        ref = _ref(spec.upper, spec.lower, x)
        stale = _reference_eval_pfq(spec, x, term_cap=1)
        assert not stale.value.lo <= ref <= stale.value.hi
        for cap in (1, 10):
            with pytest.raises(TermCapError):
                eval_pfq(spec, x, tol=F(1), term_cap=cap)
        res = eval_pfq(spec, x, term_cap=11)
        assert not res.conclusive
        assert res.value.lo <= ref <= res.value.hi


@st.composite
def long_pfq_cases(draw):
    """1F1 with x in [-200, 200] and 2F1 with |x| <= 15/16, at tolerances
    down to 10^-350, so that sums run to hundreds or thousands of terms
    and the product tree is many levels deep; some term caps fall below
    the stopping index."""
    if draw(st.booleans()):
        spec = PFQSpec((draw(small),), (draw(diff_lower),))
        x = draw(st.fractions(min_value=-200, max_value=200, max_denominator=16))
    else:
        spec = PFQSpec((draw(small), draw(small)), (draw(diff_lower),))
        x = draw(st.fractions(min_value=F(-15, 16), max_value=F(15, 16),
                              max_denominator=16))
    kwargs = {"tol": F(1, 10 ** draw(st.integers(min_value=0, max_value=350)))}
    if draw(st.booleans()):
        try:
            full = eval_pfq(spec, x, **kwargs)
        except (DomainError, TermCapError):
            full = None
        if full is not None and full.terms_used > 1:
            kwargs["term_cap"] = draw(st.integers(min_value=0,
                                                  max_value=full.terms_used - 2))
    return spec, x, kwargs


class TestProductTree:
    """Long sums against the reference loop, and the float guess at the
    stopping index confirmed exactly whatever it says."""

    @settings(max_examples=40, deadline=None)
    @given(long_pfq_cases())
    @example((PFQSpec((F(1),), (F(3),)), F(3000), {}))
    def test_long_sums_match_reference(self, case):
        spec, x, kwargs = case
        _assert_matches_reference(spec, x, **kwargs)

    @pytest.mark.parametrize("x, tol", [(F(1, 10 ** 400), F(1, 10 ** 1000)),
                                        (F(-1, 10 ** 400), F(1, 10 ** 1000)),
                                        (F(1000), None), (F(-1000), None)])
    def test_x_past_float_range_or_large(self, x, tol):
        # 10^-400 underflows a float; at tol 10^-1000 the test fails at n0,
        # so the guess runs, and works in logs
        guess = patch.object(evalf_mod, "_guess_stop",
                             wraps=evalf_mod._guess_stop)
        with guess as spy:
            _assert_matches_reference(PFQSpec((F(1, 3),), (F(7, 2),)), x,
                                      tol=tol)
        assert spy.called

    @pytest.mark.parametrize("upper, lower", [
        (F(-5) + F(1, 10 ** 20), F(1)),    # rounds to -5.0, a pole of lgamma
        (F(10 ** 400), F(10 ** 400 + 1)),  # past the float range
    ], ids=["near_pole_of_lgamma", "past_float_range"])
    def test_guess_that_floats_cannot_make(self, upper, lower):
        # the guess raises, and the exact search runs without a hint
        real, raised = evalf_mod._guess_stop, []

        def guess(*args):
            try:
                return real(*args)
            except (ArithmeticError, ValueError) as exc:
                raised.append(exc)
                raise

        with patch.object(evalf_mod, "_guess_stop", guess):
            _assert_matches_reference(PFQSpec((upper,), (lower,)), F(50))
        assert raised

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(pfq_cases(), long_pfq_cases()))
    def test_wrong_guess_changes_nothing(self, case):
        spec, x, kwargs = case
        _assert_matches_reference(spec, x, **kwargs)
        want = _outcome(eval_pfq, spec, x, **kwargs)
        guesses = [lambda terms, n0, cap, log_tol: n0 + 1,
                   lambda terms, n0, cap, log_tol: cap]
        if isinstance(want, tuple) and want[2] and _stop(spec.upper) is None:
            stop = want[0] - 1  # the index the tail test first passes at
            guesses += [lambda *args: stop - 3, lambda *args: stop + 3]
        for guess in guesses:
            with patch.object(evalf_mod, "_guess_stop", guess):
                assert _outcome(eval_pfq, spec, x, **kwargs) == want

    def test_guess_is_exact_on_typical_sums(self):
        # the float guess hits the stopping index of these sums, each of
        # which needs one, so the exact search tries no third index
        cases = [(PFQSpec((F(1),), (F(3),)), F(3000)),
                 (PFQSpec((F(1, 2), F(3)), (F(3, 2),)), F(-3, 4)),
                 (PFQSpec((F(2),), (F(3),)), F(50)),
                 (PFQSpec((F(1),), (F(2),)), F(1, 4))]
        for spec, x in cases:
            tried = []
            passes = evalf_mod._first_pass

            def record(test, lo, hi, hints=()):
                if hints:  # the exact search, not the one for n0
                    test = lambda m, test=test: tried.append(m) or test(m)
                return passes(test, lo, hi, hints)

            with patch.object(evalf_mod, "_first_pass", record):
                res = eval_pfq(spec, x)
            stop = res.terms_used - 1
            assert tried == [stop - 1, stop]
