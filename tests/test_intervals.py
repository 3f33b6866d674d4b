"""Certified interval arithmetic: every enclosure must contain an
independently computed higher-precision reference value, and exact tags
must survive rational arithmetic untouched."""

import contextvars
import os
import subprocess
import sys
import threading
from fractions import Fraction as F
from itertools import product

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import (finf, fnan, fninf, from_rational, fzero,
                          round_ceiling, round_floor)

from turankit import evalf, intervals
from turankit.errors import DomainError
from turankit.evalf import _midpoint_residual
from turankit.intervals import (CertifiedInterval, _outward, _raw_to_fraction,
                                _symmetric, ci_exp, ci_log, gamma_ratio,
                                get_precision, log_gamma, rational_power,
                                working_precision)

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=50)
positives = st.fractions(min_value=F(1, 50), max_value=30, max_denominator=50)


def _ref(fn, *args) -> F:
    """Independent reference: evaluate with mpmath at more than double the
    working precision and convert the binary result exactly."""
    with mpmath.workdps(2 * get_precision() + 10):
        mp_args = [mpmath.mpf(a.numerator) / a.denominator if isinstance(a, F)
                   else a for a in args]
        val = fn(*mp_args)
        return _raw_to_fraction(mpmath.mpf(val)._mpf_)


class TestConstruction:
    def test_from_fraction_is_exact(self):
        ci = CertifiedInterval.from_fraction(F(1, 3))
        assert ci.exact == F(1, 3)
        assert ci.width == 0
        assert ci.midpoint == F(1, 3)
        assert ci.lo <= F(1, 3) <= ci.hi

    def test_bounds_order_enforced(self):
        with pytest.raises(DomainError):
            CertifiedInterval.from_fraction_bounds(F(1), F(0))

    def test_around(self):
        ci = CertifiedInterval.around(0, 1, 1, 100)
        assert ci.contains(0)
        assert ci.contains(F(1, 100))
        assert ci.contains(F(-1, 100))
        assert ci.width >= F(2, 100)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-2 ** 200, max_value=2 ** 200),
           st.integers(min_value=1, max_value=2 ** 200),
           st.integers(min_value=0, max_value=2 ** 100),
           st.integers(min_value=1, max_value=2 ** 200),
           st.integers(min_value=0, max_value=40))
    def test_around_unreduced_matches_reduced_sum(self, num, den, rad_num,
                                                  rad_den, shift):
        # the pairs scaled by a common factor give the endpoints of the
        # reduced value plus the reduced radius interval
        k = 3 ** shift << shift
        ci = CertifiedInterval.around(num * k, den * k, rad_num * k,
                                      rad_den * k)
        radius = F(rad_num, rad_den)
        ref = (CertifiedInterval.from_fraction(F(num, den))
               + CertifiedInterval.from_fraction_bounds(-radius, radius))
        assert (ci.lo, ci.hi) == (ref.lo, ref.hi)
        assert ci.exact is None

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            CertifiedInterval.around(0, 1, -1, 1)


class TestEndpointConversion:
    @given(st.integers(min_value=0, max_value=1),
           st.integers(min_value=1, max_value=2 ** 300),
           st.integers(min_value=-3000, max_value=3000))
    def test_matches_power_of_two_product(self, sign, man, exp):
        q = F(man) * F(2) ** exp
        raw = (sign, man, exp, man.bit_length())
        assert _raw_to_fraction(raw) == (-q if sign else q)

    def test_zero_and_non_finite(self):
        assert _raw_to_fraction(fzero) == 0
        for raw in (finf, fninf, fnan):
            with pytest.raises(DomainError):
                _raw_to_fraction(raw)


class TestExactPropagation:
    @given(rationals, rationals)
    def test_add_mul_sub(self, p, q):
        P, Q = CertifiedInterval.from_fraction(p), CertifiedInterval.from_fraction(q)
        assert (P + Q).exact == p + q
        assert (P - Q).exact == p - q
        assert (P * Q).exact == p * q

    @given(rationals, rationals.filter(lambda q: q != 0))
    def test_div(self, p, q):
        P, Q = CertifiedInterval.from_fraction(p), CertifiedInterval.from_fraction(q)
        assert (P / Q).exact == F(p, q)

    def test_div_by_zero_straddle(self):
        num = CertifiedInterval.from_fraction(1)
        den = CertifiedInterval.from_fraction_bounds(F(-1), F(1))
        with pytest.raises(DomainError):
            num / den

    @given(rationals, st.integers(min_value=0, max_value=6))
    def test_pow(self, p, n):
        P = CertifiedInterval.from_fraction(p)
        assert (P ** n).exact == p ** n

    def test_mixed_scalar(self):
        P = CertifiedInterval.from_fraction(F(1, 3))
        assert (P + F(1, 6)).exact == F(1, 2)
        assert (2 * P).exact == F(2, 3)
        assert (1 - P).exact == F(2, 3)


class TestPredicates:
    def test_sign(self):
        assert CertifiedInterval.from_fraction(F(3)).sign() == 1
        assert CertifiedInterval.from_fraction(F(-3)).sign() == -1
        assert CertifiedInterval.from_fraction(0).sign() == 0
        straddle = CertifiedInterval.from_fraction_bounds(F(-1), F(1))
        assert straddle.sign() is None

    def test_strict_order(self):
        a = CertifiedInterval.from_fraction_bounds(F(0), F(1))
        b = CertifiedInterval.from_fraction_bounds(F(2), F(3))
        assert a.strictly_less(b)
        assert not a.overlaps(b)
        c = CertifiedInterval.from_fraction_bounds(F(1, 2), F(5, 2))
        assert a.overlaps(c) and c.overlaps(b)
        assert not a.strictly_less(c)


class TestTranscendental:
    def test_exp_contains_e(self):
        ci = ci_exp(CertifiedInterval.from_fraction(1))
        e_ref = _ref(mpmath.exp, F(1))
        assert ci.lo < e_ref < ci.hi
        assert ci.width < F(1, 10 ** (get_precision() - 2))

    def test_exp_zero_exact(self):
        assert ci_exp(CertifiedInterval.from_fraction(0)).exact == 1

    def test_log_contains_ref(self):
        ci = ci_log(CertifiedInterval.from_fraction(F(1, 3)))
        ref = _ref(mpmath.log, F(1, 3))
        assert ci.lo < ref < ci.hi

    def test_log_one_exact(self):
        assert ci_log(CertifiedInterval.from_fraction(1)).exact == 0

    def test_log_needs_positive(self):
        with pytest.raises(DomainError):
            ci_log(CertifiedInterval.from_fraction(0))

    @given(positives, rationals)
    @settings(max_examples=40, deadline=None)
    def test_rational_power_contains(self, base, expo):
        ci = rational_power(base, expo)
        if expo.denominator == 1:
            # exact: a binary mpmath reference would carry rounding error
            assert ci.exact == base ** expo
            return
        ref = _ref(lambda b, e: mpmath.power(b, e), base, expo)
        assert ci.lo <= ref <= ci.hi

    def test_rational_power_integer_exact(self):
        assert rational_power(F(2, 3), 3).exact == F(8, 27)
        assert rational_power(F(2), -2).exact == F(1, 4)

    def test_sqrt_squares_back(self):
        ci = rational_power(F(2), F(1, 2)) ** 2
        assert ci.contains(F(2))


def _uncached_power(base: F, expo: F) -> CertifiedInterval:
    """base**expo computed afresh through the public interval operations:
    the reference for the memo of rational_power."""
    if expo.denominator == 1:
        return CertifiedInterval.from_fraction(base ** expo.numerator)
    return ci_exp(CertifiedInterval.from_fraction(expo)
                  * ci_log(CertifiedInterval.from_fraction(base)))


# the acceptance test's transformation grid
GRID_PARAMS = (F(1, 2), F(1), F(3, 2), F(2), F(3))
GRID_X_SIGNED = tuple(F(s, 4) * sgn for s in (1, 2, 3) for sgn in (1, -1))


def _acceptance_powers() -> list[tuple[F, F]]:
    """The distinct (base, exponent) pairs of the Euler/Pfaff prefactors
    of the acceptance test's transformation grid, by a spy on
    rational_power as check_euler_pfaff calls it."""
    seen = {}

    def spy(base, expo):
        seen[F(base), F(expo)] = None
        return rational_power(base, expo)

    real, evalf.rational_power = evalf.rational_power, spy
    try:
        for i, a in enumerate(GRID_PARAMS):
            for b in GRID_PARAMS[i:]:
                for c, x in product(GRID_PARAMS, GRID_X_SIGNED):
                    evalf.check_euler_pfaff(a, b, c, x)
    finally:
        evalf.rational_power = real
    return list(seen)


class TestRationalPowerMemo:
    """rational_power shares one enclosure per (base, exponent, precision),
    which must be the enclosure a fresh computation gives."""

    def test_matches_an_uncached_computation(self):
        intervals._rational_power.cache_clear()
        pairs = _acceptance_powers()
        assert len(pairs) == 96
        assert any(e.denominator == 1 for _, e in pairs)
        assert any(e.denominator != 1 for _, e in pairs)
        # 30 digits first, so a memo that ignored the precision would hand
        # the 30-digit enclosures to the 60-digit calls
        for dps in (30, 60):
            with working_precision(dps):
                for base, expo in pairs:
                    got, ref = rational_power(base, expo), _uncached_power(base, expo)
                    assert got._pair == ref._pair and got.exact == ref.exact
                    assert rational_power(base, expo) is got

    def test_each_precision_has_its_own_entry(self):
        intervals._rational_power.cache_clear()
        with working_precision(30):
            low = rational_power(F(5, 4), F(-1, 2))
        with working_precision(60):
            high = rational_power(F(5, 4), F(-1, 2))
        assert intervals._rational_power.cache_info().currsize == 2
        assert high.width < low.width
        with working_precision(30):
            assert rational_power(F(5, 4), F(-1, 2)) is low
            assert rational_power(F(10, 8), F(-2, 4)) is low

    @pytest.mark.parametrize("base", [F(0), F(-1, 2), -3])
    def test_nonpositive_base_raises_on_every_call(self, base):
        intervals._rational_power.cache_clear()
        for expo in (F(1, 2), F(1, 2), 2, 2):
            with pytest.raises(DomainError):
                rational_power(base, expo)
        assert intervals._rational_power.cache_info().currsize == 0


LOG_GAMMA_GRID = [F(1, 10), F(1, 3), F(1, 2), F(1), F(3, 2), F(5, 2),
                  F(29, 7), F(7), F(50), F(1001, 13)]


class TestLogGamma:
    @pytest.mark.parametrize("x", LOG_GAMMA_GRID)
    def test_contains_reference(self, x):
        ci = log_gamma(x)
        ref = _ref(mpmath.loggamma, x)
        assert ci.lo <= ref <= ci.hi
        assert ci.width < F(1, 10 ** (get_precision() - 2))

    def test_integer_points(self):
        # ln,Gamma(1) = ln,Gamma(2) = 0 and ln,Gamma(5) = ln 24
        assert log_gamma(1).contains(0)
        assert log_gamma(2).contains(0)
        ln24 = _ref(mpmath.log, F(24))
        ci = log_gamma(5)
        assert ci.lo <= ln24 <= ci.hi

    def test_needs_positive(self):
        with pytest.raises(DomainError):
            log_gamma(0)
        with pytest.raises(DomainError):
            log_gamma(F(-1, 2))

    @pytest.mark.parametrize("dps", [5, 30, 60, 244, 245, 350, 500, 700, 1000])
    def test_plan_keeps_its_shift(self, dps):
        # the shift is max(12, 2 dps/3) - floor(x), never doubled, and the
        # term count stays below pi z, where the terms stop shrinking
        for x_floor in (0, 1, 5, 50, 300):
            m, terms, bound = intervals._stirling_plan(x_floor, dps)
            assert m == max(0, max(12, 2 * dps // 3) - x_floor)
            assert len(terms) < 3.14 * (x_floor + m)
            assert bound <= F(1, 10 ** (dps + 8))

    def test_contains_reference_at_1000_digits(self):
        with working_precision(1000):
            ci = log_gamma(F(1, 2))
        with mpmath.workdps(1050):
            ref = _raw_to_fraction(mpmath.loggamma(mpmath.mpf(1) / 2)._mpf_)
        assert ci.lo <= ref <= ci.hi
        assert ci.width < F(1, 10 ** 998)

    @given(st.fractions(min_value=F(1, 20), max_value=20, max_denominator=40))
    @settings(max_examples=30, deadline=None)
    def test_recurrence(self, x):
        # ln Gamma(x+1) - ln Gamma(x) encloses ln x
        diff = log_gamma(x + 1) - log_gamma(x)
        assert diff.overlaps(ci_log(CertifiedInterval.from_fraction(x)))


class TestGammaRatio:
    def test_integer_shift_exact(self):
        assert gamma_ratio(F(1, 2), 2).exact == F(3, 4)
        assert gamma_ratio(F(3), 0).exact == 1
        assert gamma_ratio(F(2), 3).exact == 24

    @pytest.mark.parametrize("x,delta", [
        (F(1), F(1, 2)), (F(1, 2), F(1, 2)), (F(3, 2), F(5, 3)),
        (F(10), F(1, 4)), (F(2, 7), F(7, 2)),
    ])
    def test_fractional_shift_contains(self, x, delta):
        ci = gamma_ratio(x, delta)
        ref = _ref(lambda u, v: mpmath.gamma(u + v) / mpmath.gamma(u), x, delta)
        assert ci.lo <= ref <= ci.hi

    def test_sqrt_pi_case(self):
        # Gamma(3/2)/Gamma(1) = sqrt(pi)/2
        ci = gamma_ratio(1, F(1, 2))
        ref = _ref(lambda: mpmath.sqrt(mpmath.pi) / 2)
        assert ci.lo <= ref <= ci.hi

    @given(st.fractions(min_value=F(1, 10), max_value=10, max_denominator=30),
           st.fractions(min_value=0, max_value=4, max_denominator=30),
           st.fractions(min_value=0, max_value=4, max_denominator=30))
    @settings(max_examples=25, deadline=None)
    def test_multiplicative(self, x, d1, d2):
        lhs = gamma_ratio(x, d1 + d2)
        rhs = gamma_ratio(x, d1) * gamma_ratio(x + d1, d2)
        assert lhs.overlaps(rhs)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_ratio(0, 1)
        with pytest.raises(DomainError):
            gamma_ratio(1, -1)


def _ref_gamma_ratio(x: F, delta: F) -> F:
    return _ref(lambda u, v: mpmath.gamma(u + v) / mpmath.gamma(u), x, delta)


class TestGammaRatioMemo:
    """gamma_ratio shares one enclosure per (x, delta, precision), which
    must contain the true ratio at that precision."""

    @pytest.mark.parametrize("x, delta", [(F(3, 2), F(1, 3)), (F(1, 2), F(2))])
    def test_each_precision_has_its_own_entry(self, x, delta):
        with working_precision(30):
            low = gamma_ratio(x, delta)
        # 30 digits first, so a memo that ignored the precision would hand
        # the 30-digit enclosure to the 60-digit call
        with working_precision(60):
            high = gamma_ratio(x, delta)
        info = intervals._gamma_ratio.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
        for dps, ci in ((30, low), (60, high)):
            with working_precision(dps):
                if delta.denominator == 1:
                    # exact: a binary mpmath reference would carry rounding error
                    assert ci.exact == F(3, 4)
                else:
                    # _ref works at twice the precision in force
                    ref = _ref_gamma_ratio(x, delta)
                    assert ci.lo <= ref <= ci.hi
                assert gamma_ratio(x, delta) is ci
                assert gamma_ratio(str(x), str(delta)) is ci
        if delta.denominator != 1:
            assert high.width < low.width

    @pytest.mark.parametrize("x, delta", [(F(0), F(1, 2)), (F(-1, 2), F(1)),
                                          (F(1), F(-1, 2)), (-3, 1), (1, -1)])
    def test_bad_arguments_raise_on_every_call(self, x, delta):
        for _ in range(3):
            with pytest.raises(DomainError):
                gamma_ratio(x, delta)
        info = intervals._gamma_ratio.cache_info()
        assert (info.misses, info.currsize) == (0, 0)


class TestPrecisionControl:
    def test_working_precision_restores(self):
        base = get_precision()
        with working_precision(2 * base):
            assert get_precision() == 2 * base
        assert get_precision() == base

    def test_higher_precision_tightens(self):
        base = get_precision()
        w_lo = log_gamma(F(1, 3)).width
        with working_precision(2 * base):
            w_hi = log_gamma(F(1, 3)).width
        assert w_hi < w_lo

    def test_escalation_gets_its_own_enclosure(self):
        x = F(7, 3)
        with working_precision(30):
            coarse = log_gamma(x)
            with working_precision(60):
                fine = log_gamma(x)
                ref = _ref(mpmath.loggamma, x)
                fresh = intervals._log_gamma.__wrapped__(x, 60)
            assert log_gamma(x) is coarse
        assert fine is not coarse
        assert fine.lo <= ref <= fine.hi
        assert fine.width < F(1, 10 ** 58) and fine.width < coarse.width
        assert (fine.lo, fine.hi) == (fresh.lo, fresh.hi)

    def test_too_small_rejected(self):
        with pytest.raises(DomainError):
            with working_precision(2):
                pass

    def test_env_var_override(self):
        code = ("from turankit.intervals import get_precision;"
                "print(get_precision())")
        env = dict(os.environ, TURANKIT_PRECISION="44")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.stdout.strip() == "44"

    def test_precision_belongs_to_each_thread(self):
        seen = {}
        meet = threading.Barrier(2, timeout=30)

        def run(dps):
            with working_precision(dps):
                meet.wait()  # both threads are now inside their blocks
                lg = log_gamma(F(1, 3))
                ex = ci_exp(F(1, 3))
                meet.wait()
                seen[dps] = (get_precision(), lg.width, ex.width)

        threads = [threading.Thread(target=run, args=(dps,)) for dps in (20, 80)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert [seen[d][0] for d in (20, 80)] == [20, 80]
        for width in seen[20][1:]:
            assert F(1, 10 ** 40) < width < F(1, 10 ** 19)
        for width in seen[80][1:]:
            assert width < F(1, 10 ** 79)

    def test_precision_set_in_a_copied_context_stays_there(self):
        base = get_precision()
        ctx = contextvars.copy_context()
        block = working_precision(base + 7)
        ctx.run(block.__enter__)
        assert ctx.run(get_precision) == base + 7
        assert get_precision() == base
        ctx.run(block.__exit__, None, None, None)
        assert ctx.run(get_precision) == base


# integers with many trailing zero bits, powers of two among them
shifted = st.builds(lambda m, s: m << s,
                    st.integers(min_value=1, max_value=10 ** 40)
                    | st.just(1) | st.just(3),
                    st.integers(min_value=0, max_value=400))


class TestRationalEndpoints:
    @settings(max_examples=600, deadline=None)
    @given(shifted | st.just(0), st.booleans(), shifted,
           st.sampled_from([20, 60, 113, 200]))
    # a remainder far below the last kept bit: only the sticky bit moves
    # the ceiling of 2^300 + 1/3 off 2^300
    @example(3 << 300 | 1, False, 3, 60)
    @example(3 << 300 | 1, True, 3, 60)
    def test_matches_from_rational(self, num, negative, den, prec):
        num = -num if negative else num
        assert _outward(num, den, prec) == (
            from_rational(num, den, prec, round_floor),
            from_rational(num, den, prec, round_ceiling))

    @given(shifted | st.just(0), shifted, st.sampled_from([20, 60, 113, 200]))
    def test_symmetric_radius(self, num, den, prec):
        assert _symmetric(num, den, prec) == (
            from_rational(-num, den, prec, round_floor),
            from_rational(num, den, prec, round_ceiling))


def _fraction_sign(q):
    return (q > 0) - (q < 0)


class _Reference:
    """The predicates on Fraction endpoints, as they were first written."""

    @staticmethod
    def sign(x):
        if x.exact is not None:
            return _fraction_sign(x.exact)
        return 1 if x.lo > 0 else (-1 if x.hi < 0 else None)

    @staticmethod
    def contains_zero(x):
        return x.exact == 0 if x.exact is not None else x.lo <= 0 <= x.hi

    @staticmethod
    def strictly_less(x, y):
        return x.hi < y.lo

    @staticmethod
    def overlaps(x, y):
        return not (x.hi < y.lo or y.hi < x.lo)

    @staticmethod
    def residual(u, v):
        mu = u.exact if u.exact is not None else (u.lo + u.hi) / 2
        mv = v.exact if v.exact is not None else (v.lo + v.hi) / 2
        return float(abs(mu - mv) / max(abs(mu), abs(mv), F(1)))


# dyadics of at most 100 bits, exact at the working precision, so that
# intervals built from them can touch or differ in the last bit
dyadics = st.builds(lambda m, e: F(m) * F(2) ** e,
                    st.integers(min_value=-2 ** 100, max_value=2 ** 100),
                    st.integers(min_value=-150, max_value=150))


@st.composite
def interval_pairs(draw):
    """Two intervals: independent, touching (x.hi == y.lo), one step
    apart at the last bit, or an exact-tagged rational against either."""
    lo, hi = sorted(draw(st.tuples(dyadics, dyadics)))
    x = CertifiedInterval.from_fraction_bounds(lo, hi)
    kind = draw(st.sampled_from(["free", "touch", "step", "exact"]))
    if kind == "free":
        a, b = sorted(draw(st.tuples(dyadics, dyadics)))
    elif kind == "exact":
        q = draw(st.fractions(min_value=-4, max_value=4, max_denominator=60)
                 | st.sampled_from([hi, lo, F(0)]))
        y = CertifiedInterval.from_fraction(q)
        return (x, y) if draw(st.booleans()) else (y, x)
    else:
        # the lowest set bit of hi, so that a step changes its last bit
        n, d = hi.numerator or 1, hi.denominator if hi else 2 ** 150
        step = F(0) if kind == "touch" else draw(
            st.sampled_from([-1, 1])) * F(n & -n, d)
        a = hi + step
        b = a + draw(st.sampled_from([F(0), F(1, 2 ** 90), abs(a)]))
    y = CertifiedInterval.from_fraction_bounds(a, b)
    return (x, y) if draw(st.booleans()) else (y, x)


class TestRawPredicates:
    """sign, contains_zero, strictly_less, overlaps and the transformation
    residual read raw endpoints; each must agree with the Fraction form."""

    @settings(max_examples=400, deadline=None)
    @given(interval_pairs())
    def test_match_fraction_endpoints(self, pair):
        x, y = pair
        for u, v in ((x, y), (y, x)):
            assert u.strictly_less(v) == _Reference.strictly_less(u, v)
            assert u.overlaps(v) == _Reference.overlaps(u, v)
            assert u.sign() == _Reference.sign(u)
            assert u.contains_zero() == _Reference.contains_zero(u)

    def test_touching_endpoints(self):
        a = CertifiedInterval.from_fraction_bounds(F(0), F(1))
        b = CertifiedInterval.from_fraction_bounds(F(1), F(2))
        assert not a.strictly_less(b) and a.overlaps(b) and b.overlaps(a)
        assert CertifiedInterval.from_fraction_bounds(F(0), F(1)).sign() is None
        assert CertifiedInterval.from_fraction_bounds(F(-1), F(0)).sign() is None
        assert CertifiedInterval.from_fraction_bounds(F(0), F(0)).contains_zero()
        assert not CertifiedInterval.from_fraction_bounds(
            F(1, 2 ** 200), F(1)).contains_zero()

    def test_exact_tag_decides(self):
        # the enclosure of 1/3 straddles no zero, but the tag decides sign
        third = CertifiedInterval.from_fraction(F(-1, 3))
        assert third.sign() == -1 and not third.contains_zero()
        zero = CertifiedInterval.from_fraction(0)
        assert zero.sign() == 0 and zero.contains_zero()

    @pytest.mark.parametrize("bad", [finf, fninf, fnan])
    def test_non_finite_endpoint_raises(self, bad):
        ok = CertifiedInterval.from_fraction_bounds(F(-1), F(1))
        for pair in ((bad, bad), (fzero, bad), (bad, fzero)):
            x = CertifiedInterval(pair)
            with pytest.raises(DomainError):
                x.sign()
            with pytest.raises(DomainError):
                x.contains_zero()
            with pytest.raises(DomainError):
                x.midpoint
            with pytest.raises(DomainError):
                _midpoint_residual(x._midpoint_pair(), ok._midpoint_pair())
        x = CertifiedInterval((bad, bad))
        with pytest.raises(DomainError):
            x.strictly_less(ok)
        with pytest.raises(DomainError):
            ok.strictly_less(x)
        with pytest.raises(DomainError):
            x.overlaps(ok)
        with pytest.raises(DomainError):
            ci_log(x)

    @settings(max_examples=400, deadline=None)
    @given(interval_pairs(), st.booleans())
    def test_midpoint_residual_matches_fractions(self, pair, same):
        u, v = pair
        if same:
            v = u
        got = _midpoint_residual(u._midpoint_pair(), v._midpoint_pair())
        ref = _Reference.residual(u, v)
        assert got == ref and repr(got) == repr(ref)
        assert u.midpoint == (u.exact if u.exact is not None
                              else (u.lo + u.hi) / 2)

    @settings(max_examples=200, deadline=None)
    @given(st.fractions(max_denominator=10 ** 12),
           st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=1, max_value=200),
           st.fractions(max_denominator=10 ** 12))
    def test_midpoint_residual_on_wide_enclosures(self, c, r, k, d):
        # non-dyadic centres with a radius, as eval_pfq returns them
        u = CertifiedInterval.around(c.numerator, c.denominator, r, 10 ** k)
        v = CertifiedInterval.around(d.numerator, d.denominator, r, 10 ** k)
        w = u + CertifiedInterval.from_fraction(F(1, 10 ** k))
        for p, q in ((u, v), (u, w), (u, u), (u, CertifiedInterval.from_fraction(d))):
            got = _midpoint_residual(p._midpoint_pair(), q._midpoint_pair())
            ref = _Reference.residual(p, q)
            assert got == ref and repr(got) == repr(ref)
