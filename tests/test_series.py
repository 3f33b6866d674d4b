"""Series families and exact cross-product coefficients.

Oracles here are deliberately independent re-derivations: plain double-loop
convolutions over Pochhammer symbols for the exact coefficients, and
60-digit floating Gamma evaluation for the gamma-factor signs.
"""

import math
import operator
import sys
import threading
from dataclasses import replace
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turankit import series as series_module
from turankit import verify as verify_module
from turankit.errors import DomainError, PoleError
from turankit.intervals import (CertifiedInterval, get_precision,
                                working_precision)
from turankit.series import (DEFAULT_ORDER, Family, HypSeriesSpec, MonotoneClass,
                             Sign, WeightRule, binomial_upper, gamma_quotient,
                             gauss_lower, gauss_upper, half_range_pass,
                             kummer_gamma, kummer_lower, kummer_upper,
                             lambda_coefficients, mk_profile,
                             pair_signs, phi_coefficients, psi_coefficients,
                             sign_of, weight_ratio_class)
from turankit.exact import pochhammer
from turankit.verify import (Verdict, default_cases, verify_theorem1,
                             verify_theorem2, verify_theorem3)


# ---------------------------------------------------------------- oracles

def _weight(rule, n):
    """w_n = prod (u)_n / [prod (l)_n * (n!)^inv_factorial] from the
    definition, independent of the ratio recurrence the package uses."""
    w = F(math.prod(pochhammer(u, n) for u in rule.upper))
    w /= math.prod(pochhammer(l, n) for l in rule.lower)
    return w / math.factorial(n) if rule.inv_factorial else w


def _weighted_sum(prof, rule):
    """sum_k w_k w_{m-k} M_k over the profile; equals the coefficient."""
    return sum(v * (_weight(rule, k) * _weight(rule, prof.m - k))
               for k, v in enumerate(prof.values))


def _upper_coeffs(spec, s, M):
    return [_weight(spec.weights, n) * pochhammer(s, n) / math.factorial(n)
            for n in range(M + 1)]


def _lower_coeffs(spec, s, M):
    return [_weight(spec.weights, n) / pochhammer(s, n) for n in range(M + 1)]


def _convolve(u, v):
    M = len(u) - 1
    return [sum(u[k] * v[m - k] for k in range(m + 1)) for m in range(M + 1)]


def _phi_oracle(spec, a, b, d, M):
    fa = _upper_coeffs(spec, F(a) + F(d), M)
    fb = _upper_coeffs(spec, F(b), M)
    ga = _upper_coeffs(spec, F(a), M)
    gb = _upper_coeffs(spec, F(b) + F(d), M)
    lhs, rhs = _convolve(fa, fb), _convolve(gb, ga)
    return [p - q for p, q in zip(lhs, rhs)]


def _lambda_oracle(spec, a, b, d, M):
    fa = _lower_coeffs(spec, F(a) + F(d), M)
    fb = _lower_coeffs(spec, F(b), M)
    ga = _lower_coeffs(spec, F(a), M)
    gb = _lower_coeffs(spec, F(b) + F(d), M)
    lhs, rhs = _convolve(fa, fb), _convolve(gb, ga)
    return [p - q for p, q in zip(lhs, rhs)]


def _psi_parts_oracle(spec, a, b, d, M):
    """S1_m and S2_m of the factored psi_m as full-range double loops."""
    w = [_weight(spec.weights, n) for n in range(M + 1)]
    a, b, d = F(a), F(b), F(d)

    def conv(s, t):
        return [sum(w[k] * w[m - k] * pochhammer(s, k) * pochhammer(t, m - k)
                    for k in range(m + 1)) for m in range(M + 1)]

    return conv(a + d, b), conv(b + d, a)


def _profile_oracle(family, a, b, d, m):
    """M_k for k = 0..m//2 from the definition: the k-th and (m-k)-th
    terms of the convolution, one Pochhammer product each.  For the gamma
    family, the pairs (p_k, q_k)."""
    a, b, d = F(a), F(b), F(d)

    def term(s, t, i, l):
        if family is Family.UPPER_FACTOR:
            return pochhammer(s, i) * pochhammer(t, l) / (
                math.factorial(i) * math.factorial(l))
        if family is Family.LOWER_FACTOR:
            return 1 / (pochhammer(s, i) * pochhammer(t, l))
        return pochhammer(s, i) * pochhammer(t, l)

    out = []
    for k in range(m // 2 + 1):
        folded = {(k, m - k), (m - k, k)}
        p = sum(term(a + d, b, i, l) for i, l in folded)
        q = sum(term(a, b + d, i, l) for i, l in folded)
        out.append((p, q) if family is Family.GAMMA_FACTOR else p - q)
    return out


def _gamma_profile_numeric(a, b, d, p, q):
    """Gamma(a+d)Gamma(b) p - Gamma(a)Gamma(b+d) q at 60 digits, as a
    Fraction."""
    from turankit.intervals import _raw_to_fraction

    with mpmath.workdps(60):
        mpq = lambda v: mpmath.mpf(v.numerator) / v.denominator
        g = lambda v: mpmath.gamma(mpq(v))
        value = g(a + d) * g(b) * mpq(p) - g(a) * g(b + d) * mpq(q)
        return _raw_to_fraction(value._mpf_)


def _psi_numeric(spec, a, b, d, m):
    """psi_m by direct 60-digit Gamma summation (no factoring)."""
    with mpmath.workdps(60):
        mpq = lambda q: mpmath.mpf(q.numerator) / q.denominator
        g = mpmath.gamma
        a, b, d = F(a), F(b), F(d)
        total = mpmath.mpf(0)
        for k in range(m + 1):
            wk = mpq(_weight(spec.weights, k) * _weight(spec.weights, m - k))
            total += wk * (g(mpq(a + d) + k) * g(mpq(b) + m - k)
                           - g(mpq(b + d) + k) * g(mpq(a) + m - k))
        return total


shift_pairs = st.tuples(
    st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8),
    st.fractions(min_value=F(1, 4), max_value=4, max_denominator=8),
    st.fractions(min_value=F(1, 4), max_value=3, max_denominator=8),
)


# ----------------------------------------------------------- weight rules

class TestWeightRule:
    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            WeightRule(upper=(F(0),))
        with pytest.raises(DomainError):
            WeightRule(lower=(F(-1, 2),))

    def test_ratio_consistent_with_weight(self):
        wr = WeightRule(upper=(F(3, 2),), lower=(F(2), F(5, 3)), inv_factorial=True)
        for n in range(1, 9):
            assert wr.ratio(n) == _weight(wr, n) / _weight(wr, n - 1)

    def test_ratio_needs_positive_index(self):
        with pytest.raises(DomainError):
            WeightRule().ratio(0)

    @pytest.mark.parametrize("spec,expected", [
        (kummer_upper(F(3), 12), MonotoneClass.DECREASING),
        (kummer_upper(F(1, 2), 12), MonotoneClass.DECREASING),
        (gauss_upper(F(2), F(1), 12), MonotoneClass.DECREASING),
        (gauss_upper(F(1), F(2), 12), MonotoneClass.INCREASING),
        (binomial_upper(12), MonotoneClass.CONSTANT),
        (HypSeriesSpec(Family.UPPER_FACTOR,
                       WeightRule(upper=(F(1, 4), F(8)), lower=(F(2), F(2))), 10),
         MonotoneClass.NEITHER),
    ])
    def test_monotone_class(self, spec, expected):
        assert weight_ratio_class(spec) is expected

    def test_class_depends_on_window(self):
        # same weights, short window: the dip past n = 4 is not yet visible
        spec4 = HypSeriesSpec(Family.UPPER_FACTOR,
                              WeightRule(upper=(F(1, 4), F(8)), lower=(F(2), F(2))), 4)
        assert weight_ratio_class(spec4) is MonotoneClass.INCREASING


# --------------------------------------------------- phi (upper families)

PHI_SPECS = [kummer_upper(F(1)), kummer_upper(F(3)), gauss_upper(F(2), F(1)),
             gauss_upper(F(1), F(2)), binomial_upper()]


class TestPhi:
    def test_frozen_value(self):
        phi = phi_coefficients(kummer_upper(F(1), 4), 1, 2, 1)
        assert phi[:5] == [F(0), F(0), F(1, 2), F(1), F(1)]

    @pytest.mark.parametrize("spec", PHI_SPECS)
    @pytest.mark.parametrize("abd", [(1, 2, 1), (F(1, 2), 3, F(1, 2)),
                                     (F(3, 2), 2, F(5, 2)), (2, F(7, 3), F(1, 3))])
    def test_matches_oracle(self, spec, abd):
        a, b, d = abd
        M = 10
        got = phi_coefficients(replace(spec, order=M), a, b, d)
        assert got == _phi_oracle(spec, a, b, d, M)

    @given(shift_pairs)
    @settings(max_examples=30, deadline=None)
    def test_low_coefficients_vanish(self, abd):
        a, b, d = abd
        phi = phi_coefficients(kummer_upper(F(2), 6), a, b, d)
        assert phi[0] == 0 and phi[1] == 0

    @given(shift_pairs)
    @settings(max_examples=30, deadline=None)
    def test_antisymmetric_in_shifts(self, abd):
        a, b, d = abd
        spec = gauss_upper(F(2), F(1), 8)
        fwd = phi_coefficients(spec, a, b, d)
        rev = phi_coefficients(spec, b, a, d)
        assert rev == [-v for v in fwd]

    def test_decreasing_ratio_gives_positive(self):
        phi = phi_coefficients(kummer_upper(F(3), 14), 1, 2, F(1, 2))
        assert all(v > 0 for v in phi[2:])

    def test_increasing_ratio_gives_negative(self):
        phi = phi_coefficients(gauss_upper(F(1), F(2), 14), 1, 2, F(1, 2))
        assert all(v < 0 for v in phi[2:])

    def test_constant_ratio_gives_zero(self):
        phi = phi_coefficients(binomial_upper(14), F(1, 2), F(7, 2), F(4, 3))
        assert all(v == 0 for v in phi)

    def test_family_guard(self):
        with pytest.raises(DomainError):
            phi_coefficients(kummer_lower(F(1), 4), 1, 2, 1)


# ------------------------------------------------- lambda (lower families)

LAMBDA_SPECS = [kummer_lower(F(1)), kummer_lower(F(1, 2)), gauss_lower(F(1, 2), F(2))]


class TestLambda:
    def test_frozen_value(self):
        lam = lambda_coefficients(kummer_lower(F(1), 4), 1, 2, 1)
        assert lam[0] == 0
        assert lam[1] == F(-1, 3)
        assert lam[3] == F(-11, 60)

    @pytest.mark.parametrize("spec", LAMBDA_SPECS)
    @pytest.mark.parametrize("abd", [(1, 2, 1), (F(1, 2), 3, F(1, 2)),
                                     (F(3, 2), 2, F(5, 2))])
    def test_matches_oracle(self, spec, abd):
        a, b, d = abd
        M = 10
        got = lambda_coefficients(replace(spec, order=M), a, b, d)
        assert got == _lambda_oracle(spec, a, b, d, M)

    @given(shift_pairs)
    @settings(max_examples=25, deadline=None)
    def test_leading_vanishes_and_sign(self, abd):
        a, b, d = abd
        lam = lambda_coefficients(kummer_lower(F(1), 8), a, b, d)
        assert lam[0] == 0
        if b > a:
            assert all(v < 0 for v in lam[1:])
        elif a > b:
            assert all(v > 0 for v in lam[1:])
        else:
            assert all(v == 0 for v in lam)

    def test_family_guard(self):
        with pytest.raises(DomainError):
            lambda_coefficients(kummer_upper(F(1), 4), 1, 2, 1)

    def test_lower_pole_raises(self):
        with pytest.raises(PoleError):
            lambda_coefficients(kummer_lower(F(1), 6), F(-2), 3, F(1, 2))
        with pytest.raises(PoleError):
            lambda_coefficients(kummer_lower(F(1), 6), F(0), 3, F(1, 2))


# ---------------------------------------------------- psi (gamma families)

class TestPsi:
    def test_frozen_factored_parts(self):
        ps = psi_coefficients(kummer_gamma(F(1), 2), 1, 2, 1)
        assert (ps[2].s1, ps[2].s2) == (F(7), F(13, 2))
        assert [p.sign for p in ps] == [Sign.NEGATIVE] * 3

    @pytest.mark.parametrize("abd", [(1, 2, 1), (F(1, 2), 3, F(1, 2)),
                                     (F(3, 2), F(5, 2), F(3, 4)), (3, 1, F(1, 2))])
    @pytest.mark.parametrize("c", [F(1), F(5, 2)])
    def test_sign_matches_numeric_oracle(self, abd, c):
        a, b, d = abd
        spec = kummer_gamma(c, 12)
        for p in psi_coefficients(spec, a, b, d):
            ref = _psi_numeric(spec, a, b, d, p.m)
            assert abs(ref) > mpmath.mpf("1e-40")
            want = Sign.NEGATIVE if ref < 0 else Sign.POSITIVE
            assert p.sign is want

    def test_degenerate_equal_shifts(self):
        ps = psi_coefficients(kummer_gamma(F(2), 8), F(3, 2), F(3, 2), 1)
        assert all(p.sign is Sign.ZERO for p in ps)
        assert all(p.s1 == p.s2 for p in ps)

    def test_signs_follow_the_gamma_quotient(self):
        spec = kummer_gamma(F(2), 6)
        hr = half_range_pass(Family.GAMMA_FACTOR, spec, 1, 2, F(1, 2))
        assert [p.sign for p in psi_coefficients(spec, 1, 2, F(1, 2))] == \
            pair_signs(hr.sums(), gamma_quotient(F(1), F(2), F(1, 2)))

    def test_positive_shift_guard(self):
        with pytest.raises(DomainError):
            psi_coefficients(kummer_gamma(F(1), 4), 0, 1, 1)


# ------------------------------------------ all three against the oracles

@given(shift_pairs, st.integers(min_value=0, max_value=12))
@settings(max_examples=30, deadline=None)
def test_coefficients_match_double_loop_oracles(abd, M):
    a, b, d = abd
    upper, lower = gauss_upper(F(3, 2), F(5, 2), M), gauss_lower(F(1, 2), F(2), M)
    assert phi_coefficients(upper, a, b, d) == _phi_oracle(upper, a, b, d, M)
    assert lambda_coefficients(lower, a, b, d) == _lambda_oracle(lower, a, b, d, M)
    gamma = kummer_gamma(F(5, 2), M)
    s1, s2 = _psi_parts_oracle(gamma, a, b, d, M)
    psis = psi_coefficients(gamma, a, b, d)
    assert [p.s1 for p in psis] == s1 and [p.s2 for p in psis] == s2


# Shifts for the upper and lower families may be negative or zero; a
# lower-family shift with (s)_n = 0 for some 1 <= n <= M is a pole.
signed_shifts = st.tuples(
    st.fractions(min_value=-3, max_value=4, max_denominator=6),
    st.fractions(min_value=-3, max_value=4, max_denominator=6),
    st.fractions(min_value=-2, max_value=3, max_denominator=6),
    st.booleans(),
)


def _has_pole(a, b, d, M):
    return any(pochhammer(s, M) == 0 for s in (a + d, b, a, b + d))


@given(signed_shifts, st.integers(min_value=0, max_value=15))
@example((F(-1, 3), F(2), F(1, 2), False), 6)  # (a)_M < 0: X Y < 0
@settings(max_examples=60, deadline=None)
def test_upper_and_lower_kernels_match_oracles(abde, M):
    a, b, d, equal = abde
    if equal:
        b = a
    upper = gauss_upper(F(3, 2), F(5, 2), M)
    lower = gauss_lower(F(1, 2), F(2), M)
    assert phi_coefficients(upper, a, b, d) == _phi_oracle(upper, a, b, d, M)
    hr_upper = half_range_pass(Family.UPPER_FACTOR, upper, a, b, d)
    hr_lower = None
    if M >= 1 and _has_pole(a, b, d, M):
        with pytest.raises(PoleError):
            lambda_coefficients(lower, a, b, d)
    else:
        assert lambda_coefficients(lower, a, b, d) == _lambda_oracle(lower, a, b, d, M)
        hr_lower = half_range_pass(Family.LOWER_FACTOR, lower, a, b, d)
    for m in range(2, M + 1):
        want = _profile_oracle(Family.UPPER_FACTOR, a, b, d, m)
        prof = mk_profile(upper, a, b, d, m)
        assert prof.values == want
        assert prof.signs() == [sign_of(v) for v in want]
        assert sum(want) == 0 and sum(prof.values) == 0
        # the sign checks read the pass's integer rows: the same values up
        # to scale_m > 0, so the same signs, and (thm1) a zero row sum
        row = hr_upper.rows[m]
        assert [hr_upper.exact(m, r) for r in row] == want
        assert [sign_of(r) for r in row] == prof.signs()
        assert sum(row) == 0

        if _has_pole(a, b, d, m):
            with pytest.raises(PoleError):
                mk_profile(lower, a, b, d, m)
            continue
        want = _profile_oracle(Family.LOWER_FACTOR, a, b, d, m)
        prof = mk_profile(lower, a, b, d, m)
        assert prof.values == want
        assert prof.signs() == [sign_of(v) for v in want]
        if hr_lower is not None:
            row = hr_lower.rows[m]
            assert [hr_lower.exact(m, r) for r in row] == want
            assert [sign_of(r) for r in row] == prof.signs()


@given(shift_pairs, st.booleans(), st.integers(min_value=0, max_value=15))
@settings(max_examples=25, deadline=None)
def test_gamma_kernel_matches_oracles(abd, equal, M):
    a, b, d = abd
    if equal:
        b = a
    spec = kummer_gamma(F(5, 2), M)
    s1, s2 = _psi_parts_oracle(spec, a, b, d, M)
    psis = psi_coefficients(spec, a, b, d)
    assert [p.s1 for p in psis] == s1 and [p.s2 for p in psis] == s2
    hr = half_range_pass(Family.GAMMA_FACTOR, spec, a, b, d)
    quotient = gamma_quotient(a, b, d)
    # with a = b each pair ties with the quotient 1: exact for integer d
    tie = Sign.ZERO if quotient.exact is not None else Sign.INCONCLUSIVE
    for m in range(2, M + 1):
        prof = mk_profile(spec, a, b, d, m)
        want = _profile_oracle(Family.GAMMA_FACTOR, a, b, d, m)
        signs = pair_signs(hr.rows[m], quotient)
        for (p, q), (P, Q), value, sign in zip(want, hr.rows[m], prof.values,
                                               signs, strict=True):
            assert (hr.exact(m, P), hr.exact(m, Q)) == (p, q)
            ref = _gamma_profile_numeric(a, b, d, p, q)
            assert value.lo - F(1, 10**40) <= ref <= value.hi + F(1, 10**40)
            if a == b:
                assert ref == 0 and sign is tie
                continue
            # the sign check decides each profile sign from the pair and the
            # Gamma quotient; the enclosure may only be less decisive
            ref_sign = Sign.NEGATIVE if ref < 0 else Sign.POSITIVE
            assert sign is ref_sign
            assert sign_of(value) in (ref_sign, Sign.INCONCLUSIVE)


def _lower_scale_pair(M, a, b, d):
    """The unscaled suffix tables R_n = prod_{n<=i<M} D (s + i) of the
    shifts s = a+d, b, a, b+d, and the scale pair (x, y) = (X, Y) / g with
    X = R_0(a) R_0(b+d), Y = R_0(a+d) R_0(b) and g = gcd(X, Y), negated
    when X Y < 0."""
    D = math.lcm(a.denominator, b.denominator, d.denominator)
    tables = []
    for s in (a + d, b, a, b + d):
        R = [1]  # R_M, R_{M-1}, ..., R_0
        for i in reversed(range(M)):
            R.append(R[-1] * int(D * (s + i)))
        tables.append(R[::-1])
    X, Y = tables[2][0] * tables[3][0], tables[0][0] * tables[1][0]
    g = math.gcd(X, Y) if X * Y > 0 else -math.gcd(X, Y)
    return tables, g, X // g, Y // g


def test_lower_scale_pair_is_reduced_on_the_default_grid():
    # (x, y) = (X, Y) / gcd(X, Y): coprime, and positive where all shifts are
    for case in default_cases("thm3"):
        spec, p = case.spec(), case.params
        _, g, x, y = _lower_scale_pair(spec.order, p["a"], p["b"], p["delta"])
        assert math.gcd(x, y) == 1 and x * y > 0
        hr = half_range_pass(Family.LOWER_FACTOR, spec, p["a"], p["b"], p["delta"])
        assert hr.lower_scale == g * abs(x * y)


def test_lower_rows_from_the_folded_tables():
    # the rows are built on the (a+d) table scaled by x and the a table
    # scaled by y; each entry must still be p_k x - q_k y on the unscaled
    # suffix tables, for every m, also where x y < 0
    cases = [(case.spec(), case.params["a"], case.params["b"],
              case.params["delta"]) for case in default_cases("thm3")]
    cases.append((kummer_lower(F(1, 2)), F(-1, 3), F(2), F(1, 2)))
    for spec, a, b, d in cases:
        hr = half_range_pass(Family.LOWER_FACTOR, spec, a, b, d)
        (t1, t2, t3, t4), g, x, y = _lower_scale_pair(spec.order, a, b, d)
        assert hr.lower_scale == abs(g * x * y)
        assert len(hr.rows) == spec.order + 1
        for m, row in enumerate(hr.rows):
            want = []
            for k in range(m // 2 + 1):
                j = m - k
                p, q = t1[k] * t2[j], t3[k] * t4[j]
                if k < j:
                    p, q = p + t1[j] * t2[k], q + t3[j] * t4[k]
                want.append(p * x - q * y)
            assert row == tuple(want)
    assert x * y < 0  # the last case


def test_profile_makes_the_pass_to_its_own_order():
    # row m of the pass to order m, whatever the spec's order: above it,
    # and below a lower-family pole ((-5)_6 = 0) that the pass to the
    # spec's order meets
    a, b, d = F(-5), F(2), F(1, 2)
    for spec in (kummer_upper(F(2), 3), kummer_lower(F(1), 3)):
        assert mk_profile(spec, a, b, d, 5).values == \
            _profile_oracle(spec.family, a, b, d, 5)
    spec = kummer_lower(F(1), 8)
    with pytest.raises(PoleError):
        half_range_pass(Family.LOWER_FACTOR, spec, a, b, d)
    assert mk_profile(spec, a, b, d, 5).values == \
        _profile_oracle(Family.LOWER_FACTOR, a, b, d, 5)


# ------------------------------------------------------ the row-read memo

def _count_builds(monkeypatch) -> list:
    """The keys of the row sets built from now on, one entry a build."""
    builds = []
    real = series_module._row_half
    monkeypatch.setattr(series_module, "_row_half",
                        lambda *key: builds.append(key) or real(*key))
    return builds


def _sign_grid_passes():
    """(spec, a, b, d) of the 420 default-grid sign cases, in grid order."""
    for case in default_cases("all"):
        if case.theorem not in ("corollary", "turan"):
            p = case.params
            yield case.spec(), p["a"], p["b"], p["delta"]


_CHECKS = {Family.UPPER_FACTOR: verify_theorem1, Family.GAMMA_FACTOR: verify_theorem2,
           Family.LOWER_FACTOR: verify_theorem3}


def _cached_reads(monkeypatch) -> list:
    """The reads _read_point makes from now on, as it caches them."""
    reads = []
    real = verify_module._row_signs
    monkeypatch.setattr(verify_module, "_row_signs",
                        lambda *args: reads.append(real(*args)) or reads[-1])
    return reads


def _deep_bytes(value, seen: set) -> int:
    """sys.getsizeof of value and of every tuple item and Fraction part it
    holds, each object not in seen counted once."""
    if id(value) in seen:
        return 0
    seen.add(id(value))
    parts = value if isinstance(value, tuple) else \
        (value.numerator, value.denominator) if isinstance(value, F) else ()
    return sys.getsizeof(value) + sum(_deep_bytes(v, seen) for v in parts)


def _tuples_only(value) -> bool:
    """Whether value is a tuple of tuples, ints, strs, Signs and None, all
    the way down."""
    return type(value) is tuple and all(
        _tuples_only(v) if isinstance(v, (tuple, list)) else
        v is None or isinstance(v, (int, str, Sign)) for v in value)


class TestRowMemo:
    """The sign checks cache each shift point's read of its rows
    (verify._read_point), not the rows: an lru_cache of _READS reads, which
    the autouse fixture of conftest.py empties around every test."""

    @pytest.mark.parametrize("spec", [gauss_upper(F(3, 2), F(5, 2), 8),
                                      kummer_gamma(F(5, 2), 8),
                                      gauss_lower(F(1, 2), F(2), 8)])
    def test_changed_rows_reach_no_later_pass(self, spec, monkeypatch):
        # the read is tuples, so a caller that edits its report changes
        # neither the cached read nor the later reports of the point
        reads = _cached_reads(monkeypatch)
        a, b, d = F(1, 2), F(3), F(3, 4)
        want = _CHECKS[spec.family](spec, a, b, d)
        for _ in range(3):
            rep = _CHECKS[spec.family](spec, a, b, d)
            assert rep == want and rep.per_index_sign is not want.per_index_sign
            rep.per_index_sign[:] = [Sign.INCONCLUSIVE] * len(rep.per_index_sign)
            rep.per_index_sign.append(Sign.ZERO)
        [read] = reads
        assert _tuples_only(read)
        with pytest.raises(TypeError):
            read[0][2] = None
        assert verify_module._read_point.cache_info().currsize == 1

    def test_a_refused_pass_raises_on_every_request(self):
        # lru_cache stores no exception, so a refused point is built, and
        # refused, on every request
        read = verify_module._read_point
        for _ in range(3):
            with pytest.raises(PoleError):
                half_range_pass(Family.LOWER_FACTOR, kummer_lower(F(1), 8),
                                F(-5), F(2), F(1, 2))
            with pytest.raises(PoleError):
                read(Family.LOWER_FACTOR, F(-5), F(2), F(1, 2), 8, None, False)
            with pytest.raises(DomainError):
                half_range_pass(Family.GAMMA_FACTOR, kummer_gamma(F(1), 4), 0, 1, 1)
            with pytest.raises(DomainError):
                read(Family.GAMMA_FACTOR, F(0), F(1), F(1), 4, F(1), False)
        assert read.cache_info().currsize == 0

    def test_default_grid_builds_and_hits(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        info = verify_module._read_point.cache_info
        assert info().maxsize == verify_module._READS < 90
        for spec, a, b, d in _sign_grid_passes():
            rep = _CHECKS[spec.family](spec, a, b, d)
            assert rep.verdict is Verdict.VERIFIED
            assert info().currsize <= info().maxsize
        # each of the 90 shift points is built by the first weight rule of
        # its family and read by the others; only the binomial sweep, after
        # the gamma and lower sweeps, builds its 30 upper points again
        assert len(builds) == info().misses == 90 + 30
        assert info().hits == 420 - 120

    @pytest.mark.parametrize("size", [1_250_000, 200_000])
    def test_bound_holds_over_the_default_grid(self, size, monkeypatch):
        # the cache holds at most maxsize entries, each a key, its read and
        # the cache's link (a list of four); with the largest entry of the
        # grid counted in full for each, that stays within the row memo's
        # old byte bound, and within 200,000 bytes, which the rows of
        # maxsize shift points overrun
        read, entries = verify_module._read_point, []
        monkeypatch.setattr(
            verify_module, "_read_point",
            lambda *key: entries.append((key, read(*key))) or entries[-1][1])
        for spec, a, b, d in _sign_grid_passes():
            _CHECKS[spec.family](spec, a, b, d)
            assert read.cache_info().currsize <= read.cache_info().maxsize
        assert len(entries) == 420
        entry = max(_deep_bytes(e, set()) for e in entries) + \
            sys.getsizeof([None] * 4)
        assert read.cache_info().maxsize * entry <= size
        if size == 200_000:
            rows = sorted(_deep_bytes(series_module._row_half(*key)[2], set())
                          for key in {key[:5] for key, _ in entries})
            assert sum(rows[-read.cache_info().maxsize:]) > size

    def test_a_repeated_key_builds_nothing(self, monkeypatch):
        builds = _count_builds(monkeypatch)
        for c in (F(2), F(3), F(4), F(1, 2)):
            assert verify_theorem1(kummer_upper(c, 10), 1, 2, 1).verdict \
                is Verdict.VERIFIED
        assert builds == [(Family.UPPER_FACTOR, F(1), F(2), F(1), 10)]
        # a gamma read is keyed by the enclosure end it reads against too,
        # which the precision sets
        for digits in (30, 30, 60, 60):
            with working_precision(digits):
                verify_theorem2(kummer_gamma(F(3), 10), 1, 2, F(1, 2))
        assert len(builds) == 3
        info = verify_module._read_point.cache_info()
        assert (info.hits, info.misses) == (5, 3)

    def test_the_least_recently_used_is_evicted(self, monkeypatch):
        spec, size = kummer_upper(F(2), 6), verify_module._READS
        points = [(1, 1 + F(1, n), 1) for n in range(1, size + 2)]
        for point in points[:size]:
            verify_theorem1(spec, *point)
        builds = _count_builds(monkeypatch)
        verify_theorem1(spec, *points[0])  # the oldest becomes the newest
        verify_theorem1(spec, *points[-1])  # and so the second oldest goes
        verify_theorem1(spec, *points[0])
        assert len(builds) == 1
        verify_theorem1(spec, *points[1])
        assert [key[2] for key in builds] == [points[-1][1], points[1][1]]

    def test_threads_share_the_memo(self):
        # four threads ask for each shift point at once, for three weight
        # rules each, so builds, hits and stores race
        specs = [kummer_upper(c, 8) for c in (F(1), F(2), F(3))]
        points = [(a, a + t, F(1, 2)) for a in (F(1, 2), F(1), F(3, 2), F(2))
                  for t in (F(1, 3), F(1, 2), F(1), F(2), F(3))]
        want = {(pt, spec): verify_theorem1(spec, *pt)
                for pt in points for spec in specs}
        verify_module._read_point.cache_clear()
        meet = threading.Barrier(4, timeout=30)
        failures = []

        def run():
            try:
                for pt in points:
                    meet.wait()
                    for spec in specs:
                        if verify_theorem1(spec, *pt) != want[pt, spec]:
                            failures.append(pt)
            except Exception as exc:  # reported by the assertion below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert verify_module._read_point.cache_info().currsize == len(points)

    def test_pair_weight_sums_match_the_weight_products(self):
        # sum_k W_k W_{m-k} r_k, multiplied out afresh for every m
        for spec, a, b, d in _sign_grid_passes():
            hr = half_range_pass(spec.family, spec, a, b, d)
            w, L = series_module._weight_numerators(
                *spec.weights._ratio_parts(spec.order))

            def weighted(m, values):
                return sum(map(operator.mul, map(operator.mul, w, w[m::-1]),
                               values))

            if spec.family is Family.GAMMA_FACTOR:
                want = [tuple(weighted(m, v) for v in zip(*row))
                        for m, row in enumerate(hr.rows)]
            else:
                want = [weighted(m, row) for m, row in enumerate(hr.rows)]
            assert hr.L == L and hr.sums() == want


class TestSignTest:
    def test_integer_families_read_the_integer_sign(self):
        # the checks read an upper or lower coefficient by its integer sign,
        # also for weight ratios that rise and then fall, where Theorem 1
        # claims no sign; and the pair reader an exact Q = 0 the same way
        nonmonotone = HypSeriesSpec(Family.UPPER_FACTOR, WeightRule(
            upper=(F(1, 4), F(8)), lower=(F(2), F(2))), 6)
        assert weight_ratio_class(nonmonotone) is MonotoneClass.NEITHER
        for check, spec in ((verify_theorem3, kummer_lower(F(1), 6)),
                            (verify_theorem1, kummer_upper(F(2), 6)),
                            (verify_theorem1, nonmonotone)):
            hr = half_range_pass(spec.family, spec, 1, 2, 1)
            assert check(spec, 1, 2, 1).per_index_sign == \
                [sign_of(v) for v in hr.sums()]
        values = [-7, 0, 5, -3 ** 90, 2 ** 100]
        zero = CertifiedInterval.from_fraction(0)
        assert pair_signs([(v, 1) for v in values], zero) == [
            Sign.NEGATIVE, Sign.ZERO, Sign.POSITIVE, Sign.NEGATIVE, Sign.POSITIVE]
        assert [sign_of(v) for v in values] == pair_signs(
            [(v, 3) for v in values], zero)

    def test_cross_products_of_pairs(self):
        pairs = [(3, 2), (-5, 7), (2 ** 80, 3), (0, 1)]
        assert series_module.cross_products(pairs, F(-4, 9)) == \
            [p * 9 + 4 * q for p, q in pairs]
        assert series_module.cross_products([], F(1, 2)) == []

    def test_enclosure_made_at_the_precision_in_force(self, monkeypatch):
        # never kept on the pass, so the doubled-precision retry gets its own
        seen = []
        real = series_module.gamma_quotient

        def recorder(a, b, delta):
            seen.append(get_precision())
            return real(a, b, delta)

        monkeypatch.setattr(series_module, "gamma_quotient", recorder)
        hr = half_range_pass(Family.GAMMA_FACTOR, kummer_gamma(F(3), 6), 1, 2,
                             F(1, 2))
        base = get_precision()
        hr.psi()
        with working_precision(2 * base):
            hr.quotient()
            hr.psi()
        hr.quotient()
        assert seen == [base, 2 * base, 2 * base, base]

    def test_wide_enclosure_is_inconclusive(self, monkeypatch):
        wide = CertifiedInterval.from_fraction_bounds(0, 10 ** 6)
        monkeypatch.setattr(series_module, "gamma_quotient", lambda *args: wide)
        hr = half_range_pass(Family.GAMMA_FACTOR, kummer_gamma(F(3), 6), 1, 2,
                             F(1, 2))
        assert set(pair_signs(hr.sums(), hr.quotient())) == {Sign.INCONCLUSIVE}
        assert {p.sign for p in hr.psi()} == {Sign.INCONCLUSIVE}

    @pytest.mark.parametrize("quotient", [
        None, CertifiedInterval.from_fraction(2),
        CertifiedInterval.from_fraction_bounds(0, 10 ** 6)])
    def test_equal_shifts_ignore_the_quotient(self, quotient, monkeypatch):
        # whatever the enclosure would be, and at any precision, S1 = S2
        # and Q = 1 exactly
        if quotient is not None:
            monkeypatch.setattr(series_module, "gamma_quotient",
                                lambda *args: quotient)
        spec = kummer_gamma(F(3), 8)
        a, d = F(3, 2), F(1, 2)
        with working_precision(60):
            hr = half_range_pass(Family.GAMMA_FACTOR, spec, a, a, d)
            assert hr.quotient().exact == 1
            assert pair_signs(hr.sums(), hr.quotient()) == [Sign.ZERO] * 9
            assert [p.sign for p in psi_coefficients(spec, a, a, d)] == \
                [Sign.ZERO] * 9


# -------------------------------------------------- half-range profiles

class TestProfiles:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 8, 11])
    def test_upper_weighted_total_reconstructs_phi(self, m):
        spec = kummer_upper(F(3), m)
        a, b, d = F(1, 2), F(5, 2), F(4, 3)
        prof = mk_profile(spec, a, b, d, m)
        assert _weighted_sum(prof, spec.weights) == \
            phi_coefficients(spec, a, b, d)[m]

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 10])
    def test_lower_weighted_total_reconstructs_lambda(self, m):
        spec = gauss_lower(F(1, 2), F(2), m)
        a, b, d = F(3, 4), F(2), F(1, 2)
        prof = mk_profile(spec, a, b, d, m)
        assert _weighted_sum(prof, spec.weights) == \
            lambda_coefficients(spec, a, b, d)[m]

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_gamma_weighted_total_matches_numeric(self, m):
        from turankit.intervals import _raw_to_fraction

        spec = kummer_gamma(F(2), m)
        a, b, d = F(1), F(5, 2), F(1, 2)
        tot = _weighted_sum(mk_profile(spec, a, b, d, m), spec.weights)
        ref = _raw_to_fraction(_psi_numeric(spec, a, b, d, m)._mpf_)
        assert tot.lo - F(1, 10**50) <= ref <= tot.hi + F(1, 10**50)

    @given(shift_pairs, st.integers(min_value=2, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_upper_total_is_exactly_zero(self, abd, m):
        a, b, d = abd
        prof = mk_profile(kummer_upper(F(2), m), a, b, d, m)
        assert sum(prof.values) == 0

    @pytest.mark.parametrize("m", list(range(2, 13)))
    def test_upper_single_sign_change(self, m):
        prof = mk_profile(kummer_upper(F(2), m), F(1, 2), F(3), F(3, 4), m)
        assert prof.signs()[0] is Sign.NEGATIVE
        assert prof.sign_change_count() == 1

    @pytest.mark.parametrize("m", list(range(2, 13)))
    def test_lower_profile_all_negative(self, m):
        prof = mk_profile(kummer_lower(F(1), m), F(1, 2), F(3), F(3, 4), m)
        assert all(s is Sign.NEGATIVE for s in prof.signs())

    @pytest.mark.parametrize("m", list(range(2, 11)))
    def test_gamma_profile_all_negative(self, m):
        prof = mk_profile(kummer_gamma(F(2), m), F(1, 2), F(3), F(3, 4), m)
        assert all(s is Sign.NEGATIVE for s in prof.signs())

    def test_small_m_rejected(self):
        with pytest.raises(DomainError):
            mk_profile(kummer_upper(F(2), 4), 1, 2, 1, 1)

    def test_lower_profile_pole(self):
        with pytest.raises(PoleError):
            mk_profile(kummer_lower(F(1), 4), F(-1), F(3), F(1, 2), 4)
