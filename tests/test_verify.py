"""Theorem-level verdicts: default grids, degenerate and swapped-shift
handling, violations on tampered passes, escalation bookkeeping, the
profile predicates on integers, and the two-sided function bounds."""

import math
from dataclasses import replace
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from turankit import intervals as intervals_module
from turankit import series as series_module
from turankit import verify as verify_module
from turankit.errors import DomainError
from turankit.intervals import CertifiedInterval, get_precision, working_precision
from turankit.series import (Family, HypSeriesSpec, MkProfile, Sign,
                             WeightRule, binomial_upper, gauss_lower,
                             gauss_upper, kummer_gamma, kummer_lower,
                             kummer_upper, pair_signs, sign_of)
from turankit.verify import (FAMILIES, THEOREM_FAMILIES, Case, Verdict,
                             default_cases, run_case,
                             verify_corollary_twosided, verify_theorem1,
                             verify_theorem2, verify_theorem3, verify_turan)

# weights whose ratio sequence rises and then falls
NONMONOTONE = WeightRule(upper=(F(1, 4), F(8)), lower=(F(2), F(2)))

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
        spec = HypSeriesSpec(Family.UPPER_FACTOR, NONMONOTONE, 10)
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
        spec = HypSeriesSpec(Family.LOWER_FACTOR, NONMONOTONE, 12)
        rep = verify_theorem3(spec, 1, 2, 1, 12)
        assert rep.verdict is Verdict.VERIFIED


def _tamper(monkeypatch, change, keep_sums=False):
    """Hand change() list copies of the exact rows of every shift point
    folded from now on, the reads made before dropped, and have the float
    filter decline: the sign checks read the changed rows, and a pass they
    build weighs them too, but with keep_sums a pass weighs the true rows,
    so that its coefficients are the true ones and only the read, with the
    profile verdict, sees the change."""
    real = series_module._fold_rows

    def tampered(family, tables):
        rows = [list(row) for row in real(family, tables)]
        change(rows)
        return rows

    monkeypatch.setattr(series_module, "_fold_rows", tampered)
    monkeypatch.setattr(series_module, "_sign_rows", lambda tables: None)
    verify_module._read_point.cache_clear()
    if keep_sums:
        def true_pass(*args, _real=verify_module.half_range_pass):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(series_module, "_fold_rows", real)
                return _real(*args)

        monkeypatch.setattr(verify_module, "half_range_pass", true_pass)


def _negate_row5(rows):
    rows[5] = [-v for v in rows[5]]


def _double_p_row5(rows):
    rows[5] = [(2 * p, q) for p, q in rows[5]]


def _bump_row5(rows):
    rows[5][0] += 1


def _zigzag_row5(rows):
    rows[5] = [-1, 2, -1]


def _wrong_pair_row5(rows):
    rows[5][0] = (2, 1)  # p/q = 2 above the Gamma quotient 3/2


def _one_in_row5(rows):
    rows[5][1] = 1


THM1 = (verify_theorem1, kummer_upper(F(3)), (1, 2, F(1, 2), 12))
THM2 = (verify_theorem2, kummer_gamma(F(3)), (1, 2, F(1, 2), 10))
THM3 = (verify_theorem3, kummer_lower(F(1, 2)), (1, 2, 1, 12))


class TestViolations:
    """The sign checks on tampered passes: (a) coefficient 5 gets the wrong
    sign, (b) the coefficients keep their signs but profile 5 breaks its
    invariant.  Expected: verdict, first_violation, mk_single_sign_change,
    mk_all_negative, reason.  first_violation indexes per_index_sign, so a
    broken profile alone leaves it None, and the profiles are checked
    whether or not a coefficient is off-sign.  Theorem 1's profile test is
    the test that reads its rows, so its tampered rows are read and
    weighed too: coefficient 5 keeps its sign, the bumped row's weighted sum
    being the true one plus W_0 W_5 and the zigzag's -W_0 W_5 + 2 W_1 W_4 -
    W_2 W_3 > 0."""

    @pytest.mark.parametrize("check, change, keep_sums, expected", [
        (THM1, _negate_row5, False,
         (Verdict.VIOLATED, 5, False, None, "profile sign pattern broken")),
        (THM1, _bump_row5, False,
         (Verdict.VIOLATED, None, True, None, "profile sum nonzero")),
        (THM1, _zigzag_row5, False,
         (Verdict.VIOLATED, None, False, None, "profile sign pattern broken")),
        (THM2, _double_p_row5, False,
         (Verdict.VIOLATED, 5, None, False, "profile value off-sign")),
        (THM2, _wrong_pair_row5, True,
         (Verdict.VIOLATED, None, None, False, "profile value off-sign")),
        (THM3, _negate_row5, False,
         (Verdict.VIOLATED, 5, None, False, "profile value off-sign")),
        (THM3, _one_in_row5, True,
         (Verdict.VIOLATED, None, None, False, "profile value off-sign")),
    ], ids=["thm1-coefficient", "thm1-sum", "thm1-pattern", "thm2-coefficient",
            "thm2-profile", "thm3-coefficient", "thm3-profile"])
    def test_tampered_pass(self, monkeypatch, check, change, keep_sums, expected):
        fn, spec, args = check
        true_signs = fn(spec, *args).per_index_sign
        _tamper(monkeypatch, change, keep_sums)
        rep = fn(spec, *args)
        assert (rep.verdict, rep.first_violation, rep.mk_single_sign_change,
                rep.mk_all_negative, rep.reason) == expected
        assert not rep.escalated and rep.inconclusive_indices == []
        # with keep_sums every coefficient is the true one, else only the
        # tampered coefficient 5 may differ
        assert [s for m, s in enumerate(rep.per_index_sign) if keep_sums or m != 5] \
            == [s for m, s in enumerate(true_signs) if keep_sums or m != 5]

    def test_binomial_nonzero(self, monkeypatch):
        # constant weights: Theorem 1 claims every coefficient zero
        _tamper(monkeypatch, _bump_row5)
        rep = run_case(Case("binomial", "binomial", {"a": 1, "b": 2, "delta": 1}, 8))
        assert (rep.verdict, rep.first_violation) == (Verdict.VIOLATED, 5)
        assert rep.per_index_sign[5] is Sign.POSITIVE

    @pytest.mark.parametrize("check, spec, M", [
        (verify_theorem1, kummer_upper(F(3)), 12),
        (verify_theorem2, kummer_gamma(F(3)), 10),
        (verify_theorem3, kummer_lower(F(1, 2)), 12),
    ], ids=["thm1", "thm2", "thm3"])
    def test_degenerate_nonzero(self, monkeypatch, check, spec, M):
        # at a = b every coefficient must be zero; for the gamma family
        # S1 = S2 is checked against the exact quotient 1
        _tamper(monkeypatch, _wrong_pair_row5 if check is verify_theorem2
                else _one_in_row5)
        rep = check(spec, 2, 2, 1, M)
        assert (rep.verdict, rep.first_violation, rep.reason) == (
            Verdict.VIOLATED, 5, "degenerate equal shifts")
        assert rep.mk_single_sign_change is None and rep.mk_all_negative is None


def _count_weight_builds(monkeypatch) -> list:
    """The orders M of the integer weights W_0..W_M made from now on, one
    entry a build."""
    builds = []
    real = series_module._weight_numerators

    def build(num, den):
        builds.append(len(num))
        return real(num, den)

    monkeypatch.setattr(series_module, "_weight_numerators", build)
    return builds


def _record_weighed(monkeypatch) -> list:
    """The coefficient indices each pass weighs from now on, one list a
    call of HalfRangePass.sums."""
    weighed = []
    real = series_module.HalfRangePass.sums

    def sums(self, ms=None):
        weighed.append(list(range(len(self.rows)) if ms is None else ms))
        return real(self, ms)

    monkeypatch.setattr(series_module.HalfRangePass, "sums", sums)
    return weighed


class TestRowRead:
    """Every rule reads a row whose values share one sign instead of
    weighing it, and Theorem 1 a row that sums to zero and changes sign
    once: on the default grids no row is weighed and no weight made."""

    @pytest.mark.parametrize("theorem", ["thm1", "thm2", "thm3", "binomial"])
    def test_default_grid_weight_builds(self, monkeypatch, theorem):
        builds = _count_weight_builds(monkeypatch)
        passes = []
        real = verify_module.half_range_pass
        monkeypatch.setattr(verify_module, "half_range_pass",
                            lambda *args: passes.append(args) or real(*args))
        reports = [run_case(case) for case in default_cases(theorem)]
        assert all(r.verdict is Verdict.VERIFIED for r in reports)
        assert builds == [] and passes == []

    @pytest.mark.parametrize("check, change", [
        (THM1, _zigzag_row5), (THM2, _wrong_pair_row5),
        (THM3, _zigzag_row5), (THM3, _one_in_row5)],
        ids=["thm1-zigzag", "thm2-wrong-pair", "thm3-zigzag", "thm3-one"])
    def test_a_mixed_row_is_weighed(self, monkeypatch, check, change):
        fn, spec, (a, b, d, M) = check
        weighed = _record_weighed(monkeypatch)
        _tamper(monkeypatch, change)
        rep = fn(spec, a, b, d, M)
        assert weighed == [[5]]
        # its sign is that of the weighted sum of the tampered row
        hr = series_module.half_range_pass(spec.family, replace(spec, order=M),
                                           a, b, d)
        (s5,) = hr.sums([5])
        want = (pair_signs([s5], hr.quotient())[0]
                if spec.family is Family.GAMMA_FACTOR else sign_of(s5))
        assert rep.per_index_sign[5] is want


def _straddling_quotient(monkeypatch, also_doubled):
    """An enclosure [0, 10^6] of the Gamma quotient, which holds every
    S1/S2, at the base precision (and at doubled precision too when
    also_doubled); the true enclosure otherwise."""
    real = series_module.gamma_quotient
    base = get_precision()

    def quotient(a, b, delta):
        if also_doubled or get_precision() == base:
            return CertifiedInterval.from_fraction_bounds(0, 10 ** 6)
        return real(a, b, delta)

    monkeypatch.setattr(series_module, "gamma_quotient", quotient)


class TestEscalation:
    def test_retry_decides(self, monkeypatch):
        _straddling_quotient(monkeypatch, also_doubled=False)
        rep = verify_theorem2(kummer_gamma(F(3)), 1, 2, F(1, 2), 10)
        assert rep.escalated
        assert rep.inconclusive_before_escalation == 11
        assert rep.verdict is Verdict.VERIFIED
        assert rep.per_index_sign == [Sign.NEGATIVE] * 11
        assert rep.inconclusive_indices == [] and rep.reason is None
        # the undecided profile values are read at doubled precision too
        assert rep.mk_all_negative is True

    def test_retry_still_undecided(self, monkeypatch):
        _straddling_quotient(monkeypatch, also_doubled=True)
        rep = verify_theorem2(kummer_gamma(F(3)), 1, 2, F(1, 2), 10)
        assert rep.escalated
        assert rep.inconclusive_before_escalation == 11
        assert rep.verdict is Verdict.INCONCLUSIVE
        assert rep.inconclusive_indices == list(range(11))
        assert rep.first_violation is None
        assert rep.reason == "undecided indices remain after escalation"

    def test_retry_makes_a_fresh_quotient(self):
        # the Gamma ratios are memoized per precision, so the retry encloses
        # them afresh at doubled precision: two arguments, two precisions,
        # and a second run of the case hits all four
        case = (kummer_gamma(F(3)), 1, 1 + F(1, 10 ** 15), F(1, 2), 12)
        with working_precision(5):
            reps = [verify_theorem2(*case) for _ in range(2)]
        info = intervals_module._gamma_ratio.cache_info()
        assert (info.misses, info.hits, info.currsize) == (4, 4, 4)
        assert reps[0] == reps[1]
        assert reps[0].escalated and reps[0].inconclusive_before_escalation == 13
        assert reps[0].verdict is Verdict.VERIFIED

    # real near ties, no patched quotient: at 5 digits every coefficient is
    # undecided, at the 10 digits of the retry some stay so from b - a =
    # 10^-17 on, and at 2 10^-17 the profile stays open though every
    # coefficient is decided
    @pytest.mark.parametrize("gap, verdict, still_open, all_negative", [
        (F(1, 10 ** 15), Verdict.VERIFIED, [], True),
        (F(2, 10 ** 17), Verdict.VERIFIED, [], None),
        (F(1, 10 ** 17), Verdict.INCONCLUSIVE, [10, 11, 12], None),
        (F(1, 10 ** 18), Verdict.INCONCLUSIVE, list(range(13)), None),
    ])
    @pytest.mark.parametrize("swap", [False, True])
    def test_near_ties(self, gap, verdict, still_open, all_negative, swap):
        a, b = (1 + gap, 1) if swap else (1, 1 + gap)
        with working_precision(5):
            rep = verify_theorem2(kummer_gamma(F(3)), a, b, F(1, 2), 12)
        assert (rep.verdict, rep.escalated, rep.inconclusive_before_escalation,
                rep.inconclusive_indices, rep.mk_all_negative, rep.first_violation) \
            == (verdict, True, 13, still_open, all_negative, None)
        decided = Sign.POSITIVE if swap else Sign.NEGATIVE
        assert [m for m, s in enumerate(rep.per_index_sign) if s is not decided] \
            == still_open


# ------------------------------------------------------------ mirror points

def _mirror_case(case):
    """The case with a and b swapped."""
    p = case.params
    return replace(case, params={**p, "a": p["b"], "b": p["a"]})


def _assert_mirrored(rep, mirror):
    """rep is mirror's report with POSITIVE and NEGATIVE swapped in
    per_index_sign, every other field but params equal."""
    assert rep.per_index_sign == [NEG.get(s, s) for s in mirror.per_index_sign]
    assert replace(rep, params=None, per_index_sign=None) == \
        replace(mirror, params=None, per_index_sign=None)


@st.composite
def sign_cases(draw):
    """A Theorem 1-3 case on rationals of denominator at most 12, as
    perfbench's fresh_params draws them: shifts in (0, 4], delta in (0, 3]
    and weight parameters in (0, 4], at an order M <= 12."""
    def rational(top):
        q = draw(st.integers(1, 12))
        return F(draw(st.integers(1, top * q)), q)

    theorem = draw(st.sampled_from(["thm1", "thm2", "thm3"]))
    family = draw(st.sampled_from(THEOREM_FAMILIES[theorem]))
    params = {"a": rational(4), "b": rational(4), "delta": rational(3),
              **{k: rational(4) for k in FAMILIES[family][1]}}
    return Case(theorem, family, params, draw(st.integers(0, 12)))


class TestMirror:
    """A case with a and b swapped has every coefficient negated, and is
    checked at its mirror point: its report is the mirror's with POSITIVE
    and NEGATIVE swapped, from the mirror's one read of the point."""

    def test_default_grid_cases(self):
        cases = [c for c in default_cases("all") if c.theorem in verify_module.DEFAULT_M]
        assert len(cases) == 420
        for case in cases:
            _assert_mirrored(run_case(_mirror_case(case)), run_case(case))

    @given(sign_cases())
    # an interval Gamma quotient, and an exact one
    @example(Case("thm2", "1f1-gamma",
                  {"a": F(1, 3), "b": F(7, 4), "delta": F(5, 6), "c": F(3, 2)}, 12))
    @example(Case("thm2", "1f1-gamma",
                  {"a": F(11, 4), "b": F(1, 2), "delta": F(2), "c": F(1, 7)}, 12))
    @settings(max_examples=200, deadline=None)
    def test_drawn_cases(self, case):
        _assert_mirrored(run_case(_mirror_case(case)), run_case(case))

    @pytest.mark.parametrize("check", [THM1, THM2, THM3], ids=["thm1", "thm2", "thm3"])
    def test_a_case_and_its_mirror_build_once(self, monkeypatch, check):
        builds = []
        real = series_module._tables
        monkeypatch.setattr(series_module, "_tables",
                            lambda *key: builds.append(key) or real(*key))
        fn, spec, (a, b, d, M) = check
        assert fn(spec, b, a, d, M).verdict is fn(spec, a, b, d, M).verdict \
            is Verdict.VERIFIED
        assert builds == [(spec.family, F(a), F(b), F(d), M)]


# ------------------------------------------- profile predicates on integers

LEAD = {-1: Sign.NEGATIVE, 1: Sign.POSITIVE}


def _ref_sum_zero_one_change(rows, lead):
    """Theorem 1's profiles read value by value as Sign lists."""
    one_change = all(MkProfile(2, Family.UPPER_FACTOR, row).sign_change_count() == 1
                     and sign_of(row[0]) is LEAD[lead] for row in rows)
    if any(sum(row) for row in rows):
        return one_change, None, "profile sum nonzero"
    return one_change, None, None if one_change else "profile sign pattern broken"


def _ref_one_signed(signs, lead):
    """Theorems 2 and 3 by counting Sign members; INCONCLUSIVE is open."""
    values = [s for row in signs for s in row]
    undecided = values.count(Sign.INCONCLUSIVE)
    if values.count(LEAD[lead]) + undecided < len(values):
        return None, False, "profile value off-sign"
    return None, None if undecided else True, None


def _ref_pair_sign(p, q, quotient):
    """The sign of p - Q q from the Fraction p/q against the enclosure of Q:
    an exact Q decides every pair, an interval only those outside it."""
    ratio = F(p, q)
    if quotient.exact is not None:
        return sign_of(ratio - quotient.exact)
    if ratio < quotient.lo:
        return Sign.NEGATIVE
    return Sign.POSITIVE if ratio > quotient.hi else Sign.INCONCLUSIVE


def _ref_pair_signs(rows, quotients):
    """Each gamma pair's sign against the first enclosure, an undecided one
    read again against the second if there is one."""
    signs = [[_ref_pair_sign(p, q, quotients[0]) for p, q in row] for row in rows]
    for quotient in quotients[1:]:
        signs = [[_ref_pair_sign(p, q, quotient) if s is Sign.INCONCLUSIVE else s
                  for (p, q), s in zip(row, srow)]
                 for row, srow in zip(rows, signs)]
    return signs


integer_values = st.one_of(st.integers(-3, 3), st.integers(-2 ** 70, 2 ** 70))
integer_rows = st.lists(st.lists(integer_values, min_size=1, max_size=6),
                        max_size=5)
# rows that sum to zero, so that thm1's sign pattern is what decides
balanced_rows = st.lists(st.lists(integer_values, min_size=0, max_size=5).map(
    lambda row: row + [-sum(row)]), max_size=5)
leads = st.sampled_from([-1, 1])
# dyadic ends are held exactly, so p/q can tie with them
dyadic = st.builds(F, st.integers(0, 24), st.sampled_from([1, 2, 4, 8]))
pair_rows = st.lists(st.lists(st.tuples(st.integers(-2, 24),
                                        st.sampled_from([1, 2, 3, 4, 8])),
                              min_size=1, max_size=6), max_size=5)


def _mirror(rows, lead):
    """The rows as the b > a reader reads them: a case with a > b (lead 1)
    is read at its mirror point, whose rows are the case's negated."""
    return rows if lead < 0 else [[-v for v in row] for row in rows]


def _flip(signs, lead):
    """A case's signs from its mirror's: the mirror's swapped for lead 1."""
    return signs if lead < 0 else [NEG.get(s, s) for s in signs]


@st.composite
def enclosures(draw):
    lo, hi = sorted((draw(dyadic), draw(dyadic)))
    if draw(st.booleans()):
        return CertifiedInterval.from_fraction(lo)
    return CertifiedInterval.from_fraction_bounds(lo, hi)


@given(st.one_of(integer_rows, balanced_rows), leads)
@example([[0, 0, 0], [0]], -1)
@example([[-2, 1, 1], [-5]], -1)
@example([[0, -1, 1], [2, -2]], 1)
@example([[-1, 0, 2, -1]], -1)
@example([[3, 0, -3, 0]], 1)  # zeros on both sides of the sign change
@example([[-3, 0, 3, 0]], -1)
@example([[2, 0, -3, 0, 1]], 1)
@example([[0, 1, -1]], 1)  # M_0 = 0, then one sign change
@settings(max_examples=300, deadline=None)
def test_thm1_profiles_match_the_sign_lists(rows, lead):
    # the reader checks the profiles m >= 2 without the claim
    assert verify_module._row_signs([[0], [0], *_mirror(rows, lead)], None, False,
                                    True)[1] == _ref_sum_zero_one_change(rows, lead)


@given(integer_rows, leads)
@example([[0, 0]], 1)
@example([[-1, -2], [-3]], -1)
@example([[1], [0, 2]], 1)
@settings(max_examples=300, deadline=None)
def test_thm3_profiles_match_the_sign_lists(rows, lead):
    # the reader checks the profiles m >= 2 as one-signed
    assert verify_module._row_signs([[0], [0], *_mirror(rows, lead)], None, False,
                                    False)[1] \
        == _ref_one_signed([[sign_of(v) for v in row] for row in rows], lead)


@given(pair_rows, st.lists(enclosures(), min_size=1, max_size=2))
@example([[(3, 2), (1, 1)]], [CertifiedInterval.from_fraction(F(3, 2))])
@example([[(3, 2), (1, 1)]], [CertifiedInterval.from_fraction_bounds(F(3, 2), 2)])
# a tie undecided by an interval and ZERO by an exact retry is off-sign
@example([[(0, 1)]], [CertifiedInterval.from_fraction_bounds(0, 0),
                      CertifiedInterval.from_fraction(0)])
@settings(max_examples=300, deadline=None)
def test_thm2_profiles_match_the_sign_lists(rows, quotients):
    # the profiles m >= 2 of a whole check: coefficients 0 and 1 are a pair
    # on the first enclosure's lower end, which an interval leaves undecided,
    # so the check escalates and the second enclosure reads the profiles too
    # the drawn rows stand in for a point's, and the drawn enclosures, the
    # last again once they run out, for its Gamma quotient's; a > b is
    # read at the mirror point (TestMirror)
    first = quotients[0].lo
    tie = [(first.numerator, first.denominator)]
    enclosure = iter(quotients)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_fold_rows", lambda *args: [tie, tie, *rows])
        patch.setattr(series_module, "gamma_quotient",
                      lambda *args: next(enclosure, quotients[-1]))
        verify_module._read_point.cache_clear()  # the point of another example
        rep = verify_module.check_signs(verify_module.SIGN_RULES["thm2"],
                                        kummer_gamma(F(1)), 1, 2, 1, len(rows) + 1)
    reason = None if rep.reason == "undecided indices remain after escalation" \
        else rep.reason
    assert (rep.mk_single_sign_change, rep.mk_all_negative, reason) == \
        _ref_one_signed(_ref_pair_signs(rows, quotients), -1)


# ------------------------------------------------------------ the row read

pair_weights = st.one_of(st.integers(1, 3), st.integers(1, 2 ** 70))


@st.composite
def weighted(draw, rows):
    """Rows drawn from ``rows`` with a positive pair weight for each value."""
    drawn = draw(rows)
    return drawn, [draw(st.lists(pair_weights, min_size=len(row),
                                 max_size=len(row))) for row in drawn]


def _weigh(weights, row):
    return sum(w * v for w, v in zip(weights, row))


@given(weighted(integer_rows))
@example(([[0, -1, 0], [0, 0], [2 ** 70, 0]], [[1, 1, 1], [2, 3], [1, 2]]))
@example(([[-2 ** 70, 0, 1]], [[1, 2 ** 70, 1]]))
@settings(max_examples=300, deadline=None)
def test_integer_row_read_gives_the_weighted_sign(drawn):
    # a row is read exactly when its values share one sign or are all zero
    rows, weights = drawn
    signs = verify_module._row_signs(rows, None, False, False)[0]
    for row, w, sign in zip(rows, weights, signs):
        assert (sign is None) == (min(row) < 0 < max(row))
        assert sign in (None, sign_of(_weigh(w, row)))


@given(weighted(pair_rows), st.lists(enclosures(), min_size=1, max_size=2))
@example(([[(3, 2), (6, 4)]], [[1, 5]]),
         [CertifiedInterval.from_fraction_bounds(F(3, 2), 2)])  # ties the end
@example(([[(3, 2), (1, 1)], [(3, 2)]], [[2, 1], [3]]),
         [CertifiedInterval.from_fraction(F(3, 2))])
@settings(max_examples=300, deadline=None)
def test_gamma_row_read_gives_the_weighted_sign(drawn, quotients):
    # pairs read against the exact quotient or the lower end of an interval
    rows, weights = drawn
    first = quotients[0]
    interval = first.exact is None
    signs = verify_module._row_signs(rows, first.lo if interval else first.exact,
                                     interval, False)[0]
    for row, w, sign in zip(rows, weights, signs):
        pair = tuple(_weigh(w, v) for v in zip(*row))
        assert sign in (None, pair_signs([pair], first)[0])
        # a row of negative pairs is read, and with an exact quotient so is
        # any row of one sign
        own = {_ref_pair_sign(p, q, first) for p, q in row}
        if own == {Sign.NEGATIVE} or (not interval and len(own - {Sign.ZERO}) <= 1):
            assert sign is not None


# weight ratios: a few values, so that sorted draws tie, or many
few_ratios = st.sampled_from([F(1, 3), F(1, 2), F(1), F(2), F(5)])
many_ratios = st.builds(F, st.integers(1, 60), st.integers(1, 12))


@st.composite
def upper_rows_and_weights(draw):
    """The lead and rows of the upper-family kernel at a random point, a and
    b in either order, some rows replaced by small integers that sum to
    zero; and positive integers W_0..W_M whose ratios W_n/W_{n-1} are drawn
    sorted up or down, ties allowed: strictly monotone when none ties."""
    eighths = st.integers(0, 48).map(lambda n: F(n, 8))
    a, b, delta = draw(eighths), draw(eighths), draw(eighths.filter(bool))
    M = draw(st.integers(0, 14))
    rows = list(series_module._row_half(Family.UPPER_FACTOR, a, b, delta, M)[2])
    for m in draw(st.sets(st.integers(0, M))):
        rows[m] = draw(st.lists(st.integers(-3, 3), min_size=m // 2,
                                max_size=m // 2).map(lambda r: r + [-sum(r)]))
    ratio = draw(st.sampled_from([few_ratios, many_ratios, st.just(F(3, 2))]))
    W = [F(draw(st.integers(1, 9)))]
    for r in sorted(draw(st.lists(ratio, min_size=M, max_size=M)),
                    reverse=draw(st.booleans())):
        W.append(W[-1] * r)
    L = math.lcm(*(w.denominator for w in W))
    return -1 if b > a else 1, rows, [w.numerator * (L // w.denominator) for w in W]


def _one_change(row, lead):
    """Theorem 1's test of one row, read value by value as a Sign list."""
    return sign_of(row[0]) is LEAD[lead] and sum(row) == 0 and \
        MkProfile(2, Family.UPPER_FACTOR, row).sign_change_count() == 1


@given(upper_rows_and_weights())
# M_0 = 0 before one sign change; two sign changes; weights constant on the
# first m, whose ratios are not strictly monotone
@example((-1, [[0], [0], [-1, 1], [-2, 2], [0, -1, 1]], [1, 3, 6, 10, 12]))
@example((-1, [[0], [0], [0, 0], [0, 0], [-1, 2, -1]], [2, 20, 180, 180, 90]))
@example((-1, [[0], [0], [-1, 1], [0, 0], [0, 0, 0]], [2, 2, 2, 2, 1]))
@settings(max_examples=300, deadline=None)
def test_thm1_row_read_gives_the_weighted_sign(drawn):
    # Chebyshev's sum inequality: a row read with the claim of its weights'
    # ratio class has the sign of its weighted sum sum_k W_k W_{m-k} r_k
    # a > b (lead 1) through its mirror: its rows negated, the signs flipped
    lead, rows, W = drawn
    claim = verify_module._weight_claim(series_module._monotone_class(W[1:], W[:-1]))
    signs, profile = verify_module._row_signs(_mirror(rows, lead), None, False, True)
    # a claimed row takes the claim, or is weighed (None) when there is none
    signs = _flip([claim if s is verify_module._CLAIMED else s for s in signs], lead)
    for m, (row, sign) in enumerate(zip(rows, signs)):
        if sign is not None:
            assert sign is sign_of(sum(W[k] * W[m - k] * r for k, r in enumerate(row)))
        # a row of one sign is read, and with a claim one that passes the test
        if min(row) >= 0 or max(row) <= 0 or (claim is not None and
                                              _one_change(row, lead)):
            assert sign is not None
    assert profile == _ref_sum_zero_one_change(rows[2:], lead)


@pytest.mark.parametrize("theorem, family, params, check", [
    ("thm1", "1f1-upper", {"a": 1, "b": 2, "delta": 1, "c": 3}, "verify_theorem1"),
    ("binomial", "binomial", {"a": 1, "b": 2, "delta": 1}, "verify_theorem1"),
    ("thm2", "1f1-gamma", {"a": 1, "b": 2, "delta": 1, "c": 3}, "verify_theorem2"),
    ("thm3", "1f1-lower", {"a": 1, "b": 2, "delta": 1, "a0": 3}, "verify_theorem3"),
])
def test_run_case_calls_the_public_check(monkeypatch, theorem, family, params,
                                         check):
    # perfbench times each sign case by wrapping these module-level names
    calls = []
    for name in ("verify_theorem1", "verify_theorem2", "verify_theorem3"):
        def recorder(*args, _name=name, _real=getattr(verify_module, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(verify_module, name, recorder)
    rep = run_case(Case(theorem, family, params, 8))
    assert calls == [check]
    assert rep.verdict is Verdict.VERIFIED


class TestTwoSidedBounds:
    def test_reference_case(self):
        xs = [F(1, 4), F(1), F(4), F(16), F(50)]
        rep = verify_corollary_twosided(kummer_upper(F(3)), 1, 2, 1, xs)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.within == [True] * 5
        assert rep.lower_bound.exact == F(1, 2)
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
        # b - a is fractional too, so neither step is an integer
        rep = verify_corollary_twosided(kummer_upper(F(3)), 1, F(5, 2), F(1, 2),
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

    def test_2f1_grid_past_x_1_refused_before_evaluation(self, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("a refused grid must not be evaluated")

        for name in ("gamma_quotient", "cross_ratio"):
            monkeypatch.setattr(verify_module, name, no_evaluation)
        # 2F1 diverges from x = 1; the smallest such point is named
        spec = gauss_upper(F(2), F(1))
        with pytest.raises(DomainError, match=r"^x grid reaches x = 1, where the "
                           r"series diverge; give an x grid inside \(0, 1\)$"):
            verify_corollary_twosided(spec, 1, 2, 1, [F(1, 4), F(3), F(1)])
        with pytest.raises(DomainError, match="^x grid reaches x = 2,"):
            verify_turan(spec, 1, 1, [F(2)])
        # the check's own refusals come first
        with pytest.raises(DomainError, match="decreasing weight-ratio"):
            verify_corollary_twosided(gauss_upper(F(1), F(2)), 1, 2, 1, [F(3)])
        with pytest.raises(DomainError, match="nonempty and positive"):
            verify_corollary_twosided(spec, 1, 2, 1, [F(-2)])
        with pytest.raises(AssertionError, match="not be evaluated"):
            verify_corollary_twosided(spec, 1, 2, 1, [F(1, 4), F(99, 100)])

    def test_needs_upper_factor_family(self):
        with pytest.raises(DomainError):
            verify_corollary_twosided(kummer_lower(F(3)), 1, 2, 1, [F(1)])
        with pytest.raises(DomainError):
            verify_turan(kummer_lower(F(3)), 1, 1, [F(1)])

    def test_a_tiny_x_stays_inconclusive(self):
        # Q(x) - 1 is O(x^2) near 0, so at 10^-40 the default precision
        # cannot separate Q from 1
        x = F(1, 10 ** 40)
        for rep in (verify_corollary_twosided(kummer_upper(F(3)), 1, 2, 1, [x]),
                    verify_turan(kummer_upper(F(5)), 2, 1, [x])):
            assert rep.within == [None]
            assert rep.verdict is Verdict.INCONCLUSIVE


_EPS = F(1, 10 ** 6)


def _tampered(lower):
    """Enclosures of the cross-ratio by where they lie against the bounds
    lower < Q < 1: name -> (enclosure, its within value)."""
    def between(lo, hi):
        return CertifiedInterval.from_fraction_bounds(lo, hi)

    return {
        "inside": (between(lower + _EPS, 1 - _EPS), True),
        "above-1": (between(1 + _EPS, 1 + 2 * _EPS), False),
        "below-lower": (between(lower - 2 * _EPS, lower - _EPS), False),
        "across-1": (between(1 - _EPS, 1 + _EPS), None),
        "across-lower": (between(lower - _EPS, lower + _EPS), None),
        "at-1": (CertifiedInterval.from_fraction(1), None),
        "at-lower": (CertifiedInterval.from_fraction(lower), None),
    }


class TestTamperedBounds:
    """The bound checks decide each point from the enclosure cross_ratio
    returns; these return chosen enclosures on either side of both
    bounds, as no true input gives a violation."""

    # (check, its lower bound): the corollary at a = 1, b = 2, d = 1 and
    # the Turan form at a = 2, d = 1, both exact
    CHECKS = {
        "corollary": (partial(verify_corollary_twosided, kummer_upper(F(3)), 1, 2, 1),
                      F(1, 2)),
        "turan": (partial(verify_turan, kummer_upper(F(5)), 2, 1), F(2, 3)),
    }

    @staticmethod
    def _run(monkeypatch, check, lower, kinds):
        """The check on the grid 1, 2, ..., its point x patched to hold the
        enclosure of kinds[x - 1]."""
        table = _tampered(lower)

        def tampered(spec, a, b, delta, x, tol=None):
            return table[kinds[int(x) - 1]][0]

        monkeypatch.setattr(verify_module, "cross_ratio", tampered)
        rep = check([F(x) for x in range(1, len(kinds) + 1)])
        assert rep.lower_bound.exact == lower
        assert rep.within == [table[k][1] for k in kinds]
        return rep.verdict

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("kind, verdict", [
        ("inside", Verdict.VERIFIED),
        ("above-1", Verdict.VIOLATED), ("below-lower", Verdict.VIOLATED),
        ("across-1", Verdict.INCONCLUSIVE), ("across-lower", Verdict.INCONCLUSIVE),
        ("at-1", Verdict.INCONCLUSIVE), ("at-lower", Verdict.INCONCLUSIVE),
    ])
    def test_each_kind_alone(self, monkeypatch, check, kind, verdict):
        fn, lower = self.CHECKS[check]
        assert self._run(monkeypatch, fn, lower, [kind]) is verdict
        assert self._run(monkeypatch, fn, lower, ["inside", kind, "inside"]) is verdict

    @pytest.mark.parametrize("check", CHECKS)
    def test_a_violation_outweighs_an_undecided_point(self, monkeypatch, check):
        fn, lower = self.CHECKS[check]
        for kinds in (["across-1", "above-1"], ["below-lower", "across-lower"]):
            assert self._run(monkeypatch, fn, lower, kinds) is Verdict.VIOLATED


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
        reports = [run_case(c) for c in default_cases("thm1", 12)]
        assert len(reports) == 150
        assert all(r.verdict is Verdict.VERIFIED for r in reports)

    def test_theorem2_suite_all_verified(self):
        reports = [run_case(c) for c in default_cases("thm2", 10)]
        assert len(reports) == 90
        assert all(r.verdict is Verdict.VERIFIED for r in reports)

    def test_theorem3_suite_all_verified(self):
        reports = [run_case(c) for c in default_cases("thm3", 12)]
        assert len(reports) == 150
        assert all(r.verdict is Verdict.VERIFIED for r in reports)

    def test_binomial_suite_degenerate_zero(self):
        reports = [run_case(c) for c in default_cases("binomial", 12)]
        assert len(reports) == 30
        for r in reports:
            assert r.verdict is Verdict.VERIFIED
            assert set(r.per_index_sign) == {Sign.ZERO}

    def test_bound_suites(self):
        for c in default_cases("corollary") + default_cases("turan"):
            rep = run_case(c)
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
