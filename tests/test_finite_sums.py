"""Terminating hypergeometric sums at -1: exact values, pole screening,
the exact proportionality to product-difference coefficients, and the
generalized positivity sweep."""

from fractions import Fraction as F

import pytest

from turankit.errors import DomainError, PoleError
from turankit.exact import pochhammer
from turankit.finite_sums import (QfqVerdict, TerminatingSum,
                                  check_4f3_coefficient_link, eval_qfq_sum,
                                  eval_terminating, link_factor, qfq_sum,
                                  thm4d_sum)


def _direct_sum(ts: TerminatingSum) -> F:
    """Oracle: term-by-term Pochhammer products, no recurrence."""
    total = F(0)
    for k in range(ts.m + 1):
        num = F(1)
        for u in ts.upper:
            num *= pochhammer(u, k)
        den = pochhammer(F(1), k)
        for l in ts.lower:
            den *= pochhammer(l, k)
        total += num / den * F(-1) ** k
    return total


GRID = (F(1, 2), F(1), F(2), F(3))


class TestTerminatingSum:
    def test_requires_terminator(self):
        with pytest.raises(DomainError):
            TerminatingSum((F(-2),), (F(1, 2),), 3)

    def test_pole_screen(self):
        with pytest.raises(PoleError):
            TerminatingSum((F(-3), F(1)), (F(-1),), 3)

    def test_early_termination_screen(self):
        with pytest.raises(DomainError):
            TerminatingSum((F(-3), F(-1)), (F(7, 2),), 3)

    def test_pole_screened_before_early_termination(self):
        # 0/0 shape: the same integer appears above and below; must be
        # reported as a pole, not as early termination
        with pytest.raises(PoleError):
            TerminatingSum((F(-3), F(-1)), (F(-1),), 3)

    def test_deep_parameters_allowed(self):
        # integers beyond the summation window are harmless
        ts = TerminatingSum((F(-2), F(-5)), (F(-4),), 2)
        assert eval_terminating(ts) == _direct_sum(ts)

    @pytest.mark.parametrize("up,lo,m", [
        ((F(-4), F(1, 2)), (F(3),), 4),
        ((F(-3), F(5, 2), F(1, 3)), (F(2), F(7, 4)), 3),
        ((F(-6),), (F(1, 2), F(9, 4)), 6),
        ((F(0),), (F(5),), 0),
        # p > q + 1 is fine for a sum that stops
        ((F(-3), F(2), F(1, 2)), (), 3),
    ])
    def test_matches_direct_oracle(self, up, lo, m):
        ts = TerminatingSum(up, lo, m)
        assert eval_terminating(ts) == _direct_sum(ts)


class TestThm4dSum:
    def test_hand_case(self):
        # a=2, b=1, c=1, m=2: value 1/2, coefficient -1/2, factor -1
        ts = thm4d_sum(F(2), F(1), F(1), 2)
        assert eval_terminating(ts) == F(1, 2)
        assert link_factor(F(1), F(1), 2) == F(-1)

    def test_frozen_reduction_case(self):
        assert eval_terminating(thm4d_sum(F(3), F(1), F(2), 3)) == F(7, 3)

    def test_shape(self):
        ts = thm4d_sum(F(1), F(3), F(1), 3)  # t = 3/4
        assert ts.upper == (F(-3), F(1), F(-3), F(1, 4))
        assert ts.lower == (F(1), F(-5), F(-3, 4))

    def test_degenerate_split_is_pole(self):
        # am/(a+b) an integer strictly inside 1..m-1: 0/0 shape
        with pytest.raises(PoleError):
            thm4d_sum(F(1), F(2), F(1), 3)
        with pytest.raises(PoleError):
            thm4d_sum(F(2), F(1), F(1), 3)

    def test_validation(self):
        with pytest.raises(DomainError):
            thm4d_sum(F(1), F(2), F(1), 1)
        with pytest.raises(DomainError):
            thm4d_sum(F(0), F(2), F(1), 3)

    @pytest.mark.parametrize("a,b", [(F(1), F(3)), (F(3), F(1)),
                                     (F(1, 2), F(3)), (F(3), F(1, 2))])
    def test_sign_tracks_order(self, a, b):
        v = eval_terminating(thm4d_sum(a, b, F(2), 5))
        assert (v > 0) == (a > b)


class TestCoefficientLink:
    def test_exact_link_on_grid(self):
        checked = skipped = 0
        for a in GRID:
            for b in GRID:
                for c in (F(1), F(2)):
                    for m in (2, 3, 4, 5):
                        try:
                            rep = check_4f3_coefficient_link(a, b, c, m)
                        except PoleError:
                            skipped += 1
                            continue
                        checked += 1
                        assert rep.phi_m == rep.factor * rep.sum_value
                        assert rep.sign_matches_a_minus_b
        assert checked == 92
        assert skipped == 36

    def test_link_factor_formula(self):
        m, b, c = 4, F(3, 2), F(2)
        want = F(-m) * pochhammer(b + 1, m - 1) / (
            pochhammer(F(1), m) * pochhammer(c, m))
        assert link_factor(b, c, m) == want

    @pytest.mark.parametrize("m", [0, -2])
    def test_link_factor_needs_positive_m(self, m):
        with pytest.raises(DomainError):
            link_factor(F(3, 2), F(2), m)


class TestQfq:
    def test_frozen_values(self):
        r = eval_qfq_sum(F(3), F(1), [F(2)], [F(1), F(2)], 2)
        assert r.value == 1
        assert r.verdict is QfqVerdict.POSITIVE
        assert r.chain_holds
        r = eval_qfq_sum(F(3), F(1), [F(2)], [F(1), F(2)], 3)
        assert r.value == F(14, 3)

    def test_q1_reduces_to_4f3_shape(self):
        # 4F3(-m, a, 1-c-m, 1-am/(a+b); c, 1-b-m, -am/(a+b) | -1), written
        # out here rather than built by thm4d_sum, which is defined by qfq_sum
        for alpha, beta, c, m in [(F(3), F(1), F(2), 3), (F(5, 2), F(1, 2), F(1), 4),
                                  (F(2), F(1), F(3), 5)]:
            t = alpha * m / (alpha + beta)
            ts = TerminatingSum((F(-m), alpha, 1 - c - m, 1 - t),
                                (c, 1 - beta - m, -t), m)
            assert thm4d_sum(alpha, beta, c, m) == ts
            assert eval_qfq_sum(alpha, beta, [], [c], m).value == _direct_sum(ts)

    def test_matches_direct_oracle(self):
        ts = qfq_sum(F(3), F(1), [F(2)], [F(1), F(2)], 5)
        assert eval_terminating(ts) == _direct_sum(ts)

    def test_alpha_beta_precondition(self):
        with pytest.raises(DomainError):
            eval_qfq_sum(F(1), F(2), [], [F(1)], 3)
        with pytest.raises(DomainError):
            eval_qfq_sum(F(2), F(2), [], [F(1)], 3)

    def test_list_length_validation(self):
        with pytest.raises(DomainError):
            qfq_sum(F(2), F(1), [F(1), F(2)], [F(1)], 3)
        with pytest.raises(DomainError):
            qfq_sum(F(2), F(1), [], [], 3)

    def test_chain_violation_skips(self):
        # tiny a_1 against large b's breaks the truncated chain
        r = eval_qfq_sum(F(3), F(1), [F(1, 10)], [F(3), F(3)], 5)
        assert not r.chain_holds
        assert r.verdict is QfqVerdict.SKIPPED_HYPOTHESIS

    def test_positivity_sweep(self):
        positive = chain_skipped = pole_skipped = 0
        small = (F(1, 2), F(1), F(2), F(3))
        for m in (2, 3, 4, 5, 6):
            for alpha in small:
                for beta in small:
                    if not alpha > beta:
                        continue
                    for b1 in (F(1, 2), F(1), F(2)):
                        try:
                            r = eval_qfq_sum(alpha, beta, [], [b1], m)
                        except PoleError:
                            pole_skipped += 1
                            continue
                        assert r.verdict is QfqVerdict.POSITIVE
                        positive += 1
                    for a1 in (F(1, 2), F(2)):
                        for b1 in (F(1), F(2)):
                            for b2 in (F(1, 2), F(3)):
                                try:
                                    r = eval_qfq_sum(alpha, beta, [a1],
                                                     [b1, b2], m)
                                except PoleError:
                                    pole_skipped += 1
                                    continue
                                if r.verdict is QfqVerdict.SKIPPED_HYPOTHESIS:
                                    chain_skipped += 1
                                    continue
                                assert r.verdict is QfqVerdict.POSITIVE
                                positive += 1
        assert positive == 207
        assert chain_skipped == 46
        assert pole_skipped == 77
