"""Exact rational layer: parsing, Pochhammer symbols, Bernoulli numbers."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turankit.errors import DomainError
from turankit.exact import (bernoulli, is_nonpositive_integer, parse_rational,
                            pochhammer)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)


class TestParseRational:
    @pytest.mark.parametrize("text,expected", [
        ("3", F(3)),
        ("1/2", F(1, 2)),
        ("-7/3", F(-7, 3)),
        ("0.25", F(1, 4)),
        ("  2/3 ", F(2, 3)),
        ("0", F(0)),
    ])
    def test_strings(self, text, expected):
        assert parse_rational(text) == expected

    def test_passthrough(self):
        q = F(5, 7)
        assert parse_rational(q) is q
        assert parse_rational(4) == F(4)

    def test_float_rejected(self):
        with pytest.raises(DomainError):
            parse_rational(0.25)

    @pytest.mark.parametrize("bad", ["1..5", "a", "1/0", ""])
    def test_malformed(self, bad):
        with pytest.raises(DomainError):
            parse_rational(bad)

    @given(rationals)
    def test_string_round_trip(self, q):
        assert parse_rational(str(q)) == q


class TestPochhammer:
    def test_frozen_values(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)
        assert pochhammer(2, 4) == 120
        assert pochhammer(F(7), 0) == 1
        assert pochhammer(-3, 5) == 0
        assert pochhammer(F(-3, 2), 2) == F(3, 4)

    def test_negative_n_rejected(self):
        with pytest.raises(DomainError):
            pochhammer(1, -1)

    @given(rationals, st.integers(min_value=0, max_value=12))
    def test_recurrence(self, a, n):
        assert pochhammer(a, n + 1) == pochhammer(a, n) * (a + n)

    @given(rationals, st.integers(min_value=0, max_value=8),
           st.integers(min_value=0, max_value=8))
    def test_addition_formula(self, a, m, n):
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


def test_is_nonpositive_integer():
    assert is_nonpositive_integer(F(0))
    assert is_nonpositive_integer(F(-3))
    assert not is_nonpositive_integer(F(-1, 2))
    assert not is_nonpositive_integer(F(1))


class TestBernoulli:
    def test_frozen_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(6) == F(1, 42)
        assert bernoulli(12) == F(-691, 2730)

    def test_odd_vanish(self):
        assert all(bernoulli(n) == 0 for n in (3, 5, 7, 9, 11))

    @settings(max_examples=10)
    @given(st.integers(min_value=1, max_value=20))
    def test_sum_identity(self, n):
        # recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
        from math import comb

        total = sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0

    def test_matches_mpmath_across_table_growth(self):
        # the table of even ones is rebuilt at 32, 48, 72, ... entries, and
        # a 700-digit ln(Gamma) plan reads up to B_662
        import mpmath

        for n in list(range(0, 80)) + [94, 95, 96, 142, 144, 146, 662, 664]:
            p, q = mpmath.bernfrac(n)
            assert bernoulli(n) == F(int(p), int(q))

    def test_negative_index_refused(self):
        with pytest.raises(DomainError):
            bernoulli(-2)
