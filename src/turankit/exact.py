"""Exact rational scalars: parsing, Pochhammer symbols, Bernoulli numbers.

Every sign-critical quantity in this package is a ``fractions.Fraction``:
arbitrary precision, always reduced, denominator positive.  Parameters
enter as decimal or ``p/q`` strings and are converted exactly, so no
rounding happens before a sign is decided.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

import mpmath

from .errors import DomainError


def parse_rational(value) -> Fraction:
    """Convert ``value`` (int, Fraction, or string like "3", "1/2", "0.25")
    to an exact Fraction.  Binary floats are rejected: a float literal that
    has passed through rounding cannot be trusted as an exact parameter."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError(
            f"refusing float {value!r}; pass a string or Fraction for exactness"
        )
    try:
        return Fraction(str(value).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {value!r}") from exc


def is_nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q.numerator <= 0


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1); equals 1 when n = 0."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    a = Fraction(a)
    prod = Fraction(1)
    for i in range(n):
        prod *= a + i
    return prod


@cache
def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention).  A ln(Gamma) plan
    at d digits reads about d/2 of them in order, which a bounded LRU cache
    smaller than that would miss every time."""
    p, q = mpmath.bernfrac(n)
    return Fraction(int(p), int(q))


def ratio_steps(nums, dens) -> list[int]:
    """The sign of r_{i+1} - r_i for r_i = nums[i] / dens[i], dens[i] >= 0,
    by cross-multiplication, so a zero denominator (a trailing zero
    coefficient) reads as an infinite ratio."""
    return [(n2 * d1 > n1 * d2) - (n2 * d1 < n1 * d2)
            for n1, d1, n2, d2 in zip(nums, dens, nums[1:], dens[1:])]
