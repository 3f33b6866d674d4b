"""Exact rational scalars: parsing, Pochhammer symbols, Bernoulli numbers.

Every sign-critical quantity in this package is a ``fractions.Fraction``:
arbitrary precision, always reduced, denominator positive.  Parameters
enter as decimal or ``p/q`` strings and are converted exactly, so no
rounding happens before a sign is decided.
"""

from __future__ import annotations

from fractions import Fraction
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


def _even_bernoulli(count: int) -> list[Fraction]:
    """B_0, B_2, ..., B_2(count-1) in one pass.  B_2k is
    (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) for the tangent numbers T_k, which
    the integer recurrence of Brent and Harvey ("Fast computation of
    Bernoulli, tangent and secant numbers", 2013) yields all at once in
    O(count^2) multiplications by small integers."""
    t = [1] * (count - 1)  # t[k - 1] = T_k
    for k in range(1, count - 1):
        t[k] = k * t[k - 1]
    for k in range(1, count - 1):
        for j in range(k, count - 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = [Fraction(1)]
    for k, tk in enumerate(t, 1):
        four_k = 4 ** k
        out.append(Fraction((-1) ** (k - 1) * 2 * k * tk, four_k * (four_k - 1)))
    return out


# B_0, B_2, ... as far as asked for yet.  A ln(Gamma) plan at d digits
# reads about d/2 of them in order, and a pass over count of them costs
# about count^3 bit operations, so the table grows by half at a time.
_EVEN_BERNOULLI = [Fraction(1)]


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2 convention)."""
    if n < 0:
        raise DomainError(f"bernoulli needs n >= 0, got {n}")
    if n % 2:
        return Fraction(-1, 2) if n == 1 else Fraction(0)
    table = _EVEN_BERNOULLI
    if n // 2 >= len(table):
        table[:] = _even_bernoulli(max(n // 2 + 1, 3 * len(table) // 2, 32))
    return table[n // 2]


def ratio_steps(nums, dens) -> list[int]:
    """The sign of r_{i+1} - r_i for r_i = nums[i] / dens[i], dens[i] >= 0,
    by cross-multiplication, so a zero denominator (a trailing zero
    coefficient) reads as an infinite ratio."""
    return [(n2 * d1 > n1 * d2) - (n2 * d1 < n1 * d2)
            for n1, d1, n2, d2 in zip(nums, dens, nums[1:], dens[1:])]
