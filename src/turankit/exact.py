"""Exact rational scalars: parsing, Pochhammer symbols, Bernoulli numbers.

Every sign-critical quantity in this package is a ``fractions.Fraction``:
arbitrary precision, always reduced, denominator positive.  Every public
function and command-line flag takes a parameter as a Fraction, an int or
a decimal or ``p/q`` string through :func:`parse_rational`, which refuses
floats with a DomainError, so no rounding happens before a sign is decided.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from .errors import DomainError

# a decimal exponent, which Fraction() expands to a power of ten
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def parse_rational(value) -> Fraction:
    """``value`` (a Fraction, an int, or text like "3", "1/2", "0.25") as an
    exact Fraction; a Fraction is returned as it is.  A binary float has
    passed through rounding and is refused.  The reports print every value,
    so text with a numerator or denominator of more digits than the
    interpreter converts to a string (0: no limit) is refused, and so,
    before Fraction() spends time on 10**exponent, is a decimal exponent
    above that limit plus the length of the text (0e10000000 too)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError(
            f"refusing float {value!r}; pass a string or Fraction for exactness"
        )
    text = str(value)
    digits = getattr(sys, "get_int_max_str_digits", int)()
    exponent = _EXPONENT.search(text)
    if digits and exponent:
        bound = digits + len(text)
        magnitude = exponent[1].lstrip("+-").replace("_", "").lstrip("0")
        if len(magnitude) > len(str(bound)) or int(magnitude or 0) > bound:
            raise DomainError(f"{value!r} has the decimal exponent {exponent[1]}, "
                              f"above {bound} in magnitude")
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {value!r}") from exc
    if digits and max(abs(q.numerator), q.denominator) >= 10 ** digits:
        raise DomainError(f"{value!r} has a numerator or denominator of more "
                          f"than {digits} digits")
    return q


def is_nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q.numerator <= 0


def pochhammer(a, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1); equals 1 when n = 0."""
    if n < 0:
        raise DomainError(f"pochhammer needs n >= 0, got {n}")
    a = parse_rational(a)
    p, q = a.numerator, a.denominator
    # prod(a + i) = prod(p + i q) / q^n, reduced once
    return Fraction(math.prod(range(p, p + n * q, q)), q ** n)


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
