"""Certified interval arithmetic and enclosures for ln(Gamma) and Gamma ratios.

A :class:`CertifiedInterval` is a pair of binary floats [lo, hi] guaranteed
to contain the true real value; every operation rounds outward.  Intervals
whose value is known to be an exact rational carry that rational alongside
the enclosure, so integer-shift Gamma ratios stay exact end to end.

ln(Gamma) is computed from the Stirling series with Bernoulli-number
corrections after shifting the argument upward, with the classical bound
on the first omitted term added explicitly to the enclosure.  That makes
the interval a certificate, not an estimate: an independent recomputation
at higher precision must land inside it (and the test suite checks this).
Each Stirling term is an integer quotient, rounded outward on its own and
added to the endpoints with outward rounding.  The shift, term count and
coefficients are planned once per (floor(x), precision), and the finished
enclosure is reused for every call with the same (x, precision).

Working precision defaults to 30 significant decimal digits and can be
overridden with the TURANKIT_PRECISION environment variable, which is read
when the precision is first needed, or with :func:`set_precision`.
Internally a fixed number of guard digits is added.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from math import prod

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_rational, mpf_add, round_ceiling, round_floor

from .errors import DomainError
from .exact import bernoulli, pochhammer

DEFAULT_DPS = 30
_GUARD_DPS = 15

_ctx = MPIntervalContext()


def _init_dps() -> int:
    raw = os.environ.get("TURANKIT_PRECISION")
    if raw is None:
        return DEFAULT_DPS
    try:
        dps = int(raw)
    except ValueError:
        raise DomainError(f"TURANKIT_PRECISION must be an integer, got {raw!r}")
    if dps < 5:
        raise DomainError(f"TURANKIT_PRECISION too small: {dps}")
    return dps


# None until the precision is first read, so that a bad TURANKIT_PRECISION
# raises DomainError there and not while the package is imported
_working_dps: int | None = None


def get_precision() -> int:
    """Current working precision in significant decimal digits."""
    if _working_dps is None:
        set_precision(_init_dps())
    return _working_dps


def set_precision(dps: int) -> None:
    global _working_dps
    if dps < 5:
        raise DomainError(f"working precision too small: {dps}")
    _working_dps = dps
    _ctx.dps = dps + _GUARD_DPS


@contextmanager
def working_precision(dps: int):
    """Temporarily run at ``dps`` decimal digits (used for escalation)."""
    old = get_precision()
    set_precision(dps)
    try:
        yield
    finally:
        set_precision(old)


def _raw_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0:
        if exp == 0:
            return Fraction(0)
        raise DomainError("interval endpoint is not finite")
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _raw_pair_from_fractions(lo: Fraction, hi: Fraction):
    get_precision()  # every interval starts here, so the context is set up
    prec = _ctx.prec
    lo_raw = from_rational(lo.numerator, lo.denominator, prec, round_floor)
    hi_raw = from_rational(hi.numerator, hi.denominator, prec, round_ceiling)
    return (lo_raw, hi_raw)


class CertifiedInterval:
    """Enclosure [lo, hi] of a real value, optionally tagged exact-rational."""

    __slots__ = ("_iv", "exact")

    def __init__(self, iv_value, exact: Fraction | None = None):
        self._iv = iv_value
        self.exact = exact

    # -- construction -------------------------------------------------

    @classmethod
    def from_fraction(cls, q) -> "CertifiedInterval":
        q = Fraction(q)
        return cls(_ctx.make_mpf(_raw_pair_from_fractions(q, q)), exact=q)

    @classmethod
    def from_fraction_bounds(cls, lo, hi) -> "CertifiedInterval":
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise DomainError(f"bounds out of order: {lo} > {hi}")
        return cls(_ctx.make_mpf(_raw_pair_from_fractions(lo, hi)))

    @classmethod
    def zero(cls) -> "CertifiedInterval":
        return cls.from_fraction(0)

    # -- endpoints ----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        """Lower endpoint as an exact (dyadic) rational."""
        return _raw_to_fraction(self._iv._mpi_[0])

    @property
    def hi(self) -> Fraction:
        return _raw_to_fraction(self._iv._mpi_[1])

    @property
    def midpoint(self) -> Fraction:
        if self.exact is not None:
            return self.exact
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        if self.exact is not None:
            return Fraction(0)
        return self.hi - self.lo

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, CertifiedInterval):
            return other
        if isinstance(other, (int, Fraction)):
            return CertifiedInterval.from_fraction(other)
        return NotImplemented

    def _combine(self, other, op, exact_op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        exact = None
        if self.exact is not None and other.exact is not None:
            exact = exact_op(self.exact, other.exact)
            if exact is not None:
                return CertifiedInterval.from_fraction(exact)
        return CertifiedInterval(op(self._iv, other._iv))

    def __add__(self, other):
        return self._combine(other, lambda x, y: x + y, lambda x, y: x + y)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, lambda x, y: x - y, lambda x, y: x - y)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        return self._combine(other, lambda x, y: x * y, lambda x, y: x * y)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.contains_zero():
            raise DomainError("division by an interval containing zero")
        return self._combine(other, lambda x, y: x / y,
                             lambda x, y: x / y if y != 0 else None)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        if self.exact is not None:
            return CertifiedInterval.from_fraction(-self.exact)
        return CertifiedInterval(-self._iv)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if self.exact is not None:
            return CertifiedInterval.from_fraction(self.exact ** n)
        return CertifiedInterval(self._iv ** n)

    def widened(self, radius) -> "CertifiedInterval":
        """Enclosure grown by ``radius`` on both sides (explicit error term)."""
        radius = Fraction(radius)
        if radius < 0:
            raise DomainError("negative widening radius")
        pad = CertifiedInterval.from_fraction_bounds(-radius, radius)
        return CertifiedInterval(self._iv + pad._iv)

    # -- predicates ---------------------------------------------------

    def contains_zero(self) -> bool:
        if self.exact is not None:
            return self.exact == 0
        return self.lo <= 0 <= self.hi

    def contains(self, value) -> bool:
        value = Fraction(value) if not isinstance(value, Fraction) else value
        if self.exact is not None:
            return self.exact == value
        return self.lo <= value <= self.hi

    def sign(self) -> int | None:
        """+1, -1, 0, or None when the enclosure straddles zero."""
        if self.exact is not None:
            e = self.exact
            return 0 if e == 0 else (1 if e > 0 else -1)
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return None

    def strictly_less(self, other) -> bool:
        other = self._coerce(other)
        return self.hi < other.lo

    def strictly_greater(self, other) -> bool:
        other = self._coerce(other)
        return self.lo > other.hi

    def overlaps(self, other) -> bool:
        other = self._coerce(other)
        return not (self.hi < other.lo or other.hi < self.lo)

    def __repr__(self):
        if self.exact is not None:
            return f"CertifiedInterval(exact={self.exact})"
        show = min(get_precision(), 20)
        a = mpmath.mp.make_mpf(self._iv._mpi_[0])
        b = mpmath.mp.make_mpf(self._iv._mpi_[1])
        return f"CertifiedInterval[{mpmath.nstr(a, show)}, {mpmath.nstr(b, show)}]"


def ci_exp(x) -> CertifiedInterval:
    x = CertifiedInterval._coerce(x)
    if x.exact == 0:
        return CertifiedInterval.from_fraction(1)
    return CertifiedInterval(_ctx.exp(x._iv))


def ci_log(x) -> CertifiedInterval:
    x = CertifiedInterval._coerce(x)
    if x.exact is not None and x.exact <= 0 or x.exact is None and x.lo <= 0:
        raise DomainError("log needs a certainly-positive interval")
    if x.exact == 1:
        return CertifiedInterval.from_fraction(0)
    return CertifiedInterval(_ctx.log(x._iv))


def rational_power(base, expo) -> CertifiedInterval:
    """Enclosure of base**expo for rational base > 0 and rational expo."""
    base, expo = Fraction(base), Fraction(expo)
    if base <= 0:
        raise DomainError(f"rational_power needs base > 0, got {base}")
    if expo.denominator == 1:
        return CertifiedInterval.from_fraction(base ** expo.numerator)
    return ci_exp(CertifiedInterval.from_fraction(expo)
                  * ci_log(CertifiedInterval.from_fraction(base)))


# -- ln(Gamma) via the shifted Stirling series ------------------------


@lru_cache(maxsize=256)
def _stirling_plan(x_floor: int, dps: int):
    """Choose shift m and term count N so the first omitted Stirling term
    is below the target.  Both depend on x only through floor(x).  Returns
    (m, terms, remainder_bound), where terms[k-1] = (num, den) is the
    coefficient B_2k / (2k(2k-1)) as a pair of integers, den > 0."""
    target = Fraction(1, 10 ** (dps + 8))
    floor_threshold = max(12, (2 * dps) // 3)
    while True:
        m = max(0, floor_threshold - x_floor)
        z_floor = x_floor + m
        power = z_floor
        z2 = z_floor * z_floor
        for n in range(1, 121):
            # power == z_floor**(2n-1)
            bound = abs(bernoulli(2 * n + 2)) / ((2 * n + 2) * (2 * n + 1) * power)
            if bound <= target:
                terms = []
                for k in range(1, n + 1):
                    b = bernoulli(2 * k)
                    terms.append((b.numerator, b.denominator * 2 * k * (2 * k - 1)))
                return m, tuple(terms), bound
            power *= z2
        floor_threshold *= 2


_HALF_LOG_TWO_PI_CACHE: dict[int, CertifiedInterval] = {}


def _half_log_two_pi() -> CertifiedInterval:
    prec = _ctx.prec
    cached = _HALF_LOG_TWO_PI_CACHE.get(prec)
    if cached is None:
        cached = CertifiedInterval(_ctx.log(2 * _ctx.pi) / 2)
        _HALF_LOG_TWO_PI_CACHE[prec] = cached
    return cached


def _outward(num: int, den: int, prec: int):
    """Raw enclosure [floor, ceil] of num/den at prec bits (den > 0; the
    pair need not be reduced, since from_rational rounds the value)."""
    return (from_rational(num, den, prec, round_floor),
            from_rational(num, den, prec, round_ceiling))


def log_gamma(x) -> CertifiedInterval:
    """Certified enclosure of ln(Gamma(x)) for rational x > 0.  The result
    is shared between calls with the same x and precision."""
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return _log_gamma(x, get_precision())


@lru_cache(maxsize=1024)
def _log_gamma(x: Fraction, dps: int) -> CertifiedInterval:
    m, terms, remainder = _stirling_plan(x.numerator // x.denominator, dps)
    prec = _ctx.prec
    # z = x + m = p/q in lowest terms
    p, q = x.numerator + m * x.denominator, x.denominator
    zi = _ctx.make_mpf(_outward(p, q, prec))
    acc = (_ctx.make_mpf(_outward(2 * p - q, 2 * q, prec)) * _ctx.log(zi)
           - zi + _half_log_two_pi()._iv)
    # add each term num q^(2k-1) / (den p^(2k-1)) rounded outward, as mpi_add
    # does: lower endpoints rounded down, upper ones up
    lo, hi = acc._mpi_
    zp, zq, p2, q2 = p, q, p * p, q * q
    for num, den in terms:
        num, den = num * zq, den * zp
        lo = mpf_add(lo, from_rational(num, den, prec, round_floor),
                     prec, round_floor)
        hi = mpf_add(hi, from_rational(num, den, prec, round_ceiling),
                     prec, round_ceiling)
        zp *= p2
        zq *= q2
    # widen by the remainder bound r, adding [-r, r] as mpi_add does
    r, s = remainder.numerator, remainder.denominator
    acc = _ctx.make_mpf((
        mpf_add(lo, from_rational(-r, s, prec, round_floor), prec, round_floor),
        mpf_add(hi, from_rational(r, s, prec, round_ceiling), prec, round_ceiling)))
    if m:
        # (x)_m = prod(a + i b) / b^m for x = a/b
        a, b = x.numerator, x.denominator
        shift = prod(a + i * b for i in range(m))
        acc = acc - _ctx.log(_ctx.make_mpf(_outward(shift, b ** m, prec)))
    return CertifiedInterval(acc)


def gamma_ratio(x, delta) -> CertifiedInterval:
    """Enclosure of Gamma(x+delta)/Gamma(x); exact Pochhammer value when
    delta is a nonnegative integer."""
    x, delta = Fraction(x), Fraction(delta)
    if x <= 0:
        raise DomainError(f"gamma_ratio needs x > 0, got {x}")
    if delta < 0:
        raise DomainError(f"gamma_ratio needs delta >= 0, got {delta}")
    if delta.denominator == 1:
        return CertifiedInterval.from_fraction(pochhammer(x, delta.numerator))
    return ci_exp(log_gamma(x + delta) - log_gamma(x))
