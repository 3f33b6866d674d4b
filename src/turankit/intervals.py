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

Working precision defaults to 30 significant decimal digits and can be
overridden with the TURANKIT_PRECISION environment variable, which is read
when the precision is first needed, or with :func:`set_precision`.
Internally a fixed number of guard digits is added.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from fractions import Fraction

import mpmath
from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_int, from_rational, round_ceiling, round_floor

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
    q = Fraction(int(man)) * Fraction(2) ** exp
    return -q if sign else q


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


def _stirling_plan(x: Fraction, dps: int):
    """Choose shift m and term count N so the first omitted Stirling term
    is below the target; returns (m, N, remainder_bound)."""
    target = Fraction(1, 10 ** (dps + 8))
    floor_threshold = max(12, (2 * dps) // 3)
    while True:
        if x >= floor_threshold:
            m = 0
        else:
            m = floor_threshold - int(x) if x.denominator == 1 else \
                floor_threshold - (x.numerator // x.denominator)
        z_floor = (x.numerator + m * x.denominator) // x.denominator
        power = z_floor
        z2 = z_floor * z_floor
        for n in range(1, 121):
            # power == z_floor**(2n-1)
            bound = abs(bernoulli(2 * n + 2)) / ((2 * n + 2) * (2 * n + 1) * power)
            if bound <= target:
                return m, n, bound
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


def log_gamma(x) -> CertifiedInterval:
    """Certified enclosure of ln(Gamma(x)) for rational x > 0."""
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    m, n_terms, remainder = _stirling_plan(x, get_precision())
    z = x + m
    zi = CertifiedInterval.from_fraction(z)
    acc = (zi - Fraction(1, 2)) * ci_log(zi) - zi + _half_log_two_pi()
    inv = CertifiedInterval.from_fraction(1) / zi
    inv2 = inv * inv
    power = inv  # z**-(2k-1)
    for k in range(1, n_terms + 1):
        coeff = bernoulli(2 * k) / (2 * k * (2 * k - 1))
        acc = acc + CertifiedInterval.from_fraction(coeff) * power
        power = power * inv2
    acc = acc.widened(remainder)
    if m:
        acc = acc - ci_log(CertifiedInterval.from_fraction(pochhammer(x, m)))
    acc.exact = None
    return acc


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
