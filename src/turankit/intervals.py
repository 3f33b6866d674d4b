"""Certified interval arithmetic and enclosures for ln(Gamma) and Gamma ratios.

A :class:`CertifiedInterval` is a pair of raw binary floats [lo, hi]
guaranteed to contain the true real value; each operation is one libmp
interval function (``mpi_add``, ``mpi_exp``, ...), which rounds outward.
Intervals whose value is known to be an exact rational carry that rational
alongside the enclosure, so Gamma ratios over a short integer step stay exact.

A rational num/den, reduced or not, is rounded with one division: the
quotient that libmp's ``mpf_div`` forms, with a sticky bit for a nonzero
remainder, is rounded once down and once up, so both endpoints are those
of ``from_rational`` at either rounding.  The predicates (``sign``,
``contains_zero``, ``strictly_less``, ``overlaps``) read the raw endpoints
with libmp and build no Fraction; only the public ``lo``, ``hi``,
``midpoint`` and ``width`` convert to exact rationals.

ln(Gamma) is computed from the Stirling series with Bernoulli-number
corrections after shifting the argument upward, with the classical bound
on the first omitted term added explicitly to the enclosure.  That makes
the interval a certificate, not an estimate: an independent recomputation
at higher precision must land inside it (and the test suite checks this).
Each Stirling term is an integer quotient, rounded outward on its own and
added to the endpoints with outward rounding.  The shift, term count and
coefficients are planned once per (floor(x), precision), and the finished
enclosure is reused for every call with the same (x, precision).  A
rational power base**expo and a Gamma ratio Gamma(x+delta)/Gamma(x) are
reused the same way, per (base, expo) or (x, delta) and precision in
bits; their arguments are checked on every call, before the lookup.
Shared enclosures are never modified.

The working precision belongs to the current context (:mod:`contextvars`),
and :func:`working_precision` is the only way to change it.  Elsewhere it is
30 significant decimal digits, or TURANKIT_PRECISION, read when first
needed; a new thread or spawned worker process starts there.  Internally a
fixed number of guard digits is added.
"""

from __future__ import annotations

import operator
import os
from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from functools import cache, lru_cache
from itertools import count

from mpmath.libmp import (dps_to_prec, ftwo, fzero, mpf_lt, mpf_neg, mpf_pi,
                          mpi_add, mpi_div, mpi_exp, mpi_log, mpi_mul, mpi_neg,
                          mpi_pow_int, mpi_sub, normalize, round_ceiling,
                          round_floor, to_str)

from .errors import DomainError
from .exact import bernoulli, parse_rational, pochhammer

DEFAULT_DPS = 30
_GUARD_DPS = 15
# the longest integer Gamma-ratio step made an exact product (cost ~ step^2)
POCHHAMMER_STEPS = 1000

# (decimal digits, bits including the guard digits) in the current context;
# unset outside every working_precision block
_precision: ContextVar[tuple[int, int]] = ContextVar("turankit_precision")


def _digits_and_bits(dps: int) -> tuple[int, int]:
    if dps < 5:
        raise DomainError(f"working precision too small: {dps}")
    return dps, dps_to_prec(dps + _GUARD_DPS)


@cache
def _default_precision() -> tuple[int, int]:
    """The precision outside any working_precision block, read when first
    needed, so that a bad TURANKIT_PRECISION raises DomainError there and
    not while the package is imported."""
    raw = os.environ.get("TURANKIT_PRECISION", str(DEFAULT_DPS))
    try:
        dps = int(raw)
    except ValueError:
        raise DomainError(f"TURANKIT_PRECISION must be an integer, got {raw!r}")
    if dps < 5:
        raise DomainError(f"TURANKIT_PRECISION too small: {dps}")
    return _digits_and_bits(dps)


def _bits() -> int:
    return (_precision.get(None) or _default_precision())[1]


def get_precision() -> int:
    """Working precision of the current context in significant decimal digits."""
    return (_precision.get(None) or _default_precision())[0]


@contextmanager
def working_precision(dps: int):
    """Run the block at ``dps`` decimal digits (used for escalation); other
    threads and contexts keep their own precision."""
    token = _precision.set(_digits_and_bits(dps))
    try:
        yield
    finally:
        _precision.reset(token)


def _finite(raw):
    """raw itself, or DomainError when it is an infinity or NaN."""
    if not raw[1] and raw[2]:
        raise DomainError("interval endpoint is not finite")
    return raw


def _sign(raw) -> int:
    sign, man, _, _ = _finite(raw)
    return -1 if sign else (1 if man else 0)


def _raw_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = _finite(raw)
    man = -int(man) if sign else int(man)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _outward(num: int, den: int, prec: int):
    """Raw enclosure [floor, ceil] of num/den at prec bits (den > 0, not
    necessarily reduced).  The one quotient is the one mpf_div forms on
    the odd parts of num and den, with the same extra bits and a sticky
    bit for a nonzero remainder; it is rounded once each way."""
    if not num:
        return fzero, fzero
    sign = 0
    if num < 0:
        sign, num = 1, -num
    s = (num & -num).bit_length() - 1
    t = (den & -den).bit_length() - 1
    man, den, exp = num >> s, den >> t, s - t
    if den != 1:
        extra = max(prec - man.bit_length() + den.bit_length() + 5, 5)
        man, rem = divmod(man << extra, den)
        exp -= extra
        if rem:
            man = (man << 1) | 1
            exp -= 1
    bc = man.bit_length()
    return (normalize(sign, man, exp, bc, prec, round_floor),
            normalize(sign, man, exp, bc, prec, round_ceiling))


def _symmetric(num: int, den: int, prec: int):
    """Raw enclosure [-r, r] of r = num/den >= 0 (den > 0): its ceiling c
    and -c, since floor(-r) = -ceil(r)."""
    c = _outward(num, den, prec)[1]
    return mpf_neg(c), c


class CertifiedInterval:
    """Enclosure [lo, hi] of a real value, optionally tagged exact-rational."""

    __slots__ = ("_pair", "exact")

    def __init__(self, pair, exact: Fraction | None = None):
        self._pair = pair  # raw mpf endpoints (lo, hi)
        self.exact = exact

    # -- construction -------------------------------------------------

    @classmethod
    def from_fraction(cls, q) -> "CertifiedInterval":
        q = parse_rational(q)
        return cls(_outward(q.numerator, q.denominator, _bits()), exact=q)

    @classmethod
    def from_fraction_bounds(cls, lo, hi) -> "CertifiedInterval":
        lo, hi = parse_rational(lo), parse_rational(hi)
        if lo > hi:
            raise DomainError(f"bounds out of order: {lo} > {hi}")
        prec = _bits()
        return cls((_outward(lo.numerator, lo.denominator, prec)[0],
                    _outward(hi.numerator, hi.denominator, prec)[1]))

    @classmethod
    def around(cls, num: int, den: int, rad_num: int,
               rad_den: int) -> "CertifiedInterval":
        """Enclosure of num/den grown by rad_num/rad_den on both sides (an
        explicit error term), from integer pairs that need not be reduced
        (den, rad_den > 0).  Each endpoint is rounded outward once and the
        two are added with outward rounding."""
        if rad_num < 0:
            raise DomainError("negative widening radius")
        prec = _bits()
        return cls(mpi_add(_outward(num, den, prec),
                           _symmetric(rad_num, rad_den, prec), prec))

    # -- endpoints ----------------------------------------------------

    @property
    def lo(self) -> Fraction:
        """Lower endpoint as an exact (dyadic) rational."""
        return _raw_to_fraction(self._pair[0])

    @property
    def hi(self) -> Fraction:
        return _raw_to_fraction(self._pair[1])

    @property
    def midpoint(self) -> Fraction:
        if self.exact is not None:
            return self.exact
        return Fraction(*self._midpoint_pair())

    def _midpoint_pair(self) -> tuple[int, int]:
        """The midpoint as an unreduced pair (num, den), den > 0: the exact
        rational if there is one, else (lo + hi)/2 over a power of two."""
        if self.exact is not None:
            return self.exact.numerator, self.exact.denominator
        (s1, m1, e1, _), (s2, m2, e2, _) = map(_finite, self._pair)
        e = min(e1, e2)
        n = ((-m1 if s1 else m1) << (e1 - e)) + ((-m2 if s2 else m2) << (e2 - e))
        e -= 1
        return (n << e, 1) if e >= 0 else (n, 1 << -e)

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
        if self.exact is not None and other.exact is not None:
            return CertifiedInterval.from_fraction(exact_op(self.exact, other.exact))
        return CertifiedInterval(op(self._pair, other._pair, _bits()))

    def __add__(self, other):
        return self._combine(other, mpi_add, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, mpi_sub, operator.sub)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        return self._combine(other, mpi_mul, operator.mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.contains_zero():
            raise DomainError("division by an interval containing zero")
        return self._combine(other, mpi_div, operator.truediv)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        if self.exact is not None:
            return CertifiedInterval.from_fraction(-self.exact)
        return CertifiedInterval(mpi_neg(self._pair, _bits()))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if self.exact is not None:
            return CertifiedInterval.from_fraction(self.exact ** n)
        return CertifiedInterval(mpi_pow_int(self._pair, n, _bits()))

    # -- predicates ---------------------------------------------------

    def contains_zero(self) -> bool:
        if self.exact is not None:
            return self.exact == 0
        return _sign(self._pair[0]) <= 0 <= _sign(self._pair[1])

    def contains(self, value) -> bool:
        value = parse_rational(value)
        if self.exact is not None:
            return self.exact == value
        return self.lo <= value <= self.hi

    def sign(self) -> int | None:
        """+1, -1, 0, or None when the enclosure straddles zero."""
        if self.exact is not None:
            e = self.exact
            return 0 if e == 0 else (1 if e > 0 else -1)
        if _sign(self._pair[0]) > 0:
            return 1
        if _sign(self._pair[1]) < 0:
            return -1
        return None

    def strictly_less(self, other) -> bool:
        other = self._coerce(other)
        return mpf_lt(_finite(self._pair[1]), _finite(other._pair[0]))

    def overlaps(self, other) -> bool:
        other = self._coerce(other)
        return not (self.strictly_less(other) or other.strictly_less(self))

    def __repr__(self):
        if self.exact is not None:
            return f"CertifiedInterval(exact={self.exact})"
        show = min(get_precision(), 20)
        a, b = (to_str(v, show) for v in self._pair)
        return f"CertifiedInterval[{a}, {b}]"


def ci_exp(x) -> CertifiedInterval:
    x = CertifiedInterval._coerce(x)
    if x.exact == 0:
        return CertifiedInterval.from_fraction(1)
    return CertifiedInterval(mpi_exp(x._pair, _bits()))


def ci_log(x) -> CertifiedInterval:
    x = CertifiedInterval._coerce(x)
    if (x.exact is not None and x.exact <= 0
            or x.exact is None and _sign(x._pair[0]) <= 0):
        raise DomainError("log needs a certainly-positive interval")
    if x.exact == 1:
        return CertifiedInterval.from_fraction(0)
    return CertifiedInterval(mpi_log(x._pair, _bits()))


def rational_power(base, expo) -> CertifiedInterval:
    """Enclosure of base**expo for rational base > 0 and rational expo.
    The result is shared between calls with the same base, exponent and
    precision."""
    base, expo = parse_rational(base), parse_rational(expo)
    if base <= 0:
        raise DomainError(f"rational_power needs base > 0, got {base}")
    return _rational_power(base, expo, _bits())


@lru_cache(maxsize=1024)
def _rational_power(base: Fraction, expo: Fraction, prec: int) -> CertifiedInterval:
    """base**expo at the current precision, whose bits ``prec`` are: the
    enclosure depends on the precision only through them, so they key it."""
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
    m = max(0, max(12, (2 * dps) // 3) - x_floor)
    z_floor = x_floor + m
    power = z_floor
    z2 = z_floor * z_floor
    terms = []
    # The loop ends: the terms shrink while n < pi z, and a z of at least
    # max(12, 2 dps/3) meets the target before that for every dps >= 5.
    for n in count(1):
        b = bernoulli(2 * n)
        terms.append((b.numerator, b.denominator * 2 * n * (2 * n - 1)))
        # power == z_floor**(2n-1)
        bound = abs(bernoulli(2 * n + 2)) / ((2 * n + 2) * (2 * n + 1) * power)
        if bound <= target:
            return m, tuple(terms), bound
        power *= z2


@lru_cache(maxsize=16)
def _half_log_two_pi(prec: int):
    """Raw enclosure of ln(2 pi)/2 at prec bits."""
    two = (ftwo, ftwo)
    pi = (mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling))
    return mpi_div(mpi_log(mpi_mul(two, pi, prec), prec), two, prec)


def log_gamma(x) -> CertifiedInterval:
    """Certified enclosure of ln(Gamma(x)) for rational x > 0.  The result
    is shared between calls with the same x and precision."""
    x = parse_rational(x)
    if x <= 0:
        raise DomainError(f"log_gamma needs x > 0, got {x}")
    return _log_gamma(x, get_precision())


@lru_cache(maxsize=1024)
def _log_gamma(x: Fraction, dps: int) -> CertifiedInterval:
    m, terms, remainder = _stirling_plan(x.numerator // x.denominator, dps)
    prec = _digits_and_bits(dps)[1]
    # z = x + m = p/q in lowest terms; start from (z - 1/2) ln z - z + ln(2 pi)/2
    p, q = x.numerator + m * x.denominator, x.denominator
    z = _outward(p, q, prec)
    acc = mpi_add(mpi_sub(mpi_mul(_outward(2 * p - q, 2 * q, prec),
                                  mpi_log(z, prec), prec), z, prec),
                  _half_log_two_pi(prec), prec)
    # add each term num q^(2k-1) / (den p^(2k-1)), itself rounded outward
    zp, zq, p2, q2 = p, q, p * p, q * q
    for num, den in terms:
        acc = mpi_add(acc, _outward(num * zq, den * zp, prec), prec)
        zp *= p2
        zq *= q2
    # widen by the remainder bound
    acc = mpi_add(acc, _symmetric(remainder.numerator, remainder.denominator,
                                  prec), prec)
    if m:
        # ln Gamma(x) = ln Gamma(x + m) - ln (x)_m
        shift = pochhammer(x, m)
        acc = mpi_sub(acc, mpi_log(_outward(shift.numerator, shift.denominator,
                                            prec), prec), prec)
    return CertifiedInterval(acc)


def gamma_ratio(x, delta) -> CertifiedInterval:
    """Enclosure of Gamma(x+delta)/Gamma(x); exact Pochhammer value when
    delta is an integer of at most POCHHAMMER_STEPS.  The result is shared
    between calls with the same x, delta and precision."""
    x, delta = parse_rational(x), parse_rational(delta)
    if x <= 0:
        raise DomainError(f"gamma_ratio needs x > 0, got {x}")
    if delta < 0:
        raise DomainError(f"gamma_ratio needs delta >= 0, got {delta}")
    return _gamma_ratio(x, delta, _bits())


@lru_cache(maxsize=1024)
def _gamma_ratio(x: Fraction, delta: Fraction, prec: int) -> CertifiedInterval:
    """Gamma(x+delta)/Gamma(x) at the current precision, whose bits
    ``prec`` are (see :func:`_rational_power`)."""
    if delta.denominator == 1 and delta <= POCHHAMMER_STEPS:
        return CertifiedInterval.from_fraction(pochhammer(x, delta.numerator))
    return ci_exp(log_gamma(x + delta) - log_gamma(x))
