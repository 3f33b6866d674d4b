"""Exact truncated power series for three weighted hypergeometric families.

The package studies cross-product differences

    F(a+d, x) * F(b, x)  -  F(b+d, x) * F(a, x)

for three ways a shift parameter can enter a series with fixed positive
weights w_n:

* upper factor:  F(a, x) = sum w_n * (a)_n / n! * x^n
  (Kummer/Gauss functions shifted in an upper parameter),
* gamma factor:  F(a, x) = sum w_n * Gamma(a+n) * x^n,
* lower factor:  F(a, x) = sum w_n / (a)_n * x^n
  (shift in a lower parameter).

The difference's coefficients are written phi_m (upper), psi_m (gamma)
and lambda_m (lower).  phi and lambda are exact rationals.  psi_m is kept
in the factored form

    psi_m = Gamma(a+d)Gamma(b) * S1_m - Gamma(b+d)Gamma(a) * S2_m

with S1, S2 exact rational convolution sums, so its sign reduces to the
exact comparison of S1/S2 against a certified enclosure of the Gamma
quotient Gamma(b+d)Gamma(a) / [Gamma(a+d)Gamma(b)] (a single interval per
parameter tuple, exact when d is an integer).

All coefficients and their half-range profiles come from one exact pass
per parameter tuple (:func:`half_range_pass`), made on integer Pochhammer
tables over one common denominator, so that every sign a check needs is
the sign of an integer (or, for psi, an integer cross-multiplication).
A pass joins two halves, as the coefficient sum_k w_k w_{m-k} M_k does:
the rows of M_k, which depend only on the shift point (the family, the
shifts a, b, d and the order M), and the weights w_n, which depend only on
the weight rule and M.  Every weight is positive, so the sign checks of
``verify`` read a shift point's rows once, before any weight, and cache
that read rather than the rows; a pass is built, its rows afresh, only
where a row must be weighed.  A pass makes its M + 1 integer weights when
it first weighs a row and keeps them only while it lives.

Everything is formal: truncation order is fixed up front and no statement
about convergence is made or needed.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import accumulate

from .errors import DomainError, PoleError
from .exact import parse_rational, ratio_steps
from .intervals import CertifiedInterval, ci_exp, gamma_ratio, log_gamma


class Family(enum.Enum):
    UPPER_FACTOR = "upper"
    GAMMA_FACTOR = "gamma"
    LOWER_FACTOR = "lower"


class Sign(enum.Enum):
    POSITIVE = "+"
    NEGATIVE = "-"
    ZERO = "0"
    INCONCLUSIVE = "?"


class MonotoneClass(enum.Enum):
    DECREASING = "decreasing"
    INCREASING = "increasing"
    CONSTANT = "constant"
    NEITHER = "neither"


@dataclass(frozen=True)
class WeightRule:
    """w_n = prod (u)_n / [prod (l)_n * (n!)^inv_factorial], all parameters
    positive rationals so that w_n > 0 for every n."""

    upper: tuple[Fraction, ...] = ()
    lower: tuple[Fraction, ...] = ()
    inv_factorial: bool = False

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(map(parse_rational, self.upper)))
        object.__setattr__(self, "lower", tuple(map(parse_rational, self.lower)))
        for p in self.upper + self.lower:
            if p <= 0:
                raise DomainError(f"weight parameters must be positive, got {p}")

    def ratio(self, n: int) -> Fraction:
        """w_n / w_{n-1} for n >= 1."""
        if n < 1:
            raise DomainError("weight ratio needs n >= 1")
        num, den = self._ratio_parts(n)
        return Fraction(num[-1], den[-1])

    def _ratio_parts(self, M: int) -> tuple[list[int], list[int]]:
        """Positive integers with ratio(n) = num[n-1] / den[n-1], n = 1..M."""
        num = [math.prod(l.denominator for l in self.lower)] * M
        den = [math.prod(u.denominator for u in self.upper)] * M
        for params, parts in ((self.upper, num), (self.lower, den)):
            for s in params:  # the numerator of s + n - 1
                parts[:] = map(operator.mul, parts, range(
                    s.numerator, s.numerator + M * s.denominator, s.denominator))
        if self.inv_factorial:
            den[:] = map(operator.mul, den, range(1, M + 1))
        return num, den


@dataclass(frozen=True)
class HypSeriesSpec:
    family: Family
    weights: WeightRule
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise DomainError(f"truncation order must be >= 0, got {self.order}")


DEFAULT_ORDER = 40


def kummer_upper(c, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """1F1(a; c; x) viewed as an upper-factor family: w_n = 1/(c)_n."""
    return HypSeriesSpec(Family.UPPER_FACTOR, WeightRule(lower=(c,)), order)


def gauss_upper(b, c, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """2F1(a, b; c; x) shifted in a: w_n = (b)_n/(c)_n."""
    return HypSeriesSpec(Family.UPPER_FACTOR, WeightRule(upper=(b,), lower=(c,)), order)


def binomial_upper(order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """Constant weights w_n = 1, i.e. F(a, x) = (1-x)^-a."""
    return HypSeriesSpec(Family.UPPER_FACTOR, WeightRule(), order)


def kummer_gamma(c, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """Gamma(a) 1F1(a; c; x) as a gamma-factor family: w_n = 1/[(c)_n n!]."""
    return HypSeriesSpec(
        Family.GAMMA_FACTOR, WeightRule(lower=(c,), inv_factorial=True), order
    )


def kummer_lower(a0, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """1F1(a0; c; x) shifted in c: w_n = (a0)_n/n!."""
    return HypSeriesSpec(
        Family.LOWER_FACTOR, WeightRule(upper=(a0,), inv_factorial=True), order
    )


def gauss_lower(a0, b0, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """2F1(a0, b0; c; x) shifted in c: w_n = (a0)_n (b0)_n / n!."""
    return HypSeriesSpec(
        Family.LOWER_FACTOR,
        WeightRule(upper=(a0, b0), inv_factorial=True),
        order,
    )


def weight_ratio_class(spec: HypSeriesSpec) -> MonotoneClass:
    """Strict monotonicity class of n -> w_n/w_{n-1} over the truncation
    range.  The upper-factor sign theorem assumes this; it is checked,
    not trusted, once per weight rule and order."""
    return _weight_class(spec.weights, spec.order)


@lru_cache(maxsize=256)
def _weight_class(weights: WeightRule, M: int) -> MonotoneClass:
    return _monotone_class(*weights._ratio_parts(M))


def _monotone_class(num: list[int], den: list[int]) -> MonotoneClass:
    """Strict monotonicity class of the positive ratios num[i] / den[i]."""
    steps = set(ratio_steps(num, den))
    if steps <= {0}:
        return MonotoneClass.CONSTANT
    if steps == {-1}:
        return MonotoneClass.DECREASING
    if steps == {1}:
        return MonotoneClass.INCREASING
    return MonotoneClass.NEITHER


_SIGNS = (Sign.ZERO, Sign.POSITIVE, Sign.NEGATIVE)  # by (v > 0) - (v < 0)


def sign_of(value) -> Sign:
    """Sign of an exact rational, or the certified sign of an interval
    (INCONCLUSIVE when the enclosure straddles zero)."""
    if isinstance(value, CertifiedInterval):
        s = value.sign()
        return Sign.INCONCLUSIVE if s is None else _SIGNS[s]
    return _SIGNS[(value > 0) - (value < 0)]


def gamma_quotient(a, b, delta) -> CertifiedInterval:
    """Q = Gamma(b+d)Gamma(a) / [Gamma(a+d)Gamma(b)] at the precision in
    force, as two Gamma ratios over one step: n = b - a, Q = (a+d)_n/(a)_n
    (for n < 0, one over Q at (b, a)), if n is an integer shorter than d or
    d is fractional, else d.  Exact for an integer step, so 1 at a = b."""
    b, delta, a = map(parse_rational, (b, delta, a))
    n = b - a
    # gamma_ratio refuses a or b <= 0 and delta < 0, so these take the step d
    if (min(a, b) <= 0 or delta < 0 or n.denominator != 1
            or delta.denominator == 1 and abs(n) >= delta):
        return gamma_ratio(b, delta) / gamma_ratio(a, delta)
    if n < 0:
        return gamma_ratio(b, -n) / gamma_ratio(b + delta, -n)
    return gamma_ratio(a + delta, n) / gamma_ratio(a, n)


@dataclass
class PsiCoefficient:
    """psi_m in factored form plus its certified sign."""

    m: int
    s1: Fraction
    s2: Fraction
    sign: Sign


def cross_products(pairs, end: Fraction) -> list[int]:
    """The integers p d - n q, each with the sign of p/q - n/d, of the
    pairs (p, q), q > 0, against one end n/d of an enclosure."""
    n, d = end.numerator, end.denominator
    ps, qs = (map(operator.itemgetter(i), pairs) for i in (0, 1))
    return list(map(operator.sub, map(d.__mul__, ps), map(n.__mul__, qs)))


def pair_signs(pairs, quotient: CertifiedInterval) -> list[Sign]:
    """The signs of p - Q q for the pairs (p, q), q > 0, and the Gamma
    quotient Q enclosed by ``quotient``, read from :func:`cross_products`.

    With (p, q) = (S1_m, S2_m) it gives the sign of psi_m.  A tie is ZERO
    when Q is exact and INCONCLUSIVE when p/q lies inside the enclosure."""
    if quotient.exact is not None:
        return list(map(sign_of, cross_products(pairs, quotient.exact)))
    below, above = (cross_products(pairs, end) for end in (quotient.lo, quotient.hi))
    return [Sign.NEGATIVE if lo < 0 else Sign.POSITIVE if hi > 0 else Sign.INCONCLUSIVE
            for lo, hi in zip(below, above)]


@dataclass
class MkProfile:
    """Half-range decomposition of a single coefficient: the values M_k,
    k = 0..floor(m/2), whose weighted sum gives phi_m (or lambda_m, or the
    factored psi_m)."""

    m: int
    family: Family
    values: list  # Fraction for upper/lower families, CertifiedInterval for gamma

    def signs(self) -> list[Sign]:
        return [sign_of(v) for v in self.values]

    def sign_change_count(self) -> int:
        """Number of sign alternations along k, zeros skipped."""
        seq = [s for s in self.signs() if s in (Sign.POSITIVE, Sign.NEGATIVE)]
        return sum(1 for s1, s2 in zip(seq, seq[1:]) if s1 is not s2)


def _fold_row(family: Family, tables, m: int) -> tuple:
    """Row m of the pass (see HalfRangePass) from its four tables, by sums
    and products of their entries and, for the upper family, C(m, k)."""
    t1, t2, t3, t4 = tables
    upper = family is Family.UPPER_FACTOR
    pairs = family is Family.GAMMA_FACTOR
    row = []
    for k in range(m // 2 + 1):
        j = m - k
        p = t1[k] * t2[j]
        q = t3[k] * t4[j]
        if k < j:
            p += t1[j] * t2[k]
            q += t3[j] * t4[k]
        if pairs:
            row.append((p, q))
        else:
            row.append(math.comb(m, k) * (p - q) if upper else p - q)
    return tuple(row)


def _weight_numerators(num: list[int], den: list[int]) -> tuple[list[int], int]:
    """Integers W_0..W_M and L > 0 with w_n = W_n / L, from the recurrence
    w_n = w_{n-1} ratio(n) with ratio(n) = num_n / den_n (lists from n = 1):
    W_n = prod_{i<=n} num_i prod_{i>n} den_i over L = prod_i den_i, reduced
    by their common factor."""
    tails = list(accumulate(reversed(den), operator.mul, initial=1))[::-1]
    W = list(map(operator.mul, accumulate(num, operator.mul, initial=1), tails))
    L = tails[0]
    g = math.gcd(L, *W)
    return [x // g for x in W], L // g


def _scaled(family: Family, D: int, lower_scale: int, m: int, r: int,
            den: int = 1) -> Fraction:
    """r * scale_m / den as one reduced Fraction (see HalfRangePass)."""
    Dm = D ** m
    if family is Family.UPPER_FACTOR:
        return Fraction(r, Dm * math.factorial(m) * den)
    if family is Family.LOWER_FACTOR:
        return Fraction(r * Dm, lower_scale * den)
    return Fraction(r, Dm * den)


@dataclass
class HalfRangePass:
    """The folded half-range values of the coefficients m = 0..M of
    F(a+d,x)F(b,x) - F(b+d,x)F(a,x), made by :func:`half_range_pass` in
    integer arithmetic from two halves: D, ``lower_scale`` and ``rows``
    depend only on the family and the shifts, ``weights`` only on the
    weight rule.

    The four shifts s = a+d, b, a, b+d are scaled by the common denominator
    D of a, b and d to integers S = s D, with tables up to index M:

    * upper and gamma:  P_n = prod_{i<n} (S + iD) = D^n (s)_n,
    * lower:  the suffix products R_n = prod_{n<=i<M} (S + iD) = P_M / P_n,
      so that 1/(s)_n = D^n R_n / P_M, folded with the (a+d) table times x
      and the a table times y: (x, y) = (X, Y) / g, X = P_M(a) P_M(b+d),
      Y = P_M(a+d) P_M(b), g = gcd(X, Y), negated when X Y < 0.

    ``rows[m]`` holds, for k = 0..m//2, the k-th and (m-k)-th terms of the
    coefficient's convolution folded together (one term when 2k = m), with
    the weights w_k w_{m-k} left out, as integers r_k with M_k = r_k scale_m
    and scale_m > 0:

    * upper:  M_k = [(a+d)_k (b)_{m-k} - (a)_k (b+d)_{m-k}] / (k! (m-k)!),
      r_k = C(m,k) D^m k! (m-k)! M_k, scale_m = 1 / (D^m m!),
    * lower:  M_k = 1/[(a+d)_k (b)_{m-k}] - 1/[(a)_k (b+d)_{m-k}],
      r_k = p_k x - q_k y (p_k, q_k the folded unscaled suffix-table
      products) and scale_m = D^m / lower_scale, lower_scale = g |x y|,
    * gamma:  the pairs (p_k, q_k) = ((a+d)_k (b)_{m-k}, (a)_k (b+d)_{m-k})
      as integer pairs with scale_m = 1 / D^m.

    So an upper or lower profile value has the sign of an integer, and a
    gamma one, p_k - Q q_k for the Gamma quotient Q (:meth:`quotient`), is
    read from its pair's cross-products with Q's ends (:func:`pair_signs`).
    With the integer weights W_n = w_n L, phi_m and lambda_m are
    sum_k W_k W_{m-k} r_k scale_m / L^2, and psi_m's factors S1_m, S2_m are
    the same weighted sums of p_k and q_k (:meth:`sums`).  Each pass builds
    its own rows (:func:`half_range_pass`); W_n and L are made from
    ``weights`` when the pass first weighs a row."""

    family: Family
    a: Fraction
    b: Fraction
    delta: Fraction
    D: int
    lower_scale: int  # g |x y| for the lower family, else 1
    weights: WeightRule
    rows: tuple  # rows[m][k], k = 0..m//2

    @cached_property
    def _integer_weights(self) -> tuple[list[int], int]:
        """W_0..W_M and L, w_n = W_n / L."""
        return _weight_numerators(*self.weights._ratio_parts(len(self.rows) - 1))

    L = property(lambda self: self._integer_weights[1])

    def exact(self, m: int, r: int, den: int = 1) -> Fraction:
        """r * scale_m / den as one reduced Fraction."""
        return _scaled(self.family, self.D, self.lower_scale, m, r, den)

    def sums(self, ms=None) -> list:
        """sum_k W_k W_{m-k} r_k for m in ``ms`` (default m = 0..M), which
        has the sign of phi_m or lambda_m; for the gamma family the pairs
        of integers with the ratio S1_m / S2_m.  No m, no weights made."""
        rows = self.rows
        ms = range(len(rows)) if ms is None else ms
        if not ms:
            return []
        W = self._integer_weights[0]
        gamma = self.family is Family.GAMMA_FACTOR
        sums = []
        for m in ms:
            c = list(map(operator.mul, W[:m // 2 + 1], W[m::-1]))  # W_k W_{m-k}
            sums.append(tuple(sum(map(operator.mul, c, v)) for v in zip(*rows[m]))
                        if gamma else sum(map(operator.mul, c, rows[m])))
        return sums

    def coefficients(self) -> list[Fraction]:
        """phi_m (upper family) or lambda_m (lower family) for m = 0..M."""
        L2 = self.L * self.L
        return [self.exact(m, s, L2) for m, s in enumerate(self.sums())]

    def quotient(self) -> CertifiedInterval:
        """The Gamma quotient Q of a gamma-family pass (:func:`gamma_quotient`)."""
        return gamma_quotient(self.a, self.b, self.delta)

    def psi(self) -> list[PsiCoefficient]:
        """Factored psi_m with certified signs for m = 0..M (gamma family),
        the Gamma quotient enclosed at the precision in force."""
        sums = self.sums()
        signs = pair_signs(sums, self.quotient())
        L2 = self.L * self.L
        return [PsiCoefficient(m, self.exact(m, s1, L2), self.exact(m, s2, L2), sign)
                for m, ((s1, s2), sign) in enumerate(zip(sums, signs))]


def _tables(family: Family, a: Fraction, b: Fraction, delta: Fraction,
            M: int) -> tuple[int, int, list]:
    """D, lower_scale and the four integer tables of the shifts a+d, b, a,
    b+d to index M (see HalfRangePass).  Nonpositive gamma-family shifts
    and a lower-family pole (s)_n = 0, 1 <= n <= M, are refused."""
    if family is Family.GAMMA_FACTOR and (a <= 0 or b <= 0):
        raise DomainError("gamma-factor shifts must be positive")
    D = math.lcm(a.denominator, b.denominator, delta.denominator)
    lower = family is Family.LOWER_FACTOR
    tables = []
    for s in (a + delta, b, a, b + delta):
        S = s.numerator * (D // s.denominator)
        steps = [S + i * D for i in range(M)]
        if not lower:
            tables.append(list(accumulate(steps, operator.mul, initial=1)))
        elif 0 in steps:  # (s)_n = 0 for some n <= M exactly when (s)_M = 0
            raise PoleError(f"lower-factor series has a pole at shift "
                            f"parameter {s}: ({s})_{M} = 0")
        else:
            tables.append(list(accumulate(reversed(steps), operator.mul,
                                          initial=1))[::-1])
    lower_scale = 1
    if lower:
        # rows of p_k x - q_k y rather than p_k X - q_k Y: x, y are far smaller
        t1, t2, t3, t4 = tables
        X, Y = t3[0] * t4[0], t1[0] * t2[0]
        g = math.gcd(X, Y) * (1 if (X < 0) == (Y < 0) else -1)
        x, y = X // g, Y // g
        lower_scale = g * x * y
        tables = [[v * x for v in t1], t2, [v * y for v in t3], t4]
    return D, lower_scale, tables


def _row_half(family: Family, a: Fraction, b: Fraction, delta: Fraction,
              M: int) -> tuple[int, int, tuple]:
    """The weight-free half of a pass to order M: D, lower_scale and the
    rows m = 0..M."""
    D, lower_scale, tables = _tables(family, a, b, delta, M)
    return D, lower_scale, tuple(_fold_row(family, tables, m)
                                 for m in range(M + 1))


def shift_point(spec: HypSeriesSpec, a, b, delta) -> tuple:
    """(family, a, b, d, M): all a pass's rows depend on."""
    return (spec.family, *map(parse_rational, (a, b, delta)), spec.order)


def check_family(family: Family, spec: HypSeriesSpec) -> None:
    """Refuse a spec of another family than the one the caller works with."""
    if spec.family is not family:
        raise DomainError(f"expected the {family.value}-factor family, "
                          f"got {spec.family.value}")


def half_range_pass(family: Family, spec: HypSeriesSpec, a, b, delta) -> HalfRangePass:
    """The one exact pass over the coefficients m = 0..spec.order of the
    cross-product difference, from which every coefficient and profile is
    read.  ``family`` is the family the caller works with; a spec of
    another family is refused (:func:`check_family`), and so are
    nonpositive gamma-family shifts and a lower-family pole (s)_n = 0,
    1 <= n <= M.  Its rows are built on each call."""
    check_family(family, spec)
    key = shift_point(spec, a, b, delta)
    D, lower_scale, rows = _row_half(*key)
    return HalfRangePass(*key[:4], D, lower_scale, spec.weights, rows)


def phi_coefficients(spec: HypSeriesSpec, a, b, delta):
    """Exact coefficients of F(a+d,x)F(b,x) - F(b+d,x)F(a,x) for the
    upper-factor family, m = 0..spec.order.  phi_0 = phi_1 = 0."""
    return half_range_pass(Family.UPPER_FACTOR, spec, a, b, delta).coefficients()


def lambda_coefficients(spec: HypSeriesSpec, a, b, delta):
    """Exact coefficients of the cross-product difference for the
    lower-factor family, m = 0..spec.order.  lambda_0 = 0."""
    return half_range_pass(Family.LOWER_FACTOR, spec, a, b, delta).coefficients()


def psi_coefficients(spec: HypSeriesSpec, a, b, delta):
    """Factored psi_m list for the gamma-factor family, m = 0..spec.order,
    with signs certified at the precision in force."""
    return half_range_pass(Family.GAMMA_FACTOR, spec, a, b, delta).psi()


def mk_profile(spec: HypSeriesSpec, a, b, delta, m: int) -> MkProfile:
    """The M_k values for coefficient index m >= 2, from row m folded on the
    tables to order m (weights play no role: the profile depends only on
    the shift parameters and the family).  Gamma-family values are the
    enclosures Gamma(a+d)Gamma(b) p_k - Gamma(a)Gamma(b+d) q_k."""
    if m < 2:
        raise DomainError(f"profile needs m >= 2, got {m}")
    a, b, delta = map(parse_rational, (a, b, delta))
    D, lower_scale, tables = _tables(spec.family, a, b, delta, m)
    row = _fold_row(spec.family, tables, m)
    exact = partial(_scaled, spec.family, D, lower_scale, m)
    if spec.family is Family.GAMMA_FACTOR:
        g1 = ci_exp(log_gamma(a + delta) + log_gamma(b))
        g2 = ci_exp(log_gamma(a) + log_gamma(b + delta))
        values = [g1 * exact(p) - g2 * exact(q) for p, q in row]
    else:
        values = list(map(exact, row))
    return MkProfile(m, spec.family, values)
