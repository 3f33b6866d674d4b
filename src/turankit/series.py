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
per parameter tuple (:func:`half_range_pass`).

Everything is formal: truncation order is fixed up front and no statement
about convergence is made or needed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PoleError
from .exact import poch_table
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
        object.__setattr__(self, "upper", tuple(Fraction(u) for u in self.upper))
        object.__setattr__(self, "lower", tuple(Fraction(l) for l in self.lower))
        for p in self.upper + self.lower:
            if p <= 0:
                raise DomainError(f"weight parameters must be positive, got {p}")

    def weight(self, n: int) -> Fraction:
        num = Fraction(1)
        for u in self.upper:
            num *= poch_table(u, n)[n]
        den = Fraction(1)
        for l in self.lower:
            den *= poch_table(l, n)[n]
        if self.inv_factorial:
            den *= math.factorial(n)
        return num / den

    def ratio(self, n: int) -> Fraction:
        """w_n / w_{n-1} for n >= 1."""
        if n < 1:
            raise DomainError("weight ratio needs n >= 1")
        num = Fraction(1)
        for u in self.upper:
            num *= u + n - 1
        den = Fraction(1)
        for l in self.lower:
            den *= l + n - 1
        if self.inv_factorial:
            den *= n
        return num / den


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
    return HypSeriesSpec(Family.UPPER_FACTOR, WeightRule(lower=(Fraction(c),)), order)


def gauss_upper(b, c, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """2F1(a, b; c; x) shifted in a: w_n = (b)_n/(c)_n."""
    return HypSeriesSpec(
        Family.UPPER_FACTOR, WeightRule(upper=(Fraction(b),), lower=(Fraction(c),)), order
    )


def pfq_upper(uppers, lowers, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """(q+1)Fq(a, uppers; lowers; x) shifted in a."""
    return HypSeriesSpec(
        Family.UPPER_FACTOR,
        WeightRule(upper=tuple(Fraction(u) for u in uppers),
                   lower=tuple(Fraction(l) for l in lowers)),
        order,
    )


def binomial_upper(order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """Constant weights w_n = 1, i.e. F(a, x) = (1-x)^-a."""
    return HypSeriesSpec(Family.UPPER_FACTOR, WeightRule(), order)


def kummer_gamma(c, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """Gamma(a) 1F1(a; c; x) as a gamma-factor family: w_n = 1/[(c)_n n!]."""
    return HypSeriesSpec(
        Family.GAMMA_FACTOR, WeightRule(lower=(Fraction(c),), inv_factorial=True), order
    )


def kummer_lower(a0, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """1F1(a0; c; x) shifted in c: w_n = (a0)_n/n!."""
    return HypSeriesSpec(
        Family.LOWER_FACTOR, WeightRule(upper=(Fraction(a0),), inv_factorial=True), order
    )


def gauss_lower(a0, b0, order: int = DEFAULT_ORDER) -> HypSeriesSpec:
    """2F1(a0, b0; c; x) shifted in c: w_n = (a0)_n (b0)_n / n!."""
    return HypSeriesSpec(
        Family.LOWER_FACTOR,
        WeightRule(upper=(Fraction(a0), Fraction(b0)), inv_factorial=True),
        order,
    )


def weight_sequence(spec: HypSeriesSpec, n: int) -> Fraction:
    return spec.weights.weight(n)


def weight_ratio_class(spec: HypSeriesSpec) -> MonotoneClass:
    """Strict monotonicity class of n -> w_n/w_{n-1} over the truncation
    range.  The upper-factor sign theorem assumes this; it is checked,
    not trusted."""
    ratios = [spec.weights.ratio(n) for n in range(1, spec.order + 1)]
    if len(ratios) < 2:
        return MonotoneClass.CONSTANT
    if all(r2 == r1 for r1, r2 in zip(ratios, ratios[1:])):
        return MonotoneClass.CONSTANT
    if all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:])):
        return MonotoneClass.DECREASING
    if all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:])):
        return MonotoneClass.INCREASING
    return MonotoneClass.NEITHER


def sign_of(value) -> Sign:
    """Sign of an exact rational, or the certified sign of an interval
    (INCONCLUSIVE when the enclosure straddles zero)."""
    if isinstance(value, CertifiedInterval):
        s = value.sign()
    else:
        s = (value > 0) - (value < 0)
    if s is None:
        return Sign.INCONCLUSIVE
    return Sign.POSITIVE if s > 0 else Sign.NEGATIVE if s < 0 else Sign.ZERO


def gamma_quotient(a, b, delta) -> CertifiedInterval:
    """Enclosure of Gamma(b+d)Gamma(a) / [Gamma(a+d)Gamma(b)]; exact when
    d is an integer."""
    return gamma_ratio(b, delta) / gamma_ratio(a, delta)


@dataclass
class PsiCoefficient:
    """psi_m in factored form plus its certified sign."""

    m: int
    s1: Fraction
    s2: Fraction
    sign: Sign


def _psi_sign(s1: Fraction, s2: Fraction, quotient: CertifiedInterval) -> Sign:
    # psi_m < 0  iff  S1/S2 < Gamma(b+d)Gamma(a)/[Gamma(a+d)Gamma(b)];
    # S2 > 0 because every term is a product of positive factors.
    r = s1 / s2
    if quotient.exact is not None:
        if r < quotient.exact:
            return Sign.NEGATIVE
        if r > quotient.exact:
            return Sign.POSITIVE
        return Sign.ZERO
    if r < quotient.lo:
        return Sign.NEGATIVE
    if r > quotient.hi:
        return Sign.POSITIVE
    return Sign.INCONCLUSIVE


@dataclass
class MkProfile:
    """Half-range decomposition of a single coefficient: the values M_k,
    k = 0..floor(m/2), whose weighted sum gives phi_m (or lambda_m, or the
    factored psi_m)."""

    m: int
    family: Family
    values: list  # Fraction for upper/lower families, CertifiedInterval for gamma

    def total(self):
        acc = self.values[0]
        for v in self.values[1:]:
            acc = acc + v
        return acc

    def weighted_total(self, weights: "WeightRule"):
        """sum_k w_k w_{m-k} M_k; equals the corresponding coefficient."""
        acc = None
        for k, v in enumerate(self.values):
            term = v * (weights.weight(k) * weights.weight(self.m - k))
            acc = term if acc is None else acc + term
        return acc

    def signs(self) -> list[Sign]:
        return [sign_of(v) for v in self.values]

    def sign_change_count(self) -> int:
        """Number of sign alternations along k, zeros skipped."""
        seq = [s for s in self.signs() if s in (Sign.POSITIVE, Sign.NEGATIVE)]
        return sum(1 for s1, s2 in zip(seq, seq[1:]) if s1 is not s2)


def _shift_tables(family: Family, a: Fraction, b: Fraction, delta: Fraction,
                  M: int) -> tuple:
    """Pochhammer tables up to index M of a+d, b, a and b+d, once the
    shifts suit the family: positive for the gamma family, and no pole
    (s)_n = 0 with 1 <= n <= M for the lower family."""
    if family is Family.GAMMA_FACTOR and (a <= 0 or b <= 0):
        raise DomainError("gamma-factor shifts must be positive")
    shifts = (a + delta, b, a, b + delta)
    tables = tuple(poch_table(s, M) for s in shifts)
    if family is Family.LOWER_FACTOR and M >= 1:
        for s, table in zip(shifts, tables):
            # (s)_n = 0 for some n <= M exactly when (s)_M = 0
            if table[M] == 0:
                raise PoleError(f"lower-factor series has a pole at shift "
                                f"parameter {s}: ({s})_{M} = 0")
    return tables


def _half_range_row(family: Family, tables: tuple, m: int) -> list:
    """Row m of the pass (see HalfRangePass) from the tables of _shift_tables."""
    pad, pb, pa, pbd = tables
    row = []
    for k in range(m // 2 + 1):
        j = m - k
        if family is Family.LOWER_FACTOR:
            p = 1 / (pad[k] * pb[j])
            q = 1 / (pa[k] * pbd[j])
            if k < j:
                p += 1 / (pad[j] * pb[k])
                q += 1 / (pa[j] * pbd[k])
        else:
            p = pad[k] * pb[j]
            q = pa[k] * pbd[j]
            if k < j:
                p += pad[j] * pb[k]
                q += pa[j] * pbd[k]
        if family is Family.UPPER_FACTOR:
            row.append((p - q) / (math.factorial(k) * math.factorial(j)))
        elif family is Family.LOWER_FACTOR:
            row.append(p - q)
        else:
            row.append((p, q))
    return row


def _gamma_values(rows: list, a: Fraction, b: Fraction, delta: Fraction) -> list:
    """Gamma-family profile values Gamma(a+d)Gamma(b) p_k - Gamma(a)Gamma(b+d) q_k
    of each row, with both Gamma products enclosed once."""
    g1 = ci_exp(log_gamma(a + delta) + log_gamma(b))
    g2 = ci_exp(log_gamma(a) + log_gamma(b + delta))
    return [[g1 * p - g2 * q for p, q in row] for row in rows]


@dataclass
class HalfRangePass:
    """The folded half-range values of the coefficients m = 0..M of
    F(a+d,x)F(b,x) - F(b+d,x)F(a,x), made by :func:`half_range_pass`.

    ``rows[m]`` holds, for k = 0..m//2, the k-th and (m-k)-th terms of the
    coefficient's convolution folded together (one term when 2k = m), with
    the weights w_k w_{m-k} left out:

    * upper:  M_k = [(a+d)_k (b)_{m-k} - (a)_k (b+d)_{m-k}] / (k! (m-k)!),
    * lower:  M_k = 1/[(a+d)_k (b)_{m-k}] - 1/[(a)_k (b+d)_{m-k}],
    * gamma:  the pair (p_k, q_k) = ((a+d)_k (b)_{m-k}, (a)_k (b+d)_{m-k}).

    So phi_m and lambda_m are sum_k w_k w_{m-k} M_k, and psi_m's factors
    S1_m, S2_m are the same weighted sums of p_k and q_k."""

    family: Family
    a: Fraction
    b: Fraction
    delta: Fraction
    weights: list  # w_0..w_M
    rows: list

    def _weighted(self, m: int, values) -> Fraction:
        w = self.weights
        return sum((w[k] * w[m - k] * v for k, v in enumerate(values)), Fraction(0))

    def coefficients(self) -> list[Fraction]:
        """phi_m (upper family) or lambda_m (lower family) for m = 0..M."""
        return [self._weighted(m, row) for m, row in enumerate(self.rows)]

    def psi(self, quotient: CertifiedInterval | None = None) -> list[PsiCoefficient]:
        """Factored psi_m with certified signs for m = 0..M (gamma family).
        ``quotient`` may be passed to reuse or escalate the Gamma quotient
        enclosure."""
        degenerate = self.a == self.b
        if not degenerate and quotient is None:
            quotient = gamma_quotient(self.a, self.b, self.delta)
        out = []
        for m, row in enumerate(self.rows):
            s1 = self._weighted(m, [p for p, _ in row])
            s2 = self._weighted(m, [q for _, q in row])
            sign = Sign.ZERO if degenerate else _psi_sign(s1, s2, quotient)
            out.append(PsiCoefficient(m, s1, s2, sign))
        return out

    def profiles(self) -> list[MkProfile]:
        """The profile of every coefficient m = 2..M; gamma-family values
        are the enclosures Gamma(a+d)Gamma(b) p_k - Gamma(a)Gamma(b+d) q_k."""
        rows = self.rows[2:]
        if self.family is Family.GAMMA_FACTOR:
            rows = _gamma_values(rows, self.a, self.b, self.delta)
        return [MkProfile(m, self.family, row) for m, row in enumerate(rows, 2)]


def half_range_pass(family: Family, spec: HypSeriesSpec, a, b, delta,
                    order: int | None = None) -> HalfRangePass:
    """The one exact pass over the coefficients m = 0..order (default:
    the spec's order) of the cross-product difference, from which every
    coefficient and profile is read.  ``family`` is the family the caller
    works with; a spec of another family is refused."""
    if spec.family is not family:
        raise DomainError(f"expected the {family.value}-factor family, "
                          f"got {spec.family.value}")
    a, b, delta = Fraction(a), Fraction(b), Fraction(delta)
    M = spec.order if order is None else order
    if M < 0:
        raise DomainError(f"truncation order must be >= 0, got {M}")
    tables = _shift_tables(family, a, b, delta, M)
    return HalfRangePass(family, a, b, delta,
                         [spec.weights.weight(n) for n in range(M + 1)],
                         [_half_range_row(family, tables, m) for m in range(M + 1)])


def phi_coefficients(spec: HypSeriesSpec, a, b, delta, order: int | None = None):
    """Exact coefficients of F(a+d,x)F(b,x) - F(b+d,x)F(a,x) for the
    upper-factor family.  phi_0 = phi_1 = 0."""
    return half_range_pass(Family.UPPER_FACTOR, spec, a, b, delta, order).coefficients()


def lambda_coefficients(spec: HypSeriesSpec, a, b, delta, order: int | None = None):
    """Exact coefficients of the cross-product difference for the
    lower-factor family.  lambda_0 = 0."""
    return half_range_pass(Family.LOWER_FACTOR, spec, a, b, delta, order).coefficients()


def psi_coefficients(spec: HypSeriesSpec, a, b, delta, order: int | None = None,
                     quotient: CertifiedInterval | None = None):
    """Factored psi_m list for the gamma-factor family with certified
    signs.  ``quotient`` may be passed to reuse or escalate the Gamma
    quotient enclosure."""
    return half_range_pass(Family.GAMMA_FACTOR, spec, a, b, delta, order).psi(quotient)


def mk_profile(spec: HypSeriesSpec, a, b, delta, m: int) -> MkProfile:
    """The M_k values for coefficient index m >= 2 (weights play no role:
    the profile depends only on the shift parameters and the family)."""
    if m < 2:
        raise DomainError(f"profile needs m >= 2, got {m}")
    a, b, delta = Fraction(a), Fraction(b), Fraction(delta)
    row = _half_range_row(spec.family, _shift_tables(spec.family, a, b, delta, m), m)
    if spec.family is Family.GAMMA_FACTOR:
        [row] = _gamma_values([row], a, b, delta)
    return MkProfile(m, spec.family, row)
