"""Grid verification of coefficient-sign and two-sided-bound claims.

Each sign theorem claims that the coefficients of f(a+d,x)f(b,x) -
f(b+d,x)f(a,x) carry one sign from a first index on (those below are
zero) and that each half-range profile keeps an invariant.  One checker,
``check_signs``, tests this on the family's integer half-range rows; a
``SIGN_RULES`` row holds what differs:

* thm1: upper-factor coefficients phi_m, m >= 2, are exactly one-signed
  (positive for decreasing weight ratios when b > a > 0, negative for
  increasing, zero for constant, no claim otherwise), with the profile
  structure (sum zero, single sign change);
* thm2: gamma-factor coefficients psi_m, m >= 0, are certified negative
  for b > a > 0 via the factored form, with one precision escalation for
  any index whose interval comparison is undecided; profile values all
  negative (an undecided one leaves that open);
* thm3: lower-factor coefficients lambda_m, m >= 1, are exactly negative
  for b > a > 0, profile values all negative.

Coefficient m is sum_k w_k w_{m-k} M_k with every weight w_n > 0, so
each row is read before it is weighed, and one scan of a shift point's
rows (``_row_signs``) gives the coefficient signs, the rows that take the
claim and the profile verdict: values of one sign, or all zero, give the
coefficient that sign, an upper-family row that sums to zero and changes
sign once has Theorem 1's claimed sign (Chebyshev's sum inequality), and
either test is the row's profile check.  The read depends on neither the
weights nor the claim, so it is cached by shift point (and, for the gamma
family, the end of the Gamma-quotient enclosure it reads against):
``_read_point``, an ``lru_cache`` that holds the 90 shift points of a
default pass, keeps reads, not rows.  Rows are scanned by C-level
reductions (``max``/``min``, ``sum``, ``dropwhile``), a gamma pair (p, q)
through its cross-products with an enclosure end
(``series.cross_products``).  ``check_signs`` applies the claim, and
builds the pass to weigh a row only if one is left open: on the default
grids none is.

The theorems are stated for b > a, and the rows are read only so: swapping
a and b negates every coefficient and every half-range value, so
``check_signs`` checks an a > b case at its mirror point (b, a), with the
mirror's read, and swaps POSITIVE and NEGATIVE in the report; the claim is
never flipped.  a = b claims zero everywhere.

The bound checks (corollary/turan) test the function-level two-sided
bound Gamma-quotient < f(b+d,x)f(a,x)/[f(a+d,x)f(b,x)] < 1 pointwise on
an x grid with certified strictness, plus sharpness near the large-x end.

A ``Case`` names one check, one series family and one parameter point;
``default_cases`` expands the default grids into cases and ``run_case``
runs one.  The command line goes through these.
"""

from __future__ import annotations

import enum
import sys
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, chain, dropwhile

from . import series
from .errors import DomainError
from .evalf import PFQSpec, cross_ratio
from .exact import parse_rational
from .intervals import CertifiedInterval, get_precision, working_precision
from .series import (DEFAULT_ORDER, Family, HypSeriesSpec, MonotoneClass, Sign,
                     binomial_upper, check_family, cross_products,
                     gamma_quotient, gauss_lower, gauss_upper, half_range_pass,
                     kummer_gamma, kummer_lower, kummer_upper, pair_signs,
                     shift_point, sign_of, weight_ratio_class)


class Verdict(enum.Enum):
    VERIFIED = "verified"
    VERIFIED_DEGENERATE = "verified-degenerate"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"


@dataclass
class SignReport:
    theorem_id: str
    params: dict
    truncation_order: int
    per_index_sign: list[Sign]
    first_violation: int | None
    mk_single_sign_change: bool | None
    mk_all_negative: bool | None
    verdict: Verdict
    reason: str | None = None
    inconclusive_indices: list[int] = field(default_factory=list)
    escalated: bool = False
    inconclusive_before_escalation: int = 0


def _weight_claim(weight_class: MonotoneClass) -> Sign | None:
    """Theorem 1's sign for b > a: positive for decreasing weight ratios,
    negative for increasing, zero for constant; no claim otherwise."""
    return {MonotoneClass.DECREASING: Sign.POSITIVE,
            MonotoneClass.INCREASING: Sign.NEGATIVE,
            MonotoneClass.CONSTANT: Sign.ZERO}.get(weight_class)


# a > b signs from the mirror's; ZERO and INCONCLUSIVE are their own mirror
_FLIP = {Sign.POSITIVE: Sign.NEGATIVE, Sign.NEGATIVE: Sign.POSITIVE}


_OFF_SIGN = None, False, "profile value off-sign"

# the sign a read gives a row that takes the claim (see _row_signs)
_CLAIMED = "claimed"


def _row_signs(rows, end, interval, chebyshev):
    """The one reader of the rows of all three rules, for b >= a, before any
    is weighed and without the claim.  Coefficient m is sum_k c_k r_k over
    row m with c_k = W_k W_{m-k} > 0, so a row of values all >= 0, or all
    <= 0, gives it the sign of any nonzero one, or ZERO.

    With ``chebyshev`` (the upper family), a row that starts negative, sums
    to zero and changes sign once is claimed: it has Theorem 1's sign for
    strictly monotone or constant weight ratios (:func:`_weight_claim`).
    For k < m//2, c_{k+1}/c_k = ratio(k+1)/ratio(m-k) is > 1, < 1 or 1 as
    the ratios strictly fall, strictly rise or stay; so with j the row's
    first index of a value > 0, sum_k (c_k - c_j) r_k has no term of the
    wrong sign and a nonzero k = 0 term, or is 0 (Chebyshev's sum
    inequality in Abel's form: Hardy, Littlewood and Polya, Inequalities,
    ch. II).  On rows m >= 2 the test is also Theorem 1's profile check.
    Otherwise (Theorems 2 and 3) the profiles m >= 2 claim every value
    negative: a row keeps it when its max is negative.

    A gamma row's values are its pairs' cross-products with ``end``: the
    exact Gamma quotient Q or, with ``interval``, the lower end of its
    first enclosure.  An exact Q reads any row of one sign; an interval
    only a negative row: the weighted pair's cross-product with the lower
    end is then negative, which is how ``pair_signs`` reads the weighted
    pair.

    Gives tuples: each coefficient's sign (``_CLAIMED`` if its row takes the
    claim, None if it must be weighed), and the profile verdict
    (mk_single_sign_change, mk_all_negative, reason) or, for an interval,
    the pairs of rows m >= 2 whose cross-product is >= 0, which
    :func:`check_signs` reads against each enclosure in turn."""
    near = rows
    if end is not None:  # one cross_products call over all rows, cut row by row
        cross = cross_products(list(chain.from_iterable(rows)), end)
        ends = list(accumulate(map(len, rows), initial=0))
        near = [cross[i:j] for i, j in zip(ends, ends[1:])]
    signs, one_change, zero_sums, off = [], True, True, []
    for m, values in enumerate(near):
        change = False
        if chebyshev:
            # M_0 < 0; past the values <= 0, one is left and none is < 0
            change = values[0] < 0 and min(dropwhile((0).__ge__, values), default=-1) >= 0
            zero_sum = not sum(values)
            if m >= 2:
                one_change, zero_sums = one_change and change, zero_sums and zero_sum
        if change:  # of both signs: claimed, or weighed
            sign = _CLAIMED if zero_sum else None
        else:
            lo, hi = min(values), max(values)
            sign = sign_of(hi) if lo >= 0 else Sign.NEGATIVE if hi <= 0 else None
            if not chebyshev and m >= 2 and hi >= 0:
                # a profile value not shown negative
                off += [pair for pair, v in zip(rows[m], values) if v >= 0]
        signs.append(None if interval and sign is not Sign.NEGATIVE else sign)
    if chebyshev:
        profile = (one_change, None, "profile sum nonzero" if not zero_sums else
                   None if one_change else "profile sign pattern broken")
    else:
        profile = tuple(off) if interval else _OFF_SIGN if off else (None, True, None)
    return tuple(signs), profile


# The reads _read_point holds.  One pass of the default sign grids reads 90
# shift points, and in grid order the binomial sweep reads thm1's 30 upper
# points again after the 60 gamma and lower points; so the cache holds a
# whole pass in any order, at most about 1.2 kB a read of a default point.
# It is module state, as the log-Gamma cache of ``intervals`` is: the public
# per-case checks, such as verify_theorem1, have nowhere to pass a cache.
_READS = 128


@lru_cache(maxsize=_READS)
def _read_point(family: Family, a: Fraction, b: Fraction, delta: Fraction,
                M: int, end: Fraction | None, interval: bool) -> tuple:
    """:func:`_row_signs` of a shift point's rows (``series._row_half``),
    b >= a, the same for every weight rule and claim.  Tuples, so no caller
    can change a cached read; a refused point (a lower-family pole, a
    nonpositive gamma shift) raises on every request and is not cached."""
    rows = series._row_half(family, a, b, delta, M)[2]
    return _row_signs(rows, end, interval, family is Family.UPPER_FACTOR)


@dataclass(frozen=True)
class SignRule:
    """What one sign theorem claims about the coefficients of
    f(a+d,x)f(b,x) - f(b+d,x)f(a,x), stated for b > a; the family sets the
    profile invariant (:func:`_row_signs`)."""
    theorem_id: str
    family: Family
    positive_shifts: bool  # else a = 0 and b = 0 are allowed
    first_signed: int      # coefficients below this index must be zero
    claim: Callable        # spec -> claimed sign from first_signed on, or None


SIGN_RULES = {
    "thm1": SignRule("thm1", Family.UPPER_FACTOR, False, 2,
                     lambda spec: _weight_claim(weight_ratio_class(spec))),
    "thm2": SignRule("thm2", Family.GAMMA_FACTOR, True, 0,
                     lambda spec: Sign.NEGATIVE),
    "thm3": SignRule("thm3", Family.LOWER_FACTOR, True, 1,
                     lambda spec: Sign.NEGATIVE),
}


def check_signs(rule: SignRule, spec: HypSeriesSpec, a, b, delta,
                M: int | None = None) -> SignReport:
    """Check one sign theorem at one point: for 0 <= m <= M, coefficient m
    is zero below ``rule.first_signed`` and has the claimed sign from there
    on, and every profile m >= 2 keeps the rule's invariant.  a = b claims
    zero everywhere.  A spec of another family than the rule's is refused.
    Values the Gamma-quotient enclosure leaves undecided get one retry at
    doubled precision; once a coefficient needs it, undecided profile
    values get it too.

    An a > b case is its mirror point (b, a) with every coefficient negated:
    the mirror's report, with POSITIVE and NEGATIVE swapped in
    ``per_index_sign`` and ``params`` in the caller's order.

    For b >= a every weight is positive, so the rows are read first: the
    shift point's cached read (:func:`_read_point`) gives the coefficient
    signs it can, the rows that take the claim and the profile verdict.
    Only when a row is left open is a pass built and that row weighed.  The
    gamma pairs an interval enclosure leaves open in the profile are read
    here with ``pair_signs`` against each enclosure in turn: one that is
    not negative (ZERO from an exact retry too) breaks the profile claim,
    and one no enclosure decides leaves it open."""
    a, b, delta = map(parse_rational, (a, b, delta))
    if delta <= 0 or min(a, b) < 0 or (rule.positive_shifts and min(a, b) == 0):
        shifts = "positive" if rule.positive_shifts else "nonnegative"
        raise DomainError(f"need delta > 0 and {shifts} shifts")
    if M is not None and M != spec.order:
        spec = replace(spec, order=M)
    check_family(rule.family, spec)
    if a > b:
        mirror = check_signs(rule, spec, b, a, delta)
        return replace(mirror, params={"a": a, "b": b, "delta": delta},
                       per_index_sign=[_FLIP.get(s, s) for s in mirror.per_index_sign])
    quotients = ([series.gamma_quotient(a, b, delta)]
                 if rule.family is Family.GAMMA_FACTOR else [])
    end, interval = None, False
    if quotients:  # the exact Gamma quotient, or its first enclosure's lower end
        interval = quotients[0].exact is None
        end = quotients[0].lo if interval else quotients[0].exact
    known, profile = _read_point(*shift_point(spec, a, b, delta), end, interval)
    claim = rule.claim(spec)
    # a claimed row without a claim is weighed
    signs = [claim if s is _CLAIMED else s for s in known]
    weigh = [m for m, s in enumerate(signs) if s is None]  # the rows left open
    sums = dict(zip(weigh, half_range_pass(rule.family, spec, a, b, delta).sums(weigh)
                    if weigh else ()))
    weighed = (pair_signs(sums.values(), *quotients) if quotients
               else map(sign_of, sums.values()))
    for m, sign in zip(weigh, weighed):
        signs[m] = sign
    report = partial(SignReport, rule.theorem_id, {"a": a, "b": b, "delta": delta},
                     spec.order, signs)

    if a == b:
        claim = Sign.ZERO
    if claim is None:
        return report(None, None, None, Verdict.INCONCLUSIVE,
                      reason="weight ratio sequence is not monotone; "
                             "no sign is claimed")
    pending = [m for m, s in enumerate(signs) if s is Sign.INCONCLUSIVE]
    if pending:
        with working_precision(2 * get_precision()):
            quotients.append(series.gamma_quotient(a, b, delta))
        retry = pair_signs([sums[m] for m in pending], quotients[-1])
        for m, sign in zip(pending, retry):
            signs[m] = sign
    still_open = [m for m in pending if signs[m] is Sign.INCONCLUSIVE]
    first = next((m for m, s in enumerate(signs) if s is not Sign.INCONCLUSIVE
                  and s is not (claim if m >= rule.first_signed else Sign.ZERO)),
                 None)
    if a == b:
        return report(first, None, None, Verdict.VERIFIED_DEGENERATE
                      if first is None else Verdict.VIOLATED,
                      reason="degenerate equal shifts")

    if interval:
        # the profile pairs the first enclosure's lower end left undecided:
        # one not negative, ZERO from an exact retry too, is off-sign
        for quotient in quotients:
            read = pair_signs(profile, quotient)
            if set(read) - {Sign.NEGATIVE, Sign.INCONCLUSIVE}:
                profile = _OFF_SIGN
                break
            profile = [pair for pair, s in zip(profile, read) if s is Sign.INCONCLUSIVE]
        else:
            profile = (None, None if profile else True, None)
    one_change, all_negative, broken = profile
    if first is not None or broken:
        verdict = Verdict.VIOLATED
    else:
        verdict = Verdict.INCONCLUSIVE if still_open else Verdict.VERIFIED
    return report(first, one_change, all_negative, verdict,
                  broken or ("undecided indices remain after escalation"
                             if still_open else None),
                  still_open, bool(pending), len(pending))

def verify_theorem1(spec: HypSeriesSpec, a, b, delta, M: int | None = None) -> SignReport:
    """Exact sign check of the upper-factor coefficients phi_m for
    2 <= m <= M plus the profile invariants: sum of M_k exactly zero and
    exactly one sign change along k, for every m."""
    return check_signs(SIGN_RULES["thm1"], spec, a, b, delta, M)


def verify_theorem2(spec: HypSeriesSpec, a, b, delta, M: int | None = None) -> SignReport:
    """Certified negativity of the gamma-factor coefficients psi_m for
    0 <= m <= M (b > a; positive when a > b).  Undecided indices get one
    retry with the Gamma-quotient enclosure recomputed at doubled
    precision."""
    return check_signs(SIGN_RULES["thm2"], spec, a, b, delta, M)


def verify_theorem3(spec: HypSeriesSpec, a, b, delta, M: int | None = None) -> SignReport:
    """Exact negativity of the lower-factor coefficients lambda_m for
    1 <= m <= M (b > a; positive when a > b), plus all profile values
    strictly one-signed."""
    return check_signs(SIGN_RULES["thm3"], spec, a, b, delta, M)


@dataclass
class TwoSidedBoundReport:
    params: dict
    x_grid: list[Fraction]
    ratio_values: list[CertifiedInterval]
    lower_bound: CertifiedInterval  # the upper bound is 1
    within: list  # True / False / None per x
    approaches_lower: bool
    rel_gap_at_top: float  # inf past the float range: Gamma q can be ~4^-delta
    verdict: Verdict


# relative gap to the lower bound at the largest x that counts as sharp
SHARPNESS_REL = 0.05


def verify_corollary_twosided(spec: HypSeriesSpec, a, b, delta, x_grid,
                              tol=None) -> TwoSidedBoundReport:
    """Pointwise certified check of
    Gamma-quotient < f(b+d,x)f(a,x)/[f(a+d,x)f(b,x)] < 1 on positive x,
    for decreasing-weight-ratio upper-factor series with b > a > 0; also
    reports whether the largest grid point approaches the lower bound to
    within SHARPNESS_REL."""
    a, b, delta = map(parse_rational, (a, b, delta))
    xs = list(map(parse_rational, x_grid))
    if not xs or any(x <= 0 for x in xs):
        raise DomainError("x grid must be nonempty and positive")
    if not b > a > 0 or delta <= 0:
        raise DomainError("need b > a > 0 and delta > 0")
    if spec.family is not Family.UPPER_FACTOR:
        raise DomainError("two-sided bound needs an upper-factor spec")
    if weight_ratio_class(spec) is not MonotoneClass.DECREASING:
        raise DomainError("two-sided bound needs a decreasing weight-ratio spec")
    xs = sorted(xs)
    # every f(s, x) here has a positive shift s and the same weights, so
    # one series tells where all diverge (2F1 from x = 1)
    f_a = PFQSpec.from_series(spec, a)
    wide = [x for x in xs if f_a.diverges_at(x)]
    if wide:
        raise DomainError(f"x grid reaches x = {wide[0]}, where the series "
                          "diverge; give an x grid inside (0, 1)")
    lower = gamma_quotient(b, a, delta)
    one = CertifiedInterval.from_fraction(Fraction(1))
    values = []
    within = []
    for x in xs:
        q = cross_ratio(spec, a, b, delta, x, tol)
        values.append(q)
        if lower.strictly_less(q) and q.strictly_less(one):
            within.append(True)
        elif q.strictly_less(lower) or one.strictly_less(q):
            within.append(False)
        else:
            within.append(None)
    gap = abs(values[-1].midpoint - lower.midpoint) / abs(lower.midpoint)
    if any(w is False for w in within):
        verdict = Verdict.VIOLATED
    elif any(w is None for w in within):
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.VERIFIED
    rel_gap = float(gap) if gap <= sys.float_info.max else float("inf")
    return TwoSidedBoundReport({"a": a, "b": b, "delta": delta}, xs, values, lower,
                               within, gap <= SHARPNESS_REL, rel_gap, verdict)


def verify_turan(spec: HypSeriesSpec, a, delta, x_grid, tol=None) -> TwoSidedBoundReport:
    """Direct and reverse Turan-type bounds
    lower < f(a+2d,x) f(a,x) / f(a+d,x)^2 < 1: the b = a + delta
    specialization, whose lower bound for delta = 1 is a/(a+1)."""
    a, delta = map(parse_rational, (a, delta))
    rep = verify_corollary_twosided(spec, a, a + delta, delta, x_grid, tol)
    rep.params = {"a": a, "delta": delta}
    return rep


# -- case model: the CLI expands and runs cases through it --

# family name -> (spec constructor, names of its weight parameters in the
# constructor's argument order, the Family of the specs it makes)
FAMILIES = {
    "1f1-upper": (kummer_upper, ("c",), Family.UPPER_FACTOR),
    "1f1-gamma": (kummer_gamma, ("c",), Family.GAMMA_FACTOR),
    "1f1-lower": (kummer_lower, ("a0",), Family.LOWER_FACTOR),
    "2f1-upper": (gauss_upper, ("b0", "c"), Family.UPPER_FACTOR),
    "2f1-lower": (gauss_lower, ("a0", "b0"), Family.LOWER_FACTOR),
    "binomial": (binomial_upper, (), Family.UPPER_FACTOR),
}
# check -> the families it covers; the key order is the order of "all"
THEOREM_FAMILIES = {
    "thm1": ("1f1-upper", "2f1-upper"),
    "thm2": ("1f1-gamma",),
    "thm3": ("1f1-lower", "2f1-lower"),
    "binomial": ("binomial",),
    "corollary": ("1f1-upper", "2f1-upper"),
    "turan": ("1f1-upper", "2f1-upper"),
}
# default truncation order of each sign check
DEFAULT_M = {"thm1": DEFAULT_ORDER, "thm2": 30, "thm3": DEFAULT_ORDER,
             "binomial": DEFAULT_ORDER}
# default x points of a bound check
DEFAULT_X_GRID = (Fraction(1, 4), Fraction(1), Fraction(4), Fraction(16), Fraction(50))


def case_params(theorem: str, family: str) -> tuple[str, ...]:
    """Names of the parameters a case of `theorem` on `family` takes."""
    if family not in THEOREM_FAMILIES.get(theorem, ()):
        raise DomainError(f"{theorem} does not cover family {family!r}; it covers "
                          + ", ".join(THEOREM_FAMILIES.get(theorem, ())))
    shifts = ("a", "delta") if theorem == "turan" else ("a", "b", "delta")
    return shifts + FAMILIES[family][1]


@dataclass(frozen=True)
class Case:
    """One check at one parameter point.  M is the order of a sign check
    (default: DEFAULT_M), x_grid the points of a bound check (default:
    DEFAULT_X_GRID)."""
    theorem: str
    family: str
    params: dict
    M: int | None = None
    x_grid: tuple | None = None

    def __post_init__(self):
        names = case_params(self.theorem, self.family)
        if set(self.params) != set(names):
            raise DomainError(f"{self.theorem} on {self.family} takes the "
                              f"parameters {', '.join(names)}")
        if self.theorem in ("corollary", "turan"):
            if self.M is not None:
                raise DomainError(f"{self.theorem} takes no truncation order")
        elif self.x_grid is not None:
            raise DomainError(f"{self.theorem} takes no x grid")

    @property
    def order(self) -> int:
        """M, or the check's default order when M is None."""
        return DEFAULT_M.get(self.theorem, DEFAULT_ORDER) if self.M is None else self.M

    def spec(self) -> HypSeriesSpec:
        make, weights, _ = FAMILIES[self.family]
        return make(*(self.params[k] for k in weights), self.order)

    def shift_point(self) -> tuple:
        """``series.shift_point`` of a sign case's spec, read off the case
        without building the spec."""
        p = self.params
        return (FAMILIES[self.family][2],
                *map(parse_rational, (p["a"], p["b"], p["delta"])), self.order)


def default_cases(theorem: str, M: int | None = None) -> list[Case]:
    """The default grid of one check, or of all six checks one after another
    for "all".  M sets the order of the sign checks."""
    if theorem == "all":
        return [c for t in THEOREM_FAMILIES for c in default_cases(t, M)]
    F = Fraction
    if theorem == "corollary":
        return [Case("corollary", "1f1-upper",
                     {"a": F(1), "b": F(2), "delta": F(1), "c": F(3)})]
    if theorem == "turan":
        return [Case("turan", "1f1-upper", {"a": F(1), "delta": F(1), "c": F(3)}),
                Case("turan", "1f1-upper", {"a": F(2), "delta": F(1), "c": F(5)},
                     x_grid=(F(3),))]
    weights = {"1f1-upper": [(1,), (2,), (3,)], "2f1-upper": [(2, 1), (1, 2)],
               "1f1-gamma": [(1,), (2,), (3,)],
               "1f1-lower": [(F(1, 2),), (1,), (2,)],
               "2f1-lower": [(F(1, 2), 2), (1, 3)], "binomial": [()]}
    shifts = (F(1, 2), F(1), F(3, 2), F(2), F(3))
    pairs = [(a, b) for a in shifts for b in shifts if b > a]
    deltas = (F(1, 2), F(1), F(2))
    return [Case(theorem, fam,
                 {**{k: F(v) for k, v in zip(FAMILIES[fam][1], w)},
                  "a": a, "b": b, "delta": d}, M)
            for fam in THEOREM_FAMILIES[theorem] for w in weights[fam]
            for a, b in pairs for d in deltas]


def run_case(case: Case, tol=None) -> SignReport | TwoSidedBoundReport:
    """Run one case.  The binomial check is Theorem 1 on constant weights,
    where the difference vanishes, so Theorem 1 claims every coefficient
    zero."""
    p, spec = case.params, case.spec()
    xs = case.x_grid or DEFAULT_X_GRID
    if case.theorem == "corollary":
        return verify_corollary_twosided(spec, p["a"], p["b"], p["delta"], xs, tol)
    if case.theorem == "turan":
        return verify_turan(spec, p["a"], p["delta"], xs, tol)
    check = {"thm1": verify_theorem1, "binomial": verify_theorem1,
             "thm2": verify_theorem2, "thm3": verify_theorem3}[case.theorem]
    return check(spec, p["a"], p["b"], p["delta"])

