"""Grid verification of coefficient-sign and two-sided-bound claims.

Each checker turns one claim into an executable pass/fail over exact or
certified arithmetic:

* thm1: upper-factor cross-product difference has one-signed exact
  coefficients (positive for decreasing weight ratios when b > a > 0,
  negative for increasing; identically zero for constant), together with
  the half-range profile structure (sum zero, single sign change);
* thm2: gamma-factor coefficients psi_m are certified negative for
  b > a > 0 via the factored form, with one precision escalation for any
  index whose interval comparison is undecided;
* thm3: lower-factor coefficients lambda_m are exactly negative for
  b > a > 0, profile values all negative;
* corollary/turan: the function-level two-sided bound
  Gamma-quotient < f(b+d,x)f(a,x)/[f(a+d,x)f(b,x)] < 1 pointwise on an
  x grid with certified strictness, plus sharpness near the large-x end.

Orientation is antisymmetric: swapping a and b negates every coefficient,
so checkers accept either order and flip the expected sign.

A ``Case`` names one check, one series family and one parameter point;
``default_cases`` expands the default grids into cases and ``run_case``
runs one.  The suites and the command line both go through these.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .evalf import cross_ratio
from .intervals import (CertifiedInterval, gamma_ratio, get_precision,
                        working_precision)
from .series import (DEFAULT_ORDER, Family, HypSeriesSpec, MonotoneClass,
                     Sign, binomial_upper, gamma_quotient, gauss_lower,
                     gauss_upper, half_range_pass, kummer_gamma, kummer_lower,
                     kummer_upper, quotient_sign, sign_change_count, sign_of,
                     weight_ratio_class)


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

    @property
    def parameter_tuple(self) -> tuple:
        return tuple(self.params.values())


def _expected_sign(cls: MonotoneClass, a: Fraction, b: Fraction) -> Sign | None:
    """Claimed sign of the upper-factor coefficients for indices >= 2."""
    if cls is MonotoneClass.CONSTANT:
        return Sign.ZERO
    if cls is MonotoneClass.NEITHER:
        return None
    base = Sign.POSITIVE if cls is MonotoneClass.DECREASING else Sign.NEGATIVE
    if b > a:
        return base
    return Sign.NEGATIVE if base is Sign.POSITIVE else Sign.POSITIVE


def verify_theorem1(spec: HypSeriesSpec, a, b, delta, M: int | None = None) -> SignReport:
    """Exact sign check of the upper-factor coefficients phi_m for
    2 <= m <= M plus the profile invariants: sum of M_k exactly zero and
    exactly one sign change along k, for every m."""
    a, b, delta = Fraction(a), Fraction(b), Fraction(delta)
    if delta <= 0 or a < 0 or b < 0:
        raise DomainError("need delta > 0 and nonnegative shifts")
    if M is None:
        M = spec.order
    if spec.order != M:
        spec = HypSeriesSpec(spec.family, spec.weights, M)
    params = {"a": a, "b": b, "delta": delta}
    cls = weight_ratio_class(spec)
    hr = half_range_pass(Family.UPPER_FACTOR, spec, a, b, delta)
    signs = [sign_of(v) for v in hr.sums()]

    if a == b:
        verdict = (Verdict.VERIFIED_DEGENERATE
                   if all(s is Sign.ZERO for s in signs) else Verdict.VIOLATED)
        return SignReport("thm1", params, M, signs,
                          None if verdict is not Verdict.VIOLATED else 0,
                          None, None, verdict,
                          reason="degenerate equal shifts")

    expected = _expected_sign(cls, a, b)
    if expected is None:
        return SignReport("thm1", params, M, signs, None, None, None,
                          Verdict.INCONCLUSIVE,
                          reason="weight ratio sequence is not monotone; "
                                 "no sign is claimed")

    first_violation = None
    if signs[0] is not Sign.ZERO or signs[1] is not Sign.ZERO:
        first_violation = 0 if signs[0] is not Sign.ZERO else 1
    else:
        for m in range(2, M + 1):
            if signs[m] is not expected:
                first_violation = m
                break

    single_change = True
    total_zero = True
    m0_sign = Sign.NEGATIVE if b > a else Sign.POSITIVE
    for row in hr.rows[2:]:
        # the row holds C(m,k) D^m k!(m-k)! M_k, so the M_k sum to zero
        # exactly when the row does
        if sum(row) != 0:
            total_zero = False
        prof_signs = [sign_of(v) for v in row]
        if sign_change_count(prof_signs) != 1 or prof_signs[0] is not m0_sign:
            single_change = False

    if first_violation is not None or not total_zero or not single_change:
        reason = None
        if not total_zero:
            reason = "profile sum nonzero"
        elif not single_change:
            reason = "profile sign pattern broken"
        return SignReport("thm1", params, M, signs, first_violation,
                          single_change, None, Verdict.VIOLATED, reason)
    return SignReport("thm1", params, M, signs, None, True, None,
                      Verdict.VERIFIED)


def verify_theorem2(spec: HypSeriesSpec, a, b, delta, M: int | None = None) -> SignReport:
    """Certified negativity of the gamma-factor coefficients psi_m for
    0 <= m <= M (b > a; positive when a > b).  Undecided indices get one
    retry with the Gamma-quotient enclosure recomputed at doubled
    precision."""
    a, b, delta = Fraction(a), Fraction(b), Fraction(delta)
    if delta <= 0 or a <= 0 or b <= 0:
        raise DomainError("need delta > 0 and positive shifts")
    if M is None:
        M = spec.order
    if spec.order != M:
        spec = HypSeriesSpec(spec.family, spec.weights, M)
    params = {"a": a, "b": b, "delta": delta}
    hr = half_range_pass(Family.GAMMA_FACTOR, spec, a, b, delta)

    if a == b:
        # S1_m = S2_m and the Gamma quotient is 1, so psi_m = 0
        return SignReport("thm2", params, M, [Sign.ZERO] * (M + 1), None, None,
                          None, Verdict.VERIFIED_DEGENERATE,
                          reason="degenerate equal shifts")

    sums = hr.sums()
    sign = quotient_sign(gamma_quotient(a, b, delta))
    signs = [sign(s1, s2) for s1, s2 in sums]
    expected = Sign.NEGATIVE if b > a else Sign.POSITIVE
    pending = [m for m, s in enumerate(signs) if s is Sign.INCONCLUSIVE]
    before = len(pending)
    escalated = False
    if pending:
        escalated = True
        with working_precision(2 * get_precision()):
            escalated_sign = quotient_sign(gamma_quotient(a, b, delta))
            for m in pending:
                signs[m] = escalated_sign(*sums[m])

    first_violation = None
    for m, s in enumerate(signs):
        if s is Sign.INCONCLUSIVE:
            continue
        if s is not expected:
            first_violation = m
            break
    still_open = [m for m, s in enumerate(signs) if s is Sign.INCONCLUSIVE]

    mk_all_neg = None
    if first_violation is None:
        mk_all_neg = True
        wrong = Sign.POSITIVE if b > a else Sign.NEGATIVE
        for m, row in enumerate(hr.rows[2:], 2):
            vals = [sign(p, q) for p, q in row]
            if wrong in vals:
                return SignReport("thm2", params, M, signs, m, None, False,
                                  Verdict.VIOLATED,
                                  reason="profile value with certified wrong sign")
            if Sign.INCONCLUSIVE in vals:
                mk_all_neg = None

    if first_violation is not None:
        verdict = Verdict.VIOLATED
    elif still_open:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.VERIFIED
    return SignReport("thm2", params, M, signs, first_violation, None,
                      mk_all_neg, verdict,
                      reason=("undecided indices remain after escalation"
                              if still_open else None),
                      inconclusive_indices=still_open, escalated=escalated,
                      inconclusive_before_escalation=before)


def verify_theorem3(spec: HypSeriesSpec, a, b, delta, M: int | None = None) -> SignReport:
    """Exact negativity of the lower-factor coefficients lambda_m for
    1 <= m <= M (b > a; positive when a > b), plus all profile values
    strictly one-signed."""
    a, b, delta = Fraction(a), Fraction(b), Fraction(delta)
    if delta <= 0 or a <= 0 or b <= 0:
        raise DomainError("need delta > 0 and positive shifts")
    if M is None:
        M = spec.order
    if spec.order != M:
        spec = HypSeriesSpec(spec.family, spec.weights, M)
    params = {"a": a, "b": b, "delta": delta}
    hr = half_range_pass(Family.LOWER_FACTOR, spec, a, b, delta)
    signs = [sign_of(v) for v in hr.sums()]

    if a == b:
        verdict = (Verdict.VERIFIED_DEGENERATE
                   if all(s is Sign.ZERO for s in signs) else Verdict.VIOLATED)
        return SignReport("thm3", params, M, signs, None, None, None, verdict,
                          reason="degenerate equal shifts")

    expected = Sign.NEGATIVE if b > a else Sign.POSITIVE
    first_violation = None
    if signs[0] is not Sign.ZERO:
        first_violation = 0
    else:
        for m in range(1, M + 1):
            if signs[m] is not expected:
                first_violation = m
                break

    mk_all_neg = True
    for row in hr.rows[2:]:
        if any(sign_of(v) is not expected for v in row):
            mk_all_neg = False
    if first_violation is not None or not mk_all_neg:
        return SignReport("thm3", params, M, signs, first_violation, None,
                          mk_all_neg, Verdict.VIOLATED,
                          reason=None if mk_all_neg else "profile value off-sign")
    return SignReport("thm3", params, M, signs, None, None, True,
                      Verdict.VERIFIED)


@dataclass
class TwoSidedBoundReport:
    params: dict
    x_grid: list[Fraction]
    ratio_values: list[CertifiedInterval]
    lower_bound: CertifiedInterval
    upper_bound: Fraction
    within: list  # True / False / None per x
    approaches_lower: bool
    rel_gap_at_top: float
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
    a, b, delta = Fraction(a), Fraction(b), Fraction(delta)
    xs = [Fraction(x) for x in x_grid]
    if not xs or any(x <= 0 for x in xs):
        raise DomainError("x grid must be nonempty and positive")
    if not b > a > 0 or delta <= 0:
        raise DomainError("need b > a > 0 and delta > 0")
    if spec.family is not Family.UPPER_FACTOR:
        raise DomainError("two-sided bound needs an upper-factor spec")
    if weight_ratio_class(spec) is not MonotoneClass.DECREASING:
        raise DomainError("two-sided bound needs a decreasing weight-ratio spec")
    xs = sorted(xs)
    lower = gamma_ratio(a, delta) / gamma_ratio(b, delta)
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
    top = values[-1]
    gap = abs(top.midpoint - lower.midpoint) / abs(lower.midpoint)
    approaches = float(gap) <= SHARPNESS_REL
    if any(w is False for w in within):
        verdict = Verdict.VIOLATED
    elif any(w is None for w in within):
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.VERIFIED
    return TwoSidedBoundReport({"a": a, "b": b, "delta": delta}, xs, values,
                               lower, Fraction(1), within, approaches,
                               float(gap), verdict)


def verify_turan(spec: HypSeriesSpec, a, delta, x_grid, tol=None) -> TwoSidedBoundReport:
    """Direct and reverse Turan-type bounds
    lower < f(a+2d,x) f(a,x) / f(a+d,x)^2 < 1: the b = a + delta
    specialization, whose lower bound for delta = 1 is a/(a+1)."""
    a, delta = Fraction(a), Fraction(delta)
    rep = verify_corollary_twosided(spec, a, a + delta, delta, x_grid, tol)
    rep.params = {"a": a, "delta": delta}
    return rep


# -- case model: the suites and the CLI expand and run cases through it --

# family name -> (spec constructor, names of its weight parameters in the
# constructor's argument order)
FAMILIES = {
    "1f1-upper": (kummer_upper, ("c",)),
    "1f1-gamma": (kummer_gamma, ("c",)),
    "1f1-lower": (kummer_lower, ("a0",)),
    "2f1-upper": (gauss_upper, ("b0", "c")),
    "2f1-lower": (gauss_lower, ("a0", "b0")),
    "binomial": (binomial_upper, ()),
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
    1/4, 1, 4, 16, 50)."""
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

    def spec(self) -> HypSeriesSpec:
        make, weights = FAMILIES[self.family]
        order = self.M or DEFAULT_M.get(self.theorem, DEFAULT_ORDER)
        return make(*(self.params[k] for k in weights), order)


def default_cases(theorem: str, M: int | None = None) -> list[Case]:
    """The default grid of one check, in suite order, or of all six checks
    one after another for "all".  M sets the order of the sign checks."""
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
    where the difference vanishes, so every coefficient must be zero."""
    p, spec = case.params, case.spec()
    xs = case.x_grid or (Fraction(1, 4), Fraction(1), Fraction(4), Fraction(16),
                         Fraction(50))
    if case.theorem == "corollary":
        return verify_corollary_twosided(spec, p["a"], p["b"], p["delta"], xs, tol)
    if case.theorem == "turan":
        return verify_turan(spec, p["a"], p["delta"], xs, tol)
    check = {"thm1": verify_theorem1, "binomial": verify_theorem1,
             "thm2": verify_theorem2, "thm3": verify_theorem3}[case.theorem]
    rep = check(spec, p["a"], p["b"], p["delta"])
    if case.theorem == "binomial" and any(s is not Sign.ZERO
                                          for s in rep.per_index_sign):
        rep.verdict = Verdict.VIOLATED
        rep.reason = "constant weights must give identically zero"
    return rep


def suite_theorem1(M: int = DEFAULT_M["thm1"]) -> list[SignReport]:
    return [run_case(c) for c in default_cases("thm1", M)]


def suite_theorem2(M: int = DEFAULT_M["thm2"]) -> list[SignReport]:
    return [run_case(c) for c in default_cases("thm2", M)]


def suite_theorem3(M: int = DEFAULT_M["thm3"]) -> list[SignReport]:
    return [run_case(c) for c in default_cases("thm3", M)]


def suite_binomial_degeneracy(M: int = DEFAULT_M["binomial"]) -> list[SignReport]:
    """Constant weights: the difference vanishes identically, so every
    coefficient must be exactly zero."""
    return [run_case(c) for c in default_cases("binomial", M)]


def suite_corollary(tol=None) -> list[TwoSidedBoundReport]:
    return [run_case(c, tol) for c in default_cases("corollary")]


def suite_turan(tol=None) -> list[TwoSidedBoundReport]:
    return [run_case(c, tol) for c in default_cases("turan")]
