"""Certified evaluation of generalized hypergeometric series.

Partial sums are exact rationals, so the only error is the truncated
tail, which is bounded geometrically: once every surviving term ratio is
provably below some r < 1, the tail is at most |last term| r / (1 - r).
The result is an interval that provably contains the true sum.

The sum runs on plain integers.  Every parameter is scaled to one common
denominator D, so each term ratio t_{n+1}/t_n is a quotient A_n/B_n of
two integers.  The last term is tn/T and the partial sum sn/T over one
shared, never reduced denominator T, updated per term as
``tn *= A_n; sn = sn*B_n + tn; T *= B_n``: a few multiplications by small
integers and no gcd.  The ratio bound r = rn/rd is an integer pair too,
from parameter pairs sorted once per call, and the tail test
|tn| rn / (T (rd - rn)) <= tol/2 is one integer cross-multiplication.
Fractions are built only for the returned value and bound.

Also provides the classical transformation cross-checks (Kummer for the
confluent function, Euler/Pfaff for the Gauss function), the cross-ratio
f(b+d,x)f(a,x) / [f(a+d,x)f(b,x)] used by the two-sided bounds, and a
monotonicity scan of that ratio over an x grid, which probes the open
question whether it is monotone on each half-line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError, TermCapError
from .exact import is_nonpositive_integer, parse_rational
from .intervals import (CertifiedInterval, ci_exp, gamma_ratio,
                        get_precision, rational_power, working_precision)
from .series import Family, HypSeriesSpec, WeightRule

TERM_CAP = 10000


@dataclass(frozen=True)
class PFQSpec:
    """Parameters of pFq: p upper, q lower, p <= q + 1; no lower
    parameter may be a nonpositive integer."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]

    def __post_init__(self):
        up = tuple(Fraction(u) for u in self.upper)
        lo = tuple(Fraction(l) for l in self.lower)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)
        if len(up) > len(lo) + 1:
            raise DomainError(
                f"need p <= q + 1, got p={len(up)}, q={len(lo)}")
        for l in lo:
            if is_nonpositive_integer(l):
                raise DomainError(f"lower parameter {l} is a nonpositive integer")

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)

    @classmethod
    def from_series(cls, spec: HypSeriesSpec, shift_param) -> "PFQSpec":
        """The pFq computed by a series-family spec at a given shift
        value.  Weight factorials are folded into standard pFq shape via
        n! = (1)_n."""
        s = Fraction(shift_param)
        w = spec.weights
        if spec.family is Family.UPPER_FACTOR:
            upper = (s,) + w.upper
            lower = w.lower + ((Fraction(1),) if w.inv_factorial else ())
        elif spec.family is Family.LOWER_FACTOR:
            upper = w.upper + (() if w.inv_factorial else (Fraction(1),))
            lower = w.lower + (s,)
        else:
            raise DomainError(
                "gamma-factor series carry a Gamma scale; evaluate the "
                "underlying plain series instead")
        return cls(upper, lower)


@dataclass
class EvalResult:
    value: CertifiedInterval
    terms_used: int
    truncation_bound: Fraction
    conclusive: bool = True


def _termination_index(spec: PFQSpec) -> int | None:
    stops = [-int(u) for u in spec.upper if is_nonpositive_integer(u)]
    return min(stops) if stops else None


def _tail_pairs(spec: PFQSpec, scale: int):
    """The factors of a bound on |t_{k+1}/t_k| for every k >= n, valid
    once all shifted parameters are positive at n.  Uppers are paired with
    the largest denominators (the lower parameters and the 1 of n!), and a
    pair counts only if its upper is the larger; unpaired denominators
    contribute their own decay factor.  Returns the pairs and the unpaired
    denominators, every parameter multiplied by ``scale``."""
    dens = sorted(spec.lower + (Fraction(1),), reverse=True)
    ups = sorted(spec.upper, reverse=True)
    pairs = [(int(u * scale), int(d * scale))
             for u, d in zip(ups, dens) if u > d]
    return pairs, [int(d * scale) for d in dens[len(ups):]]


def eval_pfq(spec: PFQSpec, x, tol=None, term_cap: int = TERM_CAP) -> EvalResult:
    """Certified enclosure of pFq(upper; lower; x).

    Terminating series (a nonpositive-integer upper parameter) and x = 0
    are summed exactly.  Otherwise summation proceeds until the geometric
    tail bound drops below tol (default 10^-precision); hitting the term
    cap first yields a wider but still rigorous interval flagged as
    inconclusive."""
    x = parse_rational(x) if not isinstance(x, Fraction) else x
    if tol is None:
        tol = Fraction(1, 10 ** get_precision())
    else:
        tol = Fraction(tol) if not isinstance(tol, Fraction) else tol
    if tol <= 0:
        raise DomainError("tolerance must be positive")

    stop = _termination_index(spec)
    if x == 0:
        return EvalResult(CertifiedInterval.from_fraction(Fraction(1)), 1, Fraction(0))
    if stop is None and spec.p == spec.q + 1 and abs(x) >= 1:
        raise DomainError(
            f"series with p = q + 1 diverges at |x| = {abs(x)} >= 1")

    # ratio bound is valid only once every shifted parameter is positive
    n_min = 0
    for u in spec.upper:
        if u <= 0:
            n_min = max(n_min, 1 + int(-u))
    for l in spec.lower:
        if l <= 0:
            n_min = max(n_min, 1 + int(-l))

    # With U = uD and L = lD, t_{n+1}/t_n = A_n/B_n for
    # A_n = x_num D^(q-p) prod(U + nD) and B_n = x_den (n+1) prod(L + nD),
    # the power of D going to B_n when p > q; the sign is kept in A_n.
    D = lcm(*(v.denominator for v in spec.upper + spec.lower))
    ups = [int(u * D) for u in spec.upper]
    lows = [int(l * D) for l in spec.lower]
    x_num, x_den = x.numerator, x.denominator
    a_scale = x_num * D ** max(spec.q - spec.p, 0)
    b_scale = x_den * D ** max(spec.p - spec.q, 0)
    # The tail bound at n is r = rn/rd; the tail after tn/T is at most
    # |tn| rn / (T (rd - rn)), accepted once that is <= tol/2.
    pairs, unpaired = _tail_pairs(spec, D)
    rn_scale = abs(x_num) * D ** len(unpaired)
    tol_lhs, tol_rhs = 2 * tol.denominator, tol.numerator

    def ratio_bound(nD: int) -> tuple[int, int]:
        rn, rd = rn_scale, x_den
        for u, d in pairs:
            rn *= u + nD
            rd *= d + nD
        for d in unpaired:
            rd *= d + nD
        return rn, rd

    cap = term_cap if stop is None else stop
    tn = sn = T = 1
    n = 0
    while n < cap:
        nD = n * D
        a, b = a_scale, b_scale * (n + 1)
        for u in ups:
            a *= u + nD
        for l in lows:
            b *= l + nD
        if b < 0:
            a, b = -a, -b
        tn *= a
        sn = sn * b + tn
        T *= b
        n += 1
        if stop is None and n >= n_min:
            rn, rd = ratio_bound(nD + D)
            if rn < rd and (abs(tn) * (rn * tol_lhs)
                            <= T * ((rd - rn) * tol_rhs)):
                bound = Fraction(abs(tn) * rn, T * (rd - rn))
                value = CertifiedInterval.from_fraction(Fraction(sn, T))
                return EvalResult(value.widened(bound), n + 1, bound)
    if stop is not None:
        return EvalResult(CertifiedInterval.from_fraction(Fraction(sn, T)),
                          stop + 1, Fraction(0))
    r = Fraction(*ratio_bound(n * D))
    if r >= 1:
        raise TermCapError(
            f"no certifiable tail bound within {term_cap} terms")
    bound = Fraction(abs(tn), T) * r / (1 - r)
    value = CertifiedInterval.from_fraction(Fraction(sn, T)).widened(bound)
    return EvalResult(value, n + 1, bound, conclusive=False)


def eval_1f1(a, c, x, tol=None, use_transform: bool | None = None) -> EvalResult:
    """Confluent function 1F1(a; c; x).  For x < 0 with c - a >= 0 the
    evaluation is routed through exp(x) * 1F1(c-a; c; -x), whose terms
    are eventually one-signed; set use_transform to force either path."""
    a, c, x = Fraction(a), Fraction(c), Fraction(x)
    if use_transform is None:
        use_transform = x < 0 and c - a >= 0
    if not use_transform:
        return eval_pfq(PFQSpec((a,), (c,)), x, tol)
    inner = eval_pfq(PFQSpec((c - a,), (c,)), -x, tol)
    scale = ci_exp(CertifiedInterval.from_fraction(x))
    return EvalResult(scale * inner.value, inner.terms_used,
                      inner.truncation_bound, inner.conclusive)


def _midpoint_residual(u: CertifiedInterval, v: CertifiedInterval) -> float:
    mu, mv = u.midpoint, v.midpoint
    scale = max(abs(mu), abs(mv), Fraction(1))
    return float(abs(mu - mv) / scale)


@dataclass
class TransformReport:
    lhs: CertifiedInterval
    rhs: CertifiedInterval
    overlap: bool
    residual: float


def check_kummer_transform(a, c, x, tol=None) -> TransformReport:
    """Certified check of 1F1(a; c; x) = exp(x) * 1F1(c-a; c; -x): both
    sides evaluated independently, intervals must overlap."""
    a, c, x = Fraction(a), Fraction(c), Fraction(x)

    def sides():
        return (eval_1f1(a, c, x, tol, use_transform=False).value,
                eval_1f1(a, c, x, tol, use_transform=True).value)

    lhs, rhs = sides()
    if not lhs.overlaps(rhs):
        # one retry at doubled precision before reporting disagreement
        with working_precision(2 * get_precision()):
            lhs, rhs = sides()
    return TransformReport(lhs, rhs, lhs.overlaps(rhs),
                           _midpoint_residual(lhs, rhs))


@dataclass
class EulerPfaffReport:
    values: dict  # branch name -> CertifiedInterval (evaluable branches only)
    all_overlap: bool
    max_residual: float


def check_euler_pfaff(a, b, c, x, tol=None) -> EulerPfaffReport:
    """Certified agreement of the four classical representations of
    2F1(a, b; c; x):

        direct                      (needs |x| < 1)
        (1-x)^(c-a-b) 2F1(c-a,c-b;c;x)
        (1-x)^(-a) 2F1(a,c-b;c;x/(x-1))   (needs |x/(x-1)| < 1)
        (1-x)^(-b) 2F1(c-a,b;c;x/(x-1))

    Branches whose series argument leaves the unit disk are skipped."""
    a, b, c, x = Fraction(a), Fraction(b), Fraction(c), Fraction(x)
    if x >= 1:
        raise DomainError("transformation checks need x < 1")
    values = {}
    if abs(x) < 1:
        values["direct"] = eval_pfq(PFQSpec((a, b), (c,)), x, tol).value
        values["euler"] = (rational_power(1 - x, c - a - b)
                           * eval_pfq(PFQSpec((c - a, c - b), (c,)), x, tol).value)
    y = x / (x - 1)
    if abs(y) < 1:
        values["pfaff_a"] = (rational_power(1 - x, -a)
                             * eval_pfq(PFQSpec((a, c - b), (c,)), y, tol).value)
        values["pfaff_b"] = (rational_power(1 - x, -b)
                             * eval_pfq(PFQSpec((c - a, b), (c,)), y, tol).value)
    if not values:
        raise DomainError(f"no representation is evaluable at x = {x}")
    names = sorted(values)
    ok = True
    worst = 0.0
    for i, ni in enumerate(names):
        for nj in names[i + 1:]:
            ok = ok and values[ni].overlaps(values[nj])
            worst = max(worst, _midpoint_residual(values[ni], values[nj]))
    return EulerPfaffReport(values, ok, worst)


def cross_ratio(spec: HypSeriesSpec, a, b, delta, x, tol=None) -> CertifiedInterval:
    """Certified enclosure of f(b+d,x) f(a,x) / [f(a+d,x) f(b,x)] where f
    is the spec's series; the quantity bounded between the Gamma quotient
    and 1 for decreasing-weight-ratio families."""
    a, b, delta, x = Fraction(a), Fraction(b), Fraction(delta), Fraction(x)
    f = {}
    for s in (b + delta, a, a + delta, b):
        # one sum per distinct shift: a + d and b coincide for Turan ratios
        if s not in f:
            f[s] = eval_pfq(PFQSpec.from_series(spec, s), x, tol).value
    return (f[b + delta] * f[a]) / (f[a + delta] * f[b])


class StepKind(enum.Enum):
    DOWN = "down"
    UP = "up"
    UNDECIDED = "undecided"


@dataclass
class ConjectureReport:
    """Monotonicity evidence for the cross-ratio along an x grid.  This
    records evidence only; no truth verdict is implied."""

    branch: str                      # "positive" or "negative"
    xs: list[Fraction]
    values: list[CertifiedInterval]
    steps: list[StepKind]
    violations: int                  # certified wrong-direction steps
    undecided: int
    bound: CertifiedInterval         # conjectured infimum (x>0) / supremum prefix gap
    gap_to_one: float                # |Q - 1| at the grid end nearest 0
    gap_to_bound: float              # |Q - bound| at the far end

    @property
    def expected(self) -> StepKind:
        return StepKind.DOWN if self.branch == "positive" else StepKind.UP


def explore_conjecture(a, b, delta, c, xs, tol=None) -> ConjectureReport:
    """Scan Q(x) = 1F1(b+d;c;x) 1F1(a;c;x) / [1F1(a+d;c;x) 1F1(b;c;x)]
    over a monotone grid.  On x > 0 (needs b > a > 0) the ratio is
    expected to fall from 1 toward the Gamma-quotient bound; on x < 0
    (needs a < b < c - d) it is expected to rise toward 1."""
    a, b, delta, c = Fraction(a), Fraction(b), Fraction(delta), Fraction(c)
    xs = [Fraction(v) for v in xs]
    if not xs:
        raise DomainError("empty x grid")
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise DomainError("x grid must be strictly increasing")
    if all(x > 0 for x in xs):
        branch = "positive"
        if not b > a > 0:
            raise DomainError("positive branch needs b > a > 0")
        bound = gamma_ratio(a, delta) / gamma_ratio(b, delta)
        near_zero, far = 0, len(xs) - 1
    elif all(x < 0 for x in xs):
        branch = "negative"
        if not (a < b < c - delta):
            raise DomainError("negative branch needs a < b < c - delta")
        bound = gamma_ratio(c - b - delta, delta) / gamma_ratio(c - a - delta, delta)
        near_zero, far = len(xs) - 1, 0
    else:
        raise DomainError("x grid must lie entirely in one half-line")

    spec_eval = HypSeriesSpec(Family.UPPER_FACTOR, WeightRule(lower=(c,)), order=0)
    values = [cross_ratio(spec_eval, a, b, delta, x, tol) for x in xs]
    steps = []
    violations = undecided = 0
    expected = StepKind.DOWN if branch == "positive" else StepKind.UP
    for v1, v2 in zip(values, values[1:]):
        if v2.strictly_less(v1):
            step = StepKind.DOWN
        elif v1.strictly_less(v2):
            step = StepKind.UP
        else:
            step = StepKind.UNDECIDED
        steps.append(step)
        if step is StepKind.UNDECIDED:
            undecided += 1
        elif step is not expected:
            violations += 1
    gap_one = float(abs(values[near_zero].midpoint - 1))
    gap_bound = float(abs(values[far].midpoint - bound.midpoint))
    return ConjectureReport(branch, xs, values, steps, violations, undecided,
                            bound, gap_one, gap_bound)


def default_log_grid(count: int = 64, x_max=Fraction(50),
                     ratio=Fraction(7, 8), negative: bool = False) -> list[Fraction]:
    """Geometric x grid: x_max * ratio^k, ascending; mirrored into the
    negative half-line on request."""
    x_max = Fraction(x_max)
    ratio = Fraction(ratio)
    if count < 1 or x_max <= 0 or not 0 < ratio < 1:
        raise DomainError("need count >= 1, x_max > 0, 0 < ratio < 1")
    pts = [x_max * ratio ** k for k in range(count)]
    if negative:
        return sorted(-p for p in pts)
    return sorted(pts)
