"""Certified evaluation of generalized hypergeometric series.

Partial sums are exact rationals, so the only error is the truncated
tail, which is bounded geometrically: once every surviving term ratio is
provably below some r < 1, the tail is at most |last term| r / (1 - r).
The result is an interval that provably contains the true sum.

The sum runs on plain integers.  Every parameter is scaled to one common
denominator D, so each term ratio t_{n+1}/t_n is a quotient A_n/B_n of
two integers.  The state at index n is the last term tn/T and the
partial sum sn/T over one shared, never reduced denominator T.  The
terms n1 .. n2-1 take it to (tn P, sn Q + tn S, T Q), and (P, Q, S) comes
from a product tree: a range splits in halves, which compose as
(P1 P2, Q1 Q2, S1 Q2 + P1 S2) (binary splitting; Haible and
Papanikolaou, ANTS-III 1998).  The state at any index is thus a few
balanced products away, and it holds the very integers that a loop of
``tn *= A_n; sn = sn*B_n + tn; T *= B_n`` would make.

The ratio bound r_n = rn/rd is an integer pair, valid from n_min on,
where every shifted parameter is positive, and it does not increase with
n.  The tail test |tn| rn / (T (rd - rn)) <= tol/2 is tried from
n = max(n_min, 1) on.  Let n0 be the first such n with r_n < 1, found by
galloping and bisecting on r.  From n0 on the test is monotone: since
|t_{n+1}| <= r_n |t_n| and r_{n+1} <= r_n, its left side falls by a
factor r_n or more per term, so once passed it stays passed.  The sum
stops at the first index N that passes.  Unless that is n0, N is
guessed, and then confirmed exactly: the test fails at N - 1 and passes
at N, on states from the tree.  The guess comes from floats, by Newton's
method on log |t_n| (from log-Gamma) plus log(r_n / (1 - r_n)).  It is
only a hint: when it misses, or floats cannot make it, the exact search
walks or bisects, which costs time and changes nothing else.  Predicting
the stop in floats and certifying it exactly follows Johansson,
"Computing hypergeometric functions rigorously", ACM TOMS 2019.  Each
exact test compares bit lengths first and multiplies its two sides out
only within two bits of a tie.  The returned enclosure is rounded
outward from the unreduced pairs sn/T and bn/bd = |tn| rn / (T (rd - rn)),
with one division each: the quotient of sn/T gives its floor and its
ceiling, the ceiling c of bn/bd gives the radius [-c, c], and the two
are added with outward rounding.  The bound is reduced to a Fraction
only when ``EvalResult.truncation_bound`` is first read.

A series stops after term m when -m is its largest nonpositive-integer
upper parameter, and is summed exactly.  A lower parameter -n is then no
pole if m <= n, as in mpmath, where 1F1(-1; -2; x) = 1 + x/2 exactly.

Also provides the classical transformation cross-checks (Kummer for the
confluent function, Euler/Pfaff for the Gauss function), the cross-ratio
f(b+d,x)f(a,x) / [f(a+d,x)f(b,x)] used by the two-sided bounds, and a
monotonicity scan of that ratio over an x grid, which probes the open
question whether it is monotone on each half-line.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import ceil, expm1, lcm, lgamma, log

from .errors import DomainError, PoleError, TermCapError
from .exact import is_nonpositive_integer, parse_rational
from .intervals import (CertifiedInterval, ci_exp, get_precision,
                        rational_power, working_precision)
from .series import Family, HypSeriesSpec, gamma_quotient, kummer_upper

TERM_CAP = 10000


@dataclass(frozen=True)
class PFQSpec:
    """Parameters of pFq: p upper, q lower.  ``stop`` is the index of the
    last term of a series that stops, else None and p <= q + 1 is needed.
    A lower -n is a pole (PoleError) unless the series stops by term n."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    stop: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        up = tuple(map(parse_rational, self.upper))
        lo = tuple(map(parse_rational, self.lower))
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)
        stop = min((-u.numerator for u in up if is_nonpositive_integer(u)),
                   default=None)
        object.__setattr__(self, "stop", stop)
        if stop is None and len(up) > len(lo) + 1:
            raise DomainError(
                f"need p <= q + 1, got p={len(up)}, q={len(lo)}")
        for l in lo:
            if is_nonpositive_integer(l) and (stop is None or stop > -l):
                raise PoleError(f"lower parameter {l} is a nonpositive integer "
                                f"and the series does not stop by term {-l}")

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)

    def diverges_at(self, x: Fraction) -> bool:
        """Whether the series diverges at x: it does not stop, p = q + 1
        and |x| >= 1."""
        return self.stop is None and self.p == self.q + 1 and abs(x) >= 1

    @classmethod
    def from_series(cls, spec: HypSeriesSpec, shift_param) -> "PFQSpec":
        """The pFq computed by a series-family spec at a given shift
        value.  Weight factorials are folded into standard pFq shape via
        n! = (1)_n."""
        s = parse_rational(shift_param)
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
    """A certified sum.  The truncation bound is kept as the unreduced
    integer pair (num, den) that the summation produced, and reduced to
    ``truncation_bound`` when that is first read."""

    value: CertifiedInterval
    terms_used: int
    bound_pair: tuple[int, int]
    conclusive: bool = True

    @cached_property
    def truncation_bound(self) -> Fraction:
        return Fraction(*self.bound_pair)


# Terms per leaf of the product tree: up to this many, one loop over the
# terms beats splitting further
_LEAF = 32


class _Terms:
    """The term ratios of pFq(upper; lower; x) as integers, and the bound
    on them.  With every parameter scaled to one common denominator D,
    U = uD and L = lD, t_{n+1}/t_n = A_n/B_n for
    A_n = x_num D^(q-p) prod(U + nD) and B_n = x_den (n+1) prod(L + nD),
    the power of D going to B_n when p > q, and the sign to A_n."""

    __slots__ = ("D", "ups", "lows", "a_scale", "b_scale", "x_den",
                 "rn_scale", "pairs", "unpaired", "n_min")

    def __init__(self, spec: PFQSpec, x: Fraction):
        D = self.D = lcm(*(v.denominator for v in spec.upper + spec.lower))
        ups = self.ups = [u.numerator * (D // u.denominator) for u in spec.upper]
        lows = self.lows = [l.numerator * (D // l.denominator) for l in spec.lower]
        x_num = x.numerator
        x_den = self.x_den = x.denominator
        self.a_scale = x_num * D ** max(spec.q - spec.p, 0)
        self.b_scale = x_den * D ** max(spec.p - spec.q, 0)
        # The bound holds once every shifted parameter is positive, at
        # n >= n_min.  Uppers are paired with the largest denominators
        # (the lower parameters and the 1 of n!), and a pair counts only
        # if its upper is the larger; unpaired denominators contribute
        # their own decay factor.
        self.n_min = max([1 + -v // D for v in ups + lows if v <= 0], default=0)
        dens = sorted(lows + [D], reverse=True)
        self.pairs = [(u, d) for u, d in zip(sorted(ups, reverse=True), dens)
                      if u > d]
        self.unpaired = dens[len(ups):]
        self.rn_scale = abs(x_num) * D ** len(self.unpaired)

    def steps(self, n1: int, n2: int) -> tuple[int, int, int]:
        """(P, Q, S) of the terms n1 .. n2-1, which take the state at n1,
        the last term tn/T and the partial sum sn/T, to the state at n2:
        (tn, sn, T) -> (tn P, sn Q + tn S, T Q).  One term gives
        (A_n, B_n, A_n), and adjacent ranges compose as
        (P1 P2, Q1 Q2, S1 Q2 + P1 S2), so a range is split in halves down
        to leaves of at most _LEAF terms."""
        if n2 - n1 > _LEAF:
            m = (n1 + n2) // 2
            P1, Q1, S1 = self.steps(n1, m)
            P2, Q2, S2 = self.steps(m, n2)
            return P1 * P2, Q1 * Q2, S1 * Q2 + P1 * S2
        D, ups, lows, a_scale, b_scale = (self.D, self.ups, self.lows,
                                          self.a_scale, self.b_scale)
        P, Q, S = 1, 1, 0
        for n in range(n1, n2):
            nD = n * D
            a, b = a_scale, b_scale * (n + 1)
            for u in ups:
                a *= u + nD
            for l in lows:
                b *= l + nD
            if b < 0:
                a, b = -a, -b
            P *= a
            S = S * b + P
            Q *= b
        return P, Q, S

    def bound(self, n: int) -> tuple[int, int]:
        """The bound rn/rd on |t_{k+1}/t_k| for every k >= n >= n_min; it
        does not increase with n."""
        nD = n * self.D
        rn, rd = self.rn_scale, self.x_den
        for u, d in self.pairs:
            rn *= u + nD
            rd *= d + nD
        for d in self.unpaired:
            rd *= d + nD
        return rn, rd

    def below_one(self, n: int) -> bool:
        rn, rd = self.bound(n)
        return rn < rd


def _first_pass(test, lo: int, hi: int, hints=()) -> int:
    """The least n in (lo, hi] at which ``test`` passes, for a test that
    fails at lo, passes at hi and, once it passes, passes at every later
    index; hi itself is never tried.  The hints are tried first, in order,
    each that still falls strictly between lo and hi; then the search
    gallops up from lo and bisects."""
    for m in hints:
        if lo < m < hi:
            if test(m):
                hi = m
            else:
                lo = m
    step = 1
    while hi - lo > 1:
        if lo + step < hi:
            m = lo + step
            step *= 2
        else:
            m = (lo + hi) // 2
        if test(m):
            hi = m
        else:
            lo = m
    return hi


def _guess_stop(terms: _Terms, n0: int, cap: int, log_tol: float) -> int:
    """A float estimate of the least n in [n0, cap] that passes the tail
    test, or cap + 1 for none.  log |t_n| comes from log-Gamma, as
    |t_n| = |x|^n prod |(u)_n| / prod |(l)_n| with the 1 of n! among the
    l, and the test is log |t_n| + log(r_n / (1 - r_n)) <= log_tol.
    Newton's method finds the root of the difference on the integers,
    kept inside a bracket, with log |t_{n+1}/t_n| + r_n' / (1 - r_n) as
    the slope.  Only a hint: the caller confirms the index exactly, and
    searches without it when floats fail here (ArithmeticError or
    ValueError)."""
    D = terms.D
    us = [u / D for u in terms.ups]
    ls = [l / D for l in terms.lows] + [1.0]
    pairs = [(u / D, d / D) for u, d in terms.pairs]
    unpaired = [d / D for d in terms.unpaired]
    log_x = log(terms.rn_scale) - log(terms.x_den) - len(unpaired) * log(D)
    base = sum(map(lgamma, ls)) - sum(map(lgamma, us)) - log_tol

    def excess(n):
        """The test's excess at n in logs, and the two parts of its slope."""
        v, t = base + n * log_x, 1.0
        for u in us:
            z = u + n
            v += lgamma(z)
            t *= z
        for l in ls:
            z = l + n
            v -= lgamma(z)
            t /= z
        r, dr = 1.0, 0.0
        for u, d in pairs:
            zu, zd = u + n, d + n
            r *= zu / zd
            dr += 1 / zu - 1 / zd
        for d in unpaired:
            z = d + n
            r /= z
            dr -= 1 / z
        log_r = log_x + log(r)
        one_minus_r = max(-expm1(log_r), 1e-300)
        return (v + log_r - log(one_minus_r), log_x + log(t),
                dr / one_minus_r)

    # the test fails at lo and passes at hi, both only nominally at first
    lo, hi = n0 - 1, cap + 1
    n = n0
    while True:
        v, dt, dr = excess(n)
        if v > 0:
            lo = n
        else:
            hi = n
        if hi - lo <= 1:
            return hi
        if dt + dr >= 0:
            n = (lo + hi) // 2
            continue
        step = -v / (dt + dr)
        guess = min(max(ceil(n + step), lo + 1), hi)
        # a step under one index settles the guess, unless the slope is
        # that of r near 1, which flattens out within a few indices
        if abs(step) < 1 and dr > dt:
            return guess
        n = min(guess, hi - 1)


def eval_pfq(spec: PFQSpec, x, tol=None, term_cap: int = TERM_CAP) -> EvalResult:
    """Certified enclosure of pFq(upper; lower; x).

    A series that stops (``spec.stop``) and x = 0 are summed exactly.
    Otherwise summation proceeds until the geometric tail bound drops
    below tol (default 10^-precision); hitting the term cap first yields
    a wider but still rigorous interval flagged as inconclusive, or
    TermCapError when no tail bound holds at the cap."""
    x = parse_rational(x)
    if tol is None:
        tol_num, tol_den = 1, 10 ** get_precision()
    else:
        tol = parse_rational(tol)
        if tol <= 0:
            raise DomainError("tolerance must be positive")
        tol_num, tol_den = tol.numerator, tol.denominator

    stop = spec.stop
    if x == 0:
        return EvalResult(CertifiedInterval.from_fraction(Fraction(1)), 1, (0, 1))
    if spec.diverges_at(x):
        raise DomainError(
            f"series with p = q + 1 diverges at |x| = {abs(x)} >= 1")
    terms = _Terms(spec, x)
    if stop is not None:
        P, Q, S = terms.steps(0, stop)
        return EvalResult(CertifiedInterval.from_fraction(Fraction(Q + S, Q)),
                          stop + 1, (0, 1))
    # The tail after tn/T is at most bn/bd = |tn| rn / (T (rd - rn)) once
    # r = rn/rd < 1, and the sum stops at the first n >= max(n_min, 1)
    # where bn/bd <= tol/2, that is |tn| rn 2 tol_den <= T (rd - rn) tol_num.
    # From the first such n with r < 1, n0, on, |t_{n+1}| <= r_n |t_n| and
    # r does not increase, so the left side falls by a factor r_n or more
    # per term: the test fails before some index and passes from it on.
    first = max(terms.n_min, 1)
    if term_cap >= first and terms.below_one(first):
        n0 = first  # and r_cap <= r_first < 1
    elif term_cap < terms.n_min or not terms.below_one(term_cap):
        raise TermCapError(
            f"no certifiable tail bound within {term_cap} terms")
    else:
        n0 = (first if first > term_cap
              else _first_pass(terms.below_one, first, term_cap))
    tol_lhs, tol_rhs = 2 * tol_den, tol_num
    # the state (tn, sn, T) at index `at`: 0 at first, then the last index
    # where the test failed; `hit` is the state where it last passed, with
    # the bound there
    at, state, hit = 0, (1, 1, 1), None

    def passes(m):
        nonlocal at, state, hit
        P, Q, S = terms.steps(at, m)
        tn, sn, T = state
        tn, sn, T = tn * P, sn * Q + tn * S, T * Q
        rn, rd = terms.bound(m)
        lhs, rhs = rn * tol_lhs, (rd - rn) * tol_rhs
        # A product of integers of i and j bits has i + j - 1 or i + j
        # bits, so the bit lengths decide the test outside a band of
        # three; only inside it are the two sides multiplied out.
        gap = (tn.bit_length() + lhs.bit_length()
               - T.bit_length() - rhs.bit_length())
        if gap < -1 or gap <= 1 and abs(tn) * lhs <= T * rhs:
            hit = tn, sn, T, rn, rd
            return True
        at, state = m, (tn, sn, T)
        return False

    # The test at n0 settles the sums that stop there.  Otherwise it is
    # tried at the float guess and the index before it, then walked or
    # bisected from there, so a wrong guess costs only time.
    n = n0
    if n0 <= term_cap and not passes(n0):
        try:
            guess = _guess_stop(terms, n0, term_cap,
                                log(tol_num) - log(2 * tol_den))
            hints = (guess - 1, guess, guess - 2)
        except (ArithmeticError, ValueError):
            # a parameter or a log-Gamma value that floats cannot hold,
            # such as lgamma at a parameter rounded to -5.0: no hint
            hints = ()
        n = _first_pass(passes, n0, term_cap + 1, hints)
    conclusive = n <= term_cap
    if conclusive:
        tn, sn, T, rn, rd = hit
    else:
        # the test failed at the cap, where r < 1 still bounds the tail
        n, (tn, sn, T) = term_cap, state
        rn, rd = terms.bound(n)
    bn, bd = abs(tn) * rn, T * (rd - rn)
    return EvalResult(CertifiedInterval.around(sn, T, bn, bd), n + 1,
                      (bn, bd), conclusive=conclusive)


def eval_1f1(a, c, x, tol=None, use_transform: bool | None = None) -> EvalResult:
    """Confluent function 1F1(a; c; x).  For x < 0 with c - a >= 0 the
    evaluation is routed through exp(x) * 1F1(c-a; c; -x), whose terms
    are eventually one-signed; set use_transform to force either path.
    The transformation fails where c is a nonpositive integer."""
    a, c, x = map(parse_rational, (a, c, x))
    if use_transform is None:
        use_transform = x < 0 and c - a >= 0 and not is_nonpositive_integer(c)
    if not use_transform:
        return eval_pfq(PFQSpec((a,), (c,)), x, tol)
    if is_nonpositive_integer(c):
        raise DomainError(f"Kummer's transformation fails at c = {c}")
    inner = eval_pfq(PFQSpec((c - a,), (c,)), -x, tol)
    scale = ci_exp(CertifiedInterval.from_fraction(x))
    return replace(inner, value=scale * inner.value)


def _midpoint_residual(mu: tuple[int, int], mv: tuple[int, int]) -> float:
    """|mu - mv| / max(|mu|, |mv|, 1) for the midpoints mu = n1/d1 and
    mv = n2/d2, as ``CertifiedInterval._midpoint_pair`` gives them.  All
    four quantities are taken over d1 d2, which cancels, and the one int
    division is correctly rounded, as float(Fraction) is."""
    (n1, d1), (n2, d2) = mu, mv
    return abs(n1 * d2 - n2 * d1) / max(abs(n1) * d2, abs(n2) * d1, d1 * d2)


@dataclass
class TransformReport:
    lhs: CertifiedInterval
    rhs: CertifiedInterval
    overlap: bool
    residual: float


def check_kummer_transform(a, c, x, tol=None) -> TransformReport:
    """Certified check of 1F1(a; c; x) = exp(x) * 1F1(c-a; c; -x): both
    sides evaluated independently, intervals must overlap."""
    a, c, x = map(parse_rational, (a, c, x))
    if is_nonpositive_integer(c):
        raise DomainError(f"Kummer's transformation fails at c = {c}")

    def sides():
        return (eval_1f1(a, c, x, tol, use_transform=False).value,
                eval_1f1(a, c, x, tol, use_transform=True).value)

    lhs, rhs = sides()
    if not lhs.overlaps(rhs):
        # one retry at doubled precision before reporting disagreement
        with working_precision(2 * get_precision()):
            lhs, rhs = sides()
    return TransformReport(lhs, rhs, lhs.overlaps(rhs),
                           _midpoint_residual(lhs._midpoint_pair(),
                                              rhs._midpoint_pair()))


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

    Branches whose series argument leaves the unit disk are skipped.
    Each prefactor (1-x)^e is a shared :func:`rational_power` enclosure,
    and each branch's midpoint is read once for all its residuals."""
    a, b, c, x = map(parse_rational, (a, b, c, x))
    if is_nonpositive_integer(c):
        raise DomainError(f"the Euler and Pfaff transformations fail at c = {c}")
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
    mids = {n: values[n]._midpoint_pair() for n in names}
    ok = True
    worst = 0.0
    for i, ni in enumerate(names):
        for nj in names[i + 1:]:
            ok = ok and values[ni].overlaps(values[nj])
            worst = max(worst, _midpoint_residual(mids[ni], mids[nj]))
    return EulerPfaffReport(values, ok, worst)


def cross_ratio(spec: HypSeriesSpec, a, b, delta, x, tol=None) -> CertifiedInterval:
    """Certified enclosure of f(b+d,x) f(a,x) / [f(a+d,x) f(b,x)] where f
    is the spec's series; the quantity bounded between the Gamma quotient
    and 1 for decreasing-weight-ratio families."""
    a, b, delta, x = map(parse_rational, (a, b, delta, x))
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
    a, b, delta, c = map(parse_rational, (a, b, delta, c))
    if delta <= 0:
        raise DomainError("need delta > 0")
    xs = list(map(parse_rational, xs))
    if not xs:
        raise DomainError("empty x grid")
    if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
        raise DomainError("x grid must be strictly increasing")
    if all(x > 0 for x in xs):
        branch = "positive"
        if not b > a > 0:
            raise DomainError("positive branch needs b > a > 0")
        bound = gamma_quotient(b, a, delta)
        near_zero, far = 0, len(xs) - 1
    elif all(x < 0 for x in xs):
        branch = "negative"
        if not (a < b < c - delta):
            raise DomainError("negative branch needs a < b < c - delta")
        bound = gamma_quotient(c - a - delta, c - b - delta, delta)
        near_zero, far = len(xs) - 1, 0
    else:
        raise DomainError("x grid must lie entirely in one half-line")

    spec = kummer_upper(c, 0)
    values = [cross_ratio(spec, a, b, delta, x, tol) for x in xs]
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
                     negative: bool = False) -> list[Fraction]:
    """Geometric x grid: x_max (7/8)^k for k < count, ascending; mirrored
    into the negative half-line on request.  The smallest point's
    denominator gains three bits per point, which the CLI's cap on the
    point count assumes."""
    x_max = parse_rational(x_max)
    if count < 1 or x_max <= 0:
        raise DomainError("need count >= 1 and x_max > 0")
    pts = [x_max * Fraction(7, 8) ** k for k in range(count)]
    if negative:
        return sorted(-p for p in pts)
    return sorted(pts)
