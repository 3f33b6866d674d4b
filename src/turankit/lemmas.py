"""Polynomial machinery behind the hypergeometric sign results.

Core fact: for polynomials A, B of the same degree with positive
coefficients, the combination A'(x)B(x) - B'(x)A(x) has nonnegative
coefficients whenever the coefficient ratios a_k/b_k form a nondecreasing
chain in k, and nonpositive coefficients for a nonincreasing chain.  For
degrees 1 and 2 the chain condition is also necessary, which this module
demonstrates by exhaustive search with exact witnesses.

Feeding in A(x) = prod(a_i + x) and B(x) = prod(b_i + x) turns the chain
condition into a comparison of elementary symmetric polynomial ratios and
yields a monotonicity test for R(x) = A(x)/B(x) on (0, infinity), which
screens hypotheses of the generalized hypergeometric results (including
the 2F2 special case a_1 >= b_1 b_2 / (b_1 + b_2)).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import DomainError
from .exact import parse_rational, ratio_steps


class ChainKind(enum.Enum):
    INCREASING_CHAIN = "increasing"  # ratios grow with the index
    DECREASING_CHAIN = "decreasing"
    BOTH = "both"                    # all ratios equal (weak chains both ways)
    NEITHER = "neither"


class RatioMonotonicity(enum.Enum):
    INCREASING = "increasing"
    DECREASING = "decreasing"
    CONSTANT = "constant"
    UNDETERMINED = "undetermined"    # the lemma is silent


@dataclass(frozen=True)
class PositivePolynomial:
    """a_0 + a_1 x + ... + a_n x^n with positive coefficients; zeros are
    permitted only in a trailing (highest-degree) block, the degenerate
    extension used for series with fewer upper than lower parameters."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = tuple(map(parse_rational, self.coeffs))
        if not cs:
            raise DomainError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", cs)
        top = len(cs)
        while top > 1 and cs[top - 1] == 0:
            top -= 1
        for c in cs[:top]:
            if c <= 0:
                raise DomainError(
                    "coefficients must be positive (zeros only in a trailing block)")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x) -> Fraction:
        return _eval_coeffs(self.coeffs, parse_rational(x))


def wronskian_coeffs(A: PositivePolynomial, B: PositivePolynomial) -> list[Fraction]:
    """Exact coefficients of A'(x)B(x) - B'(x)A(x), trailing zeros
    trimmed.  Degree is at most 2n - 2 for declared degree n."""
    if A.degree != B.degree:
        raise DomainError(f"degree mismatch: {A.degree} vs {B.degree}")
    n = A.degree
    out = [Fraction(0)] * max(2 * n, 1)
    for k in range(1, n + 1):
        ak, bk = A.coeffs[k], B.coeffs[k]
        for i in range(n + 1):
            out[i + k - 1] += k * (ak * B.coeffs[i] - bk * A.coeffs[i])
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _chain_kind(up: bool, down: bool) -> ChainKind:
    """The kind of a chain that is weakly increasing (``up``) and/or weakly
    decreasing (``down``)."""
    if up:
        return ChainKind.BOTH if down else ChainKind.INCREASING_CHAIN
    return ChainKind.DECREASING_CHAIN if down else ChainKind.NEITHER


@dataclass(frozen=True)
class RatioChainReport:
    kind: ChainKind
    strict: tuple[bool, ...]  # strictness of each consecutive comparison


def check_ratio_chain(A: PositivePolynomial, B: PositivePolynomial) -> RatioChainReport:
    """Classify the chain a_n/b_n >= ... >= a_0/b_0 (increasing kind,
    nonnegative wronskian coefficients) vs its reverse.  Comparisons are
    exact cross-products, so zero coefficients in A's trailing block are
    handled without division."""
    if A.degree != B.degree:
        raise DomainError(f"degree mismatch: {A.degree} vs {B.degree}")
    steps = ratio_steps(A.coeffs, B.coeffs)
    return RatioChainReport(_chain_kind(-1 not in steps, 1 not in steps),
                            tuple(s != 0 for s in steps))


@dataclass(frozen=True)
class NecessityWitness:
    a_coeffs: tuple[Fraction, ...]
    b_coeffs: tuple[Fraction, ...]
    x: Fraction
    value: Fraction  # A'B - B'A at x, certified negative


_NECESSITY_COEFF_GRID = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
_NECESSITY_X_GRID = tuple(Fraction(k, 8) for k in range(1, 81))


def _eval_coeffs(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _find_negative_point(w: list[Fraction]) -> tuple[Fraction, Fraction] | None:
    for x in _NECESSITY_X_GRID:
        v = _eval_coeffs(w, x)
        if v < 0:
            return x, v
    # fall back to sign analysis of the exact coefficients: a negative
    # bottom (top) coefficient forces negativity for small (large) x > 0
    low = next((i for i, c in enumerate(w) if c != 0), None)
    if low is None:
        return None
    rest = sum(abs(c) for c in w[low + 1:])
    if w[low] < 0:
        x = Fraction(1) if rest == 0 else min(Fraction(1), -w[low] / (2 * rest))
        v = _eval_coeffs(w, x)
        if v < 0:
            return x, v
    top = len(w) - 1
    if w[top] < 0:
        head = sum(abs(c) for c in w[:top])
        x = 1 + 2 * head / -w[top]
        v = _eval_coeffs(w, x)
        if v < 0:
            return x, v
    return None


def necessity_witness(n: int) -> list[NecessityWitness]:
    """For degree n in {1, 2}: enumerate all coefficient tuples over the
    grid {1/2, 1, 2, 3}, and for every pair violating the increasing
    chain produce an x > 0 where A'B - B'A is negative.  The chain
    condition being necessary at these degrees, a violating pair with no
    witness would disprove it; callers treat that as a failure."""
    if n not in (1, 2):
        raise DomainError("necessity is established only for degrees 1 and 2")
    witnesses = []
    tuples = list(product(_NECESSITY_COEFF_GRID, repeat=n + 1))
    for ac in tuples:
        A = PositivePolynomial(ac)
        for bc in tuples:
            B = PositivePolynomial(bc)
            kind = check_ratio_chain(A, B).kind
            if kind in (ChainKind.INCREASING_CHAIN, ChainKind.BOTH):
                continue
            w = wronskian_coeffs(A, B)
            found = _find_negative_point(w)
            if found is None:
                raise ArithmeticError(
                    f"chain-violating pair {ac}/{bc} admits no negative point; "
                    "necessity would be disproved")
            x, v = found
            witnesses.append(NecessityWitness(ac, bc, x, v))
    return witnesses


def elementary_symmetric(values) -> list[Fraction]:
    """[e_1, ..., e_q] via the product recurrence for prod(1 + c_i t)."""
    vals = list(map(parse_rational, values))
    poly = [Fraction(1)]
    for c in vals:
        nxt = poly + [Fraction(0)]
        for i in range(len(poly)):
            nxt[i + 1] += poly[i] * c
        poly = nxt
    return poly[1:]


def expand_linear_factors(values) -> PositivePolynomial:
    """prod(v_i + x) as an explicit polynomial in x."""
    vals = list(map(parse_rational, values))
    es = [Fraction(1)] + elementary_symmetric(vals)
    q = len(vals)
    return PositivePolynomial(tuple(es[q - k] for k in range(q + 1)))


@dataclass(frozen=True)
class ChainReport:
    ratios: tuple[Fraction, ...]  # e_m(b)/e_m(a) for m = 1..q
    kind: ChainKind


def check_symmetric_chain(a_list, b_list) -> ChainReport:
    """Chain of elementary symmetric ratios r_m = e_m(b)/e_m(a):
    increasing kind means r_q >= r_{q-1} >= ... >= r_1 >= 1 (so
    R(x) = prod(a+x)/prod(b+x) increases on (0, inf)); decreasing kind is
    the reverse with anchor <= 1."""
    av = list(map(parse_rational, a_list))
    bv = list(map(parse_rational, b_list))
    if len(av) != len(bv):
        raise DomainError(f"length mismatch: {len(av)} vs {len(bv)}")
    if not av:
        raise DomainError("empty parameter lists")
    if any(v <= 0 for v in av + bv):
        raise DomainError("parameters must be positive")
    ea = elementary_symmetric(av)
    eb = elementary_symmetric(bv)
    steps = ratio_steps([1] + eb, [1] + ea)  # anchored at e_0(b)/e_0(a) = 1
    return ChainReport(tuple(x / y for x, y in zip(eb, ea)),
                       _chain_kind(-1 not in steps, 1 not in steps))


def truncated_chain_holds(a_list, b_list) -> bool:
    """Chain variant for an a-list one entry shorter than the b-list
    (upper parameter count below lower): with q = len(b),
    e_q(b)/e_{q-1}(a) <= e_{q-1}(b)/e_{q-2}(a) <= ... <= e_1(b), where
    e_0 = 1.  Vacuously true for q = 1."""
    av = list(map(parse_rational, a_list))
    bv = list(map(parse_rational, b_list))
    q = len(bv)
    if len(av) != q - 1:
        raise DomainError(f"expected {q - 1} upper parameters, got {len(av)}")
    if any(v <= 0 for v in av + bv):
        raise DomainError("parameters must be positive")
    eb = elementary_symmetric(bv)
    ea = [Fraction(1)] + elementary_symmetric(av)  # ea[j] = e_j(a), e_0 = 1
    return 1 not in ratio_steps(eb, ea)  # the ratios e_j(b)/e_{j-1}(a)


def two_f_two_condition(a1, b1, b2) -> bool:
    """The q = 2 truncated chain collapses to a_1 >= b_1 b_2/(b_1 + b_2)."""
    a1, b1, b2 = map(parse_rational, (a1, b1, b2))
    if a1 <= 0 or b1 <= 0 or b2 <= 0:
        raise DomainError("parameters must be positive")
    return a1 >= b1 * b2 / (b1 + b2)


_RATIO_VERDICT = {ChainKind.BOTH: RatioMonotonicity.CONSTANT,
                  ChainKind.INCREASING_CHAIN: RatioMonotonicity.INCREASING,
                  ChainKind.DECREASING_CHAIN: RatioMonotonicity.DECREASING,
                  ChainKind.NEITHER: RatioMonotonicity.UNDETERMINED}


def ratio_R_monotone(a_list, b_list) -> RatioMonotonicity:
    """Monotonicity of R(x) = prod(a_i + x)/prod(b_i + x) on (0, inf) as
    decided by the symmetric chain; cross-validated against the sign of
    the expanded numerator's wronskian coefficients."""
    verdict = _RATIO_VERDICT[check_symmetric_chain(a_list, b_list).kind]
    if verdict is RatioMonotonicity.UNDETERMINED:
        return verdict
    w = wronskian_coeffs(expand_linear_factors(a_list),
                         expand_linear_factors(b_list))
    if verdict is RatioMonotonicity.CONSTANT:
        ok = all(c == 0 for c in w)
    elif verdict is RatioMonotonicity.INCREASING:
        ok = all(c >= 0 for c in w) and any(c > 0 for c in w)
    else:
        ok = all(c <= 0 for c in w) and any(c < 0 for c in w)
    if not ok:
        raise ArithmeticError(
            f"chain verdict {verdict} contradicts wronskian signs {w}")
    return verdict
