"""Exact terminating hypergeometric sums at argument -1.

A terminating sum here is a pFq whose designated upper parameter is a
negative integer -m, evaluated at x = -1: exactly m + 1 rational terms,
summed by :func:`turankit.evalf.eval_pfq`.  A lower parameter -n with
n >= m is allowed, since its zero divisor lies past the last term.  One
parameter shape is built symbolically from user inputs (never accepted
raw, to avoid transcription slips in the intricate pattern):

* the 2q+2 F 2q+1 whose positivity holds for alpha > beta > 0 under the
  truncated symmetric-polynomial chain on (a_1..a_{q-1}; b_1..b_q); at
  q = 1 it is the 4F3 whose sign encodes the order of a and b,

      4F3(-m, a, 1-c-m, 1-am/(a+b); c, 1-b-m, -am/(a+b) | -1),

  which is proportional, by an exactly known factor, to the m-th
  coefficient of 1F1(a+1;c;x) 1F1(b;c;x) - 1F1(b+1;c;x) 1F1(a;c;x).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PoleError
from .evalf import PFQSpec, eval_pfq
from .exact import parse_rational, pochhammer
from .lemmas import truncated_chain_holds
from .series import kummer_upper, phi_coefficients, sign_of


@dataclass(frozen=True)
class TerminatingSum:
    """pFq parameter lists with designated terminator -m, argument fixed
    at -1.  Validation guarantees the sum has exactly m + 1 well-defined
    rational terms."""

    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    m: int

    def __post_init__(self):
        up = tuple(map(parse_rational, self.upper))
        lo = tuple(map(parse_rational, self.lower))
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "lower", lo)
        if self.m < 0:
            raise DomainError(f"terminator order must be >= 0, got {self.m}")
        if -self.m not in up:
            raise DomainError(f"no upper parameter equals -{self.m}")
        # pole screening first: a degenerate 0/0 shape trips both checks
        # and must surface as a pole
        for l in lo:
            if l.denominator == 1 and 1 - self.m <= l <= 0:
                raise PoleError(
                    f"lower parameter {l} hits a pole within the first "
                    f"{self.m + 1} terms")
        for u in up:
            if u.denominator == 1 and -self.m < u <= 0:
                raise DomainError(
                    f"upper parameter {u} terminates the sum before index {self.m}")


def eval_terminating(ts: TerminatingSum) -> Fraction:
    """Exact value of the m+1-term sum at -1."""
    return eval_pfq(PFQSpec(ts.upper, ts.lower), -1).value.exact


def thm4d_sum(a, b, c, m: int) -> TerminatingSum:
    """The 4F3(-1) whose sign matches sign(a - b): the q = 1 case of
    :func:`qfq_sum`.  Needs a, b, c > 0 and am/(a+b) not an integer below
    m (pole screening)."""
    return qfq_sum(a, b, (), (c,), m)


def link_factor(b, c, m: int) -> Fraction:
    """Frozen proportionality constant between the 4F3(-1) value and the
    m-th product-difference coefficient:

        phi_m = -m (b+1)_{m-1} / (m! (c)_m) * 4F3(-1).

    Derived by rewriting the coefficient's convolution with the index
    identities  (m-k)! = (-1)^k m!/(-m)_k,
    (c)_{m-k} = (-1)^k (c)_m/(1-c-m)_k  and the factorization
    (a+1)_k (b)_{m-k} - (a)_k (b+1)_{m-k} =
        -m (b+1)_{m-1} (-1)^k (a)_k (1-am/(a+b))_k /
        [(1-b-m)_k (-am/(a+b))_k]."""
    if m < 1:
        raise DomainError(f"link factor needs m >= 1, got {m}")
    b, c = parse_rational(b), parse_rational(c)
    return -m * pochhammer(b + 1, m - 1) / (math.factorial(m) * pochhammer(c, m))


@dataclass
class Link4F3Report:
    a: Fraction
    b: Fraction
    c: Fraction
    m: int
    phi_m: Fraction
    sum_value: Fraction
    factor: Fraction
    sign_matches_a_minus_b: bool


def check_4f3_coefficient_link(a, b, c, m: int) -> Link4F3Report:
    """Exact cross-validation: the product-difference coefficient phi_m
    (shift step 1) equals link_factor * 4F3(-1).  Mismatch means a real
    arithmetic bug, so it raises instead of reporting."""
    a, b, c = map(parse_rational, (a, b, c))
    value = eval_terminating(thm4d_sum(a, b, c, m))
    phi_m = phi_coefficients(kummer_upper(c, order=m), a, b, 1)[m]
    factor = link_factor(b, c, m)
    if phi_m != factor * value:
        raise ArithmeticError(
            f"proportionality failed at (a={a}, b={b}, c={c}, m={m}): "
            f"phi_m={phi_m}, factor*sum={factor * value}")
    return Link4F3Report(a, b, c, m, phi_m, value, factor,
                         sign_of(a - b) is sign_of(value))


def qfq_sum(alpha, beta, a_list, b_list, m: int) -> TerminatingSum:
    """The 2q+2 F 2q+1 terminating shape; q = len(b_list),
    len(a_list) = q - 1."""
    alpha, beta = parse_rational(alpha), parse_rational(beta)
    av = tuple(map(parse_rational, a_list))
    bv = tuple(map(parse_rational, b_list))
    q = len(bv)
    if q < 1:
        raise DomainError("need at least one lower-list parameter")
    if len(av) != q - 1:
        raise DomainError(f"expected {q - 1} upper-list parameters, got {len(av)}")
    if alpha <= 0 or beta <= 0 or any(v <= 0 for v in av + bv):
        raise DomainError("parameters must be positive")
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    t = alpha * m / (alpha + beta)
    upper = (-m, alpha) + av + tuple(1 - bi - m for bi in bv) + (1 - t,)
    lower = bv + tuple(1 - ai - m for ai in av) + (1 - beta - m, -t)
    return TerminatingSum(upper, lower, m)


class QfqVerdict(enum.Enum):
    POSITIVE = "positive"
    NONPOSITIVE = "nonpositive"
    SKIPPED_HYPOTHESIS = "skipped-hypothesis"


@dataclass
class QfqResult:
    value: Fraction
    verdict: QfqVerdict
    chain_holds: bool


def eval_qfq_sum(alpha, beta, a_list, b_list, m: int) -> QfqResult:
    """Exact value plus verdict; tuples failing the symmetric-chain
    screening are marked skipped rather than judged.  alpha > beta is a
    hard precondition of the shape itself."""
    alpha, beta = parse_rational(alpha), parse_rational(beta)
    if not alpha > beta > 0:
        raise DomainError(f"need alpha > beta > 0, got {alpha}, {beta}")
    value = eval_terminating(qfq_sum(alpha, beta, a_list, b_list, m))
    chain_ok = truncated_chain_holds(a_list, b_list)
    if not chain_ok:
        verdict = QfqVerdict.SKIPPED_HYPOTHESIS
    elif value > 0:
        verdict = QfqVerdict.POSITIVE
    else:
        verdict = QfqVerdict.NONPOSITIVE
    return QfqResult(value, verdict, chain_ok)
