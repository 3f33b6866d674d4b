"""An independent checker of the half-range row signs of the upper and
lower families, on ``fractions`` and ``math`` only: it imports nothing
from turankit, so a fault in the package's kernels, its float filter or
its exact fold cannot also be a fault here.

Each entry's sign is re-derived from the Pochhammer definition, with the
formulas of the ``series.HalfRangePass`` docstring,

* upper:  M_k = [(a+d)_k (b)_{m-k} - (a)_k (b+d)_{m-k}] / (k! (m-k)!),
* lower:  M_k = 1/[(a+d)_k (b)_{m-k}] - 1/[(a)_k (b+d)_{m-k}],

and entry k of row m, k = 0..m//2, is the k-th and (m-k)-th terms folded
together: M_k + M_{m-k} for k < m - k, M_k alone for 2k = m.  It is a
positive multiple of the package's integer r_k, so it has r_k's sign.

Run it through ``tests/test_sign_filter.py``, which compares it with both
of the package's reads; ``--checker-M`` sets the order::

    PYTHONPATH=src python -m pytest -q tests/test_sign_filter.py -k checker --checker-M 200
"""

import math
from fractions import Fraction

# the shifts of the default grids: every a < b of SHIFTS with every delta
SHIFTS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
DELTAS = (Fraction(1, 2), Fraction(1), Fraction(2))
DEFAULT_POINTS = [(a, b, d) for a in SHIFTS for b in SHIFTS if b > a for d in DELTAS]


def pochhammers(s: Fraction, M: int) -> list:
    """(s)_n = s (s+1) ... (s+n-1) for n = 0..M."""
    out = [Fraction(1)]
    for i in range(M):
        out.append(out[-1] * (s + i))
    return out


def row_signs(family: str, a, b, delta, M: int) -> list:
    """The signs, -1, 0 or 1, of the entries k = 0..m//2 of the rows
    m = 0..M of ``family`` ("upper" or "lower") at the shifts a, b, delta."""
    a, b, delta = map(Fraction, (a, b, delta))
    p1, p2, p3, p4 = (pochhammers(s, M) for s in (a + delta, b, a, b + delta))
    if family == "upper":
        def term(k, j):
            return (p1[k] * p2[j] - p3[k] * p4[j]) / (math.factorial(k) * math.factorial(j))
    elif family == "lower":
        def term(k, j):
            return 1 / (p1[k] * p2[j]) - 1 / (p3[k] * p4[j])
    else:
        raise ValueError(f"no such family: {family!r}")
    rows = []
    for m in range(M + 1):
        row = []
        for k in range(m // 2 + 1):
            j = m - k
            value = term(k, j) + term(j, k) if k < j else term(k, j)
            row.append((value > 0) - (value < 0))
        rows.append(row)
    return rows
