"""Correctness of a pass, decided after its timed region.

An item is wrong when its outcome differs from ``reference.json``, which
holds the outcomes captured from the default grids, or, for drawn
parameters, from what the theorems predict.  It is also wrong when a
certified enclosure it returned misses a value computed independently
with mpmath's ``hyp1f1``/``hyp2f1``/``gamma`` at twice turankit's working
precision.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import mpmath

import turankit
from workloads import SIGN_THEOREMS

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

INCONCLUSIVE = "inconclusive"


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


# -- outcome records --------------------------------------------------


def record(item, result) -> dict:
    """The outcome of one item that must not change: verdicts, per-index
    signs, first violations, profile flags, overlap flags, scan steps."""
    t = item.theorem
    if t in SIGN_THEOREMS:
        return {"verdict": result.verdict.value,
                "signs": "".join(s.value for s in result.per_index_sign),
                "first_violation": result.first_violation,
                "mk_single_sign_change": result.mk_single_sign_change,
                "mk_all_negative": result.mk_all_negative}
    if t in ("corollary", "turan"):
        return {"verdict": result.verdict.value,
                "within": [w if w is None else bool(w) for w in result.within],
                "approaches_lower": bool(result.approaches_lower)}
    if t == "kummer":
        return {"overlap": bool(result.overlap)}
    if t == "euler_pfaff":
        return {"overlap": bool(result.all_overlap),
                "branches": sorted(result.values)}
    if t == "scan":
        return {"steps": [s.value for s in result.steps],
                "violations": result.violations, "undecided": result.undecided}
    raise ValueError(f"unknown item kind {t!r}")


def inconclusive_count(rec: dict) -> int:
    """Inconclusive verdicts count once; a scan counts its undecided steps."""
    if "undecided" in rec:
        return rec["undecided"]
    return int(rec.get("verdict") == INCONCLUSIVE)


def cli_records(report: dict, csv_rows: list[list[str]]) -> dict:
    """Records keyed like ``Item.key`` from a ``verify`` JSON report and its
    per-index CSV (columns case, theorem, params, index, sign)."""
    signs: dict[int, list[tuple[int, str]]] = {}
    for case, theorem, _params, index, sign in csv_rows:
        if theorem in SIGN_THEOREMS:  # bound checks list x and within instead
            signs.setdefault(int(case), []).append((int(index), sign))
    out = {}
    for i, rec in enumerate(report["per_case"]):
        theorem, details = rec["theorem"], rec["details"]
        params = rec["params"]
        key = "|".join([theorem, details["family"]]
                       + [f"{k}={params[k]}" for k in sorted(params)])
        if theorem in SIGN_THEOREMS:
            out[key] = {"verdict": rec["verdict"],
                        "signs": "".join(s for _, s in sorted(signs.get(i, []))),
                        "first_violation": rec["first_violation"],
                        "mk_single_sign_change": details["mk_single_sign_change"],
                        "mk_all_negative": details["mk_all_negative"]}
        else:
            out[key] = {"verdict": rec["verdict"], "within": details["within"],
                        "approaches_lower": details["approaches_lower"]}
    return out


# -- outcomes the theorems predict for drawn parameters ----------------


def _upper_ratios_decrease(item) -> bool:
    """w_n/w_{n-1} = 1/(c+n-1) always decreases; (b0+n-1)/(c+n-1)
    decreases exactly when b0 > c."""
    if item.family == "2f1-upper":
        return item.params["b0"] > item.params["c"]
    return True


def predicted_ok(item, rec: dict) -> bool:
    """Whether a drawn case came out as the theorems say.  Only the
    interval-decided checks may end inconclusive."""
    p, t = item.params, item.theorem
    b_gt_a = p["b"] > p["a"]
    if t == "thm1":
        want = "+" if _upper_ratios_decrease(item) == b_gt_a else "-"
        return (rec["verdict"] == "verified"
                and rec["signs"] == "00" + want * (item.M - 1)
                and rec["first_violation"] is None
                and rec["mk_single_sign_change"] is True)
    if t == "thm2":
        want = "-" if b_gt_a else "+"
        return (rec["verdict"] in ("verified", INCONCLUSIVE)
                and len(rec["signs"]) == item.M + 1
                and set(rec["signs"]) <= {want, "?"}
                and rec["first_violation"] is None
                and rec["mk_all_negative"] in (True, None))
    if t == "thm3":
        want = "-" if b_gt_a else "+"
        return (rec["verdict"] == "verified"
                and rec["signs"] == "0" + want * item.M
                and rec["first_violation"] is None
                and rec["mk_all_negative"] is True)
    if t == "corollary":
        return (rec["verdict"] in ("verified", INCONCLUSIVE)
                and all(w in (True, None) for w in rec["within"]))
    raise ValueError(f"no prediction for {t!r}")


# -- independent values for the certified enclosures -------------------


def _mpf(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _hyp1f1(s, c, x):
    # zeroprec: some grid values are exactly 0, e.g. 1F1(3/2; 1/2; -1/2)
    return mpmath.hyp1f1(_mpf(s), _mpf(c), _mpf(x), zeroprec=8 * mpmath.mp.prec)


def _cross_ratio(a, b, delta, c, x):
    return (_hyp1f1(b + delta, c, x) * _hyp1f1(a, c, x)
            / (_hyp1f1(a + delta, c, x) * _hyp1f1(b, c, x)))


def _gamma_quotient(a, b, delta):
    """Gamma(a+d)Gamma(b) / [Gamma(a)Gamma(b+d)], the two-sided lower bound."""
    g = mpmath.gamma
    return (g(_mpf(a + delta)) * g(_mpf(b))
            / (g(_mpf(a)) * g(_mpf(b + delta))))


def _enclosures(item, result):
    """(enclosure, independent value) pairs for every certified interval
    the item returned."""
    p, t = item.params, item.theorem
    if t in ("corollary", "turan"):
        a, d = p["a"], p["delta"]
        b = p["b"] if t == "corollary" else a + d
        pairs = [(q, _cross_ratio(a, b, d, p["c"], x))
                 for x, q in zip(result.x_grid, result.ratio_values)]
        pairs.append((result.lower_bound, _gamma_quotient(a, b, d)))
        return pairs
    if t == "kummer":
        ref = _hyp1f1(p["a"], p["c"], item.xs[0])
        return [(result.lhs, ref), (result.rhs, ref)]
    if t == "euler_pfaff":
        ref = mpmath.hyp2f1(_mpf(p["a"]), _mpf(p["b"]), _mpf(p["c"]),
                            _mpf(item.xs[0]), zeroprec=8 * mpmath.mp.prec)
        return [(v, ref) for v in result.values.values()]
    if t == "scan":
        a, b, d, c = p["a"], p["b"], p["delta"], p["c"]
        pairs = [(q, _cross_ratio(a, b, d, c, x))
                 for x, q in zip(result.xs, result.values)]
        pairs.append((result.bound, _gamma_quotient(a, b, d)))
        return pairs
    return []


def enclosures_hold(item, result) -> bool:
    """True when every enclosure contains the mpmath value, allowing for
    that value's own error at twice the working precision."""
    dps = 2 * turankit.get_precision()
    with mpmath.workdps(dps + 10):
        for interval, ref in _enclosures(item, result):
            slack = abs(ref) * mpmath.mpf(10) ** (-dps) + mpmath.mpf(10) ** (-2 * dps)
            if not (_mpf(interval.lo) - slack <= ref <= _mpf(interval.hi) + slack):
                return False
    return True


# -- one pass ----------------------------------------------------------


def check_items(workload: str, items, results, reference: dict) -> dict:
    """Count wrong and inconclusive items; ``results`` holds either the
    returned object or the exception an item raised."""
    expected = reference.get(workload, {})
    wrong, inconclusive, notes = 0, 0, []
    for item, result in zip(items, results):
        if isinstance(result, BaseException):
            continue  # counted as an error by the caller
        rec = record(item, result)
        inconclusive += inconclusive_count(rec)
        if item.predicted:
            ok = predicted_ok(item, rec)
        else:
            ok = expected.get(item.key) == rec
        ok = ok and enclosures_hold(item, result)
        if not ok:
            wrong += 1
            notes.append(item.key)
    return {"wrong": wrong, "inconclusive": inconclusive, "wrong_keys": notes[:10]}


def check_cli(report: dict, csv_rows, scan_rows, reference: dict) -> dict:
    """Compare a ``verify`` report and an ``explore`` CSV with the
    references of the same cases; enclosures in the CLI's CSV are rounded
    to floats, so they are checked on ``certified_eval`` instead."""
    expected = reference["sign_grids"]
    got = cli_records(report, csv_rows)
    wrong = [k for k in expected if got.get(k) != expected[k]]
    wrong += [k for k in got if k not in expected]
    inconclusive = sum(inconclusive_count(r) for r in got.values())
    scan_key = reference["scan_key"]
    steps = [row[4] for row in scan_rows[2:]]
    if steps != reference["certified_eval"][scan_key]["steps"]:
        wrong.append(scan_key)
    inconclusive += steps.count("undecided")
    return {"wrong": len(wrong), "inconclusive": inconclusive,
            "wrong_keys": wrong[:10]}
