"""Acceptance suite: one test per headline capability, each ending in a
single printed pass line.  These are the binding checks; the rest of the
test tree exists to localize a failure seen here."""

import csv
import pathlib
import random
import time
from fractions import Fraction as F
from itertools import product

from turankit.cli import main
from turankit.errors import PoleError
from turankit.evalf import check_euler_pfaff, check_kummer_transform
from turankit.finite_sums import (QfqVerdict, check_4f3_coefficient_link,
                                  eval_qfq_sum)
from turankit.lemmas import (ChainKind, PositivePolynomial, check_ratio_chain,
                             necessity_witness, wronskian_coeffs)
from turankit.series import Sign, kummer_upper
from turankit.verify import (Verdict, default_cases, run_case,
                             verify_corollary_twosided)

REPORTS = pathlib.Path(__file__).resolve().parent.parent / "reports"

GRID_PARAMS = (F(1, 2), F(1), F(3, 2), F(2), F(3))
GRID_X_SIGNED = tuple(F(s, 4) * sgn for s in (1, 2, 3) for sgn in (1, -1))


def _announce(label: str):
    print(f"PASS: {label}")


def test_product_difference_sign_suite_exact():
    t0 = time.monotonic()
    reports = [run_case(c) for c in default_cases("thm1", 40)]
    elapsed = time.monotonic() - t0
    assert len(reports) == 150
    for rep in reports:
        assert rep.verdict is Verdict.VERIFIED
        assert rep.per_index_sign[0] is Sign.ZERO
        assert rep.per_index_sign[1] is Sign.ZERO
        # one fixed nonzero sign across the whole tail 2..40
        tail = set(rep.per_index_sign[2:])
        assert len(tail) == 1 and Sign.ZERO not in tail
        assert rep.mk_single_sign_change is True
    assert elapsed < 60
    _announce(f"product-difference signs exact on 150 cases, m<=40, "
              f"half-range profiles sum to 0 with one sign change "
              f"({elapsed:.1f}s)")


def test_reciprocal_family_negativity_suite_exact():
    reports = [run_case(c) for c in default_cases("thm3", 40)]
    assert len(reports) == 150
    for rep in reports:
        assert rep.verdict is Verdict.VERIFIED
        assert rep.per_index_sign[0] is Sign.ZERO
        assert all(s is Sign.NEGATIVE for s in rep.per_index_sign[1:])
        assert rep.mk_all_negative is True
    _announce("reciprocal-weight coefficients exactly negative on 150 "
              "cases, 1<=m<=40")


def test_gamma_family_certified_negativity_suite():
    reports = [run_case(c) for c in default_cases("thm2", 30)]
    assert len(reports) == 90
    total = sum(len(r.per_index_sign) for r in reports)
    pending_default = sum(r.inconclusive_before_escalation for r in reports)
    for rep in reports:
        assert rep.verdict is Verdict.VERIFIED
        assert all(s is Sign.NEGATIVE for s in rep.per_index_sign)
        assert not rep.inconclusive_indices
    assert pending_default <= total // 100
    _announce(f"gamma-weight coefficients certified negative on 90 cases, "
              f"m<=30; {pending_default}/{total} undecided at default "
              f"precision, 0 after one escalation")


def test_constant_weight_degeneracy_all_zero():
    reports = [run_case(c) for c in default_cases("binomial", 40)]
    assert len(reports) == 30
    for rep in reports:
        assert rep.verdict is Verdict.VERIFIED
        assert set(rep.per_index_sign) == {Sign.ZERO}
    _announce("constant weights give identically zero product-difference "
              "coefficients, m<=40, on 30 shift tuples")


def test_two_sided_ratio_bounds_certified():
    xs = [F(1, 4), F(1), F(4), F(16), F(50)]
    rep = verify_corollary_twosided(kummer_upper(F(3)), 1, 2, 1, xs)
    assert rep.verdict is Verdict.VERIFIED
    assert rep.within == [True] * 5
    assert rep.lower_bound.exact == F(1, 2)
    assert rep.approaches_lower and rep.rel_gap_at_top < 0.05
    _announce(f"shift ratio certified inside (1/2, 1) at 5 x values; "
              f"gap to 1/2 at x=50 is {rep.rel_gap_at_top:.2%}")


def test_transformation_residuals_default_grid():
    worst = 0.0
    for a, c, x in product(GRID_PARAMS, GRID_PARAMS, GRID_X_SIGNED):
        rep = check_kummer_transform(a, c, x)
        assert rep.overlap
        worst = max(worst, rep.residual)
    for i, a in enumerate(GRID_PARAMS):
        for b in GRID_PARAMS[i:]:
            for c, x in product(GRID_PARAMS, GRID_X_SIGNED):
                rep = check_euler_pfaff(a, b, c, x)
                assert rep.all_overlap
                worst = max(worst, rep.max_residual)
    assert worst < 1e-12
    _announce(f"600 transformation identity checks overlap with worst "
              f"relative residual {worst:.2e}")


def test_terminating_alternating_sums_positivity_and_link():
    checked = pole_skipped = 0
    for a, b, c, m in product((F(1, 2), F(1), F(2), F(3)),
                              (F(1, 2), F(1), F(2), F(3)),
                              (F(1), F(2)), (2, 3, 4, 5)):
        try:
            rep = check_4f3_coefficient_link(a, b, c, m)
        except PoleError:
            pole_skipped += 1
            continue
        assert rep.sign_matches_a_minus_b
        assert rep.phi_m == rep.factor * rep.sum_value
        checked += 1
    assert checked == 92 and pole_skipped == 36

    positive = skipped = 0
    small = (F(1, 2), F(1), F(2), F(3))
    for m in (2, 3, 4, 5, 6):
        for alpha, beta in product(small, small):
            if not alpha > beta:
                continue
            shapes = [([], [b1]) for b1 in (F(1, 2), F(1), F(2))]
            shapes += [([a1], [b1, b2]) for a1 in (F(1, 2), F(2))
                       for b1 in (F(1), F(2)) for b2 in (F(1, 2), F(3))]
            for a_list, b_list in shapes:
                try:
                    res = eval_qfq_sum(alpha, beta, a_list, b_list, m)
                except PoleError:
                    skipped += 1
                    continue
                if res.verdict is QfqVerdict.SKIPPED_HYPOTHESIS:
                    skipped += 1
                    continue
                assert res.verdict is QfqVerdict.POSITIVE
                positive += 1
    assert positive == 207
    _announce(f"alternating terminating sums: sign matches shift order on "
              f"{checked} tuples with exact coefficient link; {positive} "
              f"generalized sums all positive")


def test_chain_condition_wronskian_positivity_and_necessity():
    rng = random.Random(20260823)
    pool = [F(n, d) for n in (1, 2, 3, 5) for d in (1, 2, 4)]
    for _ in range(1000):
        deg = rng.randint(1, 6)
        b_coeffs = [rng.choice(pool) for _ in range(deg + 1)]
        mults = sorted(rng.choice(pool) for _ in range(deg + 1))
        a_coeffs = [bk * mk for bk, mk in zip(b_coeffs, mults)]
        A, B = PositivePolynomial(a_coeffs), PositivePolynomial(b_coeffs)
        kind = check_ratio_chain(A, B).kind
        assert kind in (ChainKind.INCREASING_CHAIN, ChainKind.BOTH)
        assert all(c >= 0 for c in wronskian_coeffs(A, B))

    w1 = necessity_witness(1)
    w2 = necessity_witness(2)
    assert len(w1) == 112 and len(w2) == 3128
    assert all(w.value < 0 and w.x > 0 for w in w1 + w2)
    _announce(f"wronskian coefficients nonnegative on 1000 random "
              f"chain-satisfying pairs; {len(w1)}+{len(w2)} exhaustive "
              f"violation witnesses at degrees 1-2")


def test_conjecture_scan_archived(tmp_path):
    """The 64-point scan matches its archive byte for byte.  After a
    deliberate change to explore's output, regenerate the archive from the
    repository root with

        PYTHONPATH=src python -m turankit.cli explore --points 64 --x-max 50 \\
            --out-csv reports/conjecture_scan.csv > /dev/null
    """
    archive = REPORTS / "conjecture_scan.csv"
    out_csv = tmp_path / "conjecture_scan.csv"
    out_json = tmp_path / "scan.json"
    code = main(["explore", "--points", "64", "--x-max", "50",
                 "--out-json", str(out_json), "--out-csv", str(out_csv)])
    assert code == 0
    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "Q_lo", "Q_hi", "bound_A",
                       "decided_monotone_step"]
    assert len(rows) == 65
    steps = [r[4] for r in rows[2:]]
    undecided = steps.count("undecided")
    assert "up" not in steps
    assert undecided <= len(steps) // 20
    assert out_csv.read_bytes() == archive.read_bytes()
    _announce(f"conjectured ratio monotone on 64-point scan: 0 certified "
              f"violations, {undecided}/{len(steps) + 1} undecided; "
              f"matches {archive.relative_to(REPORTS.parent)}")
