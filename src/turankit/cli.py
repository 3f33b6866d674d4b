"""Command-line front end.

Two subcommands:

* ``verify``   run one theorem case or the default grids and emit a
  JSON report (plus an optional CSV of per-index coefficient signs);
* ``explore``  scan the conjectured monotone cross-ratio along an x grid
  and emit a JSON summary plus a plot-ready CSV.

Exit codes: 0 all cases verified (inconclusive cases produce a stderr
warning but still exit 0), 1 at least one certified violation, 2 bad
configuration.  Identical configuration produces a byte-identical JSON
report; worker-pool parallelism never reorders the output because reports
are assembled in input order.

``verify`` runs its sign cases grouped by shift point (``Case.shift_point``,
which reads ``series.shift_point`` off the case), so the weight rules of
one point run one after another and share one read of its half-range rows.
Chunks of whole groups run in this process, or in a process pool when the
run's kernel work (M^2 times the shifts' bits, summed over its shift
points) is large enough to pay for starting one, and the records return in
case order.  A record carries its CSV values lean: a sign case's per-index
signs as one string, a bound check's few (x, within) pairs.  The parent
writes the whole CSV from them in one pass.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter
from types import SimpleNamespace

from .errors import DomainError, TermCapError
from .evalf import default_log_grid, explore_conjecture
from .exact import parse_rational
from .intervals import get_precision, working_precision
from .verify import (DEFAULT_M, FAMILIES, THEOREM_FAMILIES, Case, SignReport,
                     Verdict, case_params, default_cases, run_case)

THEOREMS = (*THEOREM_FAMILIES, "all")
# flags that describe one explicit case
CASE_FLAGS = ("family", "a", "b", "delta", "c", "a0", "b0", "x_grid")
# the starts of a negative value, which argparse reads as an option
NEGATIVE = tuple("-" + ch for ch in ".0123456789")
# Input caps; a larger value exits 2.  The sign kernel's cost grows about
# as M^4 (its O(M^2) products are of integers that grow with M), and the
# smallest point of the geometric explore grid has a denominator of three
# bits per point, so both are bounded where a run still takes seconds.
# Each case runs in one process, so these are timed inline: --jobs never
# splits a case, and starts a pool only for a grid (see POOL_WORK).
# MAX_POINTS also caps the length of an explicit --x-grid.  The certified
# ln(Gamma) needs about half as many exact Bernoulli numbers as digits,
# whose cost grows steeply (0.1 s at 700 digits, 0.6 s at 1,400).  A check
# may retry at twice the precision, so the precision is capped where that
# retry stays well under a second.
MAX_M = 200
MAX_POINTS = 1024
MAX_PRECISION = 350
# The kernel's integers also grow with the shifts a, b, delta: with D their
# common denominator, its tables hold about M^2 times the bit length of the
# largest of D, aD, bD and delta D, and that product is capped.  At the cap
# the slowest case, a thm3 2f1-lower one, takes 3.4 s at M = 200 (26 bits)
# and 2.0 s at M = 40 (655 bits) on 2 vCPUs; 89 bits at M = 200 took 10.7 s.
MAX_KERNEL_BITS = 2 ** 20
# The kernel work, that size summed over a run's shift points, from which
# a pool pays; a run with less runs inline at any --jobs.  Starting a pool
# costs about 30 ms (importing concurrent.futures, forking the workers).
# On 2 vCPUs the default grids (work 319,800) and thm1 at M = 80
# (499,200) lose 20-40 ms pooled, thm1 and thm3 at M = 100
# (780,000) and "all" at M = 60 (842,400) break about even, and "all" at
# M = 80 (1,497,600) and thm1 at M = 140 (1,528,800) win 50-100 ms.
POOL_WORK = 2 ** 20


def _rational(text: str) -> Fraction:
    """An exact rational flag value (:func:`exact.parse_rational`)."""
    try:
        return parse_rational(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_x_grid(x_grid) -> None:
    if x_grid is not None and len(x_grid) > MAX_POINTS:
        raise DomainError(f"--x-grid has {len(x_grid)} values, above the cap "
                          f"of {MAX_POINTS}")


def _kernel_size(M: int, shifts) -> int:
    """M^2 times the bit length of the largest of D and each shift times D,
    D the shifts' common denominator: about the size of the sign kernel's
    tables at one shift point, and the measure of its work there."""
    D = math.lcm(*(s.denominator for s in shifts))
    return M * M * max(D, *(abs(s.numerator) * (D // s.denominator)
                            for s in shifts)).bit_length()


def _check_shift_size(args) -> None:
    """Refuse an explicit sign case whose shifts would make the kernel's
    tables larger than MAX_KERNEL_BITS."""
    shifts = [s for s in (args.a, args.b, args.delta) if s is not None]
    if args.theorem not in DEFAULT_M or not shifts:
        return
    M = DEFAULT_M[args.theorem] if args.M is None else args.M
    size = _kernel_size(M, shifts)
    if size > MAX_KERNEL_BITS:
        raise DomainError(f"--a, --b and --delta take {size // (M * M)} bits over "
                          f"their common denominator, above the cap of "
                          f"{MAX_KERNEL_BITS // (M * M)} at --M {M}")


def _precision(args) -> int:
    """The run's working precision, from --precision or else the
    environment, checked against 5 digits and MAX_PRECISION."""
    if args.precision is not None:
        source, precision = "--precision", args.precision
    else:
        source, precision = "TURANKIT_PRECISION", get_precision()
    if precision < 5:
        raise DomainError(f"working precision too small: {precision}")
    if precision > MAX_PRECISION:
        raise DomainError(f"{source} {precision} is above the cap of "
                          f"{MAX_PRECISION}")
    return precision


def _check_outputs(args) -> None:
    """Refuse an unwritable --out-json or --out-csv path, or one file for
    both, before any work."""
    paths = list(filter(None, (args.out_json, args.out_csv)))
    if len(paths) == 2 and len(set(map(os.path.realpath, paths))) == 1:
        raise DomainError(f"--out-json and --out-csv are one file: {paths[1]}")
    for path in paths:
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            raise DomainError(str(exc)) from exc
        if not existed:
            os.remove(path)


def _rational_list(text: str) -> list[Fraction]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty grid")
    return [_rational(t.strip()) for t in items]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="turankit")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run sign-theorem and bound checks")
    v.add_argument("--theorem", choices=THEOREMS, required=True)
    v.add_argument("--family", choices=tuple(FAMILIES))
    v.add_argument("--a", type=_rational, help="first shift")
    v.add_argument("--b", type=_rational, help="second shift")
    v.add_argument("--delta", type=_rational, help="shift increment")
    v.add_argument("--c", type=_rational,
                   help="denominator weight parameter (upper/gamma families)")
    v.add_argument("--a0", type=_rational,
                   help="denominator weight parameter (lower families)")
    v.add_argument("--b0", type=_rational,
                   help="numerator weight parameter (2f1 families)")
    v.add_argument("--M", type=int, help="truncation order")
    v.add_argument("--x-grid", type=_rational_list,
                   help="comma-separated x values for bound checks")
    v.add_argument("--grid", choices=("default",),
                   help="run the default parameter grids")
    v.add_argument("--tol", type=_rational,
                   help="evaluation tolerance of the corollary and turan checks")
    v.add_argument("--precision", type=int, help="working decimal digits")
    v.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per core and case; a "
                   "run with too little kernel work to pay for them runs inline")
    v.add_argument("--out-json")
    v.add_argument("--out-csv")

    e = sub.add_parser("explore", help="scan the conjectured monotone ratio")
    e.add_argument("--a", type=_rational, default=Fraction(1))
    e.add_argument("--b", type=_rational, default=Fraction(2))
    e.add_argument("--delta", type=_rational, default=Fraction(1))
    e.add_argument("--c", type=_rational, default=Fraction(3))
    e.add_argument("--branch", choices=("positive", "negative"),
                   help="half-line of the default grid (default: positive)")
    e.add_argument("--points", type=int, default=64)
    e.add_argument("--x-max", type=_rational, default=Fraction(50))
    e.add_argument("--x-grid", type=_rational_list,
                   help="explicit grid overriding --points/--x-max")
    e.add_argument("--tol", type=_rational)
    e.add_argument("--precision", type=int)
    e.add_argument("--out-json")
    e.add_argument("--out-csv")
    return p


# the CSV text of a sign.  Sign.value is an enum property, and a table
# keyed by Sign calls Enum.__hash__: each is a Python call per index.
# _value_, the member's documented value attribute, is read without one.
_sign_text = attrgetter("_value_")


def _run_case(case: Case, precision: int, tol) -> dict:
    """Worker entry: run one case and return a JSON-ready record.  Kept
    at module level so process pools can pickle it.  The record's "csv" is
    popped before the report is written: a sign case's per-index signs as
    one string (index m is the position in it), a bound check's (x, within)
    pairs as strings, and "" for a case without rows."""
    params = {k: str(v) for k, v in case.params.items()}
    record = {"theorem": case.theorem, "params": params,
              "first_violation": None, "csv": ""}
    try:
        with working_precision(precision):
            rep = run_case(case, tol)
    except TermCapError as exc:
        return {**record, "verdict": Verdict.INCONCLUSIVE.value,
                "details": {"family": case.family, "reason": str(exc)}}
    record["verdict"] = rep.verdict.value
    if isinstance(rep, SignReport):
        signs = "".join(map(_sign_text, rep.per_index_sign))
        record["first_violation"] = rep.first_violation
        record["details"] = {
            "family": case.family,
            "truncation_order": rep.truncation_order,
            "sign_counts": {s: signs.count(s) for s in dict.fromkeys(signs)},
            "mk_single_sign_change": rep.mk_single_sign_change,
            "mk_all_negative": rep.mk_all_negative,
            "escalated": rep.escalated,
            "inconclusive_before_escalation": rep.inconclusive_before_escalation,
            "reason": rep.reason,
        }
        record["csv"] = signs
        return record
    within = [w if w is None else bool(w) for w in rep.within]
    record["details"] = {
        "family": case.family,
        "x_grid": [str(x) for x in rep.x_grid],
        "within": within,
        "lower_bound": repr(float(rep.lower_bound.midpoint)),
        "rel_gap_at_top": rep.rel_gap_at_top,
        "approaches_lower": rep.approaches_lower,
        "reason": None,
    }
    record["csv"] = [(str(x), json.dumps(w)) for x, w in zip(rep.x_grid, within)]
    return record


def _run_chunk(cases: list[Case], precision: int, tol) -> list[dict]:
    """Worker entry: the records of a chunk of cases, in its order."""
    return [_run_case(case, precision, tol) for case in cases]


def _groups(cases: list[Case]) -> dict:
    """The case indices grouped by shift point, groups in the order they
    first appear and cases in theirs.  Each bound check is a group of its
    own, keyed by its index."""
    groups = {}
    for i, case in enumerate(cases):
        key = case.shift_point() if case.theorem in DEFAULT_M else i
        groups.setdefault(key, []).append(i)
    return groups


def _workers(jobs: int, cases: list[Case], groups: dict) -> int:
    """The pool size of a run, 1 to run inline: at most ``jobs``, one a
    usable core and one a case, and 1 while the kernel work summed over its
    shift points, the (family, a, b, delta, M) keys of ``groups``, is below
    POOL_WORK (a bound check, keyed by its index, does none)."""
    work = sum(_kernel_size(key[-1], key[1:-1]) for key in groups
               if isinstance(key, tuple))
    return min(jobs, _usable_cores(), len(cases)) if work >= POOL_WORK else 1


def _chunks(groups: dict, size: int) -> list[list[int]]:
    """The groups of :func:`_groups` in their order, cut into chunks of at
    least ``size`` cases (the last may be smaller) whose edges fall on
    group edges."""
    chunks = [[]]
    for group in groups.values():
        if len(chunks[-1]) >= size:
            chunks.append([])
        chunks[-1] += group
    return chunks


def _usable_cores() -> int:
    """The cores this process may run on, which under an affinity mask or
    a container's cpuset are fewer than the machine's."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _explicit_case(args) -> Case:
    """The one case the flags describe; every flag given must be used."""
    if args.family is None:
        raise DomainError("--family is required for an explicit case")
    names = case_params(args.theorem, args.family)
    for k in ("a", "b", "delta", "c", "a0", "b0"):
        if (getattr(args, k) is None) == (k in names):
            need = "required" if k in names else "not used"
            raise DomainError(f"--{k} is {need} for {args.theorem} "
                              f"on family {args.family}")
    return Case(args.theorem, args.family,
                {k: getattr(args, k) for k in names}, args.M, args.x_grid)


def _cases(args) -> list[Case]:
    given = [f for f in CASE_FLAGS if getattr(args, f) is not None]
    if args.theorem != "all" and args.grid is None and given:
        return [_explicit_case(args)]
    if given:
        flag = "--" + given[0].replace("_", "-")
        raise DomainError(f"{flag} describes one case and cannot be combined "
                          "with --grid default or --theorem all")
    return default_cases(args.theorem, args.M)


# the summary count each verdict adds to
COUNTED_AS = {v.value: v.value for v in Verdict}
COUNTED_AS[Verdict.VERIFIED_DEGENERATE.value] = Verdict.VERIFIED.value


def _csv_text(records: list, values: list) -> str:
    """The rows of verify's CSV under its header, each case's "csv" values
    after its head, in one pass.  csv.writer formats the
    ``case,theorem,params,`` head once a case, so any quoting is still its
    own; the ``index,sign`` text follows as it is, since no index (a decimal
    int or str(Fraction)) and no value (+ - 0 ? or true false null) needs
    quoting."""
    heads = []
    head = csv.writer(SimpleNamespace(write=heads.append), lineterminator=",")
    lines = []
    for i, (rec, vals) in enumerate(zip(records, values)):
        params = rec["params"]
        head.writerow([i, rec["theorem"],
                       ";".join(f"{k}={params[k]}" for k in sorted(params))])
        prefix = "".join(heads)
        heads.clear()
        lines += [f"{prefix}{m},{v}\n"
                  for m, v in (enumerate(vals) if isinstance(vals, str) else vals)]
    return "".join(lines)


def _publish(args, config: dict, records: list, header: list, rows: str) -> dict | None:
    """Write the JSON report to --out-json (else stdout) and the CSV header
    and rows to --out-csv if given, and return the summary; None, after an
    error message, when a file cannot be written.  ``rows`` is the CSV text
    that follows the header as it is."""
    summary = dict.fromkeys(COUNTED_AS.values(), 0)
    for rec in records:
        summary[COUNTED_AS[rec["verdict"]]] += 1
    blob = json.dumps(config, sort_keys=True).encode()
    report = {"run_id": hashlib.sha256(blob).hexdigest()[:12],
              "config_echo": config, "per_case": records, "summary": summary}
    try:
        out = open(args.out_json, "w") if args.out_json else nullcontext(sys.stdout)
        with out as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        if args.out_csv:
            with open(args.out_csv, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerow(header)
                fh.write(rows)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return summary


def cmd_verify(args) -> int:
    try:
        precision = _precision(args)
        if args.jobs < 1:
            raise DomainError("--jobs must be at least 1")
        if args.M is not None and args.M > MAX_M:
            raise DomainError(f"--M {args.M} is above the cap of {MAX_M}")
        _check_shift_size(args)
        _check_x_grid(args.x_grid)
        if args.M is not None and args.theorem in ("corollary", "turan") and all(
                getattr(args, f) is None for f in CASE_FLAGS):
            raise DomainError(f"--M is not used for {args.theorem}")
        cases = _cases(args)
        if args.tol is not None and all(c.theorem in DEFAULT_M for c in cases):
            raise DomainError(f"--tol is not used for {args.theorem}")
        _check_outputs(args)
        groups = _groups(cases)
        workers = _workers(args.jobs, cases, groups)
        # about four chunks a worker: fewer round trips to the parent
        chunks = _chunks(groups, -(-len(cases) // (4 * workers)))
        chunk_cases = ([cases[i] for i in chunk] for chunk in chunks)
        if workers > 1:
            # imported here: the pool machinery is a sizeable share of the
            # start-up of a run that never uses it
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=workers)
            run = pool.map
        else:
            pool, run = nullcontext(), map
        records = [None] * len(cases)
        values = [None] * len(cases)
        with pool:
            done = run(_run_chunk, chunk_cases, repeat(precision),
                       repeat(args.tol))
            for i, record in zip(chain.from_iterable(chunks),
                                 chain.from_iterable(done)):
                values[i] = record.pop("csv")
                records[i] = record
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    config = {
        "command": "verify", "theorem": args.theorem,
        "family": args.family, "grid": args.grid,
        "M": args.M, "tol": str(args.tol) if args.tol else None,
        "precision": precision, "jobs": args.jobs,
        "cases": len(cases),
    }
    rows = _csv_text(records, values) if args.out_csv else ""
    summary = _publish(args, config, records,
                       ["case", "theorem", "params", "index", "sign"], rows)
    if summary is None:
        return 2
    if summary["violated"]:
        return 1
    if summary["inconclusive"]:
        print(f"warning: {summary['inconclusive']} inconclusive case(s)",
              file=sys.stderr)
    return 0


def cmd_explore(args) -> int:
    try:
        precision = _precision(args)
        if args.points > MAX_POINTS:
            raise DomainError(f"--points {args.points} is above the cap of "
                              f"{MAX_POINTS}")
        _check_x_grid(args.x_grid)
        _check_outputs(args)
        with working_precision(precision):
            if args.x_grid is not None:
                xs = sorted(args.x_grid)
                other_side = {"positive": xs[-1] < 0, "negative": xs[0] > 0}
                if other_side.get(args.branch):
                    raise DomainError(f"--branch {args.branch} names the other "
                                      "half-line than the --x-grid points")
            else:
                xs = default_log_grid(args.points, args.x_max,
                                      negative=args.branch == "negative")
            rep = explore_conjecture(args.a, args.b, args.delta, args.c, xs,
                                     args.tol)
    except (DomainError, TermCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if rep.violations:
        verdict = Verdict.VIOLATED.value
    elif rep.steps and rep.undecided == len(rep.steps):
        verdict = Verdict.INCONCLUSIVE.value
    else:
        verdict = Verdict.VERIFIED.value
    params = {"a": str(args.a), "b": str(args.b), "delta": str(args.delta),
              "c": str(args.c)}
    config = {"command": "explore", "branch": rep.branch, "params": params,
              "points": len(xs), "x_max": str(args.x_max),
              "tol": str(args.tol) if args.tol else None,
              "precision": precision}
    per_case = [{
        "theorem": "conjecture", "params": params, "verdict": verdict,
        "first_violation": None,
        "details": {
            "branch": rep.branch, "violations": rep.violations,
            "undecided": rep.undecided, "steps": len(rep.steps),
            "gap_to_one": rep.gap_to_one, "gap_to_bound": rep.gap_to_bound,
            "reason": None,
        },
    }]
    bound_val = repr(float(rep.bound.midpoint))
    # float reprs and step names, which no CSV field needs quoted
    rows = "".join(f"{float(x)!r},{float(q.lo)!r},{float(q.hi)!r},{bound_val},"
                   f"{rep.steps[i - 1].value if i else ''}\n"
                   for i, (x, q) in enumerate(zip(rep.xs, rep.values)))
    header = ["x", "Q_lo", "Q_hi",
              "bound_A" if rep.branch == "positive" else "bound_B",
              "decided_monotone_step"]
    if _publish(args, config, per_case, header, rows) is None:
        return 2
    if rep.violations:
        return 1
    if rep.undecided:
        print(f"warning: {rep.undecided} undecided step(s)", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    # every option takes a value, so "--a -1/2" is read as "--a=-1/2"
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(1, len(argv))):
        flag = argv[i - 1]
        if flag[:2] == "--" and "=" not in flag and argv[i].startswith(NEGATIVE):
            argv[i - 1:i + 1] = [f"{flag}={argv[i]}"]
    args = build_parser().parse_args(argv)
    if args.tol is not None and args.tol <= 0:
        print(f"error: --tol must be positive, got {args.tol}", file=sys.stderr)
        return 2
    if args.command == "verify":
        return cmd_verify(args)
    return cmd_explore(args)


if __name__ == "__main__":
    sys.exit(main())
