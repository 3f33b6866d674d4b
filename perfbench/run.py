"""turankit benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload sign_grids --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from anywhere; it uses the ``src/`` tree next to this directory and
fails with exit code 2 when there is none.  Every pass of the workload runs
in a fresh interpreter (``passrun.py``), one after the other, until
``--seconds`` have been measured; each pass starts with cold caches, as
every ``turankit`` command does.  Set-up time is measured in each pass and
in a few extra interpreters that only set up.  Times are scaled to one
reference CPU speed (``speed.py``).  Scratch files, the command
line's reports among them, go to ``.bench_tmp/`` in the checkout and are
removed at the end.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of traced passes, which alternate with untraced ones so that the tracing
overhead can be reported.  The lines before it print every metric with its
unit, the correctness counts and the environment.  The exit code is 1 when
an item raised or came out wrong, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spans import COUNT_ONLY, TRACED  # noqa: E402

WORKLOADS = ("sign_grids", "certified_eval", "fresh_params", "cli_pool")
SETUP_PROBES = 6          # set-up-only interpreters per run, besides the passes
RUN_LIMIT_S = 170         # a workload's run ends within this, even if a pass hangs
IMPORT_MODULES = ("turankit", "turankit.errors", "turankit.exact",
                  "turankit.intervals", "turankit.series", "turankit.evalf",
                  "turankit.finite_sums", "turankit.lemmas", "turankit.verify",
                  "turankit.cli")


def _per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for layer, names in TRACED.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count", "lower"))
            if f"{layer}.{name}" not in COUNT_ONLY:
                out.append((f"{layer}.{name}.self_ms", "ms", "lower"))
    out += [("exact.poch_table.hit_ratio", "ratio", "higher"),
            ("evalf.eval_pfq.terms", "count", "lower"),
            ("evalf.eval_pfq.inconclusive", "count", "lower"),
            ("verify.verify_theorem2.escalated", "count", "lower"),
            ("verify.verify_theorem2.pending_before_escalation", "count", "lower"),
            ("verify.errors", "count", "lower"),
            ("cli.main.wall_ms", "ms", "lower"),
            ("cli.pool.busy_ms", "ms", "lower"),
            ("cli.pool.idle_share", "ratio", "lower"),
            ("import.mpmath.ms", "ms", "lower"),
            ("import.turankit.ms", "ms", "lower")]
    out += [(f"import.{m}.self_ms", "ms", "lower") for m in IMPORT_MODULES]
    out += [("trace.overhead_ms", "ms", "lower"),
            ("trace.overhead_share", "ratio", "lower")]
    return out


PER_LAYER = _per_layer_metrics()


class BenchError(Exception):
    """The benchmark could not run; nothing is reported."""


def _child_env(scratch: str) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "TURANKIT_PRECISION", "PYTHONSTARTUP")}
    env.update(PYTHONPATH=SRC, PERFBENCH_SRC=SRC, TMPDIR=scratch)
    return env


def _spawn(scratch: str, deadline: float, args: list[str],
           python_flags=()) -> tuple[dict, float, str]:
    """Run passrun.py in a new interpreter inside its own scratch directory;
    return its result, its set-up time and its stderr."""
    work = tempfile.mkdtemp(dir=scratch)
    out = os.path.join(work, "result.json")
    cmd = [sys.executable, *python_flags, os.path.join(HERE, "passrun.py"), out, *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=work, env=_child_env(scratch),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {args} did not finish within {RUN_LIMIT_S} s "
                         "of the run's start") from exc
    if proc.returncode != 0:
        raise BenchError(f"pass {args} exited with {proc.returncode}:\n"
                         + proc.stderr[-3000:])
    with open(out) as fh:
        result = json.load(fh)
    shutil.rmtree(work)
    return result, result["setup_done"] - started, proc.stderr


def _import_times(stderr: str) -> dict:
    """Per-module import times from ``python -X importtime``: cumulative
    for mpmath and the package, self time for each turankit module."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = (f.strip() for f in line[12:].split("|"))
        if not self_us.isdigit():
            continue
        if name in ("mpmath", "turankit"):
            out[f"import.{name}.ms"] = int(cumulative_us) / 1000.0
        if name in IMPORT_MODULES:
            out[f"import.{name}.self_ms"] = int(self_us) / 1000.0
    return out


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q * len(ordered) + 0.5)))
    return ordered[rank - 1]


def _jobs() -> int:
    return min(2, os.cpu_count() or 1)


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "turankit", "__init__.py")):
        raise BenchError(f"no turankit sources under {SRC}")
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        return _measure(workload, seed, seconds, trace, scratch,
                        time.monotonic() + RUN_LIMIT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_tmp"))
        except OSError:
            pass  # another run still uses it


def _measure(workload, seed, seconds, trace, scratch, deadline) -> dict:
    # the first interpreter also writes the bytecode caches; it is not counted
    _spawn(scratch, deadline, ["probe"])
    setups, imports = [], []
    for _ in range(SETUP_PROBES):
        if trace:
            _, _, err = _spawn(scratch, deadline, ["probe"], ("-X", "importtime"))
            imports.append(_import_times(err))
        else:
            res, setup, _ = _spawn(scratch, deadline, ["probe"])
            setups.append((setup, setup * res["setup_scale"]))

    plain, traced = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        now = time.monotonic()
        # a median needs two untraced passes; a traced run needs one of each
        done = now - start >= seconds and (len(plain) >= 2 or traced)
        if done or now + longest > deadline:
            break
        # in a traced run, untraced and traced passes alternate
        use_trace = trace and len(traced) < len(plain)
        res, setup, _ = _spawn(scratch, deadline, [workload, str(seed),
                                                   str(int(use_trace)), str(_jobs())])
        longest = max(longest, time.monotonic() - now)
        (traced if use_trace else plain).append(res)
        setups.append((setup, setup * res["setup_scale"]))
    if not plain or (trace and not traced):
        raise BenchError(f"no complete pass within {RUN_LIMIT_S} s")
    return _summarise(workload, plain, traced, setups, imports)


def _summarise(workload, plain, traced, setups, imports) -> dict:
    passes = plain + traced
    attempted = sum(p["items"] for p in passes)
    errors = sum(p["errors"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    latencies = [ms for p in plain for ms in p["latency_ms"]]
    beyond = len(latencies) - round(0.95 * len(latencies))
    summary = {
        "workload": workload, "passes": len(plain), "traced_passes": len(traced),
        "items_per_pass": plain[0]["items"], "attempted": attempted,
        "failed": errors + wrong,
        "wrong_keys": sorted({k for p in passes for k in p["wrong_keys"]})[:10],
        "end_to_end": {
            "setup_s": (statistics.median(s for _, s in setups), "s",
                        f"median of {len(setups)} set-ups; unscaled "
                        f"{statistics.median(r for r, _ in setups):.4g}"),
            "items_per_s": (statistics.median(p["items"] / p["scaled_s"] for p in plain),
                            "items/s", f"median of {len(plain)} passes; unscaled "
                            f"{statistics.median(p['items'] / p['wall_s'] for p in plain):.4g}"),
            "item_ms_p50": (statistics.median(latencies), "ms",
                            f"{len(latencies)} samples"),
            "item_ms_p95": (_quantile(latencies, 0.95), "ms",
                            f"{len(latencies)} samples, {beyond} beyond"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain),
                            "MB", f"median of {len(plain)} passes"),
        },
        # zero at the reference commit, so they set `correct`, not metrics
        "checks": {
            "error_rate": (errors / attempted, "ratio", f"{errors} of {attempted} items"),
            "inconclusive_items": (statistics.median(p["inconclusive"] for p in passes),
                                   "count", "per pass"),
            "wrong_items": (wrong, "count", f"over {len(passes)} passes"),
        },
    }
    if traced:
        values, shares = _per_layer(workload, plain, traced, imports)
        summary["per_layer"] = {name: (values[name], unit, "")
                                for name, unit, _ in PER_LAYER}
        summary["layer_shares"] = shares
    return summary


def _traced_row(workload: str, p: dict) -> tuple[dict, dict]:
    """Per-layer values of one traced pass, pool workers included, and
    each layer's share of the summed self time."""
    snaps = [p["trace"]] + p.get("workers", [])
    stats: dict[str, float] = {}
    for snap in snaps:
        for k, v in snap["stats"].items():
            stats[k] = stats.get(k, 0.0) + v
    hits = sum(s["poch_hits"] for s in snaps)
    misses = sum(s["poch_misses"] for s in snaps)
    row = {name: stats.get(name, 0.0) for name, _, _ in PER_LAYER}
    row["exact.poch_table.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    if workload == "cli_pool":
        row["cli.main.wall_ms"] = p["wall_s"] * 1000.0
        if p["jobs"] > 1:
            capacity = p["jobs"] * p["verify_wall_s"] * 1000.0
            row["cli.pool.idle_share"] = 1.0 - row["cli.pool.busy_ms"] / capacity
    layer_ms = {layer: sum(v for k, v in stats.items()
                           if k.startswith(layer + ".") and k.endswith(".self_ms"))
                for layer in TRACED}
    total = sum(layer_ms.values()) or 1.0
    return row, {layer: ms / total for layer, ms in layer_ms.items()}


def _per_layer(workload, plain, traced, imports) -> tuple[dict, dict]:
    """Medians over the traced passes; every metric is reported, also
    where the workload never reaches it."""
    rows, shares = zip(*(_traced_row(workload, p) for p in traced))
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    for k in out:
        if k.startswith("import."):
            out[k] = statistics.median(i.get(k, 0.0) for i in imports)
    traced_ms = statistics.median(p["scaled_s"] for p in traced) * 1000.0
    untraced_ms = statistics.median(p["scaled_s"] for p in plain) * 1000.0
    out["trace.overhead_ms"] = traced_ms - untraced_ms
    out["trace.overhead_share"] = traced_ms / untraced_ms - 1.0
    return out, {k: statistics.median(s[k] for s in shares) for k in shares[0]}


def environment(seed: int) -> dict:
    import mpmath

    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "commit": _commit(), "src_sha256": _src_digest(), "seed": seed}


def _commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    checkout need not be a repository)."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "turankit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _print_summary(s: dict) -> None:
    print(f"workload {s['workload']}: {s['passes']} untraced and "
          f"{s['traced_passes']} traced passes of {s['items_per_pass']} items")
    for section in ("end_to_end", "checks", "per_layer"):
        for name, (value, unit, note) in s.get(section, {}).items():
            print(f"  {name:<52} {value:>14.6g} {unit:<8} {note}")
    for layer, share in s.get("layer_shares", {}).items():
        print(f"  share of traced self time: {layer:<10} {share:6.1%}")
    if s["wrong_keys"]:
        print(f"  wrong items include: {', '.join(s['wrong_keys'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    section = "per_layer" if args.trace else "end_to_end"
    try:
        summaries = [run_workload(w, args.seed, args.seconds, bool(args.trace))
                     for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    for s in summaries:
        _print_summary(s)
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))

    metrics = {}
    for s in summaries:
        prefix = s["workload"] + "." if len(summaries) > 1 else ""
        for name, (value, unit, _) in s[section].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(s["attempted"] for s in summaries),
                      "failed": failed, "metrics": metrics}))
    if failed:
        print(f"benchmark: {failed} item(s) raised or came out wrong",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
