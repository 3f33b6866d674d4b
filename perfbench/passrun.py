"""One pass of a workload in a fresh interpreter, so every cache starts cold.

Usage (from ``run.py``, with ``PYTHONPATH`` set to the checkout's ``src``):

    python3 perfbench/passrun.py OUT.json probe
    python3 perfbench/passrun.py OUT.json WORKLOAD SEED TRACE JOBS

The first statements import turankit and build the command-line parser,
which is the set-up every ``turankit`` command pays; the monotonic clock
reading taken right after is compared with the parent's reading before it
started this process.  Everything else is imported afterwards.
"""

import time

import turankit.cli

turankit.cli.build_parser()
SETUP_DONE = time.monotonic()

import csv  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import check  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import CASE_ENTRY_POINTS, TRACED, Tracer, merge_worker_files  # noqa: E402


def _peak_rss_mb() -> float:
    """Largest RSS of this process and of any pool worker it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run_items(workload: str, seed: int) -> dict:
    items = workloads.build(workload, seed)
    calls = [item.bind() for item in items]
    cal = speed.Calibrator()
    results, latencies, samples, errors = [], [], [], 0
    t0 = time.perf_counter()
    for call in calls:
        samples.append(cal.tick())
        t = time.perf_counter()
        try:
            results.append(call())
        except Exception as exc:  # an item that raises is an error, not a crash
            results.append(exc)
            errors += 1
        latencies.append((time.perf_counter() - t) * 1000.0)
    wall = time.perf_counter() - t0 - cal.spent_s
    rss = _peak_rss_mb()
    scaled = [ms * speed.local_scale(cal.samples, j)
              for ms, j in zip(latencies, samples)]
    verdicts = check.check_items(workload, items, results, check.load_reference())
    return {"items": len(items), "wall_s": wall, "scaled_s": sum(scaled) / 1000.0,
            "latency_ms": scaled, "errors": errors, "peak_rss_mb": rss, **verdicts}


def _scaled_cases(snaps: list[dict]) -> tuple[list[float], float]:
    """Case latencies scaled by the speed samples their process took, and
    the scale of the whole pool."""
    cases, samples = [], []
    for snap in snaps:
        samples += snap["cal"]
        cases += [ms * speed.local_scale(snap["cal"], j)
                  for ms, j in zip(snap["top_ms"], snap["top_cal"])]
    return cases, speed.scale(samples)


def run_cli(jobs: int, tracer: Tracer) -> dict:
    """``verify --grid default --jobs J`` then ``explore``; outputs go to the
    working directory, which ``run.py`` makes a scratch directory."""
    verify_args = ["verify", "--theorem", "all", "--grid", "default",
                   "--jobs", str(jobs), "--out-json", "verify.json",
                   "--out-csv", "verify.csv"]
    explore_args = ["explore", "--points", str(workloads.SCAN_POINTS),
                    "--x-max", str(workloads.SCAN_X_MAX),
                    "--out-json", "scan.json", "--out-csv", "scan.csv"]
    main = turankit.cli.main   # looked up after the tracer replaced it
    cal = speed.Calibrator()
    t0 = time.perf_counter()
    verify_code = main(verify_args)
    verify_s = time.perf_counter() - t0
    cal.burst(speed.SETUP_SAMPLES)
    t1 = time.perf_counter()
    explore_code = main(explore_args)
    explore_s = time.perf_counter() - t1
    cal.burst(speed.SETUP_SAMPLES)
    rss = _peak_rss_mb()

    workers = merge_worker_files(tracer.flush_dir)
    # without a pool (one core) the cases ran in this process
    case_ms, pool_scale = _scaled_cases(workers or [tracer.snapshot()])
    explore_scale = speed.scale(cal.samples)
    with open("verify.json") as fh:
        report = json.load(fh)
    with open("verify.csv", newline="") as fh:
        csv_rows = list(csv.reader(fh))[1:]
    with open("scan.csv", newline="") as fh:
        scan_rows = list(csv.reader(fh))
    cases = len(report["per_case"])
    verdicts = check.check_cli(report, csv_rows, scan_rows, check.load_reference())
    errors = (verify_code == 2) * cases + (explore_code == 2)
    return {"items": cases + 1, "wall_s": verify_s + explore_s,
            "verify_wall_s": verify_s,
            "scaled_s": verify_s * pool_scale + explore_s * explore_scale,
            "latency_ms": case_ms + [explore_s * explore_scale * 1000.0],
            "errors": errors, "peak_rss_mb": rss, "workers": workers, **verdicts}


def main(argv: list[str]) -> int:
    out_path, mode = argv[0], argv[1]
    src = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(turankit.__file__).startswith(src + os.sep):
        print(f"turankit was imported from {turankit.__file__}, not {src}",
              file=sys.stderr)
        return 2
    result = {"setup_done": SETUP_DONE,
              "setup_scale": speed.Calibrator().burst(speed.SETUP_SAMPLES)}
    if mode != "probe":
        workload, seed, trace, jobs = mode, int(argv[2]), argv[3] == "1", int(argv[4])
        if workload == "cli_pool":
            tracer = Tracer(flush_dir=os.getcwd(), calibrate=True)
            tracer.install(TRACED if trace else CASE_ENTRY_POINTS)
            result.update(run_cli(jobs, tracer))
            result["jobs"] = jobs
        else:
            tracer = Tracer()
            if trace:
                tracer.install(TRACED)
            result.update(run_items(workload, seed))
        if trace:
            result["trace"] = tracer.snapshot()
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
