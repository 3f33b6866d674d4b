"""Span wrappers around turankit's public functions.

A wrapper times one call and charges it to ``<module>.<function>``: a call
count and a self time, which is the span's duration minus the time covered
by the wrapped calls made inside it.  Modules bind each other's functions
at import time (``verify`` does ``from .series import mk_profile``), so a
function is replaced in every ``turankit`` module namespace that holds it,
not only in the module that defines it.

Pool workers are forked from the process that installed the wrappers and
leave through ``os._exit``, so nothing at exit runs in them.  A worker
therefore writes its cumulative counters to ``<flush_dir>/worker-<pid>.json``
after every top-level span, that is after every case it runs, and the
parent merges those files with :func:`merge_worker_files`.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import speed

# (module, function) pairs the traced run wraps, one group per layer.
TRACED = {
    "exact": ("poch_table", "pochhammer", "bernoulli"),
    "intervals": ("log_gamma", "gamma_ratio", "working_precision"),
    "series": ("mk_profile", "phi_coefficients", "lambda_coefficients",
               "psi_coefficients", "build_series", "gamma_quotient"),
    "evalf": ("eval_pfq", "eval_1f1", "cross_ratio", "check_kummer_transform",
              "check_euler_pfaff", "explore_conjecture"),
    "verify": ("verify_theorem1", "verify_theorem2", "verify_theorem3",
               "verify_corollary_twosided", "verify_turan"),
    "cli": ("main",),
}

# A context manager: its call count is the number of precision changes,
# and the time to build it is meaningless.
COUNT_ONLY = ("intervals.working_precision",)

# The public entry points that make up one case of the default grids.
CASE_ENTRY_POINTS = {"verify": TRACED["verify"]}


def _eval_pfq_counters(stats, result):
    stats["evalf.eval_pfq.terms"] += result.terms_used
    stats["evalf.eval_pfq.inconclusive"] += not result.conclusive


def _theorem2_counters(stats, result):
    stats["verify.verify_theorem2.escalated"] += result.escalated
    stats["verify.verify_theorem2.pending_before_escalation"] += (
        result.inconclusive_before_escalation)


RESULT_COUNTERS = {
    "evalf.eval_pfq": _eval_pfq_counters,
    "verify.verify_theorem2": _theorem2_counters,
}


class Tracer:
    """Per-process span statistics.  ``top_ms`` keeps the duration of each
    top-level span, which for the case entry points is one case's latency.
    With ``calibrate``, a speed sample may be taken before each top-level
    span, and ``top_cal`` holds the index of the sample each span follows."""

    def __init__(self, flush_dir: str | None = None, calibrate: bool = False):
        self.flush_dir = flush_dir
        self._calibrate = calibrate
        self._owner = os.getpid()
        self._poch_table = None
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        self.stats = defaultdict(float)
        self.top_ms: list[float] = []
        self.top_cal: list[int] = []
        self.calibrator = speed.Calibrator() if self._calibrate else None
        self._child_time: list[float] = []

    def install(self, layers: dict) -> None:
        """Wrap every listed function that exists; a function a later
        version of turankit no longer has simply reports zero calls."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "turankit" or name.startswith("turankit."))]
        for layer, names in layers.items():
            home = sys.modules.get(f"turankit.{layer}")
            for name in names:
                orig = getattr(home, name, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, key: str, fn):
        calls, self_ms = key + ".calls", key + ".self_ms"
        on_result = RESULT_COUNTERS.get(key)
        is_verify = key.startswith("verify.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._child_time
            if not stack and self.calibrator is not None:
                self.top_cal.append(self.calibrator.tick())
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if is_verify:
                    self.stats["verify.errors"] += 1
                raise
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.stats[calls] += 1
                self.stats[self_ms] += (dt - child) * 1000.0
                if stack:
                    stack[-1] += dt
                else:
                    self._top_level_done(dt)
            if on_result is not None:
                on_result(self.stats, result)
            return result

        if hasattr(fn, "cache_info"):
            # poch_table and bernoulli stay usable as the lru_caches they wrap
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        if key == "exact.poch_table":
            self._poch_table = fn
        return wrapper

    def _top_level_done(self, dt: float) -> None:
        self.top_ms.append(dt * 1000.0)
        if self.flush_dir is not None and os.getpid() != self._owner:
            self.stats["cli.pool.busy_ms"] += dt * 1000.0
            self.flush()

    def cache_counts(self) -> tuple[int, int]:
        fn = self._poch_table
        if fn is None:
            return 0, 0
        info = fn.cache_info()
        return info.hits, info.misses

    def snapshot(self) -> dict:
        hits, misses = self.cache_counts()
        return {"stats": dict(self.stats), "top_ms": list(self.top_ms),
                "top_cal": list(self.top_cal),
                "cal": self.calibrator.samples if self.calibrator else [],
                "poch_hits": hits, "poch_misses": misses}

    def flush(self) -> None:
        path = os.path.join(self.flush_dir, f"worker-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(tmp, path)


def merge_worker_files(flush_dir: str) -> list[dict]:
    """The last snapshot each pool worker wrote."""
    out = []
    for name in sorted(os.listdir(flush_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            with open(os.path.join(flush_dir, name)) as fh:
                out.append(json.load(fh))
    return out
