"""The benchmark's workloads, as lists of items made from a seed.

An item is one call into turankit's public API.  The grids below are the
benchmark's own copy of the command line's default grids, so the workload
stays the same when the program reorganises where it keeps them.

* ``sign_grids``: the 423 cases of ``turankit verify --theorem all --grid
  default``, one ``verify_*`` call each, in the command line's order.
* ``certified_eval``: the 600 transformation checks of the acceptance test
  and the 64-point positive conjecture scan, in the test's order.
* ``fresh_params``: 200 cases on rationals drawn from the seed, none
  repeated, at larger M and x than the default grids.
* ``cli_pool``: ``turankit verify --theorem all --grid default --jobs J``
  and ``turankit explore`` through ``turankit.cli.main``.

Only ``fresh_params`` uses the seed; the other workloads are fixed grids.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import product

import turankit

SIGN_THEOREMS = ("thm1", "thm2", "thm3", "binomial")

# the command line's default grids
GRID_SHIFTS = (F(1, 2), F(1), F(3, 2), F(2), F(3))
GRID_DELTAS = (F(1, 2), F(1), F(2))
GRID_C_1F1 = (F(1), F(2), F(3))
GRID_2F1_UPPER = ((F(2), F(1)), (F(1), F(2)))        # (b0, c)
GRID_A0_1F1 = (F(1, 2), F(1), F(2))
GRID_2F1_LOWER = ((F(1, 2), F(2)), (F(1), F(3)))     # (a0, b0)
GRID_X_POS = (F(1, 4), F(1), F(4), F(16), F(50))
DEFAULT_M = {"thm1": 40, "thm2": 30, "thm3": 40, "binomial": 40,
             "corollary": 40, "turan": 40}

# the acceptance test's transformation grid and conjecture scan
TRANSFORM_PARAMS = (F(1, 2), F(1), F(3, 2), F(2), F(3))
TRANSFORM_X = tuple(F(s, 4) * sgn for s in (1, 2, 3) for sgn in (1, -1))
SCAN = {"a": F(1), "b": F(2), "delta": F(1), "c": F(3)}
SCAN_POINTS, SCAN_X_MAX = 64, F(50)

# fresh_params: case counts, truncation orders and parameter ranges
FRESH_COUNTS = {"thm1": 40, "thm2": 60, "thm3": 40, "corollary": 60}
FRESH_M = {"thm1": 60, "thm2": 30, "thm3": 60, "corollary": 40}
FRESH_MAX_DEN = 12
FRESH_SHIFT_MAX, FRESH_DELTA_MAX, FRESH_WEIGHT_MAX, FRESH_X_MAX = 4, 3, 4, 200


def spec_for(family: str, params: dict, M: int):
    if family == "1f1-upper":
        return turankit.kummer_upper(params["c"], M)
    if family == "1f1-gamma":
        return turankit.kummer_gamma(params["c"], M)
    if family == "1f1-lower":
        return turankit.kummer_lower(params["a0"], M)
    if family == "2f1-upper":
        return turankit.gauss_upper(params["b0"], params["c"], M)
    if family == "2f1-lower":
        return turankit.gauss_lower(params["a0"], params["b0"], M)
    if family == "binomial":
        return turankit.binomial_upper(M)
    raise ValueError(f"unknown family {family!r}")


@dataclass
class Item:
    """One public call.  ``theorem`` names the checker (or ``kummer``,
    ``euler_pfaff``, ``scan``); ``params`` holds exact rationals."""

    theorem: str
    family: str | None
    params: dict
    M: int | None = None
    xs: tuple = ()
    predicted: bool = False          # checked against the theorems, not a stored reference

    @property
    def key(self) -> str:
        """Same identity the command line's JSON report gives a case."""
        parts = [self.theorem, self.family or "-"]
        parts += [f"{k}={self.params[k]}" for k in sorted(self.params)]
        if self.theorem in ("kummer", "euler_pfaff"):
            parts.append(f"x={self.xs[0]}")
        return "|".join(parts)

    def bind(self):
        """A zero-argument call, with every argument built beforehand so
        that only the checker itself is timed."""
        p, t = self.params, self.theorem
        if t in SIGN_THEOREMS:
            spec = spec_for(self.family, p, self.M)
            fn = {"thm1": "verify_theorem1", "binomial": "verify_theorem1",
                  "thm2": "verify_theorem2", "thm3": "verify_theorem3"}[t]
            return lambda: getattr(turankit, fn)(spec, p["a"], p["b"],
                                                 p["delta"], self.M)
        if t == "corollary":
            spec = spec_for(self.family, p, self.M)
            return lambda: turankit.verify_corollary_twosided(
                spec, p["a"], p["b"], p["delta"], list(self.xs))
        if t == "turan":
            spec = spec_for(self.family, p, self.M)
            return lambda: turankit.verify_turan(spec, p["a"], p["delta"],
                                                 list(self.xs))
        if t == "kummer":
            x = self.xs[0]
            return lambda: turankit.check_kummer_transform(p["a"], p["c"], x)
        if t == "euler_pfaff":
            x = self.xs[0]
            return lambda: turankit.check_euler_pfaff(p["a"], p["b"], p["c"], x)
        if t == "scan":
            xs = list(self.xs)
            return lambda: turankit.explore_conjecture(
                p["a"], p["b"], p["delta"], p["c"], xs)
        raise ValueError(f"unknown item kind {t!r}")


def _shift_pairs():
    return [(a, b) for a in GRID_SHIFTS for b in GRID_SHIFTS if b > a]


def default_grid_items() -> list[Item]:
    """The 423 cases of ``verify --theorem all --grid default``, in the
    command line's order."""
    fams = {
        "thm1": [("1f1-upper", {"c": c}) for c in GRID_C_1F1]
                + [("2f1-upper", {"b0": b0, "c": c}) for b0, c in GRID_2F1_UPPER],
        "thm2": [("1f1-gamma", {"c": c}) for c in GRID_C_1F1],
        "thm3": [("1f1-lower", {"a0": a0}) for a0 in GRID_A0_1F1]
                + [("2f1-lower", {"a0": a0, "b0": b0}) for a0, b0 in GRID_2F1_LOWER],
        "binomial": [("binomial", {})],
    }
    items = []
    for theorem in SIGN_THEOREMS:
        for family, weights in fams[theorem]:
            for (a, b), d in product(_shift_pairs(), GRID_DELTAS):
                items.append(Item(theorem, family,
                                  {"a": a, "b": b, "delta": d, **weights},
                                  M=DEFAULT_M[theorem]))
    items.append(Item("corollary", "1f1-upper",
                      {"a": F(1), "b": F(2), "delta": F(1), "c": F(3)},
                      M=DEFAULT_M["corollary"], xs=GRID_X_POS))
    items.append(Item("turan", "1f1-upper", {"a": F(1), "delta": F(1), "c": F(3)},
                      M=DEFAULT_M["turan"], xs=GRID_X_POS))
    items.append(Item("turan", "1f1-upper", {"a": F(2), "delta": F(1), "c": F(5)},
                      M=DEFAULT_M["turan"], xs=(F(3),)))
    return items


def scan_item() -> Item:
    xs = tuple(turankit.default_log_grid(SCAN_POINTS, SCAN_X_MAX))
    return Item("scan", "1f1-upper", dict(SCAN), xs=xs)


def certified_items() -> list[Item]:
    items = [Item("kummer", None, {"a": a, "c": c}, xs=(x,))
             for a, c, x in product(TRANSFORM_PARAMS, TRANSFORM_PARAMS,
                                    TRANSFORM_X)]
    for i, a in enumerate(TRANSFORM_PARAMS):
        for b in TRANSFORM_PARAMS[i:]:
            for c, x in product(TRANSFORM_PARAMS, TRANSFORM_X):
                items.append(Item("euler_pfaff", None, {"a": a, "b": b, "c": c},
                                  xs=(x,)))
    items.append(scan_item())
    return items


class _Draw:
    """Positive rationals with denominators up to FRESH_MAX_DEN, drawn as
    Latin hypercube columns.  The parameters of one case share a
    denominator, and the cases' denominators cycle through
    1..FRESH_MAX_DEN; a column of n values has one value in each of n
    equal slices of (0, top], in random order.  Every seed thus spreads its
    cases over the same denominators, sizes and x, and the work of a pass
    changes little from seed to seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def rational(self, top, q: int) -> F:
        return F(self.rng.randint(1, top * q), q)

    def denominators(self, count: int) -> list[int]:
        dens = [1 + k % FRESH_MAX_DEN for k in range(count)]
        self.rng.shuffle(dens)
        return dens

    def column(self, top, dens: list[int]) -> list[F]:
        n = len(dens)
        slices = list(range(n))
        self.rng.shuffle(slices)
        out = []
        for k, q in zip(slices, dens):
            lo, hi = top * q * k // n, top * q * (k + 1) // n
            out.append(F(self.rng.randint(lo + 1, max(lo + 1, hi)), q))
        return out


FRESH_PLAN = (("thm1", ("1f1-upper", "2f1-upper")),
              ("thm2", ("1f1-gamma",)),
              ("thm3", ("1f1-lower", "2f1-lower")),
              ("corollary", ("1f1-upper",)))
WEIGHT_NAMES = {"1f1-upper": ("c",), "1f1-gamma": ("c",), "1f1-lower": ("a0",),
                "2f1-upper": ("b0", "c"), "2f1-lower": ("a0", "b0")}


def fresh_items(seed: int) -> list[Item]:
    """Cases on parameters drawn from ``seed``, none repeated; each is
    checked against the outcome the theorems predict."""
    draw = _Draw(seed)
    seen: set[str] = set()
    items: list[Item] = []
    for theorem, families in FRESH_PLAN:
        dens = draw.denominators(FRESH_COUNTS[theorem])
        cols = [draw.column(top, dens) for top in (
            FRESH_SHIFT_MAX, FRESH_SHIFT_MAX, FRESH_DELTA_MAX,
            FRESH_WEIGHT_MAX, FRESH_WEIGHT_MAX, FRESH_X_MAX)]
        for i, (q, a, b, delta, w1, w2, x) in enumerate(zip(dens, *cols)):
            family = families[i % len(families)]
            while True:
                # a != b, and b0 != c keeps 2F1 weight ratios strictly monotone
                if theorem == "corollary":
                    a, b = sorted((a, b))
                params = {"a": a, "b": b, "delta": delta,
                          **dict(zip(WEIGHT_NAMES[family], (w1, w2)))}
                item = Item(theorem, family, params, M=FRESH_M[theorem],
                            xs=(x,) if theorem == "corollary" else (),
                            predicted=True)
                if a != b and w1 != w2 and item.key not in seen:
                    break
                b = draw.rational(FRESH_SHIFT_MAX, q)
                w2 = draw.rational(FRESH_WEIGHT_MAX, q)
            seen.add(item.key)
            items.append(item)
    draw.rng.shuffle(items)
    return items


def build(workload: str, seed: int) -> list[Item]:
    """Items of an item-timed workload, in the order they run.  The default
    grids keep the command line's and the acceptance test's order, so the
    seed only matters to ``fresh_params``."""
    if workload == "sign_grids":
        return default_grid_items()
    if workload == "certified_eval":
        return certified_items()
    if workload == "fresh_params":
        return fresh_items(seed)
    raise ValueError(f"{workload!r} is not an item-timed workload")
