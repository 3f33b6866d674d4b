"""A fixed list of one-line mutants of the proof path, each with the tests
that must kill it.

For each mutant, a fresh copy of ``src/`` gets the one-line change, and
pytest runs the test ids listed beside it against that copy (the copy
comes first on PYTHONPATH, and ``turankit.__file__`` is checked to lie in
it).  The script exits 1 unless the listed ids pass on an unmutated copy
and pytest exits 1, tests failed, on every mutant.  A line that no longer
occurs exactly once in its file also fails the run, so the list follows
the code it guards.

Run from the repository root::

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CORO = "tests/test_verify.py::TestTamperedBounds"
EXPLORE = "tests/test_evalf.py::TestTamperedExplore"
QUOTIENT = "tests/test_series.py::TestGammaQuotient"
LARGE = "tests/test_cli.py::TestLargeShifts"

# (what the mutant does, file under src/turankit, the line's text, the
# mutated text, the test ids that must kill it)
MUTANTS = [
    ("a bound check's Q across 1 counts as within", "verify.py",
     "if lower.strictly_less(q) and q.strictly_less(one):",
     "if lower.strictly_less(q) and not one.strictly_less(q):", [CORO]),
    ("a bound check's Q across the lower bound counts as within", "verify.py",
     "if lower.strictly_less(q) and q.strictly_less(one):",
     "if not q.strictly_less(lower) and q.strictly_less(one):", [CORO]),
    ("a bound check's Q above 1 is no violation", "verify.py",
     "elif q.strictly_less(lower) or one.strictly_less(q):",
     "elif q.strictly_less(lower):", [CORO]),
    ("a bound check's certified violation is never reported", "verify.py",
     "if any(w is False for w in within):", "if False:", [CORO]),
    ("explore never counts a wrong-direction step", "evalf.py",
     "elif step is not expected:", "elif False:", [EXPLORE]),
    ("explore reads an undecided step as up", "evalf.py",
     "step = StepKind.UNDECIDED", "step = StepKind.UP", [EXPLORE]),
    ("Q over a negative step b - a is not inverted", "series.py",
     "return gamma_ratio(b, -n) / gamma_ratio(b + delta, -n)",
     "return gamma_ratio(b + delta, -n) / gamma_ratio(b, -n)", [QUOTIENT]),
    ("Q never takes the step b - a", "series.py",
     "if (min(a, b) <= 0 or delta < 0 or n.denominator != 1",
     "if (min(a, b) <= 0 or delta < 0 or True", [QUOTIENT]),
    ("every integer Gamma-ratio step is multiplied out", "intervals.py",
     "if delta.denominator == 1 and delta <= POCHHAMMER_STEPS:",
     "if delta.denominator == 1:",
     ["tests/test_intervals.py::TestGammaRatio::test_long_integer_step_is_enclosed"]),
    ("a relative gap past the float range raises", "verify.py",
     'rel_gap = float(gap) if gap <= sys.float_info.max else float("inf")',
     "rel_gap = float(gap)", [LARGE]),
]


def _copy(into: Path, mutant=None) -> Path:
    """A copy of src/ under ``into``, with the mutant's line changed."""
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        _, name, line, changed, _ = mutant
        path = src / "turankit" / name
        text = path.read_text()
        if text.count(line) != 1:
            sys.exit(f"{name}: {line!r} occurs {text.count(line)} times, not once")
        path.write_text(text.replace(line, changed))
    return src


def _pytest(src: Path, ids) -> int:
    """pytest's exit code on ``ids`` with the turankit of ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import turankit; print(turankit.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        sys.exit(f"turankit loads from {where}, not from {src}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
        env=env, cwd=ROOT, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        ids = sorted({i for *_, listed in MUTANTS for i in listed})
        code = _pytest(_copy(Path(tmp, "clean")), ids)
        if code:
            print(f"the listed tests exit {code} on the unmutated source")
            return 1
        for k, mutant in enumerate(MUTANTS):
            code = _pytest(_copy(Path(tmp, str(k)), mutant), mutant[-1])
            print(f"{'killed' if code == 1 else f'SURVIVED (exit {code})'}: {mutant[0]}")
            if code != 1:
                survivors.append(mutant[0])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
