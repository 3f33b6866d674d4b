"""CLI contract: flag parsing, JSON/CSV shapes, determinism across reruns
and worker counts, and the exit-code mapping."""

import concurrent.futures
import csv
import dataclasses
import io
import json
import multiprocessing
import os
import pickle
import shutil
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import turankit.cli as cli_mod
from turankit import series as series_module
from turankit import verify as verify_module
from turankit.cli import build_parser, main
from turankit.errors import TermCapError
from turankit.intervals import get_precision, working_precision
from turankit.series import Family
from turankit.verify import DEFAULT_M, Case, default_cases, run_case


def run_cli(argv, tmp_path, name="out"):
    out = tmp_path / f"{name}.json"
    code = main(argv + ["--out-json", str(out)])
    return code, json.loads(out.read_text()), out.read_bytes()


SINGLE = ["verify", "--theorem", "thm1", "--family", "1f1-upper",
          "--c", "3", "--a", "1", "--b", "2", "--delta", "1/2", "--M", "40"]
ALL_GRID = ["verify", "--theorem", "all", "--grid", "default"]


@pytest.fixture
def recording_pool(monkeypatch):
    """The process pool replaced by one that records its size and the
    chunks of cases it is sent, and runs them inline."""
    seen = SimpleNamespace(sizes=[], chunks=[])

    class RecordingPool:
        def __init__(self, max_workers):
            seen.sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            calls = list(zip(*iterables))
            seen.chunks += [call[0] for call in calls]
            return [fn(*call) for call in calls]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return seen


def _no_work(*args, **kwargs):
    raise AssertionError("a refused input must exit before any work")


@pytest.fixture
def no_work(monkeypatch):
    """The CLI with case expansion, case runs and the explore scan made to
    fail, so that a check that passes shows nothing ran."""
    for name in ("_cases", "_run_case", "default_log_grid",
                 "explore_conjecture"):
        monkeypatch.setattr(cli_mod, name, _no_work)
    return cli_mod


def _shift_point(case):
    """The shift point of a sign case, by which the CLI groups it."""
    p = case.params
    return series_module.shift_point(case.spec(), p["a"], p["b"], p["delta"])


def _spec_chunks(cases, size):
    """The CLI's chunks planned from each sign case's spec: the reference
    for ``cli._chunks`` of ``cli._groups``."""
    groups = {}
    for i, case in enumerate(cases):
        key = _shift_point(case) if case.theorem in DEFAULT_M else i
        groups.setdefault(key, []).append(i)
    chunks = [[]]
    for group in groups.values():
        if len(chunks[-1]) >= size:
            chunks.append([])
        chunks[-1] += group
    return chunks


F = Fraction
# explicit cases: a > b, int parameters, default and explicit orders, and
# pairs of cases that share a shift point across theorems or families
EXPLICIT = [
    Case("thm1", "1f1-upper", {"a": F(3), "b": F(1, 2), "delta": F(1, 2), "c": F(2)}),
    Case("binomial", "binomial", {"a": F(3), "b": F(1, 2), "delta": F(1, 2)}),
    Case("thm1", "2f1-upper", {"a": 1, "b": 2, "delta": 1, "b0": 2, "c": 1}, M=12),
    Case("binomial", "binomial", {"a": F(1), "b": F(2), "delta": F(1)}, M=12),
    Case("thm2", "1f1-gamma", {"a": F(1), "b": F(2), "delta": F(1), "c": F(3)}),
    Case("thm3", "1f1-lower", {"a": F(1), "b": F(2), "delta": F(1), "a0": F(1)},
         M=30),
    Case("thm3", "2f1-lower", {"a": F(1), "b": F(2), "delta": F(1),
                               "a0": F(1, 2), "b0": F(2)}, M=30),
    Case("corollary", "1f1-upper", {"a": F(1), "b": F(2), "delta": F(1), "c": F(3)}),
    Case("turan", "1f1-upper", {"a": F(1), "delta": F(1), "c": F(3)}),
    Case("thm1", "1f1-upper", {"a": F(3), "b": F(1, 2), "delta": F(1, 2), "c": F(1)},
         M=40),
]


class TestParsing:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([])
        assert exc.value.code == 2

    def test_malformed_rational_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--theorem", "thm1",
                                       "--a", "1..5"])
        assert exc.value.code == 2

    def test_nonnumeric_rational_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--x-max", "fifty"])
        assert exc.value.code == 2

    def test_empty_grid_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["explore", "--x-grid", ""])
        assert exc.value.code == 2

    def test_unknown_theorem_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--theorem", "thm9"])
        assert exc.value.code == 2

    def test_grid_accepts_fractions(self):
        ns = build_parser().parse_args(["explore", "--x-grid", "1/4, 3,8"])
        from fractions import Fraction as F

        assert ns.x_grid == [F(1, 4), F(3), F(8)]


class TestVerifySingleCase:
    def test_reference_case(self, tmp_path):
        code, rep, _ = run_cli(SINGLE, tmp_path)
        assert code == 0
        assert set(rep) == {"run_id", "config_echo", "per_case", "summary"}
        assert rep["summary"] == {"verified": 1, "violated": 0,
                                  "inconclusive": 0}
        [case] = rep["per_case"]
        assert set(case) == {"theorem", "params", "verdict",
                             "first_violation", "details"}
        assert case["verdict"] == "verified"
        assert case["first_violation"] is None
        assert case["params"] == {"a": "1", "b": "2", "delta": "1/2", "c": "3"}
        assert case["details"]["truncation_order"] == 40
        assert case["details"]["sign_counts"] == {"0": 2, "+": 39}
        assert case["details"]["mk_single_sign_change"] is True

    def test_run_id_format(self, tmp_path):
        _, rep, _ = run_cli(SINGLE, tmp_path)
        assert len(rep["run_id"]) == 12
        int(rep["run_id"], 16)

    def test_sign_csv(self, tmp_path):
        out_csv = tmp_path / "signs.csv"
        code = main(SINGLE + ["--out-json", str(tmp_path / "r.json"),
                              "--out-csv", str(out_csv)])
        assert code == 0
        with out_csv.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["case", "theorem", "params", "index", "sign"]
        assert len(rows) == 42
        assert rows[1] == ["0", "thm1", "a=1;b=2;c=3;delta=1/2", "0", "0"]
        assert rows[-1][3:] == ["40", "+"]

    def test_missing_family_exits_2(self, tmp_path, capsys):
        code = main(["verify", "--theorem", "thm1", "--a", "1", "--b", "2",
                     "--delta", "1", "--out-json", str(tmp_path / "r.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_weight_param_exits_2(self, capsys):
        code = main(["verify", "--theorem", "thm1", "--family", "2f1-upper",
                     "--c", "3", "--a", "1", "--b", "2", "--delta", "1"])
        assert code == 2
        assert "--b0" in capsys.readouterr().err

    def test_near_tie_escalates(self, tmp_path):
        # b - a = 2 10^-17 at 5 digits: every coefficient is undecided until
        # the retry at 10 digits decides it, and the profile stays open
        code, rep, _ = run_cli(
            ["verify", "--theorem", "thm2", "--family", "1f1-gamma", "--c", "3",
             "--a", "1", "--b", "50000000000000001/50000000000000000",
             "--delta", "1/2", "--M", "12", "--precision", "5"], tmp_path)
        assert code == 0
        [case] = rep["per_case"]
        assert (case["verdict"], case["first_violation"]) == ("verified", None)
        assert case["details"] == {
            "escalated": True, "family": "1f1-gamma",
            "inconclusive_before_escalation": 13, "mk_all_negative": None,
            "mk_single_sign_change": None, "reason": None,
            "sign_counts": {"-": 13}, "truncation_order": 12}

    def test_invalid_shift_increment_exits_2(self, capsys):
        code = main(["verify", "--theorem", "thm1", "--family", "1f1-upper",
                     "--c", "3", "--a", "1", "--b", "2", "--delta", "0",
                     "--M", "8"])
        assert code == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        _, _, first = run_cli(SINGLE, tmp_path, "a")
        _, _, second = run_cli(SINGLE, tmp_path, "b")
        assert first == second

    def test_jobs_do_not_change_results(self, tmp_path):
        base = ["verify", "--theorem", "binomial", "--grid", "default",
                "--M", "6"]
        _, rep1, _ = run_cli(base + ["--jobs", "1"], tmp_path, "a")
        _, rep2, _ = run_cli(base + ["--jobs", "2"], tmp_path, "b")
        assert rep1["per_case"] == rep2["per_case"]
        assert rep1["summary"] == rep2["summary"]
        assert rep1["config_echo"]["jobs"] == 1
        assert rep2["config_echo"]["jobs"] == 2

    def test_seed_flag_removed(self):
        for argv in (SINGLE + ["--seed", "7"], ["explore", "--seed", "7"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_exit_2(self, jobs, capsys):
        assert main(SINGLE + ["--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_pool_size_clamped_to_cores_and_cases(self, tmp_path, monkeypatch,
                                                  recording_pool):
        # any kernel work pays for a pool, so that M = 6 starts one
        monkeypatch.setattr(cli_mod, "POOL_WORK", 1)
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 4)
        grid = ["verify", "--theorem", "binomial", "--grid", "default",
                "--M", "6", "--jobs", "1000000"]
        code, rep, _ = run_cli(grid, tmp_path, "grid")
        assert code == 0
        assert recording_pool.sizes == [4]
        # 30 binomial cases, each on a shift point of its own, in about
        # four chunks a worker
        assert [len(chunk) for chunk in recording_pool.chunks] == [2] * 15
        assert rep["config_echo"]["jobs"] == 1000000
        # one case: no pool at all
        code, _, _ = run_cli(SINGLE + ["--jobs", "1000000"], tmp_path, "one")
        assert code == 0
        assert recording_pool.sizes == [4]
        # one usable core: no pool either
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 1)
        code, _, _ = run_cli(grid, tmp_path, "core")
        assert code == 0
        assert recording_pool.sizes == [4]

    @pytest.mark.parametrize("cores", [2, 64])
    def test_pool_sized_by_kernel_work(self, cores, tmp_path, monkeypatch,
                                       recording_pool):
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: cores)
        # cases that do no work, so that only the plan is seen
        monkeypatch.setattr(cli_mod, "_run_chunk", lambda cases, *_: [
            {"theorem": c.theorem, "params": {}, "verdict": "verified",
             "csv": ""} for c in cases])

        def sizes(argv):
            recording_pool.sizes.clear()
            code, rep, _ = run_cli(argv, tmp_path)
            assert code == 0
            assert rep["config_echo"]["jobs"] == int(argv[-1])
            return recording_pool.sizes

        # every default grid at its default order runs inline
        for theorem in cli_mod.THEOREMS:
            for jobs in ("2", "1000000"):
                assert sizes(["verify", "--theorem", theorem, "--grid",
                              "default", "--jobs", jobs]) == []
        # the sign grids at the cap on M pay for a pool
        for theorem in ("thm1", "thm2", "thm3", "all"):
            grid = ["verify", "--theorem", theorem, "--grid", "default",
                    "--M", str(cli_mod.MAX_M), "--jobs"]
            assert sizes(grid + ["1"]) == []
            assert sizes(grid + ["2"]) == [2]
            # and with cores to spare, one worker a core or case
            cases = len(default_cases(theorem, cli_mod.MAX_M))
            assert sizes(grid + ["1000000"]) == [min(cores, cases)]
        # a single case runs inline, however large
        assert sizes(SINGLE[:-1] + [str(cli_mod.MAX_M), "--jobs", "2"]) == []

    def test_cores_are_those_the_process_may_use(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "process_cpu_count", lambda: 3, raising=False)
        assert cli_mod._usable_cores() == 3
        monkeypatch.delattr(os, "process_cpu_count")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5},
                            raising=False)
        assert cli_mod._usable_cores() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli_mod._usable_cores() == 64

    @pytest.mark.parametrize("argv", [
        ["--theorem", "binomial", "--M", "4", "--jobs", "1"],
        # too little kernel work to pay for a pool on any core count
        ["--theorem", "all", "--jobs", "2"]],
        ids=["one-job", "default-grid-two-jobs"])
    def test_no_pool_machinery_imported_at_one_job(self, argv):
        code = ("import sys, turankit.cli as c; "
                f"c.main(['verify', '--grid', 'default', *{argv!r}, "
                "'--out-json', '/dev/null']); "
                "print(sorted(m for m in sys.modules if m.startswith("
                "('concurrent', 'multiprocessing'))))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"


class TestImports:
    def test_cli_loads_neither_lemmas_nor_finite_sums(self):
        code = ("import sys, turankit.cli as c; c.build_parser(); "
                "print(sorted(m for m in sys.modules "
                "if m in ('turankit.lemmas', 'turankit.finite_sums')))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"

    def test_cli_loads_no_pool_machinery(self):
        # cmd_verify imports the process pool only when it starts one
        code = ("import sys, turankit.cli as c; c.build_parser(); "
                "print(sorted(m for m in sys.modules "
                "if m in ('concurrent.futures', 'multiprocessing')))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"

    def test_every_exported_name_resolves(self):
        import turankit
        from turankit import finite_sums, lemmas

        homes = {"lemmas": lemmas, "finite_sums": finite_sums}
        assert len(turankit._LAZY) == 24
        for name, home in turankit._LAZY.items():
            assert getattr(turankit, name) is getattr(homes[home], name)
            assert name in turankit.__all__ and name in dir(turankit)
        star = {}
        exec("from turankit import *", star)
        assert set(turankit.__all__) <= set(star)
        assert all(star[name] is getattr(turankit, name) for name in turankit.__all__)
        assert len(turankit.__all__) == 76
        with pytest.raises(AttributeError):
            turankit.no_such_name


class TestPointMajor:
    def test_default_grid_builds_each_shift_point_once(self, tmp_path,
                                                       monkeypatch):
        verify_module._read_point.cache_clear()
        builds = []
        real = series_module._row_half
        monkeypatch.setattr(series_module, "_row_half",
                            lambda *key: builds.append(key) or real(*key))
        code, _, _ = run_cli(ALL_GRID + ["--jobs", "1"], tmp_path)
        assert code == 0
        assert len(builds) == len(set(builds)) == 90

    def test_an_order_200_point_is_built_once_per_group(self, monkeypatch):
        # the cases of two shift points at the cap on M, interleaved, run
        # as the CLI groups them
        builds = []
        real = series_module._row_half
        monkeypatch.setattr(series_module, "_row_half",
                            lambda *key: builds.append(key) or real(*key))
        points = [(Fraction(1, 2), Fraction(3), Fraction(1)),
                  (Fraction(1), Fraction(2), Fraction(1))]
        by_point = [[c for c in default_cases("all", cli_mod.MAX_M)
                     if c.theorem in ("thm1", "binomial") and
                     (c.params["a"], c.params["b"], c.params["delta"]) == point]
                    for point in points]
        cases = [c for pair in zip(*by_point) for c in pair]
        assert len(cases) == 2 * 6
        chunks = cli_mod._chunks(cli_mod._groups(cases), 1)
        assert len(chunks) == 2
        for chunk in chunks:
            records = cli_mod._run_chunk([cases[i] for i in chunk], get_precision(), None)
            assert {r["verdict"] for r in records} == {"verified"}
        assert builds == [(Family.UPPER_FACTOR, *point, cli_mod.MAX_M)
                          for point in points]

    def test_chunks_hold_whole_shift_points(self, tmp_path, monkeypatch,
                                            recording_pool):
        # any kernel work pays for a pool, so that the default grid
        # starts a pool
        monkeypatch.setattr(cli_mod, "POOL_WORK", 1)
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 2)
        code, rep, _ = run_cli(ALL_GRID + ["--jobs", "2"], tmp_path)
        assert code == 0
        cases = default_cases("all")
        chunks = recording_pool.chunks
        # shift points in the order they first appear, each bound check a
        # point of its own, and the cases of a point in case order
        keys = [_shift_point(c) if c.theorem in DEFAULT_M else i
                for i, c in enumerate(cases)]
        want = sorted(range(len(cases)), key=lambda i: (keys.index(keys[i]), i))
        assert [cases.index(c) for chunk in chunks for c in chunk] == want
        chunk_of = {}
        for n, chunk in enumerate(chunks):
            for case in chunk:
                chunk_of.setdefault(keys[cases.index(case)], set()).add(n)
        assert len(chunk_of) == 90 + 3
        assert all(len(held) == 1 for held in chunk_of.values())
        # about four chunks a worker: ceil(423 / 8) = 53 cases or more,
        # the last excepted
        assert len(chunks) <= 8
        assert all(len(chunk) >= 53 for chunk in chunks[:-1])
        # the records come back in case order
        assert [(r["theorem"], r["params"]) for r in rep["per_case"]] == [
            (c.theorem, {k: str(v) for k, v in c.params.items()}) for c in cases]

    @pytest.mark.parametrize("cases", [
        default_cases("all"), default_cases("all", cli_mod.MAX_M), EXPLICIT],
        ids=["default", "default-M200", "explicit"])
    def test_chunks_match_the_spec_grouping(self, cases):
        for case in cases:
            if case.theorem in DEFAULT_M:
                assert case.shift_point() == _shift_point(case)
        for size in (1, 7, 53, len(cases)):
            assert cli_mod._chunks(cli_mod._groups(cases), size) == \
                _spec_chunks(cases, size)

    def test_binomial_cases_join_their_thm1_point(self):
        cases = default_cases("all")
        thm1 = {c.shift_point() for c in cases if c.theorem == "thm1"}
        binomial = [c.shift_point() for c in cases if c.theorem == "binomial"]
        assert len(binomial) == 30 and set(binomial) <= thm1
        # and at an explicit order both share, as the explicit cases do
        chunks = cli_mod._chunks(cli_mod._groups(EXPLICIT), 1)
        assert [0, 1, 9] in chunks and [2, 3] in chunks and [5, 6] in chunks

    @pytest.mark.parametrize("start", [None, "spawn"])
    def test_pool_gives_the_inline_reports(self, start, tmp_path, monkeypatch):
        # under spawn, the start method of macOS and (as forkserver) of
        # Python 3.14 on Linux, the chunks and their cases must pickle
        real, made = concurrent.futures.ProcessPoolExecutor, []

        def pool(max_workers):
            made.append(max_workers)
            context = start and multiprocessing.get_context(start)
            return real(max_workers=max_workers, mp_context=context)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
        # any kernel work pays for a pool, so that the default grid
        # starts a pool
        monkeypatch.setattr(cli_mod, "POOL_WORK", 1)
        monkeypatch.setattr(cli_mod, "_usable_cores", lambda: 2)
        reports = []
        for jobs in ("1", "2"):
            out_csv = tmp_path / f"jobs{jobs}.csv"
            code, rep, _ = run_cli(ALL_GRID + ["--jobs", jobs,
                                               "--out-csv", str(out_csv)],
                                   tmp_path, f"jobs{jobs}")
            assert code == 0
            reports.append((rep["per_case"], rep["summary"], out_csv.read_bytes()))
        assert made == [2]
        assert reports[0] == reports[1]


def _reference_csv(records, values):
    """verify's CSV rows under the header, written by csv.writer from lists
    of strings, one row per index: the reference for ``cli._csv_text``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for i, (rec, vals) in enumerate(zip(records, values)):
        params = rec["params"]
        pstr = ";".join(f"{k}={params[k]}" for k in sorted(params))
        pairs = enumerate(vals) if isinstance(vals, str) else vals
        writer.writerows([str(i), rec["theorem"], pstr, str(m), v]
                         for m, v in pairs)
    return out.getvalue()


def _split(records):
    """The records without their "csv" values, and the values."""
    return ([{k: v for k, v in rec.items() if k != "csv"} for rec in records],
            [rec["csv"] for rec in records])


@pytest.fixture(scope="module")
def default_records():
    precision = get_precision()
    return [cli_mod._run_case(case, precision, None)
            for case in default_cases("all")]


# b - a = 10^-17 at 5 digits: the retry leaves the signs of m = 10..12 open
OPEN_THM2 = Case("thm2", "1f1-gamma", {"a": F(1), "b": 1 + F(1, 10 ** 17),
                                       "delta": F(1, 2), "c": F(3)}, M=12)


class TestLeanRecords:
    @pytest.mark.parametrize("case, precision", [
        (EXPLICIT[0], 30),
        (Case("thm1", "1f1-upper", {"a": F(2), "b": F(2), "delta": F(1), "c": F(3)},
              M=12), 30),
        (OPEN_THM2, 5),
    ], ids=["a>b", "a=b", "thm2-open"])
    def test_sign_string_and_counts(self, case, precision):
        record = cli_mod._run_case(case, precision, None)
        with working_precision(precision):
            rep = run_case(case)
        signs = [s.value for s in rep.per_index_sign]
        assert record["csv"] == "".join(signs)
        counts = record["details"]["sign_counts"]
        assert type(counts) is dict and counts == dict(Counter(signs))

    def test_the_open_signs_are_marked(self):
        record = cli_mod._run_case(OPEN_THM2, 5, None)
        assert record["csv"] == "-" * 10 + "???"
        assert record["details"]["sign_counts"] == {"-": 10, "?": 3}

    def test_a_capped_case_has_no_values(self):
        case = Case("corollary", "1f1-upper", {"a": F(1), "b": F(2), "delta": F(1),
                                               "c": F(3)},
                    x_grid=[F(1, 7), F(12345678901, 3)])
        record = cli_mod._run_case(case, 30, None)
        assert record["verdict"] == "inconclusive"
        assert record["csv"] == ""
        assert "sign_counts" not in record["details"]

    def test_bound_check_pairs(self, monkeypatch):
        case = EXPLICIT[7]
        rep = run_case(case)
        open_rep = dataclasses.replace(rep, within=[True, None, False, True, None])
        monkeypatch.setattr(cli_mod, "run_case", lambda case, tol: open_rep)
        record = cli_mod._run_case(case, 30, None)
        assert record["csv"] == list(zip(map(str, rep.x_grid),
                                         ["true", "null", "false", "true", "null"]))
        assert record["details"]["within"] == [True, None, False, True, None]

    def test_csv_text_matches_the_csv_writer_on_the_default_grid(
            self, default_records):
        records, values = _split(default_records)
        text = cli_mod._csv_text(records, values)
        assert text == _reference_csv(records, values)
        assert text.count("\n") == 16331

    def test_csv_text_matches_the_csv_writer_on_explicit_cases(self):
        cases = [
            Case("thm1", "1f1-upper", {"a": F(3), "b": F(1, 2), "delta": F(1, 2),
                                       "c": F(1)}, M=cli_mod.MAX_M),
            Case("corollary", "1f1-upper", {"a": F(1), "b": F(2), "delta": F(1),
                                            "c": F(3)},
                 x_grid=[F(1, 7), F(2), F(123, 1000), F(60)]),
        ]
        records, values = _split([cli_mod._run_case(c, 30, None) for c in cases])
        assert values[0][200] in "+-0"
        # the writer takes any params and x: negative and large rationals,
        # and params text that csv must quote
        big = str(F(-12345678901234567890123, 7))
        records += [{"theorem": "thm1", "params": {"a": "-1/3", "b": big}},
                    {"theorem": "corollary", "params": {"a": 'x,"y', "b": "1\n2"}}]
        values += ["+-0?" * 50 + "+", [(big, "false"), ("-3/7", "null")]]
        text = cli_mod._csv_text(records, values)
        assert text == _reference_csv(records, values)
        assert f"\n0,thm1,a=3;b=1/2;c=1;delta=1/2,200,{values[0][200]}\n" in text
        assert f"\n2,thm1,a=-1/3;b={big},200,+\n" in text
        assert list(csv.reader(io.StringIO(text)))[-1] == [
            "3", "corollary", 'a=x,"y;b=1\n2', "-3/7", "null"]

    def test_pickled_default_records_are_small(self, default_records):
        # the records cross the pool in chunks; the per-index CSV rows as
        # lists of strings pickled to 406 KB
        chunks = cli_mod._chunks(cli_mod._groups(default_cases("all")), 53)
        size = sum(len(pickle.dumps([default_records[i] for i in chunk]))
                   for chunk in chunks)
        assert size < 100_000


class TestPrecisionScope:
    @pytest.mark.parametrize("argv", [
        SINGLE + ["--precision", "60"],
        ["explore", "--precision", "60", "--points", "4"],
    ])
    def test_main_leaves_precision_unchanged(self, argv, tmp_path):
        before = get_precision()
        code, rep, _ = run_cli(argv, tmp_path)
        assert code == 0
        assert rep["config_echo"]["precision"] == 60
        assert get_precision() == before


class TestBadPrecision:
    @pytest.mark.parametrize("precision", ["0", "3"])
    @pytest.mark.parametrize("argv", [SINGLE, ["explore", "--points", "4"],
                                      ALL_GRID + ["--jobs", "2"]])
    def test_too_small_exits_2(self, argv, precision, no_work, capsys):
        # refused before the cases are built or a pool is started
        assert main(argv + ["--precision", precision]) == 2
        assert capsys.readouterr().err == \
            f"error: working precision too small: {precision}\n"

    def test_import_survives_bad_environment_precision(self):
        env = dict(os.environ, TURANKIT_PRECISION="abc")
        proc = subprocess.run([sys.executable, "-c", "import turankit"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [SINGLE, ["explore", "--points", "4"]])
    def test_bad_environment_precision_exits_2(self, argv):
        env = dict(os.environ, TURANKIT_PRECISION="abc")
        proc = subprocess.run([sys.executable, "-m", "turankit.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == ("error: TURANKIT_PRECISION must be an integer, "
                               "got 'abc'\n")


class TestDefaultGrids:
    def test_binomial_grid(self, tmp_path):
        code, rep, _ = run_cli(["verify", "--theorem", "binomial",
                                "--grid", "default", "--M", "6"], tmp_path)
        assert code == 0
        assert rep["summary"]["verified"] == 30
        assert rep["config_echo"]["cases"] == 30

    def test_corollary_default(self, tmp_path):
        code, rep, _ = run_cli(["verify", "--theorem", "corollary"], tmp_path)
        assert code == 0
        [case] = rep["per_case"]
        assert case["details"]["x_grid"] == ["1/4", "1", "4", "16", "50"]
        assert case["details"]["within"] == [True] * 5
        assert case["details"]["approaches_lower"] is True

    def test_turan_single_case_flags(self, tmp_path):
        code, rep, _ = run_cli(["verify", "--theorem", "turan",
                                "--family", "1f1-upper", "--c", "5",
                                "--a", "2", "--delta", "1",
                                "--x-grid", "3"], tmp_path)
        assert code == 0
        [case] = rep["per_case"]
        assert case["verdict"] == "verified"
        assert case["params"]["a"] == "2"


class TestBadConfiguration:
    def test_binomial_needs_binomial_family(self, capsys):
        code = main(["verify", "--theorem", "binomial", "--family",
                     "1f1-upper", "--c", "3", "--a", "1", "--b", "2",
                     "--delta", "1", "--M", "6"])
        assert code == 2
        assert "does not cover family '1f1-upper'" in capsys.readouterr().err

    def test_corollary_rejects_lower_family(self, capsys):
        code = main(["verify", "--theorem", "corollary", "--family",
                     "1f1-lower", "--a0", "3", "--a", "1", "--b", "2",
                     "--delta", "1", "--x-grid", "1"])
        assert code == 2
        assert "does not cover family '1f1-lower'" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--theorem", "binomial", "--grid", "default", "--c", "3"],
        ["--theorem", "thm1", "--grid", "default", "--family", "1f1-upper"],
        ["--theorem", "corollary", "--grid", "default", "--x-grid", "1"],
        ["--theorem", "all", "--a", "1"],
        ["--theorem", "all", "--b0", "2"],
    ])
    def test_case_flag_with_grid_exits_2(self, flags, capsys):
        assert main(["verify", "--M", "4"] + flags) == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, flag", [
        (["--a0", "1"], "--a0"),
        (["--x-grid", "1"], "x grid"),
    ])
    def test_unused_flag_on_explicit_case_exits_2(self, extra, flag, capsys):
        assert main(SINGLE + extra) == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--theorem", "corollary"],
                                      ["--theorem", "turan", "--grid", "default"]])
    def test_M_on_bound_checks_only_exits_2_before_any_work(self, argv, no_work,
                                                            capsys):
        # no bound check reads --M, so a grid of only bound checks refuses it
        assert main(["verify", *argv, "--M", "5"]) == 2
        assert capsys.readouterr().err == f"error: --M is not used for {argv[1]}\n"

    def test_M_with_sign_checks_runs(self, tmp_path):
        code, rep, _ = run_cli(["verify", "--theorem", "all", "--M", "5"], tmp_path)
        assert code == 0
        assert rep["config_echo"]["M"] == 5
        assert rep["summary"]["verified"] == len(default_cases("all"))
        orders = {c["theorem"]: c["details"].get("truncation_order")
                  for c in rep["per_case"]}
        assert orders == {"thm1": 5, "thm2": 5, "thm3": 5, "binomial": 5,
                          "corollary": None, "turan": None}

    @pytest.mark.parametrize("case", [
        ["--theorem", "corollary", "--b", "2"], ["--theorem", "turan"]],
        ids=["corollary", "turan"])
    @pytest.mark.parametrize("grid, x", [
        ([], "1"), (["--x-grid", "1/4,3,2"], "2")], ids=["default-grid", "x-grid"])
    def test_2f1_bound_check_past_x_1_exits_2_before_any_work(
            self, case, grid, x, monkeypatch, capsys):
        # the 2F1 series diverge at x >= 1; the default x grid reaches 50
        for name in ("gamma_quotient", "cross_ratio"):
            monkeypatch.setattr(verify_module, name, _no_work)
        argv = ["verify", *case, "--family", "2f1-upper", "--b0", "2",
                "--c", "1", "--a", "1", "--delta", "1", *grid]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: x grid reaches x = {x}, where the series diverge; "
            "give an x grid inside (0, 1)\n")
        with pytest.raises(AssertionError, match="before any work"):
            main(argv[:-2 if grid else None] + ["--x-grid", "1/4,1/2"])

    def test_turan_takes_no_second_shift(self, capsys):
        code = main(["verify", "--theorem", "turan", "--family", "1f1-upper",
                     "--c", "5", "--a", "2", "--b", "3", "--delta", "1",
                     "--x-grid", "3"])
        assert code == 2
        assert "--b" in capsys.readouterr().err


class TestNegativeValues:
    """argparse reads a value such as -1/2 as an option; every option takes
    a value, so main reads "--flag -1/2" as "--flag=-1/2"."""

    def test_negative_grid_needs_no_equals_sign(self, tmp_path):
        reports = []
        for name, grid in (("joined", ["--x-grid=-4,-2,-1"]),
                           ("spaced", ["--x-grid", "-4,-2,-1"])):
            out_csv = tmp_path / f"{name}.csv"
            code, rep, blob = run_cli(["explore", "--c", "5", *grid,
                                       "--out-csv", str(out_csv)], tmp_path, name)
            assert code == 0
            assert rep["config_echo"]["branch"] == "negative"
            reports.append((blob, out_csv.read_bytes()))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv, err", [
        (SINGLE[:7] + ["--b", "2", "--delta", "1", "--a", "-1/2"],
         "error: need delta > 0 and nonnegative shifts\n"),
        (["verify", "--theorem", "turan", "--family", "1f1-upper", "--c", "3",
          "--a", "1", "--delta", "1", "--tol", "-1/2"],
         "error: --tol must be positive, got -1/2\n"),
        (["explore", "--points", "4", "--delta", "-1/2"], "error: need delta > 0\n"),
    ], ids=["a", "tol", "explore-delta"])
    def test_negative_value_reads_as_with_equals_sign(self, argv, err, capsys):
        joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        assert main(argv) == main(joined) == 2
        assert capsys.readouterr().err == err * 2


class TestInputCaps:
    def test_order_zero_runs_at_order_zero(self, tmp_path):
        code, rep, _ = run_cli(SINGLE[:-1] + ["0"], tmp_path)
        assert code == 0
        [case] = rep["per_case"]
        assert rep["config_echo"]["M"] == 0
        assert case["details"]["truncation_order"] == rep["config_echo"]["M"]

    @pytest.mark.parametrize("argv", [
        SINGLE[:-1], ["verify", "--theorem", "all", "--grid", "default", "--M"]])
    def test_order_past_cap_exits_2(self, argv, monkeypatch, capsys):
        import turankit.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_run_case", _no_work)
        monkeypatch.setattr(cli_mod, "default_cases", _no_work)
        assert main(argv + [str(cli_mod.MAX_M + 1)]) == 2
        assert capsys.readouterr().err == \
            "error: --M 201 is above the cap of 200\n"

    def test_order_at_cap_accepted(self, tmp_path, monkeypatch):
        import turankit.cli as cli_mod

        orders = []

        def fake(case, precision, tol):
            orders.append(case.spec().order)
            return {"theorem": case.theorem, "params": {},
                    "verdict": "verified", "first_violation": None,
                    "details": {}, "csv": ""}

        monkeypatch.setattr(cli_mod, "_run_case", fake)
        code, _, _ = run_cli(SINGLE[:-1] + [str(cli_mod.MAX_M)], tmp_path)
        assert code == 0
        assert orders == [cli_mod.MAX_M]

    # shifts whose bits over their common denominator sit at the cap at the
    # order given, or at the default order of thm2 (30), and one bit past it
    @staticmethod
    def _shift_argv(M, bits, over):
        big = 2 ** bits - 1 + over
        theorem = ["--theorem", "thm3", "--family", "1f1-lower", "--a0", "1",
                   "--M", str(M)] if M else \
            ["--theorem", "thm2", "--family", "1f1-gamma", "--c", "1"]
        return [["verify", *theorem, "--a", "1", "--b", str(big), "--delta", "1"],
                ["verify", *theorem, "--a", f"1/{big}", "--b", f"2/{big}",
                 "--delta", f"1/{big}"]]

    @pytest.mark.parametrize("M", [128, 200, None])
    def test_shift_size_at_cap_reaches_the_cases(self, M, no_work):
        bits = no_work.MAX_KERNEL_BITS // (M or 30) ** 2
        for argv in self._shift_argv(M, bits, 0):
            with pytest.raises(AssertionError, match="before any work"):
                main(argv)

    @pytest.mark.parametrize("M", [128, 200, None])
    def test_shift_size_past_cap_exits_2(self, M, no_work, capsys):
        bits = no_work.MAX_KERNEL_BITS // (M or 30) ** 2
        for argv in self._shift_argv(M, bits, 1):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: --a, --b and --delta take {bits + 1} bits over their "
                f"common denominator, above the cap of {bits} at --M {M or 30}\n")

    def test_fresh_params_sized_shifts_accepted_at_order_cap(self, no_work):
        # denominators up to 12 and values up to 4: D = 990, 12 bits
        with pytest.raises(AssertionError, match="before any work"):
            main(["verify", "--theorem", "thm3", "--family", "2f1-lower",
                  "--a0", "1/2", "--b0", "2", "--a", "43/11", "--b", "35/9",
                  "--delta", "29/10", "--M", str(no_work.MAX_M)])

    def test_points_past_cap_exits_2(self, monkeypatch, capsys):
        import turankit.cli as cli_mod

        monkeypatch.setattr(cli_mod, "default_log_grid", _no_work)
        monkeypatch.setattr(cli_mod, "explore_conjecture", _no_work)
        assert main(["explore", "--points", str(cli_mod.MAX_POINTS + 1)]) == 2
        assert capsys.readouterr().err == \
            "error: --points 1025 is above the cap of 1024\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "turan", "--family", "1f1-upper", "--c", "5",
         "--a", "2", "--delta", "1"],
        ["explore"]])
    def test_x_grid_past_cap_exits_2(self, argv, monkeypatch, capsys):
        import turankit.cli as cli_mod

        for name in ("_run_case", "default_log_grid", "explore_conjecture"):
            monkeypatch.setattr(cli_mod, name, _no_work)
        grid = ",".join(str(k) for k in range(1, cli_mod.MAX_POINTS + 2))
        assert main(argv + ["--x-grid", grid]) == 2
        assert capsys.readouterr().err == \
            "error: --x-grid has 1025 values, above the cap of 1024\n"

    def test_points_at_cap_accepted(self, tmp_path, monkeypatch):
        import turankit.cli as cli_mod

        counts = []

        def fake_grid(count, x_max, negative):
            counts.append(count)
            return [Fraction(1), Fraction(2)]

        monkeypatch.setattr(cli_mod, "default_log_grid", fake_grid)
        code, _, _ = run_cli(["explore", "--points", str(cli_mod.MAX_POINTS)],
                             tmp_path)
        assert code == 0
        assert counts == [cli_mod.MAX_POINTS]

    @pytest.mark.parametrize("argv", [SINGLE, ["explore"]])
    def test_precision_past_cap_exits_2(self, argv, no_work, capsys):
        over = str(no_work.MAX_PRECISION + 1)
        assert main(argv + ["--precision", over]) == 2
        assert capsys.readouterr().err == \
            "error: --precision 351 is above the cap of 350\n"

    @pytest.mark.parametrize("argv", [SINGLE, ["explore"]])
    def test_environment_precision_past_cap_exits_2(self, argv, no_work,
                                                    monkeypatch, capsys):
        from turankit.intervals import _default_precision

        monkeypatch.setenv("TURANKIT_PRECISION",
                           str(no_work.MAX_PRECISION + 1))
        _default_precision.cache_clear()
        try:
            assert main(argv) == 2
        finally:
            _default_precision.cache_clear()
        assert capsys.readouterr().err == \
            "error: TURANKIT_PRECISION 351 is above the cap of 350\n"

    def test_precision_at_cap_accepted(self, tmp_path, monkeypatch):
        import turankit.cli as cli_mod

        seen = []

        def fake_case(case, precision, tol):
            seen.append(precision)
            return {"theorem": case.theorem, "params": {},
                    "verdict": "verified", "first_violation": None,
                    "details": {}, "csv": ""}

        def fake_scan(a, b, delta, c, xs, tol):
            seen.append(get_precision())
            return real_scan(a, b, delta, c, xs[-2:], tol)

        real_scan = cli_mod.explore_conjecture
        monkeypatch.setattr(cli_mod, "_run_case", fake_case)
        monkeypatch.setattr(cli_mod, "explore_conjecture", fake_scan)
        cap = str(cli_mod.MAX_PRECISION)
        for argv in (SINGLE, ["explore", "--points", "4"]):
            code, rep, _ = run_cli(argv + ["--precision", cap], tmp_path)
            assert code == 0
            assert rep["config_echo"]["precision"] == cli_mod.MAX_PRECISION
        assert seen == [cli_mod.MAX_PRECISION] * 2

    # every flag that takes a rational, with "{}" for a value whose
    # numerator (1e...) or denominator (1e-...) has the digits under test
    RATIONAL_FLAGS = [
        ["verify", "--theorem", "turan", "--family", "1f1-upper", "--c", "3",
         "--a", "1e{}", "--delta", "1"],
        ["verify", "--theorem", "thm1", "--family", "1f1-upper", "--c", "3",
         "--a", "1", "--b", "1e{}", "--delta", "1", "--M", "0"],
        ["verify", "--theorem", "turan", "--family", "1f1-upper", "--c", "3",
         "--a", "1", "--delta", "1e-{}", "--x-grid", "1,1e{}"],
        ["verify", "--theorem", "turan", "--family", "1f1-upper", "--c", "3",
         "--a", "1", "--delta", "1", "--tol", "1e-{}"],
        ["explore", "--a", "1e-{}", "--x-max", "1e{}"],
    ]
    DIGITS = getattr(sys, "get_int_max_str_digits", int)()

    @pytest.mark.skipif(not DIGITS, reason="ints of any size print")
    @pytest.mark.parametrize("argv", RATIONAL_FLAGS)
    def test_rational_at_the_digit_limit_reaches_the_work(self, argv, no_work):
        with pytest.raises(AssertionError, match="before any work"):
            main([a.format(self.DIGITS - 1) for a in argv])

    @pytest.mark.skipif(not DIGITS, reason="ints of any size print")
    @pytest.mark.parametrize("argv", RATIONAL_FLAGS)
    def test_rational_past_the_digit_limit_exits_2(self, argv, no_work, capsys):
        # the reports could not print it: refused while parsing
        with pytest.raises(SystemExit) as exc:
            main([a.format(self.DIGITS) for a in argv])
        assert exc.value.code == 2
        assert f"or denominator of more than {self.DIGITS} digits" in \
            capsys.readouterr().err

    @pytest.mark.skipif(not DIGITS, reason="ints of any size print")
    def test_rational_at_the_digit_limit_is_reported(self, tmp_path):
        argv = [a.format(self.DIGITS - 1) for a in self.RATIONAL_FLAGS[1]]
        code, rep, _ = run_cli(argv, tmp_path)
        assert code == 0
        assert rep["per_case"][0]["params"]["b"] == "1" + "0" * (self.DIGITS - 1)

    TURAN = ["verify", "--theorem", "turan", "--family", "1f1-upper", "--c", "3"]

    # a decimal exponent past the digit limit plus the text's length, which
    # Fraction() would spend seconds expanding to a power of ten
    @pytest.mark.skipif(not DIGITS, reason="ints of any size print")
    @pytest.mark.parametrize("argv, exponent", [
        (TURAN + ["--a", "1e10000000", "--delta", "1"], "10000000"),
        (TURAN + ["--a", "1", "--delta", "1", "--tol", "1e-10000000"], "-10000000"),
        (TURAN + ["--a", "1", "--delta", "1", "--x-grid", "1,1e10000000"], "10000000"),
        (TURAN + ["--a", "1e10_000_000", "--delta", "1"], "10_000_000"),
        (TURAN + ["--a", "0e10000000", "--delta", "1"], "10000000"),
        (["explore", "--c", "1e10000000"], "10000000"),
    ], ids=["a", "tol", "x-grid", "underscored", "zero", "explore"])
    def test_a_large_exponent_exits_2_at_once(self, argv, exponent, no_work, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 0.5
        assert exc.value.code == 2
        assert f"has the decimal exponent {exponent}, above" in capsys.readouterr().err

    @pytest.mark.skipif(not DIGITS, reason="ints of any size print")
    @pytest.mark.parametrize("value", [f"1e{DIGITS - 1}", f"0e{DIGITS}"])
    def test_an_exponent_within_the_limit_reaches_the_work(self, value, no_work):
        with pytest.raises(AssertionError, match="before any work"):
            main(self.TURAN + ["--a", value, "--delta", "1"])


class TestTolerance:
    @pytest.mark.parametrize("tol", ["0", "-1/2"])
    @pytest.mark.parametrize("argv", [
        SINGLE, ["verify", "--theorem", "all", "--grid", "default"], ["explore"]])
    def test_nonpositive_tol_exits_2_before_any_work(self, argv, tol, tmp_path,
                                                     monkeypatch, capsys):
        import turankit.cli as cli_mod

        for name in ("_run_case", "explore_conjecture"):
            monkeypatch.setattr(cli_mod, name, _no_work)
        out = tmp_path / "r.json"
        assert main(argv + [f"--tol={tol}", "--out-json", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --tol must be positive, got {tol}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        SINGLE,
        ["verify", "--theorem", "binomial", "--family", "binomial",
         "--a", "1", "--b", "2", "--delta", "1"],
        ["verify", "--theorem", "thm2", "--grid", "default"],
        ["verify", "--theorem", "thm3"],
    ])
    def test_tol_on_sign_checks_only_exits_2_before_any_work(
            self, argv, tmp_path, monkeypatch, capsys):
        # no sign check reads --tol, so a run of only sign checks refuses it
        import turankit.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_run_case", _no_work)
        out = tmp_path / "r.json"
        assert main(argv + ["--tol", "1/1000", "--out-json", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --tol is not used for {argv[2]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("theorem", ["all", "corollary", "turan"])
    def test_tol_reaches_the_bound_checks(self, theorem, tmp_path, monkeypatch):
        import turankit.cli as cli_mod

        seen = []

        def fake(case, precision, tol):
            seen.append((case.theorem, tol))
            return {"theorem": case.theorem, "params": {},
                    "verdict": "verified", "first_violation": None,
                    "details": {}, "csv": ""}

        monkeypatch.setattr(cli_mod, "_run_case", fake)
        code, rep, _ = run_cli(["verify", "--theorem", theorem,
                                "--tol", "1/1000"], tmp_path)
        assert code == 0
        assert rep["config_echo"]["tol"] == "1/1000"
        assert {tol for _, tol in seen} == {Fraction(1, 1000)}
        assert {"corollary", "turan"} & {t for t, _ in seen}


class TestExitCodes:
    def test_violated_maps_to_1(self, tmp_path, monkeypatch):
        import turankit.cli as cli_mod

        def fake(case, precision, tol):
            return {"theorem": case.theorem, "params": {},
                    "verdict": "violated", "first_violation": 3,
                    "details": {}, "csv": ""}

        monkeypatch.setattr(cli_mod, "_run_case", fake)
        code, rep, _ = run_cli(SINGLE, tmp_path)
        assert code == 1
        assert rep["summary"]["violated"] == 1

    def test_inconclusive_warns_but_exits_0(self, tmp_path, monkeypatch,
                                            capsys):
        import turankit.cli as cli_mod

        def fake(case, precision, tol):
            return {"theorem": case.theorem, "params": {},
                    "verdict": "inconclusive", "first_violation": None,
                    "details": {}, "csv": ""}

        monkeypatch.setattr(cli_mod, "_run_case", fake)
        code, _, _ = run_cli(SINGLE, tmp_path)
        assert code == 0
        assert "inconclusive" in capsys.readouterr().err


class TestExplore:
    def test_positive_branch_small_grid(self, tmp_path):
        out_csv = tmp_path / "scan.csv"
        out = tmp_path / "r.json"
        code = main(["explore", "--x-grid", "1,2,4",
                     "--out-json", str(out), "--out-csv", str(out_csv)])
        assert code == 0
        rep = json.loads(out.read_text())
        [case] = rep["per_case"]
        assert case["theorem"] == "conjecture"
        assert case["verdict"] == "verified"
        assert case["details"]["branch"] == "positive"
        assert case["details"]["violations"] == 0
        assert case["details"]["steps"] == 2
        with out_csv.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "Q_lo", "Q_hi", "bound_A",
                           "decided_monotone_step"]
        assert len(rows) == 4
        assert rows[1][4] == ""
        assert rows[2][4] == "down"
        assert float(rows[1][1]) <= float(rows[1][2])
        assert rows[1][3] == "0.5"

    def test_negative_branch(self, tmp_path):
        out_csv = tmp_path / "scan.csv"
        code = main(["explore", "--branch", "negative", "--c", "4",
                     "--x-grid=-4,-2,-1",
                     "--out-json", str(tmp_path / "r.json"),
                     "--out-csv", str(out_csv)])
        assert code == 0
        with out_csv.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][3] == "bound_B"
        assert rows[2][4] == "up"

    @pytest.mark.parametrize("argv", [
        ["--branch", "negative", "--x-grid", "1,2,3"],
        ["--branch", "positive", "--c", "4", "--x-grid=-4,-2,-1"]])
    def test_branch_against_the_grid_exits_2(self, argv, no_work, capsys):
        assert main(["explore", *argv]) == 2
        assert capsys.readouterr().err == (
            f"error: --branch {argv[1]} names the other half-line than the "
            "--x-grid points\n")

    @pytest.mark.parametrize("argv, branch", [
        (["--x-grid", "1,2,3"], "positive"),
        (["--branch", "positive", "--x-grid", "1,2,3"], "positive"),
        (["--c", "4", "--x-grid=-4,-2,-1"], "negative")])
    def test_branch_follows_the_grid(self, argv, branch, tmp_path):
        code, rep, _ = run_cli(["explore", *argv], tmp_path)
        assert code == 0
        assert rep["config_echo"]["branch"] == branch
        assert rep["per_case"][0]["details"]["branch"] == branch

    def test_negative_branch_bad_params_exits_2(self, capsys):
        # default c=3 leaves no room for a < b < c - delta
        code = main(["explore", "--branch", "negative", "--x-grid=-2,-1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_term_cap_exits_2(self, monkeypatch, capsys):
        import turankit.cli as cli_mod

        def capped(*args):
            raise TermCapError("term cap reached before the tolerance")

        monkeypatch.setattr(cli_mod, "explore_conjecture", capped)
        assert main(["explore", "--points", "4"]) == 2
        assert capsys.readouterr().err == \
            "error: term cap reached before the tolerance\n"

    def test_x_past_term_cap_exits_2(self, capsys):
        # the 1F1 term ratio at x = 87,500 stays above 1 for all TERM_CAP
        # terms, so the scan must stop at the cap and not hang
        assert main(["explore", "--x-max", "100000", "--points", "2"]) == 2
        assert capsys.readouterr().err == \
            "error: no certifiable tail bound within 10000 terms\n"

    @pytest.mark.parametrize("delta", ["0", "-1/2"])
    def test_nonpositive_delta_exits_2(self, delta, capsys):
        assert main(["explore", "--points", "4", f"--delta={delta}"]) == 2
        assert capsys.readouterr().err == "error: need delta > 0\n"

    def test_grid_overrides_points(self, tmp_path):
        _, rep, _ = run_cli(["explore", "--x-grid", "1,3", "--points", "99"],
                            tmp_path)
        assert rep["config_echo"]["points"] == 2

    def test_determinism(self, tmp_path):
        argv = ["explore", "--x-grid", "1,2,4"]
        _, _, first = run_cli(argv, tmp_path, "a")
        _, _, second = run_cli(argv, tmp_path, "b")
        assert first == second


class TestUnwritableOutput:
    """A report that cannot be written is a configuration error: exit 2
    with a one-line message, not a traceback and the violation code 1."""

    def test_verify_json(self, tmp_path, capsys):
        path = tmp_path / "missing" / "r.json"
        assert main(ENTRY_ARGS + ["--out-json", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    def test_explore_csv(self, tmp_path, capsys):
        path = tmp_path / "missing" / "scan.csv"
        assert main(["explore", "--x-grid", "1,2", "--out-json",
                     str(tmp_path / "r.json"), "--out-csv", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flag", ["--out-json", "--out-csv"])
    def test_verify_refused_before_any_case_runs(self, flag, tmp_path,
                                                 monkeypatch, capsys):
        import turankit.cli as cli_mod

        def no_run(*args):
            raise AssertionError("a case ran before the output was checked")

        monkeypatch.setattr(cli_mod, "run_case", no_run)
        path = tmp_path / "missing" / "out"
        assert main(["verify", "--theorem", "all", "--grid", "default",
                     "--jobs", "1", flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_explore_refused_before_the_scan(self, tmp_path, monkeypatch,
                                             capsys):
        import turankit.cli as cli_mod

        def no_scan(*args):
            raise AssertionError("the scan ran before the output was checked")

        monkeypatch.setattr(cli_mod, "explore_conjecture", no_scan)
        path = tmp_path / "missing" / "r.json"
        assert main(["explore", "--points", "4", "--out-json", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["verify", "explore"])
    @pytest.mark.parametrize("csv_name", ["r.txt", "./r.txt"])
    def test_one_file_for_both_reports_refused(self, command, csv_name,
                                               tmp_path, monkeypatch, capsys):
        # else the CSV would overwrite the JSON report
        def no_run(*args):
            raise AssertionError("a case ran before the outputs were checked")

        monkeypatch.setattr(cli_mod, "run_case", no_run)
        monkeypatch.setattr(cli_mod, "explore_conjecture", no_run)
        monkeypatch.chdir(tmp_path)
        argv = ENTRY_ARGS if command == "verify" else ["explore", "--points", "4"]
        assert main(argv + ["--out-json", "r.txt", "--out-csv", csv_name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and csv_name in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.txt").exists()

    def test_writable_paths_written_only_after_the_run(self, tmp_path,
                                                       monkeypatch):
        import turankit.cli as cli_mod

        out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
        seen = []

        def run_case(*args):
            seen.append((out_json.exists(), out_csv.exists()))
            return real(*args)

        real = cli_mod.run_case
        monkeypatch.setattr(cli_mod, "run_case", run_case)
        assert main(ENTRY_ARGS + ["--out-json", str(out_json),
                                  "--out-csv", str(out_csv)]) == 0
        assert seen == [(False, False)]
        assert json.loads(out_json.read_text())["summary"]["verified"] == 1
        assert out_csv.read_text().startswith("case,theorem")


ENTRY_ARGS = ["verify", "--theorem", "thm1", "--family", "1f1-upper",
              "--c", "3", "--a", "1", "--b", "2", "--delta", "1", "--M", "8"]


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        # Call the declared `turankit` entry point the way a generated
        # console-script wrapper does, so no installed script is needed.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["turankit"]
        module, attr = target.split(":")
        wrapper = (f"import sys; from {module} import {attr} as f; "
                   "sys.argv[0] = 'turankit'; sys.exit(f())")
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, *ENTRY_ARGS,
             "--out-json", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["summary"]["verified"] == 1

    @pytest.mark.skipif(shutil.which("turankit") is None,
                        reason="no installed turankit script")
    def test_installed_console_script(self, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            ["turankit", *ENTRY_ARGS, "--out-json", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["summary"]["verified"] == 1

    def test_module_invocation_stdout(self):
        proc = subprocess.run(
            [sys.executable, "-m", "turankit.cli", "explore",
             "--x-grid", "1,2"], capture_output=True, text=True)
        assert proc.returncode == 0
        rep = json.loads(proc.stdout)
        assert rep["summary"]["verified"] == 1
