"""The certified float filter of the upper- and lower-family row reads
(``series._sign_rows``): its soundness on hand-made tables, its declines,
its agreement with the exact fold on the default shift points, and the
independent checker of ``tests/checker.py`` against both reads."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checker
from turankit import series as series_module
from turankit import verify as verify_module
from turankit.series import Family
from turankit.verify import default_cases

FAMILIES = {"upper": Family.UPPER_FACTOR, "lower": Family.LOWER_FACTOR}


def _exact_signs(tables) -> list:
    """The sign of p - q at every entry of the rows of four tables, in
    integers and with no float."""
    t1, t2, t3, t4 = tables
    rows = []
    for m in range(len(t1)):
        row = []
        for k in range(m // 2 + 1):
            j = m - k
            d = t1[k] * t2[j] + t1[j] * t2[k] - t3[k] * t4[j] - t3[j] * t4[k]
            row.append((d > 0) - (d < 0))
        rows.append(row)
    return rows


def _signs(rows) -> list:
    return [[(v > 0) - (v < 0) for v in row] for row in rows]


# B rounds up to the float above it and B - 1 down (its 64-bit truncation
# ends in 01111111111, B's in a tie 10000000000 after an odd mantissa), so
# f(B - 1) is 2^-52 below f(B), relatively; A, Z and Z + 1 round to A, Z,
# Z.  Row 1 gives p - q = (A + 1)(Z + 1) + Z (B - 1) - A (Z + 1) - Z B = 1
# at about 2^3000, and row 0 p - q = 2 (B - A - 1) at about 2^2600, where
# the floats read p~ < q~ in both rows.
_B = ((2 ** 52 + 1) * 2 ** 11 + 2 ** 10) << (1500 - 64)
_A, _Z = 2 ** 1100, 3 << 1498
NEAR_TIE = [[_A + 1, _Z], [_B - 1, _Z + 1], [_A, _Z], [_B, _Z + 1]]
# the same with p and q swapped: p - q = -1, and the floats read p~ > q~
NEAR_TIE_SWAPPED = NEAR_TIE[2:] + NEAR_TIE[:2]
# row 0 is exactly 0, 30 K L on both sides, but f(3K) f(5L) != f(5K) f(3L)
_K, _L = (2 ** 52 + 1) << 900, (2 ** 52 + 4) << 950
EXACT_ZERO = [[3 * _K, 7], [5 * _L, 11], [5 * _K, 7], [3 * _L, 11]]


class TestSoundness:
    @pytest.mark.parametrize("tables", [NEAR_TIE, NEAR_TIE_SWAPPED], ids=["p>q", "p<q"])
    def test_a_difference_of_one_in_3000_bits_reaches_the_exact_fallback(self, tables):
        rows = list(series_module._sign_rows(tables))
        assert _exact_signs(tables) == ([[1], [1]] if tables is NEAR_TIE else [[-1], [-1]])
        # each entry is the exact fallback's int, not a float of its sign
        assert rows == _exact_signs(tables)
        assert all(type(v) is int for row in rows for v in row)

    def test_an_exact_zero_reads_zero(self):
        rows = list(series_module._sign_rows(EXACT_ZERO))
        assert _exact_signs(EXACT_ZERO)[0] == [0]
        assert rows[0] == [0] and type(rows[0][0]) is int
        assert _signs(rows) == _exact_signs(EXACT_ZERO)

    @pytest.mark.parametrize("tables", [NEAR_TIE, NEAR_TIE_SWAPPED, EXACT_ZERO],
                             ids=["p>q", "p<q", "zero"])
    def test_a_filter_without_slack_reads_a_wrong_sign(self, monkeypatch, tables):
        # the slack is what makes the filter sound: with none, the float
        # rounding of these tables decides an entry with the wrong sign
        monkeypatch.setattr(series_module, "FILTER_SLACK", 0.0)
        assert _signs(series_module._sign_rows(tables)) != _exact_signs(tables)

    @pytest.mark.parametrize("change", [
        lambda t: t[0].__setitem__(1, 0),      # thm1's a = 0 gives zero entries
        lambda t: t[2].__setitem__(0, -t[2][0]),  # a negative non-pole shift
        lambda t: t[1].__setitem__(1, 1),      # 1,500 bits below the rest
        lambda t: t[3].__setitem__(1, t[3][1] << 1500),  # 1,500 bits above
    ], ids=["zero", "negative", "below-span", "above-span"])
    def test_it_declines(self, change):
        tables = [list(t) for t in NEAR_TIE]
        change(tables)
        assert series_module._sign_rows(tables) is None

    def test_it_declines_tables_under_the_size_it_pays_from(self, monkeypatch):
        tables = series_module._tables(Family.LOWER_FACTOR, F(1), F(2), F(1), 20)[2]
        assert max(t.bit_length() for tab in tables for t in tab) < \
            series_module.FILTER_MIN_BITS
        assert series_module._sign_rows(tables) is None
        monkeypatch.setattr(series_module, "FILTER_MIN_BITS", 0)
        assert _signs(series_module._sign_rows(tables)) == _exact_signs(tables)

    def test_a_declined_point_is_folded_exactly(self, monkeypatch):
        # thm1 at a = 0: the filter declines, and the exact read is made
        folds = []
        real = series_module._fold_rows
        monkeypatch.setattr(series_module, "_fold_rows",
                            lambda *args: folds.append(args[0]) or real(*args))
        monkeypatch.setattr(series_module, "FILTER_MIN_BITS", 0)
        verify_module._read_point(Family.UPPER_FACTOR, F(0), F(2), F(1), 12, None, False)
        verify_module._read_point(Family.UPPER_FACTOR, F(1), F(2), F(1), 12, None, False)
        assert folds == [Family.UPPER_FACTOR]


def _points(family: str, M: int) -> list:
    """The default shift points of a family at order M, as _read_point keys."""
    theorem = "thm1" if family == "upper" else "thm3"
    return list(dict.fromkeys(c.shift_point() for c in default_cases(theorem, M)))


def _exact_read(point):
    family, *_ = point
    rows = series_module._fold_rows(family, series_module._tables(*point)[2])
    return verify_module._row_signs(rows, None, False, family is Family.UPPER_FACTOR)


@pytest.mark.parametrize("M", [40, 100, 200])
@pytest.mark.parametrize("family", FAMILIES)
def test_the_filtered_read_equals_the_exact_one_on_the_default_points(
        monkeypatch, family, M):
    monkeypatch.setattr(series_module, "FILTER_MIN_BITS", 0)
    points = _points(family, M)
    assert len(points) == 30
    for point in points:
        assert series_module._sign_rows(series_module._tables(*point)[2]) is not None
        assert verify_module._read_point(*point, None, False) == _exact_read(point)


def test_the_pair_offsets_admit_tables_far_apart(monkeypatch):
    # at some index n the lower tables t1 = x R(a+d) and t2 = R(b) are more
    # than 2 FILTER_SPAN bits apart: one scale 2^-e_n for all four tables
    # cannot hold both, and the offset of the pair (t1, t2) can
    monkeypatch.setattr(series_module, "FILTER_MIN_BITS", 0)
    tables = series_module._tables(Family.LOWER_FACTOR, F(1, 12), F(4), F(1, 12), 140)[2]
    assert max(t1.bit_length() - t2.bit_length() for t1, t2 in zip(*tables[:2])) > \
        2 * series_module.FILTER_SPAN
    assert _signs(series_module._sign_rows(tables)) == _exact_signs(tables)


positive = st.fractions(F(1, 50), 40, max_denominator=50)


@given(st.sampled_from(list(FAMILIES.values())), positive, positive, positive,
       st.integers(0, 70))
@settings(max_examples=150, deadline=None)
def test_the_filter_agrees_with_the_exact_fold_on_drawn_points(family, a, b, delta, M):
    tables = series_module._tables(family, a, b, delta, M)[2]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "FILTER_MIN_BITS", 0)
        rows = series_module._sign_rows(tables)
    if rows is not None:
        assert _signs(rows) == _signs(series_module._fold_rows(family, tables))


@given(st.fractions(-5, 5, max_denominator=6), st.fractions(-5, 5, max_denominator=6),
       st.fractions(-3, 3, max_denominator=6), st.integers(0, 14))
@settings(max_examples=200, deadline=None)
def test_every_upper_row_sums_to_zero(a, b, delta, M):
    # Chu-Vandermonde on both halves of the row, for any shifts: the
    # filtered read leaves thm1's row sums uncomputed on this alone
    tables = series_module._tables(Family.UPPER_FACTOR, a, b, delta, M)[2]
    for m in range(M + 1):
        assert sum(series_module._fold_row(Family.UPPER_FACTOR, tables, m)) == 0


# ------------------------------------------------- the independent checker

def _disagreements(family: str, points, M: int) -> list:
    """(point, what) of every point at which the checker's entry signs
    differ from the filtered read's ("filtered") or from the exact fold's
    ("exact"), or at which the read made from the checker's signs differs
    from the package's cached read ("read")."""
    out = []
    for a, b, d in points:
        point = (FAMILIES[family], a, b, d, M)
        tables = series_module._tables(*point)[2]
        expected = checker.row_signs(family, a, b, d, M)
        exact = series_module._fold_rows(point[0], tables)
        reads = {"filtered": _signs(series_module._sign_rows(tables)),
                 "exact": _signs(exact)}
        out += [(point, name) for name, rows in reads.items() if rows != expected]
        upper = family == "upper"
        if verify_module._read_point(*point, None, False) != \
                verify_module._row_signs(expected, None, False, upper, False):
            out.append((point, "read"))
    return out


@pytest.fixture
def filter_everywhere(monkeypatch):
    """The filter takes every point, the default grids' at M = 40 too."""
    monkeypatch.setattr(series_module, "FILTER_MIN_BITS", 0)


@pytest.mark.parametrize("family", FAMILIES)
def test_checker_agrees_with_both_reads(request, filter_everywhere, family):
    M = request.config.getoption("--checker-M")
    assert {p[1:4] for p in _points(family, M)} == set(checker.DEFAULT_POINTS)
    assert _disagreements(family, checker.DEFAULT_POINTS, M) == []


@pytest.mark.parametrize("family", FAMILIES)
def test_checker_sees_one_flipped_entry_in_itself(monkeypatch, filter_everywhere,
                                                 family):
    real = checker.row_signs

    def flipped(*args):
        rows = real(*args)
        rows[7][2] = -rows[7][2] or 1
        return rows

    monkeypatch.setattr(checker, "row_signs", flipped)
    names = [name for _, name in _disagreements(family, checker.DEFAULT_POINTS[:1], 12)]
    assert {"filtered", "exact"} <= set(names)


@pytest.mark.parametrize("family", FAMILIES)
def test_checker_sees_one_flipped_entry_in_the_kernel(monkeypatch, filter_everywhere,
                                                     family):
    real = series_module._sign_row

    def flipped(tables, scaled, m):
        values = real(tables, scaled, m)
        if m == 7:
            values[2] = -values[2] or 1
        return values

    monkeypatch.setattr(series_module, "_sign_row", flipped)
    names = [name for _, name in _disagreements(family, checker.DEFAULT_POINTS[:1], 12)]
    assert "filtered" in names and "exact" not in names
