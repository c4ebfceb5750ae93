import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aahpump.ioutil import float_rows, format_float, pgm_rows, staged, \
    write_csv, write_json, write_pgm


def reference_format_float(x) -> str:
    """The formatter's former pure-Python algorithm, kept as the oracle."""
    x = float(x)
    if x == 0.0:
        x = 0.0
    s = f"{x:.11e}"
    mantissa, exponent = s.split("e")
    exp = int(exponent)
    if -4 <= exp < 12:
        s = f"{x:.{11 - exp}f}" if exp < 11 else f"{x:.0f}"
        if "." in s:
            s = s.rstrip("0").rstrip(".")
        return s if s else "0"
    mantissa = mantissa.rstrip("0").rstrip(".")
    return f"{mantissa}e{exp:+03d}"


def reference_format_cell(v) -> str:
    """The per-cell formatter the row writers replaced, kept as the
    oracle."""
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{v + 0.0:.12g}"
    return str(v)


def reference_write_csv(path, header, rows):
    """The whole-file CSV writer the row writer replaced."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(reference_format_cell, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_float_rows(path, header, table):
    """A float table written row by row through float_rows."""
    with open(path, "w") as fh:
        write = float_rows(fh, header)
        for row in table:
            write(row)


def csv_cell(path, v) -> str:
    """The one cell of a one-row, one-column table as write_csv writes it."""
    write_csv(path, ["v"], [(v,)])
    return path.read_text().splitlines()[1]


def reference_write_pgm(path, values):
    """The whole-file PGM writer the row writer replaced, white at 255."""
    a = np.asarray(values, dtype=float)
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        gray = np.rint((a - lo) / (hi - lo) * 255).astype(int)
    else:
        gray = np.zeros(a.shape, dtype=int)
    lines = ["P2", f"{a.shape[1]} {a.shape[0]}", "255"]
    for row in gray:
        lines.append(" ".join(map(str, row.tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# floats where %.12g output is easy to get wrong: signed zeros, non-finite
# values, subnormals and both sides of the fixed/exponent switches
EDGE_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
               5e-324, -5e-324, 2.2250738585072e-308, 1e-310, 1e-4,
               np.nextafter(1e-4, 0.0), 9.999999999995e-5, 9.99999999999e-5,
               1e12, np.nextafter(1e12, 0.0), 999999999999.5,
               99999999999.95, 1.7976931348623157e308]
table_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                         st.sampled_from(EDGE_FLOATS).map(lambda x: -x),
                         st.floats())
text = st.text(alphabet="abcXYZ-_ 01.e", max_size=6)
# cells of the kinds the bands, edges and phase-diagram tables hold
cells = st.one_of(
    table_floats, table_floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1), st.integers(-2**31, 2**31 - 1)
    .map(np.int32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(), st.booleans().map(np.bool_), text, text.map(np.str_))


@st.composite
def float_tables(draw):
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    return np.array(draw(st.lists(table_floats, min_size=rows * cols,
                                  max_size=rows * cols)),
                    dtype=float).reshape(rows, cols)


@st.composite
def mixed_tables(draw):
    """Rows of equal length; each column holds one kind of cell or, with
    a column strategy of cells, several."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 5))
    kinds = [draw(st.sampled_from([cells, table_floats, st.integers(),
                                   text, st.booleans()]))
             for _ in range(cols)]
    return [tuple(draw(kind) for kind in kinds) for _ in range(rows)]


class TestFormatFloat:
    def test_negative_zero_normalized(self):
        assert format_float(-0.0) == "0"

    def test_plain_decimals(self):
        assert format_float(1.0) == "1"
        assert format_float(0.5) == "0.5"
        assert format_float(-3.25) == "-3.25"

    def test_twelve_significant_digits(self):
        assert format_float(np.pi) == "3.14159265359"
        assert format_float(1.23456789012345e-7) == "1.23456789012e-07"

    @given(st.floats(min_value=-1e30, max_value=1e30,
                     allow_nan=False, allow_infinity=False,
                     allow_subnormal=False))
    def test_round_trip_to_twelve_digits(self, x):
        s = format_float(x)
        if x == 0.0:
            assert s == "0"
        else:
            assert abs(float(s) - x) <= 1.000001e-11 * abs(x)

    @settings(max_examples=2000)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_matches_reference_algorithm(self, x):
        assert format_float(x) == reference_format_float(x)

    @pytest.mark.parametrize("x", [
        0.0, -0.0, 1e-4, 9.999999999995e-5, 99999999999.95, 1e11, 1e12,
        5e-324, 1.7976931348623157e308])
    def test_matches_reference_at_boundaries(self, x):
        assert format_float(x) == reference_format_float(x)
        assert format_float(-x) == reference_format_float(-x)
        assert format_float(np.float64(x)) == reference_format_float(x)

    def test_non_finite(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"
        assert format_float(-np.inf) == "-inf"

    def test_cells(self, tmp_path):
        path = tmp_path / "cell.csv"
        assert csv_cell(path, True) == "True"
        assert csv_cell(path, np.int64(-3)) == "-3"
        assert csv_cell(path, "undef") == "undef"
        assert csv_cell(path, np.float64(0.25)) == "0.25"
        assert csv_cell(path, -0.0) == "0"

    @given(n=st.integers(-2**63, 2**63 - 1))
    def test_int_fast_path_matches_numpy_ints(self, tmp_path_factory, n):
        path = tmp_path_factory.mktemp("csv") / "cell.csv"
        assert csv_cell(path, n) == csv_cell(path, np.int64(n)) == str(n)

    def test_bools_and_strings_keep_their_form(self, tmp_path):
        # bool is an int subclass, so it must miss the exact-int fast path
        path = tmp_path / "cell.csv"
        assert [csv_cell(path, b) for b in (True, False, np.True_)] == \
            ["True", "False", "True"]
        assert csv_cell(path, np.str_("LeftEdge")) == "LeftEdge"
        assert csv_cell(path, "") == ""


class TestWriters:
    def test_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [(1, 0.5), (2, "x")])
        assert path.read_text() == "a,b\n1,0.5\n2,x\n"

    def test_json_sorted_keys(self, tmp_path):
        path = tmp_path / "t.json"
        write_json(path, {"b": 1.0, "a": [np.float64(2.5), True]})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [2.5, True], "b": 1}

    def test_pgm_format(self, tmp_path):
        path = tmp_path / "t.pgm"
        write_pgm(path, np.array([[0.0, 1.0], [0.5, 1.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3] == "0 255"
        assert lines[4] == "128 255"

    def test_pgm_constant_array(self, tmp_path):
        path = tmp_path / "c.pgm"
        write_pgm(path, np.ones((2, 3)))
        assert path.read_text().splitlines()[3:] == ["0 0 0", "0 0 0"]

    @given(table=float_tables())
    @settings(max_examples=300, deadline=None)
    def test_float_table_matches_reference(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("csv")
        header = [f"c{i}" for i in range(table.shape[1])]
        reference_write_csv(path / "want.csv", header, table.tolist())
        write_float_rows(path / "array.csv", header, table)
        write_csv(path / "rows.csv", header, table.tolist())
        want = (path / "want.csv").read_bytes()
        assert (path / "array.csv").read_bytes() == want
        assert (path / "rows.csv").read_bytes() == want

    @given(rows=mixed_tables())
    @settings(max_examples=300, deadline=None)
    def test_mixed_rows_match_reference(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("csv")
        header = ["a", "b", "c", "d", "e"]
        reference_write_csv(path / "want.csv", header, rows)
        write_csv(path / "got.csv", header, rows)
        assert (path / "got.csv").read_bytes() == \
            (path / "want.csv").read_bytes()

    def test_rows_across_blocks_match_reference(self, tmp_path):
        # the kinds in a column change from one block of rows to the next
        rng = np.random.default_rng(3)
        rows = [(i, -0.0 if i % 7 == 0 else float(rng.normal()),
                 np.float64(i) if i < 1500 else "undef", i % 2 == 0)
                for i in range(2 * 1024 + 5)]
        header = ["i", "x", "y", "even"]
        reference_write_csv(tmp_path / "want.csv", header, rows)
        write_csv(tmp_path / "got.csv", header, iter(rows))
        assert (tmp_path / "got.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

    @given(shape=st.sampled_from([(1, 1), (1, 7), (7, 1), (4, 5)]),
           values=st.lists(st.floats(-1e6, 1e6), min_size=35, max_size=35),
           constant=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_pgm_matches_reference(self, tmp_path_factory, shape, values,
                                   constant):
        path = tmp_path_factory.mktemp("pgm")
        a = np.array(values[:shape[0] * shape[1]]).reshape(shape)
        if constant:
            a[:] = values[0]
        reference_write_pgm(path / "want.pgm", a)
        write_pgm(path / "got.pgm", a)
        assert (path / "got.pgm").read_bytes() == \
            (path / "want.pgm").read_bytes()

    @given(rows=st.integers(1, 5), cols=st.integers(1, 7),
           values=st.lists(st.floats(0.0, 1e6), min_size=35, max_size=35),
           zero_row=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_row_peak_scale_matches_global_stretch(self, tmp_path_factory,
                                                   rows, cols, values,
                                                   zero_row):
        # the intensity image draws 0 black and each row's peak white; the
        # pump wrote it before as its rows over their peaks, stretched from
        # the table's minimum to its maximum, which is the same image
        # whenever the table holds a 0
        a = np.array(values[:rows * cols]).reshape(rows, cols)
        a[-1, 0] = 0.0
        if zero_row:
            a[0] = 0.0
        path = tmp_path_factory.mktemp("pgm")
        peaks = a.max(axis=1, keepdims=True)
        peaks[peaks == 0] = 1.0
        reference_write_pgm(path / "want.pgm", a / peaks)
        with open(path / "got.pgm", "w") as fh:
            write = pgm_rows(fh, cols, rows)
            for row in a:
                write(row, 0.0, float(row.max()))
        assert (path / "got.pgm").read_bytes() == \
            (path / "want.pgm").read_bytes()

    def test_staged_renames_on_success_only(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.json"]
        with pytest.raises(KeyboardInterrupt):
            with staged() as out:
                for path in paths:
                    with open(out(path), "w") as fh:
                        fh.write("partial")
                # an interrupt is not an Exception, and still cleans up
                raise KeyboardInterrupt
        assert list(tmp_path.iterdir()) == []
        renamed, replace = [], os.replace

        def record(temp, path):
            renamed.append(path)
            replace(temp, path)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("os.replace", record)
            with staged() as out:
                temps = [out(path) for path in reversed(paths)]
                assert temps == [f"{path}.tmp" for path in reversed(paths)]
                # a path named twice names the same temporary
                assert out(paths[0]) == temps[1]
                for temp, text in zip(temps, ("b", "a")):
                    with open(temp, "w") as fh:
                        fh.write(text)
                assert sorted(tmp_path.iterdir()) == sorted(map(Path, temps))
        assert renamed == paths[::-1]  # in the order out named them
        assert [p.read_text() for p in paths] == ["a", "b"]
        assert sorted(tmp_path.iterdir()) == sorted(paths)

    def test_staged_removes_temporaries_when_a_rename_fails(self, tmp_path):
        # the second rename fails: the first file is committed, no
        # temporary is left, and the error propagates
        with pytest.raises(IsADirectoryError):
            with staged() as out:
                (tmp_path / "b.csv").mkdir()
                for name in ("a.csv", "b.csv", "c.csv"):
                    with open(out(tmp_path / name), "w") as fh:
                        fh.write(name)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv",
                                                               "b.csv"]
        assert (tmp_path / "a.csv").read_text() == "a.csv"

    def test_csv_streams_rows(self, tmp_path):
        # the fig5c intensity table: writing it must not build the file's
        # text, or even a second copy of the table, in memory
        table = np.random.default_rng(1).random((201, 4097))
        header = [f"x{i}" for i in range(table.shape[1])]
        tracemalloc.start()
        try:
            write_float_rows(tmp_path / "big.csv", header, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes

    def test_csv_streams_row_blocks(self, tmp_path):
        # the spectral-flow table (400 ky x 89 sites, ky given as text):
        # one % per block of rows must not build the file's text at once
        kys = [format_float(2 * np.pi * t / 400) for t in range(400)]
        energies = np.random.default_rng(2).normal(size=(400, 89)).tolist()
        rows = ((ky, a, e, "LeftEdge")
                for ky, row in zip(kys, energies)
                for a, e in enumerate(row, 1))
        path = tmp_path / "flow.csv"
        tracemalloc.start()
        try:
            write_csv(path, ["ky", "index", "energy", "label"], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text()
        assert text.count("\n") == 1 + 400 * 89
        assert peak < len(text)

    def test_ragged_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "r.csv", ["a", "b"], [(1, 2), (3,)])

    def test_pgm_requires_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pgm_rejects_non_finite(self, tmp_path, bad):
        # a non-finite value has no grey level; staged, nothing is left
        a = np.array([[0.0, 1.0], [2.0, bad]])
        with pytest.raises(ValueError, match="requires finite values"):
            with staged() as out:
                write_pgm(out(tmp_path / "x.pgm"), a)
        assert list(tmp_path.iterdir()) == []
