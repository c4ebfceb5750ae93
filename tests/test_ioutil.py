import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aahpump.ioutil import format_cell, format_float, write_csv, write_json, \
    write_pgm


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

    def test_cells(self):
        assert format_cell(True) == "True"
        assert format_cell(np.int64(-3)) == "-3"
        assert format_cell("undef") == "undef"
        assert format_cell(np.float64(0.25)) == "0.25"
        assert format_cell(-0.0) == "0"

    @given(n=st.integers(-2**63, 2**63 - 1))
    def test_int_fast_path_matches_numpy_ints(self, n):
        assert format_cell(n) == format_cell(np.int64(n)) == str(n)

    def test_bools_and_strings_keep_their_form(self):
        # bool is an int subclass, so it must miss the exact-int fast path
        assert [format_cell(b) for b in (True, False, np.True_)] == \
            ["True", "False", "True"]
        assert format_cell(np.str_("LeftEdge")) == "LeftEdge"
        assert format_cell("") == ""


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

    def test_pgm_requires_2d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(tmp_path / "x.pgm", np.ones(4))
