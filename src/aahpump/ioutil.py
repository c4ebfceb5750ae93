"""Deterministic text output helpers shared by the library and the CLI.

All floating-point output goes through format_float (printf "%.12g",
negative zero normalized) so results are byte-identical regardless of
thread count or platform locale.
"""

from __future__ import annotations

import json

import numpy as np


def format_float(x) -> str:
    """printf "%.12g": 12 significant digits, exponent form when the
    rounded value is below 1e-4 or at least 1e12, trailing zeros dropped;
    -0 prints as 0 and non-finite values as nan, inf, -inf."""
    return f"{x + 0.0:.12g}"


def format_cell(v) -> str:
    """CSV cell: floats via format_float, everything else via str."""
    # exact-type fast paths: tables arrive as plain Python values
    if type(v) is float:
        return format_float(v)
    if type(v) is str:
        return v
    if type(v) is int:
        return str(v)
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(v)
    return str(v)


def write_csv(path, header, rows) -> None:
    """Comma-separated file with a header row and formatted cells."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(map(format_cell, row)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(format_float(v))
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return v


def write_json(path, obj) -> None:
    """JSON with sorted keys and floats rounded through format_float."""
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_pgm(path, values: np.ndarray, max_gray: int = 255) -> None:
    """Plain-text (P2) PGM image of a 2-D array scaled to [0, max_gray].

    Rows of the array become image rows.  A constant array maps to zero.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise ValueError("PGM export requires a 2-D array")
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        gray = np.rint((a - lo) / (hi - lo) * max_gray).astype(int)
    else:
        gray = np.zeros(a.shape, dtype=int)
    lines = ["P2", f"{a.shape[1]} {a.shape[0]}", str(max_gray)]
    for row in gray:
        lines.append(" ".join(map(str, row.tolist())))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
