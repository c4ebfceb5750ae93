"""Deterministic text output helpers shared by the library and the CLI.

All floating-point output is printf FLOAT_FORMAT ("%.12g") after + 0.0,
which turns -0 into 0, so results are byte-identical on a rerun and
under any platform locale.  The writers stream: a float table and a PGM
image one row at a time, through the row writers float_rows and pgm_rows
that a caller can also feed row by row as it computes them, and any other
rows one block of _BLOCK_ROWS at a time.  The writers write where they
are told; staged gives a run temporaries that become its artifacts only
when the whole run completes.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from itertools import chain, islice

import numpy as np

FLOAT_FORMAT = "%.12g"
_BLOCK_ROWS = 1024
_FLOATS = (float, np.floating)


def format_float(x) -> str:
    """printf "%.12g": 12 significant digits, exponent form when the
    rounded value is below 1e-4 or at least 1e12, trailing zeros dropped;
    -0 prints as 0 and non-finite values as nan, inf, -inf."""
    return FLOAT_FORMAT % (x + 0.0)


def _column(cells):
    """(format, values) of one CSV column: float cells (Python or numpy)
    print as format_float does, every other cell as str() does."""
    kinds = set(map(type, cells))
    if all(issubclass(t, _FLOATS) for t in kinds):
        return FLOAT_FORMAT, (np.array(cells, dtype=float) + 0.0).tolist()
    if any(issubclass(t, _FLOATS) for t in kinds):
        cells = [format_float(v) if isinstance(v, _FLOATS) else v
                 for v in cells]
    return "%s", cells


def float_rows(fh, header):
    """Write the CSV header row to the open text file fh and return a
    writer of the lines below it: each call writes one 1-D float array of
    len(header) values, each printed as format_float prints it."""
    fh.write(",".join(header) + "\n")
    line = ",".join([FLOAT_FORMAT] * len(header)) + "\n"

    def write(row):
        fh.write(line % tuple((row + 0.0).tolist()))

    return write


def write_csv(path, header, rows) -> None:
    """Comma-separated file with a header row.

    rows is an iterable of equally long rows; a float cell prints as
    format_float does, any other cell as str() does.  Rows are typed by
    column and formatted with one % per block of _BLOCK_ROWS, so memory
    does not grow with the table.  A float table computed row by row
    streams through float_rows instead.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        rows = iter(rows)
        while block := list(islice(rows, _BLOCK_ROWS)):
            columns = [_column(cells) for cells in zip(*block, strict=True)]
            line = ",".join(fmt for fmt, _ in columns) + "\n"
            cells = chain.from_iterable(zip(*(v for _, v in columns)))
            fh.write((line * len(block)) % tuple(cells))


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


def pgm_rows(fh, width, height, max_gray: int = 255):
    """Write the header of a plain-text (P2) PGM image of width x height to
    the open text file fh and return a writer of its rows: each call writes
    one row of width values, with lo drawn black, hi white and the values
    between scaled linearly to [0, max_gray]; a row with hi <= lo is all
    black.  A non-finite lo or hi has no grey scale and raises ValueError.
    """
    fh.write(f"P2\n{width} {height}\n{max_gray}\n")
    levels = [str(v) for v in range(max_gray + 1)]

    def write(row, lo, hi):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("PGM export requires finite values")
        if hi > lo:
            gray = np.rint((row - lo) / (hi - lo) * max_gray).astype(int)
        else:
            gray = np.zeros(len(row), dtype=int)
        fh.write(" ".join(map(levels.__getitem__, gray.tolist())) + "\n")

    return write


def write_pgm(path, values: np.ndarray, max_gray: int = 255) -> None:
    """Plain-text (P2) PGM image of a 2-D array scaled to [0, max_gray],
    its minimum black and its maximum white, written one row at a time
    through pgm_rows.

    Rows of the array become image rows.  A constant array maps to zero.
    Non-finite values have no grey level: pgm_rows raises ValueError at
    the first row, after the header is written, so a caller that must
    leave no partial file writes to a staged temporary.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise ValueError("PGM export requires a 2-D array")
    # min and max are nan if any value is, and carry any infinity
    lo, hi = float(a.min()), float(a.max())
    with open(path, "w") as fh:
        write = pgm_rows(fh, a.shape[1], a.shape[0], max_gray)
        for row in a:
            write(row, lo, hi)


@contextmanager
def staged():
    """Yield out(path), which names the temporary path + ".tmp" for the
    block to write and remembers path.  When the block completes, each
    temporary is renamed to its path, in the order out named them; when
    anything raises, before or during the renames, every temporary left is
    removed and the error propagates, so a failed run leaves no partial
    file behind."""
    temps = {}

    def out(path):
        return temps.setdefault(path, f"{path}.tmp")

    try:
        yield out
        for path, temp in temps.items():
            os.replace(temp, path)
    except BaseException:
        for temp in temps.values():
            with suppress(FileNotFoundError):
                os.remove(temp)
        raise
