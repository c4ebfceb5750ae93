"""Preset headline numbers against committed reference values.

golden.json holds, per preset, the numbers a figure rests on: the fig2
phase-diagram cells (a Chern vector per cell, "undef" for a closed gap), the
fig3a gap scan, the gaps and Chern vectors of fig3b-d, the windings, branch
counts, fiducials and Chern vectors of fig4a/4b, the fitted parameters of the
two extract presets and the pump C_est of fig5a/b/c.  Floats are compared at
GOLDEN_RTOL, not byte for byte, so that a different BLAS or eigensolver
rounding passes while a changed formula fails.  Lattice energies are in
units of J = 1, and a gap that vanishes is compared at GOLDEN_ATOL * |J|.

Rewrite golden.json only for a change meant to move these numbers:
    PYTHONPATH=src python tests/test_golden.py
(this runs the three full pump presets too, about two minutes).
"""

import json
import math
import os
import sys
import tempfile

import pytest

from aahpump.cli import COMMANDS, PRESETS, _cell_str, build_config, \
    main as cli_main
from aahpump.ioutil import staged

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden.json")
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-12
LATTICE_J = 1.0  # the lattice commands fix J = 1

LATTICE = ("fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b")
EXTRACT = ("extract-gamma5", "extract-gamma9")
PUMPS = ("fig5a", "fig5b", "fig5c")

# result keys each command's presets are pinned by
KEYS = {
    "bands": ("gaps", "cherns"),
    "edges": ("gap_windings", "branch_counts", "fiducial_energies",
              "chern_numbers"),
    "extract": ("J_per_um", "nu_od_per_um", "nu_d_per_um", "delta_phi_rad",
                "onsite_per_um", "bonds_per_um"),
}


def _plain(v):
    """JSON-ready copy: tuples become lists, numpy scalars Python ones."""
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, (bool, int, str)):
        return v
    return float(v)


def preset_values(name, outdir):
    """The pinned numbers of a lattice or extract preset, from its
    command's in-process result (full precision, not the printed files)."""
    command, overrides, _, _ = PRESETS[name]
    cfg = build_config(command, overrides, None, [])
    with staged() as out:
        result = COMMANDS[command](cfg, os.path.join(outdir, name), out)
    if name == "fig2":
        return {"cells": [[_cell_str(cv) for cv in row]
                          for row in result["diagram"].cells]}
    if name == "fig3a":
        return {"scan": _plain(result["scan"])}
    return {key: _plain(result[key]) for key in KEYS[command]}


def pump_value(summary):
    return {"chern_estimate": summary["chern_estimate"]}


def assert_close(actual, expected, atol, where):
    if isinstance(expected, float):
        assert isinstance(actual, (int, float)), where
        assert math.isclose(actual, expected, rel_tol=GOLDEN_RTOL,
                            abs_tol=atol), \
            f"{where}: {actual!r} != {expected!r}"
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), \
            f"{where}: {actual!r} != {expected!r}"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, atol, f"{where}[{i}]")
    elif isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], atol, f"{where}.{key}")
    else:  # ints, "undef" markers
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", LATTICE + EXTRACT)
def test_preset_matches_golden(golden, tmp_path, name):
    atol = GOLDEN_ATOL * LATTICE_J if name in LATTICE else 0.0
    assert_close(preset_values(name, str(tmp_path)), golden[name], atol,
                 name)


@pytest.mark.parametrize("name", PUMPS)
def test_pump_matches_golden(golden, pump_summary, name):
    assert_close(pump_value(pump_summary(name)), golden[name], 0.0, name)


def write_golden(path=GOLDEN_PATH):
    values = {}
    with tempfile.TemporaryDirectory() as outdir:
        for name in LATTICE + EXTRACT:
            values[name] = preset_values(name, outdir)
        for name in PUMPS:
            rc = cli_main([PRESETS[name][0], "--preset", name,
                           "--outdir", outdir])
            if rc != 0:
                raise SystemExit(f"preset {name} exited {rc}")
            with open(os.path.join(outdir, f"{name}_summary.json")) as fh:
                values[name] = pump_value(json.load(fh))
    # one preset per line keeps the file compact and its diffs readable
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                                    for k, v in values.items()) + "\n}\n")


if __name__ == "__main__":
    write_golden(sys.argv[1] if len(sys.argv) > 1 else GOLDEN_PATH)
