import json
import math
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import aahpump
from aahpump import topology
from aahpump.cli import PRESETS, SCHEMAS, _build_design, _check_pump, \
    _guide, _inclusive_range, build_config, cmd_phase_diagram, cmd_pump, \
    load_config_file, main
from aahpump.ioutil import format_float, staged
from aahpump.model import MAX_ARRAY_ELEMENTS, ConfigError
from aahpump.propagation import default_grid, gaussian_input, \
    split_step_propagate
from aahpump.topology import Undefined


# a fig5b run that is short: 50 steps and no lz fit
SHORT_FIG5B = ["Z_cm=0.2", "num_slices=10", "dz_um=10", "lz_estimate=false"]


def run(args):
    return main([str(a) for a in args])


def run_command(command, cfg, prefix):
    """A command called as main calls it: its artifacts staged, and renamed
    to their paths once it returns."""
    with staged() as out:
        return command(cfg, prefix, out)


def run_peak_bytes(args):
    """Exit code of a CLI run and the tracemalloc peak of its allocations."""
    tracemalloc.start()
    try:
        return run(args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfig:
    def test_defaults_and_overrides(self):
        cfg = build_config("bands", {}, None, ["nu_od_over_J=10", "nx=12"])
        assert cfg["nu_od_over_J"] == 10.0
        assert cfg["nx"] == 12
        assert cfg["q"] == 3

    def test_file_then_flags(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nnu_od_over_J = 2.0\nny = 16\n")
        cfg = build_config("bands", {}, str(path), ["nu_od_over_J=5.0"])
        assert cfg["nu_od_over_J"] == 5.0  # flag wins over file
        assert cfg["ny"] == 16

    def test_unknown_key_named(self, tmp_path, capsys):
        rc = run(["bands", "nonsense=1", "--outdir", tmp_path])
        assert rc == 2
        assert "nonsense" in capsys.readouterr().err

    def test_malformed_file_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(Exception):
            load_config_file("bands", str(path))
        rc = run(["bands", "--config", path, "--outdir", tmp_path])
        assert rc == 2

    def test_bad_value_type(self, tmp_path):
        assert run(["bands", "nx=abc", "--outdir", tmp_path]) == 2

    def test_preset_command_mismatch(self, tmp_path):
        assert run(["bands", "--preset", "fig4a", "--outdir", tmp_path]) == 2


class TestPresets:
    def test_every_figure_has_a_preset(self):
        for name in ("fig2", "fig3a", "fig3b", "fig3c", "fig3d", "fig4a",
                     "fig4b", "fig5a", "fig5b", "fig5c"):
            assert name in PRESETS

    def test_list_presets(self, capsys):
        assert run(["--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out


class TestCommands:
    def test_bands_csv_structure(self, tmp_path):
        rc = run(["bands", "--outdir", tmp_path, "--out", "r",
                  "nx=8", "ny=8"])
        assert rc == 0
        lines = (tmp_path / "r_bands.csv").read_text().splitlines()
        assert lines[0] == "kx,ky,band,energy"
        assert len(lines) == 1 + 3 * 8 * 8

    def test_bands_q1_single_cosine(self, tmp_path):
        rc = run(["bands", "--outdir", tmp_path, "--out", "r", "q=1", "p=0",
                  "nu_od_over_J=0", "nx=8", "ny=4"])
        assert rc == 0
        rows = (tmp_path / "r_bands.csv").read_text().splitlines()[1:]
        for row in rows:
            kx, _, band, energy = row.split(",")
            assert band == "1"
            assert float(energy) == pytest.approx(-2 * np.cos(float(kx)),
                                                  abs=1e-9)

    def test_bands_pgm(self, tmp_path):
        run(["bands", "--outdir", tmp_path, "--out", "r", "pgm=true",
             "nx=8", "ny=8"])
        for n in (1, 2, 3):
            assert (tmp_path / f"r_band{n}.pgm").exists()

    def test_edges_outputs(self, tmp_path):
        rc = run(["edges", "--outdir", tmp_path, "--out", "r",
                  "num_sites=30", "n_ky=40"])
        assert rc == 0
        assert (tmp_path / "r_spectral_flow.csv").exists()
        assert (tmp_path / "r_windings.json").exists()

    def test_phase_diagram_cache_keeps_min_gap(self, tmp_path):
        # at nu_od/J = 4 both gaps close, so every band is Undefined with a
        # small nonzero min_gap, which the cell record carries exactly
        cfg = build_config("phase-diagram", {}, None, [
            "nu_od_over_J_min=4", "nu_od_over_J_max=4",
            "nu_d_over_J_min=0", "nu_d_over_J_max=0"])
        prefix = str(tmp_path / "g")
        cells = run_command(cmd_phase_diagram, cfg, prefix)["diagram"].cells
        assert all(isinstance(c, Undefined) and c.min_gap > 0
                   for c in cells[0][0])
        record = (tmp_path / "g_cells.cache").read_text()
        assert record == "0 " + " ".join(
            f"undef:{c.min_gap!r}" for c in cells[0][0]) + "\n"

    def test_phase_diagram_ignores_a_stale_record(self, tmp_path):
        # a rerun into the same outdir computes every cell again: a record
        # whose first cell was changed is overwritten, not read
        args = ["phase-diagram", "--outdir", tmp_path, "--out", "r",
                "nu_od_over_J_max=2", "nu_d_over_J_min=0",
                "nu_d_over_J_max=1", "nx=12", "ny=12"]
        assert run(args) == 0
        csv = (tmp_path / "r_phase_diagram.csv").read_bytes()
        record = tmp_path / "r_cells.cache"
        lines = record.read_text().splitlines(keepends=True)
        record.write_text("".join("0 9 9 9\n" if line.startswith("0 ")
                                  else line for line in lines))
        assert run(args) == 0
        assert (tmp_path / "r_phase_diagram.csv").read_bytes() == csv

    def test_phase_diagram_interrupted_leaves_nothing(self, tmp_path,
                                                      monkeypatch):
        # an interrupt at the third cell leaves neither the record nor a
        # temporary behind
        class Interrupt(BaseException):
            pass

        cell = topology._cell_chern_numbers
        calls = []

        def third_raises(*args):
            calls.append(args)
            if len(calls) == 3:
                raise Interrupt
            return cell(*args)

        monkeypatch.setattr(topology, "_cell_chern_numbers", third_raises)
        with pytest.raises(Interrupt):
            run(["phase-diagram", "--outdir", tmp_path, "nu_od_over_J_max=2",
                 "nu_d_over_J_min=0", "nu_d_over_J_max=1", "nx=8", "ny=8"])
        assert len(calls) == 3
        assert list(tmp_path.iterdir()) == []

    def test_underresolved_windings_exit_3(self, tmp_path, capsys):
        rc = run(["edges", "--outdir", tmp_path, "nu_od_over_J=10",
                  "n_ky=4"])
        assert rc == 3
        assert "WindingUnderresolved" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # nothing written

    def test_bulk_labelled_crossings_exit_3(self, tmp_path, capsys):
        # in-gap states too spread out for 5 edge sites are labelled Bulk
        rc = run(["edges", "--outdir", tmp_path, "nu_od_over_J=3.5"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "WindingUnderresolved" in err and "labelled Bulk" in err
        assert list(tmp_path.iterdir()) == []  # nothing written

    def test_wider_edges_resolve_windings(self, tmp_path):
        assert run(["edges", "--outdir", tmp_path, "--out", "r",
                    "nu_od_over_J=3.5", "edge_sites=10"]) == 0
        report = json.loads((tmp_path / "r_windings.json").read_text())
        assert report["gap_windings"] == [-1, 1]
        assert report["bulk_edge_consistent"] is True

    def test_check_mismatch_exits_4(self, tmp_path, capsys):
        rc = run(["bands", "--preset", "fig3b", "--check",
                  "--outdir", tmp_path, "nu_od_over_J=10"])
        assert rc == 4
        assert "check failed" in capsys.readouterr().err
        # swept ranges that miss a reference cell fail the check, not crash
        rc = run(["phase-diagram", "--preset", "fig2", "--check",
                  "--outdir", tmp_path, "nu_od_over_J_min=2",
                  "nu_od_over_J_max=3", "nu_d_over_J_min=0",
                  "nu_d_over_J_max=0"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "check failed [fig2]: cell (1, 0) is outside" in err
        assert "check failed [fig2]: cell (10, 0) is outside" in err

    def test_check_finds_cells_between_float_steps(self, tmp_path, capsys):
        # 0.1 + 3 * 0.3 is 0.9999999999999999, written as 1 in the CSV
        args = ["phase-diagram", "--preset", "fig2", "--check", "--outdir",
                tmp_path, "nu_od_over_J_min=0.1", "nu_od_over_J_step=0.3",
                "nu_d_over_J_min=0", "nu_d_over_J_max=0"]
        assert run(args + ["nu_od_over_J_max=1"]) == 4
        assert (tmp_path / "fig2_phase_diagram.csv").read_text() \
            .splitlines()[-1] == "1,0,-1,2,-1"
        err = capsys.readouterr().err
        assert "cell (1, 0)" not in err
        assert "check failed [fig2]: cell (10, 0) is outside" in err
        # with 0.1 + 33 * 0.3 for 10 both cells are found and checked
        assert run(args + ["nu_od_over_J_max=10"]) == 0
        assert "check passed [fig2]" in capsys.readouterr().out

    def test_check_pump_reports_each_margin(self):
        # every gated value next to its bound and the margin, on a pass
        # and on a fail; the bounds are propagation's named constants
        errors, margins = [], []
        _check_pump(-0.99)({"chern_estimate": -0.96, "norm_drift": 2e-11,
                            "leakage_max": 3e-5}, errors, margins)
        assert errors == []
        assert margins == ["|C_est - (-0.99)| = 0.03 <= 0.05, margin 0.02",
                           "norm drift = 2e-11 < 1e-10, margin 8e-11",
                           "leakage = 3e-05 < 0.0001, margin 7e-05"]
        errors, margins = [], []
        _check_pump(-0.99)({"chern_estimate": -0.93, "norm_drift": 1e-10,
                            "leakage_max": 2e-4}, errors, margins)
        assert margins == []
        assert errors == ["|C_est - (-0.99)| = 0.06 > 0.05, margin -0.01",
                          "norm drift = 1e-10 >= 1e-10, margin 0",
                          "leakage = 0.0002 >= 0.0001, margin -0.0001"]

    def test_check_prints_margins(self, tmp_path, capsys):
        # a pass keeps the 'check passed [preset]' prefix on every line
        assert run(["bands", "--preset", "fig3c", "--check",
                    "--outdir", tmp_path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("check passed [fig3c]: largest gap = ")
        assert out[0].endswith(" < 0.001, margin 0.001")
        # a pump whose C_est misses its target exits 4 and names the margin
        assert run(["pump", "--preset", "fig5b", "--check", "--outdir",
                    tmp_path, *SHORT_FIG5B]) == 4
        err = capsys.readouterr().err
        assert "check failed [fig5b]: |C_est - (-0.99)| = " in err
        assert "> 0.05, margin -" in err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        rc = run(["pump", "--preset", "fig5a", "--outdir", tmp_path,
                  "dz_um=50"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_huge_finite_input_exits_3(self, tmp_path, capsys):
        # 1e300 is a finite input, so it runs; its gap certificate then
        # overflows and certifies no fiducial
        rc = run(["edges", "--outdir", tmp_path, "nu_d_over_J=1e300"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "FiducialInGapViolation" in err
        assert "overflows float64" in err
        assert list(tmp_path.iterdir()) == []  # nothing written

    @pytest.mark.parametrize("preset, overrides, message", [
        # dz does not divide the 750 um slices
        pytest.param("fig5c", ["dz_um=4"], "multiples of dz",
                     id="fig5c-dz_um=4"),
        pytest.param("fig5b", ["num_guides=4"], "positive odd count",
                     id="fig5b-num_guides=4"),
        pytest.param("fig5b", ["W_um=0"], "W must be positive",
                     id="fig5b-W_um=0"),
        pytest.param("fig5b", ["ws_um=0"], "ws must be positive",
                     id="fig5b-ws_um=0"),
        pytest.param("fig5b", ["dx_um=0"], "need dx > 0",
                     id="fig5b-dx_um=0"),
        pytest.param("fig5b", ["dx_um=nan"], "need dx > 0",
                     id="fig5b-dx_um=nan"),
        pytest.param("fig5b", ["num_slices=-1"], "num_slices >= 1",
                     id="fig5b-num_slices=-1"),
        # no guide has two neighbours to compare spacings with
        pytest.param("fig5b", ["design=spacing", "num_guides=1"],
                     "needs num_guides >= 3",
                     id="fig5b-design=spacing-num_guides=1"),
        # rejected before the propagation, not by the lz fit after it
        pytest.param("fig5b", ["p=-1"], "p must be >= 0", id="fig5b-p=-1"),
        pytest.param("fig5b", ["q=11"], "needs more than the 13 guides",
                     id="fig5b-q=11"),
        # the lz estimate's fit needs q >= 3
        pytest.param("fig5b", ["q=1"], "inversion underdetermined",
                     id="fig5b-q=1"),
        # a centre off the grid or a NaN width would propagate NaN
        pytest.param("fig5b", ["injection_guide=1000", *SHORT_FIG5B],
                     "outside the grid", id="fig5b-injection_guide=1000"),
        pytest.param("fig5b", ["W_um=nan", *SHORT_FIG5B],
                     "W must be positive and finite", id="fig5b-W_um=nan"),
        pytest.param("fig5b", ["gamma=nan", *SHORT_FIG5B],
                     "gamma must be finite", id="fig5b-gamma=nan"),
        # a non-finite design or grid float is an input error too
        pytest.param("fig5b", ["alpha=nan", *SHORT_FIG5B],
                     "alpha must be finite", id="fig5b-alpha=nan"),
        pytest.param("fig5b", ["wx_um=nan", *SHORT_FIG5B],
                     "wx must be finite", id="fig5b-wx_um=nan"),
        pytest.param("fig5b", ["ws_um=inf", *SHORT_FIG5B],
                     "ws must be finite", id="fig5b-ws_um=inf"),
        pytest.param("fig5b", ["dx_um=inf", *SHORT_FIG5B],
                     "need dx > 0, finite", id="fig5b-dx_um=inf"),
        pytest.param("fig5b", [*SHORT_FIG5B, "dz_um=nan"],
                     "need a finite dz > 0", id="fig5b-dz_um=nan"),
        pytest.param("fig5c", ["phi0_rad=inf"], "phi0 must be finite",
                     id="fig5c-phi0_rad=inf"),
        # a huge width or a tiny step asks for more samples than a grid may
        # hold: rejected before the grid is made (the lz fit's mode grid
        # first, then the pump's)
        pytest.param("fig5b", ["ws_um=1e300"],
                     "mode grid 1.6e+301 um wide at dx = 0.05 um holds more "
                     "than 1048576 samples", id="fig5b-ws_um=1e300"),
        pytest.param("fig5b", ["ws_um=1e300", *SHORT_FIG5B],
                     "grid 2.7e+301 um wide at dx = 0.15625 um holds more "
                     "than 1048576 samples",
                     id="fig5b-ws_um=1e300-no-lz"),
        pytest.param("fig5b", ["dx_um=1e-300", *SHORT_FIG5B],
                     "holds more than 1048576 samples",
                     id="fig5b-dx_um=1e-300"),
        pytest.param("fig5b", ["dx_um=1e-5", *SHORT_FIG5B],
                     "holds more than 1048576 samples", id="fig5b-dx_um=1e-5"),
        # and a huge period more steps than a run may take, checked before
        # a step count is cast
        pytest.param("fig5b", ["Z_cm=1e300", "lz_estimate=false"],
                     "a run to Z = 1e+304 um at dz = 1 um takes 1e+304 "
                     "steps, more than 16777216", id="fig5b-Z_cm=1e300"),
        # and a huge slice count asks for more z than an array may hold
        pytest.param("fig5b", [*SHORT_FIG5B, "num_slices=1000000000000"],
                     "1000000000000 slices would hold 1000000000001 "
                     "elements, more than 16777216",
                     id="fig5b-num_slices=1e12"),
    ])
    def test_bad_pump_config_exits_2(self, tmp_path, capsys, preset,
                                     overrides, message):
        rc, peak = run_peak_bytes(["pump", "--preset", preset, "--outdir",
                                   tmp_path, *overrides])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert message in err
        assert list(tmp_path.iterdir()) == []  # nothing written
        assert peak < 8 * MAX_ARRAY_ELEMENTS  # no array at the cap made

    @pytest.mark.parametrize("args", [
        ["bands", "q=4", "nx=8", "ny=8"],
        ["bands", "p=2", "q=4", "nx=8", "ny=8"],
        ["phase-diagram", "q=4", "nu_od_over_J_max=0", "nu_d_over_J_max=-4",
         "nx=8", "ny=8"],
        ["edges", "q=2", "nu_d_over_J=1", "delta_phi_rad=1", "n_ky=40"],
    ], ids=["bands-q=4", "bands-p=2-q=4", "phase-diagram-q=4", "edges-q=2"])
    def test_even_q_exits_2(self, tmp_path, capsys, args):
        assert run([args[0], "--outdir", tmp_path, *args[1:]]) == 2
        assert "config error: reduced q = " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # nothing written

    @pytest.mark.parametrize("args, message", [
        (["edges", "num_sites=6"], "num_sites = 6"),
        (["bands", "nx=1"], "nx and ny must be >= 4"),
        # a band grid takes 3 x 48; the Chern numbers, computed first, do not
        (["bands", "nx=3"], "nx and ny must be >= 4"),
        (["phase-diagram", "nx=1"], "nx and ny must be >= 4"),
        (["bands", "scan=true", "nx=1"], "nx and ny must be >= 2"),
        (["bands", "scan=true", "scan_step=0"], "scan_step must be > 0"),
        (["edges", "edge_sites=0"], "edge_sites must be >= 1"),
        (["edges", "edge_threshold=2"], "edge_threshold must lie in (0, 1)"),
        (["edges", "n_ky=1"], "n_ky must be >= 3"),
        (["bands", "q=0"], "q must be >= 1"),
        (["bands", "p=-1"], "p must be >= 0"),
        (["phase-diagram", "p=-1"], "p must be >= 0"),
        (["edges", "p=-1"], "p must be >= 0"),
        (["extract", "wx_um=0"], "wx must be positive"),
        (["extract", "Z_cm=0"], "pump period Z must be positive"),
        (["extract", "ws_um=0"], "ws must be positive"),
        (["extract", "q=11"], "needs more than the 13 guides"),
        (["extract", "q=1"], "inversion underdetermined"),
        (["extract", "mode_dx_um=0.3"], "ws must be a multiple of dx"),
        (["extract", "mode_dx_um=0"], "mode dx must be positive"),
        # a non-finite float is an input error, not a numerical failure
        (["edges", "nu_od_over_J=nan"], "nu_od must be finite"),
        (["bands", "nu_od_over_J=nan"], "nu_od must be finite"),
        (["bands", "nu_d_over_J=inf"], "nu_d must be finite"),
        (["extract", "gamma=nan"], "gamma must be finite"),
        (["phase-diagram", "nu_od_over_J_step=nan"],
         "nu_od_over_J_step must be > 0"),
        (["phase-diagram", "nu_d_over_J_min=nan"],
         "nu_d_over_J_min and nu_d_over_J_max must be finite"),
        (["extract", "alpha=nan"], "alpha must be finite"),
        (["extract", "Z_cm=nan"], "Z must be finite"),
        (["extract", "mode_dx_um=nan"], "mode dx must be positive and "
                                        "finite"),
        # a tiny step asks for more samples than a range may hold; the
        # subnormal one makes the sample count infinite
        (["phase-diagram", "nu_od_over_J_step=1e-300"],
         "holds more than 1000000 samples"),
        (["phase-diagram", "nu_d_over_J_step=5e-324"],
         "holds more than 1000000 samples"),
        (["bands", "scan=true", "scan_step=1e-300"],
         "holds more than 1000000 samples"),
        # and a mode grid more samples than a grid may hold
        (["extract", "mode_dx_um=1e-300"],
         "mode grid 160 um wide at dx = 1e-300 um holds more than 1048576 "
         "samples"),
        (["extract", "ws_um=1e300"], "holds more than 1048576 samples"),
        # and a huge mesh or chain asks for more elements than an array
        # may hold
        (["bands", "nx=100000", "ny=100000"],
         "100001 x 100001 blocks of 3 x 3 would hold 90001800009 "
         "elements, more than 16777216"),
        (["edges", "num_sites=100000000", "n_ky=3"],
         "an open chain of 100000000 sites at 3 ky would hold "
         "10000000000000000 elements"),
        # a sweep checks its largest cell mesh (the 16x finer ky mesh of a
        # fiducial placed again) before it computes a cell
        (["phase-diagram", "ny=5000000", "nu_od_over_J_max=0",
          "nu_d_over_J_max=-4"],
         "2 x 80000000 blocks of 3 x 3 would hold 1440000000 elements"),
        (["phase-diagram", "ny=100000000"],
         "2 x 1600000000 blocks of 3 x 3 would hold"),
        # its axes included
        (["phase-diagram", "nx=1000000000"],
         "the axes of a 1000000000 x 384 zone mesh would hold 1000000384 "
         "elements"),
        # a p or q past the cap overflows the residues p*j mod q
        (["phase-diagram", f"p={10**30}"],
         f"reduced p/q = {10**30}/3 exceeds 16777216"),
        # a block of guide windows is checked before it is made
        (["extract", "wx_um=1e300"], "13 guide windows 5.98e+300 um wide "
                                     "at dx = 0.05 um would hold"),
        (["pump", "wx_um=1e300", "lz_estimate=false"],
         "21 guide windows 5.98e+300 um wide at dx = 0.15625 um would hold"),
        # a mode grid needs a sample per spacing, an input a nonzero sample
        (["extract", "ws_um=1e-300"], "ws = 1e-300 um is below the mode "
                                      "dx = 0.05 um"),
        (["pump", "--preset", "fig5c", "W_um=1e-300"],
         "an input of width W = 1e-300 um samples to zero"),
        # and a zone mesh its axes before it allocates them
        (["bands", "ny=100000000"], "the axes of a 48 x 100000000 zone "
                                    "mesh would hold 100000050 elements"),
        (["bands", "scan=true", "ny=100000000"],
         "the axes of a 48 x 100000000 zone mesh would hold 100000048 "
         "elements"),
    ], ids=["edges-num_sites=6", "bands-nx=1", "bands-nx=3",
            "phase-diagram-nx=1", "bands-scan-nx=1", "bands-scan_step=0",
            "edges-edge_sites=0", "edges-edge_threshold=2", "edges-n_ky=1",
            "bands-q=0", "bands-p=-1", "phase-diagram-p=-1", "edges-p=-1",
            "extract-wx_um=0", "extract-Z_cm=0", "extract-ws_um=0",
            "extract-q=11", "extract-q=1", "extract-mode_dx_um=0.3",
            "extract-mode_dx_um=0", "edges-nu_od_over_J=nan",
            "bands-nu_od_over_J=nan", "bands-nu_d_over_J=inf",
            "extract-gamma=nan", "phase-diagram-nu_od_over_J_step=nan",
            "phase-diagram-nu_d_over_J_min=nan", "extract-alpha=nan",
            "extract-Z_cm=nan", "extract-mode_dx_um=nan",
            "phase-diagram-nu_od_over_J_step=1e-300",
            "phase-diagram-nu_d_over_J_step=5e-324",
            "bands-scan-scan_step=1e-300", "extract-mode_dx_um=1e-300",
            "extract-ws_um=1e300", "bands-nx=ny=100000",
            "edges-num_sites=1e8", "phase-diagram-ny=5e6",
            "phase-diagram-ny=1e8", "phase-diagram-nx=1e9",
            "phase-diagram-p=1e30", "extract-wx_um=1e300",
            "pump-wx_um=1e300", "extract-ws_um=1e-300", "pump-W_um=1e-300",
            "bands-ny=1e8", "bands-scan-ny=1e8"])
    # the designs of the pump and extract cases warn of overlapping guides
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_bad_lattice_config_exits_2(self, tmp_path, capsys, args,
                                        message):
        rc, peak = run_peak_bytes([args[0], "--outdir", tmp_path, *args[1:]])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert message in err
        assert list(tmp_path.iterdir()) == []  # nothing written
        assert peak < 8 * MAX_ARRAY_ELEMENTS  # no array at the cap made

    def test_range_sample_cap(self, monkeypatch):
        monkeypatch.setattr("aahpump.cli.MAX_RANGE_SAMPLES", 10)
        cfg = {"a_min": 0.0, "a_max": 0.9, "a_step": 0.1}
        assert len(_inclusive_range(cfg, "a")) == 10
        with pytest.raises(ConfigError, match="more than 10 samples"):
            _inclusive_range(dict(cfg, a_max=1.0), "a")

    def test_even_q_gap_scan_runs(self, tmp_path):
        # the gap scan needs no Chern numbers, so even q is fine there
        assert run(["bands", "--outdir", tmp_path, "--out", "r", "q=4",
                    "scan=true", "scan_max=0.2", "nx=8", "ny=8"]) == 0
        lines = (tmp_path / "r_gaps.csv").read_text().splitlines()
        assert lines[0] == "nu_od_over_J,G1,G2,G3"
        assert len(lines) == 4

    @pytest.mark.parametrize("command, args", [
        ("bands", ["scan=true", "scan_max=0.5", "nx=8", "ny=8"]),
        ("bands", ["nx=8", "ny=8"]),
        ("phase-diagram", ["nu_od_over_J_max=1", "nu_d_over_J_min=0",
                           "nu_d_over_J_max=1", "nx=8", "ny=8"]),
        ("edges", ["num_sites=30", "n_ky=40"]),
        ("pump", ["--preset", "fig5b", "Z_cm=0.2", "num_slices=10",
                  "dz_um=10", "lz_estimate=false"]),
        ("extract", []),
    ])
    def test_unreduced_ratio_same_outputs(self, tmp_path, command, args):
        # p/q = 2/6 is the lattice of 1/3: every output must be identical
        for p, q in ((1, 3), (2, 6)):
            assert run([command, "--outdir", tmp_path / str(q), "--out", "r",
                        *args, f"p={p}", f"q={q}"]) == 0
        names = sorted(f.name for f in (tmp_path / "3").iterdir())
        assert names == sorted(f.name for f in (tmp_path / "6").iterdir())
        for name in names:
            assert (tmp_path / "3" / name).read_bytes() == \
                (tmp_path / "6" / name).read_bytes(), name

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2


# a fig5c-like run that is short: 400 steps on the preset's 4096 samples
SHORT_FIG5C = ["Z_cm=0.3", "dz_um=7.5"]


def short_fig5c(num_slices):
    """The rows, each with its z in front, that split_step_propagate hands
    its callback on the inputs of the CLI's short fig5c run, and the
    trajectory it returns."""
    cfg = build_config("pump", PRESETS["fig5c"][1], None,
                       [*SHORT_FIG5C, f"num_slices={num_slices}"])
    with pytest.warns(UserWarning, match="can overlap"):
        design = _build_design(cfg)
    grid = default_grid(design, cfg["dx_um"], cfg["dz_um"], num_slices)
    psi0 = gaussian_input(design.guide_center(cfg["injection_guide"]),
                          cfg["W_um"], grid)
    rows = []
    traj = split_step_propagate(psi0, design, grid,
                                lambda z, row: rows.append([z, *row]))
    return rows, traj


def pump_peak_bytes(tmp_path, num_slices):
    """tracemalloc peak of the short fig5c pump op, and its summary."""
    cfg = build_config("pump", PRESETS["fig5c"][1], None,
                       [*SHORT_FIG5C, f"num_slices={num_slices}"])
    tracemalloc.start()
    try:
        with pytest.warns(UserWarning, match="can overlap"):
            summary = run_command(cmd_pump, cfg,
                                  str(tmp_path / str(num_slices)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, summary


class TestPumpOutput:
    def test_intensity_rows_are_the_trajectory(self, tmp_path):
        rows, traj = short_fig5c(4)
        with pytest.warns(UserWarning, match="can overlap"):
            assert run(["pump", "--preset", "fig5c", "--outdir", tmp_path,
                        *SHORT_FIG5C, "num_slices=4"]) == 0
        lines = (tmp_path / "fig5c_intensity.csv").read_text().splitlines()
        assert lines[0] == ",".join(
            ["z_um", *map(format_float, traj.grid.xs.tolist())])
        assert np.array_equal(rows[-1][1:], np.abs(traj.final) ** 2)
        assert lines[1:] == [",".join(map(format_float, r)) for r in rows]

    def test_pump_memory_does_not_grow_with_slices(self, tmp_path):
        # the slices stream to the CSV and PGM: the whole op's peak is the
        # same for 50 and 400 slices, and far below a 400-slice table.  A
        # first untraced run makes the one-time allocations of a process.
        with pytest.warns(UserWarning, match="can overlap"):
            run_command(cmd_pump,
                        build_config("pump", PRESETS["fig5c"][1], None,
                                     [*SHORT_FIG5C, "num_slices=4"]),
                        str(tmp_path / "warm"))
        peak_50, _ = pump_peak_bytes(tmp_path, 50)
        peak_400, summary = pump_peak_bytes(tmp_path, 400)
        table_bytes = 401 * (summary["nx"] + 1) * 8
        assert abs(peak_400 - peak_50) <= 0.1 * peak_50
        assert peak_400 < table_bytes / 4
        lines = (tmp_path / "400_intensity.csv").read_text().count("\n")
        assert lines == 1 + 401

    def test_leakage_mid_run_leaves_no_file(self, tmp_path, capsys):
        # free diffraction over 1 cm: the first slices are written, then
        # the light reaches the boundary strips
        rc = run(["pump", "--preset", "fig5b", "--outdir", tmp_path,
                  "gamma=0", "Z_cm=1", "num_slices=10", "dz_um=10",
                  "lz_estimate=false"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "BoundaryLeakage" in err
        z = float(err.split(" at z = ")[1].split(" um")[0])
        assert z > 0.0
        assert list(tmp_path.iterdir()) == []  # temporaries included


def test_extract_warns_once(tmp_path):
    # the fit builds its 13-guide basis array without warning again of the
    # overlap the caller's design has warned of
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["extract", "--outdir", tmp_path, "ws_um=5"]) == 0
    assert [str(w.message) for w in caught
            if issubclass(w.category, UserWarning)] == [
        "the smallest neighbour separation over a cycle is 5.00 um < 2*wx "
        "= 6 um: neighbouring guides can overlap"]


def package_env():
    """The environment of a subprocess that imports this aahpump."""
    src = str(Path(aahpump.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_sigterm_leaves_no_temporary(tmp_path):
    # the console command exits 128 + SIGTERM on SIGTERM, after staged()
    # has removed the run's temporaries
    proc = subprocess.Popen(
        [sys.executable, "-m", "aahpump.cli", "pump", "--preset", "fig5b",
         "lz_estimate=false", "--outdir", str(tmp_path)],
        env=package_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + 120
        while not list(tmp_path.glob("*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert list(tmp_path.iterdir()) == []


# imports aahpump.cli, runs each command line given as a JSON argument in
# the outdir given first, and prints whether scipy.linalg was loaded after
# the import and after the runs
IMPORT_PROBE = """
import json, sys
from aahpump.cli import main
loaded = ["scipy.linalg" in sys.modules]
for args in json.loads(sys.argv[2]):
    assert main([*args, "--outdir", sys.argv[1]]) == 0, args
loaded.append("scipy.linalg" in sys.modules)
print(json.dumps(loaded))
"""


class TestImportGraph:
    @pytest.mark.parametrize("runs, loaded", [
        ([["bands", "--preset", "fig3b"],
          ["phase-diagram", "nu_od_over_J_max=1", "nu_d_over_J_min=0",
           "nu_d_over_J_max=1", "nx=8", "ny=8"],
          ["pump", "--preset", "fig5c", *SHORT_FIG5C, "num_slices=4"]],
         False),
        ([["edges", "num_sites=30", "n_ky=40"]], True),
    ], ids=["bands-phase-diagram-pump-spacing", "edges"])
    def test_scipy_linalg_loads_at_first_tridiagonal_solve(
            self, tmp_path, runs, loaded):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(tmp_path),
             json.dumps(runs)],
            env=package_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, loaded]


# one short run per command that reaches each of its keys: the pump keys
# on both designs (wm_um and phi0_rad move only spacing guides), through
# the stepper, and the scan keys on a gap scan
NON_FINITE_BASES = {
    "bands": [["nx=8", "ny=8"],
              ["scan=true", "scan_max=0.5", "nx=4", "ny=4"]],
    "phase-diagram": [["nu_od_over_J_max=1", "nu_d_over_J_min=0",
                       "nu_d_over_J_max=1", "nx=8", "ny=8"]],
    "edges": [["num_sites=30", "n_ky=40"]],
    "pump": [["--preset", "fig5b", "Z_cm=0.2", "num_slices=10", "dz_um=5",
              "lz_estimate=false"],
             ["--preset", "fig5c", "Z_cm=0.2", "num_slices=10",
              "dz_um=5"]],
    "extract": [[]],
}
# the values each float key and each integer key is probed with: the
# non-finite ones, and zero, a negative value and the extremes
PROBES = {float: ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300"),
          int: ("0", "-1", str(10**30))}


def _non_finite_cases():
    for command, bases in NON_FINITE_BASES.items():
        for b, base in enumerate(bases):
            for key, (caster, _) in SCHEMAS[command].items():
                # injection_guide is an integer key too
                kind = int if caster is _guide else caster
                for value in PROBES.get(kind, ()):
                    yield pytest.param(command, [*base, f"{key}={value}"],
                                       id=f"{command}{b}-{key}={value}")
    # the lz fit's outputs of an index pump, with an unused float non-finite
    yield pytest.param("pump", ["--preset", "fig5b", "Z_cm=0.2",
                                "num_slices=10", "dz_um=10", "wm_um=nan"],
                       id="pump-lz_estimate-wm_um=nan")


def _numbers(text):
    """Every cell of a CSV text or every number of a JSON text, as floats
    (nan and inf included); other cells are skipped."""
    if text.startswith(("{", "[")):
        values, todo = [], [json.loads(text)]
        while todo:
            v = todo.pop()
            if isinstance(v, dict):
                todo.extend(v.values())
            elif isinstance(v, list):
                todo.extend(v)
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                values.append(float(v))
        return values
    values = []
    for line in text.splitlines():
        for cell in line.split(","):
            try:
                values.append(float(cell))
            except ValueError:
                pass
    return values


class TestNonFiniteInputs:
    # a probe may warn of overlapping guides, or numpy of an overflow
    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command, args", list(_non_finite_cases()))
    def test_exit_code_and_outputs(self, tmp_path, command, args):
        # every probe of every float and integer key: a documented exit
        # code, no file on failure (not even the phase-diagram record), and
        # only finite numbers on success
        rc = run([command, "--outdir", tmp_path, *args])
        assert rc in (0, 2, 3, 4)
        files = sorted(tmp_path.iterdir())
        if rc:
            assert files == []
            return
        assert files
        for path in files:
            if path.suffix in (".csv", ".json"):
                values = _numbers(path.read_text())
                assert all(math.isfinite(v) for v in values), path.name
