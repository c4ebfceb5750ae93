import numpy as np
import pytest

from aahpump.cli import PRESETS, build_config, load_config_file, main


def run(args):
    return main([str(a) for a in args])


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

    def test_phase_diagram_resume_identical(self, tmp_path):
        args = ["phase-diagram", "--outdir", tmp_path, "--out", "r",
                "nu_od_over_J_max=2", "nu_d_over_J_min=0",
                "nu_d_over_J_max=1", "nx=12", "ny=12"]
        assert run(args) == 0
        first = (tmp_path / "r_phase_diagram.csv").read_bytes()
        cache = (tmp_path / "r_cells.cache").read_bytes()
        assert run(args) == 0  # rerun: all cells served from the cache
        assert (tmp_path / "r_phase_diagram.csv").read_bytes() == first
        assert (tmp_path / "r_cells.cache").read_bytes() == cache

    def test_check_mismatch_exits_4(self, tmp_path, capsys):
        rc = run(["bands", "--preset", "fig3b", "--check",
                  "--outdir", tmp_path, "nu_od_over_J=10"])
        assert rc == 4
        assert "check failed" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        rc = run(["pump", "--preset", "fig5a", "--outdir", tmp_path,
                  "dz_um=50"])
        assert rc == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, overrides, message", [
        # dz does not divide the 750 um slices
        pytest.param("fig5c", ["dz_um=4"], "multiples of dz",
                     id="fig5c-dz_um=4"),
        pytest.param("fig5b", ["num_guides=4"], "positive odd count",
                     id="fig5b-num_guides=4"),
        pytest.param("fig5b", ["W_um=0"], "W must be positive",
                     id="fig5b-W_um=0"),
        # no guide has two neighbours to compare spacings with
        pytest.param("fig5b", ["design=spacing", "num_guides=1"],
                     "needs num_guides >= 3",
                     id="fig5b-design=spacing-num_guides=1"),
    ])
    def test_bad_pump_config_exits_2(self, tmp_path, capsys, preset,
                                     overrides, message):
        rc = run(["pump", "--preset", preset, "--outdir", tmp_path,
                  *overrides])
        assert rc == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        assert message in err

    def test_no_command_prints_help(self, capsys):
        assert run([]) == 2

    def test_bad_threads(self, tmp_path):
        assert run(["bands", "--threads", "0", "--outdir", tmp_path]) == 2
