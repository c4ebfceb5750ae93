"""Command-line front end: presets, config parsing, and artifact emission.

Subcommands map onto the library modules: `bands` (Bloch bands or a gap
scan), `phase-diagram` (Chern-number sweep with a resumable cell cache),
`edges` (open-chain spectral flow and winding numbers), `pump` (split-step
pumping runs), and `extract` (tight-binding parameter fits).  Every named
figure experiment has a preset; `--check` reruns a preset and verifies its
reference expectations (exit 4 on mismatch).  Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 check mismatch.

Configuration is a flat `key = value` file and/or `key=value` command-line
overrides (overrides win); unknown keys are rejected.  All outputs go
through deterministic 12-significant-digit formatting, so a rerun leaves
the same bytes.  A command writes each artifact to out(path), a temporary
renamed to path only when the command returns; the phase-diagram cache,
which resuming needs, is the one file written in place.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .edges import bulk_edge_check, gap_fiducials, winding_numbers
from .extraction import extract_parameters, extraction_report
from .ioutil import float_rows, format_float, pgm_rows, staged, write_csv, \
    write_json, write_pgm
from .model import ConfigError, ModulationParams, NumericalFailure
from .propagation import LEAKAGE_MAX, NORM_DRIFT_MAX, IndexModulated, \
    OpticalConstants, SpacingModulated, default_grid, gaussian_input, \
    injection_guide, run_summary, split_step_propagate
from .spectral import band_edges, band_grid, gap_scan
from .topology import ChernVector, MeshTooCoarse, Undefined, chern_numbers, \
    phase_diagram

CM_TO_UM = 1e4
# a pump preset's --check holds C_est this close to the paper's value
PUMP_CHERN_TOL = 0.05
# samples a swept range may hold; a tiny step would otherwise ask for an
# unbounded list
MAX_RANGE_SAMPLES = 10**6


def _bool(s):
    if isinstance(s, bool):
        return s
    if str(s).lower() in ("true", "1", "yes"):
        return True
    if str(s).lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _guide(s):
    if isinstance(s, int):
        return s
    if str(s).lower() == "auto":
        return None
    return int(s)


# key -> (caster, default) per subcommand
SCHEMAS = {
    "bands": {
        "nu_od_over_J": (float, 1.0),
        "nu_d_over_J": (float, 0.0),
        "p": (int, 1),
        "q": (int, 3),
        "delta_phi_rad": (float, 0.0),
        "nx": (int, 48),
        "ny": (int, 48),
        "pgm": (_bool, False),
        "scan": (_bool, False),
        "scan_min": (float, 0.0),
        "scan_max": (float, 12.0),
        "scan_step": (float, 0.1),
    },
    "phase-diagram": {
        "nu_od_over_J_min": (float, 0.0),
        "nu_od_over_J_max": (float, 12.0),
        "nu_od_over_J_step": (float, 1.0),
        "nu_d_over_J_min": (float, -4.0),
        "nu_d_over_J_max": (float, 4.0),
        "nu_d_over_J_step": (float, 1.0),
        "p": (int, 1),
        "q": (int, 3),
        "delta_phi_rad": (float, 0.0),
        "nx": (int, 24),
        "ny": (int, 24),
    },
    "edges": {
        "nu_od_over_J": (float, 1.0),
        "nu_d_over_J": (float, 0.0),
        "p": (int, 1),
        "q": (int, 3),
        "delta_phi_rad": (float, 0.0),
        "num_sites": (int, 89),
        "n_ky": (int, 400),
        "edge_sites": (int, 5),
        "edge_threshold": (float, 0.5),
    },
    "pump": {
        "design": (str, "index"),
        "gamma": (float, 9e-4),
        "alpha": (float, 0.5),
        "p": (int, 1),
        "q": (int, 3),
        "ws_um": (float, 10.0),
        "wx_um": (float, 3.0),
        "wm_um": (float, 18.0),
        "phi0_rad": (float, 0.0),
        "Z_cm": (float, 30.0),
        "num_guides": (int, 21),
        "W_um": (float, 3.77),
        "dx_um": (float, 0.15625),
        "dz_um": (float, 1.0),
        "num_slices": (int, 200),
        "injection_guide": (_guide, None),
        "lz_estimate": (_bool, True),
    },
    "extract": {
        "gamma": (float, 9e-4),
        "alpha": (float, 0.5),
        "p": (int, 1),
        "q": (int, 3),
        "ws_um": (float, 10.0),
        "wx_um": (float, 3.0),
        "Z_cm": (float, 30.0),
        "mode_dx_um": (float, 0.05),
    },
}

def _same_sample(x, value):
    """x lies within a range sample's tolerance of value."""
    return abs(x - value) <= 1e-9 * max(1.0, abs(value))


def _inclusive_range(cfg, axis):
    """The samples axis_min, axis_min + axis_step, ..., axis_max of cfg,
    at most MAX_RANGE_SAMPLES of them."""
    lo, hi, step = (cfg[f"{axis}_{end}"] for end in ("min", "max", "step"))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{axis}_min and {axis}_max must be finite, got "
                          f"{lo} and {hi}")
    if not step > 0:  # NaN included
        raise ConfigError(f"{axis}_step must be > 0, got {step}")
    if not hi >= lo:
        raise ConfigError(f"{axis}_max = {hi} is below {axis}_min = {lo}")
    n = (hi - lo) / step  # inf when a subnormal step underflows
    if not n < MAX_RANGE_SAMPLES - 0.5:  # round(n) + 1 samples
        raise ConfigError(f"range [{lo}, {hi}] in steps of {step} holds "
                          f"more than {MAX_RANGE_SAMPLES} samples")
    n = int(round(n))
    if not _same_sample(lo + n * step, hi):
        raise ConfigError(f"range [{lo}, {hi}] is not a whole number of "
                          f"steps of {step}")
    return [lo + i * step for i in range(n + 1)]


def _tb_params(cfg) -> ModulationParams:
    return ModulationParams(1.0, cfg["nu_d_over_J"], cfg["nu_od_over_J"],
                            cfg["p"], cfg["q"], cfg["delta_phi_rad"])


def _cell_str(cv: ChernVector) -> list:
    return [("undef" if isinstance(c, Undefined) else c) for c in cv]


# ---------------------------------------------------------------- commands

def cmd_bands(cfg, prefix, out):
    params = _tb_params(cfg)
    if cfg["scan"]:
        ratios = _inclusive_range(cfg, "scan")
        rows = gap_scan(params, ratios, cfg["nx"], cfg["ny"])
        header = ["nu_od_over_J"] + [f"G{n}" for n in range(1, params.q)]
        write_csv(out(prefix + "_gaps.csv"), header, rows)
        return {"scan": rows}
    try:
        cherns = _cell_str(chern_numbers(params, cfg["nx"], cfg["ny"]))
    except MeshTooCoarse:
        cherns = ["undef"] * params.q
    grid = band_grid(params, cfg["nx"], cfg["ny"])
    # each coordinate is formatted once, not once per row that repeats it
    kxs, kys = (list(map(format_float, k.tolist()))
                for k in (grid.kxs, grid.kys))
    energies = grid.energies.tolist()
    rows = [(kx, ky, n + 1, e)
            for n in range(params.q)
            for kx, band_row in zip(kxs, energies[n])
            for ky, e in zip(kys, band_row)]
    write_csv(out(prefix + "_bands.csv"), ["kx", "ky", "band", "energy"],
              rows)
    if cfg["pgm"]:
        for n in range(params.q):
            write_pgm(out(f"{prefix}_band{n + 1}.pgm"), grid.energies[n])
    tops, bottoms = band_edges(grid)
    gaps = tuple((bottoms[1:] - tops[:-1]).tolist())
    return {"gaps": gaps, "cherns": cherns}


def cmd_phase_diagram(cfg, prefix, out):
    od = _inclusive_range(cfg, "nu_od_over_J")
    d = _inclusive_range(cfg, "nu_d_over_J")
    template = ModulationParams(1.0, 0.0, 1.0, cfg["p"], cfg["q"],
                                cfg["delta_phi_rad"])
    q = template.q
    diagram = phase_diagram(template, od, d, prefix + "_cells.cache",
                            cfg["nx"], cfg["ny"])
    rows = [[r_od, r_d] + _cell_str(diagram.cells[i][j])
            for i, r_od in enumerate(od) for j, r_d in enumerate(d)]
    header = ["nu_od_over_J", "nu_d_over_J"] + [f"C{n + 1}" for n in range(q)]
    write_csv(out(prefix + "_phase_diagram.csv"), header, rows)
    for n in range(q):
        # an undefined cell is drawn one level below the lowest Chern number
        img = np.array([[cv[n] if isinstance(cv[n], int) else np.nan
                         for cv in row] for row in diagram.cells]).T
        undef = np.isnan(img)
        img[undef] = img[~undef].min() - 1 if not undef.all() else -1
        write_pgm(out(f"{prefix}_C{n + 1}.pgm"), img)
    return {"diagram": diagram, "od": od, "d": d}


def cmd_edges(cfg, prefix, out):
    params = _tb_params(cfg)
    wr = winding_numbers(params, cfg["num_sites"], cfg["n_ky"],
                         cfg["edge_sites"], cfg["edge_threshold"])
    check = bulk_edge_check(params, wr)
    flow = wr.flow
    rows = [(ky, a, e, label)
            for ky, energies, labels in zip(map(format_float,
                                                flow.kys.tolist()),
                                            flow.energies.tolist(),
                                            flow.labels.tolist())
            for a, (e, label) in enumerate(zip(energies, labels), 1)]
    write_csv(out(prefix + "_spectral_flow.csv"),
              ["ky", "index", "energy", "label"], rows)
    report = {
        "num_sites": cfg["num_sites"],
        "fiducial_energies": list(wr.fiducials),
        "gap_windings": list(wr.windings),
        "right_edge_windings": list(wr.right_windings),
        "branch_counts": list(wr.branch_counts),
        "chern_numbers": _cell_str(check["chern_numbers"]),
        "chern_from_windings": list(check["chern_from_windings"]),
        "bulk_edge_consistent": check["consistent"],
    }
    write_json(out(prefix + "_windings.json"), report)
    return report


def _build_design(cfg):
    Z = cfg["Z_cm"] * CM_TO_UM
    if cfg["design"] == "index":
        return IndexModulated(alpha=cfg["alpha"], p=cfg["p"], q=cfg["q"],
                              ws=cfg["ws_um"], wx=cfg["wx_um"], Z=Z,
                              num_guides=cfg["num_guides"])
    if cfg["design"] == "spacing":
        return SpacingModulated(p=cfg["p"], q=cfg["q"], ws=cfg["ws_um"],
                                wx=cfg["wx_um"], wm=cfg["wm_um"],
                                phi0=cfg["phi0_rad"], Z=Z,
                                num_guides=cfg["num_guides"])
    raise ConfigError(f"design must be 'index' or 'spacing', "
                      f"got {cfg['design']!r}")


def cmd_pump(cfg, prefix, out):
    design = _build_design(cfg)
    constants = OpticalConstants(gamma=cfg["gamma"])
    G1 = None
    if cfg["lz_estimate"] and cfg["design"] == "index":
        # the fit runs first, so a bad q or grid fails before propagation
        fit = extract_parameters(constants, design)
        _, widths = gap_fiducials(ModulationParams(
            fit.J, fit.nu_d, fit.nu_od, design.p, design.q, fit.delta_phi))
        G1 = float(widths[0])
    grid = default_grid(design, cfg["dx_um"], cfg["dz_um"], cfg["num_slices"])
    guide = cfg["injection_guide"]
    if guide is None:
        guide = injection_guide(design)
    psi0 = gaussian_input(design.guide_center(guide, 0.0), cfg["W_um"], grid)
    with open(out(prefix + "_intensity.csv"), "w") as csv_fh, \
            open(out(prefix + "_intensity.pgm"), "w") as pgm_fh:
        header = ["z_um"] + [format_float(x) for x in grid.xs.tolist()]
        csv_row = float_rows(csv_fh, header)
        pgm_row = pgm_rows(pgm_fh, grid.nx, len(grid.z_slices))
        line = np.empty(grid.nx + 1)

        def on_slice(z, row):
            # CSV: z, then |psi|^2 at every x; PGM: 0 black and the row's
            # own peak white
            line[0] = z
            line[1:] = row
            csv_row(line)
            pgm_row(row, 0.0, float(row.max()))

        traj = split_step_propagate(psi0, design, constants, grid, on_slice)
    summary = run_summary(traj, design, constants, G1)
    summary.update({
        "injection_guide": guide,
        "input_width_um": cfg["W_um"],
        "dx_um": grid.dx,
        "dz_um": grid.dz,
        "nx": grid.nx,
        "x_min_um": grid.x_min,
        "x_max_um": grid.x_max,
    })
    if G1 is not None:
        summary["first_gap_per_um"] = G1
    write_json(out(prefix + "_summary.json"), summary)
    return summary


def cmd_extract(cfg, prefix, out):
    design = IndexModulated(alpha=cfg["alpha"], p=cfg["p"], q=cfg["q"],
                            ws=cfg["ws_um"], wx=cfg["wx_um"],
                            Z=cfg["Z_cm"] * CM_TO_UM)
    constants = OpticalConstants(gamma=cfg["gamma"])
    fit = extract_parameters(constants, design, dx=cfg["mode_dx_um"])
    report = extraction_report(constants, design, fit, cfg["mode_dx_um"])
    write_json(out(prefix + "_extraction.json"), report)
    return report


COMMANDS = {
    "bands": cmd_bands,
    "phase-diagram": cmd_phase_diagram,
    "edges": cmd_edges,
    "pump": cmd_pump,
    "extract": cmd_extract,
}


# ----------------------------------------------------------------- presets

def _expect(errors, label, ok):
    if not ok:
        errors.append(label)


def _gate(errors, margins, label, value, bound, strict=True, of=""):
    """Hold value below bound (or at it, unless strict).  The line naming
    both, the bound as `of` if given, and the margin bound - value goes to
    margins on a pass and to errors on a fail."""
    ok = value < bound if strict else value <= bound
    op = ("<" if strict else "<=") if ok else (">=" if strict else ">")
    of = f"{of} = " if of else ""
    (margins if ok else errors).append(
        f"{label} = {value:.4g} {op} {of}{bound:.4g}, "
        f"margin {bound - value:.3g}")


def _check_fig2(res, errors, margins):
    od, d, cells = res["od"], res["d"], res["diagram"].cells
    j = next((j for j, r in enumerate(d) if _same_sample(r, 0.0)), None)
    for r_od, target in ((1.0, (-1, 2, -1)), (10.0, (2, -4, 2))):
        i = next((i for i, r in enumerate(od) if _same_sample(r, r_od)), None)
        if i is None or j is None:
            errors.append(f"cell ({r_od:g}, 0) is outside the swept ranges")
        else:
            _expect(errors, f"cell ({r_od:g}, 0) != {target}",
                    tuple(cells[i][j]) == target)


def _check_fig3a(res, errors, margins):
    rows = res["scan"]
    total = [(r[1] + r[2], r[0]) for r in rows if 3.0 <= r[0] <= 5.0]
    _expect(errors, "scan does not cover the transition window [3, 5]",
            bool(total))
    if total:
        gmin, ratio = min(total)
        _gate(errors, margins, "|closure nu_od/J - 4|", abs(ratio - 4.0), 0.05,
              strict=False)
        _gate(errors, margins, "min total gap", gmin, 2e-3)


def _check_cherns(target):
    def check(res, errors, margins):
        _expect(errors, f"Chern numbers {res['cherns']} != {list(target)}",
                tuple(res["cherns"]) == target)
    return check


def _check_fig3c(res, errors, margins):
    # a NaN gap fails: np.max passes it on where max() may drop it
    _gate(errors, margins, "largest gap",
          float(np.max(res["gaps"], initial=0.0)), 1e-3)


def _check_edges(windings, branches):
    def check(res, errors, margins):
        _expect(errors, f"windings {res['gap_windings']} != {list(windings)}",
                tuple(res["gap_windings"]) == windings)
        _expect(errors, f"branch counts {res['branch_counts']} != "
                f"{list(branches)}", tuple(res["branch_counts"]) == branches)
        _expect(errors, "bulk-edge correspondence violated",
                res["bulk_edge_consistent"])
    return check


def _check_pump(target):
    def check(res, errors, margins):
        _gate(errors, margins, f"|C_est - ({target})|",
              abs(res["chern_estimate"] - target), PUMP_CHERN_TOL,
              strict=False)
        _gate(errors, margins, "norm drift", res["norm_drift"],
              NORM_DRIFT_MAX)
        _gate(errors, margins, "leakage", res["leakage_max"], LEAKAGE_MAX)
    return check


def _check_extract(J_ref):
    def check(res, errors, margins):
        J, od, d = res["J_per_um"], res["nu_od_per_um"], res["nu_d_per_um"]
        _gate(errors, margins, f"|J - {J_ref:.3e}|", abs(J - J_ref),
              0.3 * J_ref, strict=False)
        _gate(errors, margins, "nu_d", d, 0.0)
        _gate(errors, margins, "nu_od", od, abs(d) / 5, of="|nu_d|/5")
        _gate(errors, margins, "nu_od", od, 0.5 * J, of="J/2")
        _gate(errors, margins, "|delta_phi - pi/3|",
              abs(res["delta_phi_rad"] - math.pi / 3), 0.3, strict=False)
    return check


PRESETS = {
    "fig2": ("phase-diagram", {}, _check_fig2,
             "Chern phase diagram over the (nu_od, nu_d)/J plane"),
    "fig3a": ("bands", {"scan": True}, _check_fig3a,
              "bulk gaps G1, G2 versus nu_od/J (gap scan)"),
    "fig3b": ("bands", {"nu_od_over_J": 1.0, "pgm": True},
              _check_cherns((-1, 2, -1)),
              "three Bloch bands at nu_od/J = 1, Chern (-1, 2, -1)"),
    "fig3c": ("bands", {"nu_od_over_J": 4.0, "pgm": True}, _check_fig3c,
              "bands at the transition nu_od/J = 4 (both gaps closed)"),
    "fig3d": ("bands", {"nu_od_over_J": 10.0, "pgm": True},
              _check_cherns((2, -4, 2)),
              "three Bloch bands at nu_od/J = 10, Chern (2, -4, 2)"),
    "fig4a": ("edges", {"nu_od_over_J": 1.0, "num_sites": 89},
              _check_edges((-1, 1), (2, 2)),
              "open-chain spectrum, 89 sites, nu_od/J = 1, windings (-1, 1)"),
    "fig4b": ("edges", {"nu_od_over_J": 10.0, "num_sites": 89},
              _check_edges((2, -2), (4, 4)),
              "open-chain spectrum, 89 sites, nu_od/J = 10, windings (2, -2)"),
    "fig5a": ("pump", {"design": "index", "gamma": 9e-4, "Z_cm": 30.0,
                       "W_um": 3.77},
              _check_pump(-0.97),
              "index-modulated pump, gamma = 9e-4, Z = 30 cm, C = -0.97"),
    "fig5b": ("pump", {"design": "index", "gamma": 5e-4, "Z_cm": 10.0,
                       "W_um": 4.47},
              _check_pump(-0.99),
              "index-modulated pump, gamma = 5e-4, Z = 10 cm, C = -0.99"),
    "fig5c": ("pump", {"design": "spacing", "gamma": 5e-4, "Z_cm": 15.0,
                       "ws_um": 20.0, "wm_um": 18.0,
                       "phi0_rad": math.pi / 5, "W_um": 4.3,
                       "injection_guide": -4},
              _check_pump(1.97),
              "spacing-modulated pump, gamma = 5e-4, Z = 15 cm, C = +1.97"),
    "extract-gamma9": ("extract", {"gamma": 9e-4, "Z_cm": 30.0},
                       _check_extract(3.76e-4),
                       "tight-binding fit at gamma = 9e-4"),
    "extract-gamma5": ("extract", {"gamma": 5e-4, "Z_cm": 10.0},
                       _check_extract(5.23e-4),
                       "tight-binding fit at gamma = 5e-4"),
}


# -------------------------------------------------------------- config/argv

def _parse_value(command, key, raw):
    schema = SCHEMAS[command]
    if key not in schema:
        raise ConfigError(f"unknown key {key!r} for command {command!r}; "
                          f"known keys: {', '.join(sorted(schema))}")
    caster = schema[key][0]
    try:
        return caster(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}") from exc


def load_config_file(command, path):
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = (s.strip() for s in line.split("=", 1))
            out[key] = _parse_value(command, key, raw)
    return out


def build_config(command, preset_overrides, config_path, overrides):
    cfg = {k: default for k, (_, default) in SCHEMAS[command].items()}
    cfg.update(preset_overrides)
    if config_path:
        cfg.update(load_config_file(command, config_path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        cfg[key] = _parse_value(command, key.strip(), raw.strip())
    return cfg


def list_presets():
    width = max(len(name) for name in PRESETS)
    for name, (command, _, _, description) in PRESETS.items():
        sys.stdout.write(f"{name:<{width}}  [{command}]  {description}\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="aahpump",
        description="Commensurate AAH lattices: bands, Chern numbers, edge "
                    "spectra, and Thouless pumping of light.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--list-presets", action="store_true",
                        help="list all named presets and exit")
    sub = parser.add_subparsers(dest="command")
    for command in COMMANDS:
        keys = ", ".join(sorted(SCHEMAS[command]))
        p = sub.add_parser(command, help=f"keys: {keys}")
        p.add_argument("--preset", choices=sorted(PRESETS),
                       help="named parameter set")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--check", action="store_true",
                       help="verify the preset's reference expectations")
        p.add_argument("--outdir", default=".", help="output directory")
        p.add_argument("--out", help="output file prefix (default: preset "
                                     "name or command)")
        # still accepted, and ignored, so scripts that pass it keep working
        p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="config overrides (win over --config)")

    if "--list-presets" in argv:
        list_presets()
        return 0
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    try:
        preset_overrides, check_fn = {}, None
        if args.preset:
            command, preset_overrides, check_fn, _ = PRESETS[args.preset]
            if command != args.command:
                raise ConfigError(f"preset {args.preset!r} belongs to "
                                  f"command {command!r}")
        if args.check and check_fn is None:
            raise ConfigError("--check requires --preset")
        cfg = build_config(args.command, preset_overrides, args.config,
                           args.overrides)
        os.makedirs(args.outdir, exist_ok=True)
        prefix = os.path.join(args.outdir,
                              args.out or args.preset or args.command)
        with staged() as out:
            results = COMMANDS[args.command](cfg, prefix, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3

    if args.check:
        errors, margins = [], []
        check_fn(results, errors, margins)
        if errors:
            for e in errors:
                print(f"check failed [{args.preset}]: {e}", file=sys.stderr)
            return 4
        if not margins:
            print(f"check passed [{args.preset}]")
        for m in margins:
            print(f"check passed [{args.preset}]: {m}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
