"""The benchmark's workloads: which CLI operations one pass runs, and how
each operation's outputs are checked.

Every op runs a preset with ``--check`` and writes every key of its
command's schema on the command line, so a later change to a CLI default
cannot silently change the work a workload does.  The values are the
presets' own, except the pump step ``dz_um``, which is pinned coarser than
the default only to keep a run short (see NOTES.md).

This module imports nothing from the package or from numpy, so the parent
process of a run stays light.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

# Stages group the ops by the part of the package they exercise; the
# traced run reports the time of each stage as ``op.<stage>_s``.
STAGES = ("bulk", "edges", "pump", "extract")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``aahpump <command> --preset <preset> --check``.

    csv_lines maps each CSV the op must write to its expected line count
    (header included); other_files must exist.  chern_band is the lattice
    Chern number of the injected band for pump ops (the pump readout is
    compared against it), and windings the expected gap windings of an
    edges op.
    """

    preset: str
    command: str
    stage: str
    params: dict
    csv_lines: dict = field(default_factory=dict)
    other_files: tuple = ()
    chern_band: int | None = None
    chern_target: float | None = None
    windings: tuple | None = None

    def overrides(self) -> list:
        return [f"{k}={_cli_value(v)}" for k, v in self.params.items()]

    def argv(self, outdir: str) -> list:
        return [self.command, "--preset", self.preset, "--check",
                "--threads", "1", "--outdir", outdir] + self.overrides()


def _cli_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


_BANDS = {"nu_od_over_J": 1.0, "nu_d_over_J": 0.0, "p": 1, "q": 3,
          "delta_phi_rad": 0.0, "nx": 48, "ny": 48, "pgm": True,
          "scan": False, "scan_min": 0.0, "scan_max": 12.0,
          "scan_step": 0.1}
_EDGES = {"nu_od_over_J": 1.0, "nu_d_over_J": 0.0, "p": 1, "q": 3,
          "delta_phi_rad": 0.0, "num_sites": 89, "n_ky": 400,
          "edge_sites": 5, "edge_threshold": 0.5}
_PUMP = {"design": "index", "gamma": 5e-4, "alpha": 0.5, "p": 1, "q": 3,
         "ws_um": 10.0, "wx_um": 3.0, "wm_um": 18.0, "phi0_rad": 0.0,
         "Z_cm": 10.0, "num_guides": 21, "W_um": 4.47, "dx_um": 0.15625,
         "dz_um": 4.0, "num_slices": 200, "injection_guide": "auto",
         "lz_estimate": True}

_BAND_FILES = ("_band1.pgm", "_band2.pgm", "_band3.pgm")


def _bands_op(preset, nu_od_over_J):
    return Op(preset, "bands", "bulk",
              dict(_BANDS, nu_od_over_J=nu_od_over_J),
              csv_lines={f"{preset}_bands.csv": 3 * 48 * 48 + 1},
              other_files=tuple(preset + f for f in _BAND_FILES))


def _edges_op(preset, nu_od_over_J, windings):
    return Op(preset, "edges", "edges",
              dict(_EDGES, nu_od_over_J=nu_od_over_J),
              csv_lines={f"{preset}_spectral_flow.csv": 400 * 89 + 1},
              other_files=(f"{preset}_windings.json",),
              windings=windings)


def _pump_op(preset, params, chern_band, chern_target):
    return Op(preset, "pump", "pump", dict(_PUMP, **params),
              csv_lines={f"{preset}_intensity.csv": 201 + 1},
              other_files=(f"{preset}_summary.json",
                           f"{preset}_intensity.pgm"),
              chern_band=chern_band, chern_target=chern_target)


LATTICE = (
    Op("fig2", "phase-diagram", "bulk",
       {"nu_od_over_J_min": 0.0, "nu_od_over_J_max": 12.0,
        "nu_od_over_J_step": 1.0, "nu_d_over_J_min": -4.0,
        "nu_d_over_J_max": 4.0, "nu_d_over_J_step": 1.0, "p": 1, "q": 3,
        "delta_phi_rad": 0.0, "nx": 24, "ny": 24},
       csv_lines={"fig2_phase_diagram.csv": 13 * 9 + 1},
       other_files=("fig2_C1.pgm", "fig2_C2.pgm", "fig2_C3.pgm",
                    "fig2_cells.cache")),
    Op("fig3a", "bands", "bulk", dict(_BANDS, pgm=False, scan=True),
       csv_lines={"fig3a_gaps.csv": 121 + 1}),
    _bands_op("fig3b", 1.0),
    _bands_op("fig3c", 4.0),
    _bands_op("fig3d", 10.0),
    _edges_op("fig4a", 1.0, (-1, 1)),
    _edges_op("fig4b", 10.0, (2, -2)),
)

PUMP_INDEX = (
    _pump_op("fig5b", {}, chern_band=-1, chern_target=-0.99),
    Op("extract-gamma5", "extract", "extract",
       {"gamma": 5e-4, "alpha": 0.5, "p": 1, "q": 3, "ws_um": 10.0,
        "wx_um": 3.0, "Z_cm": 10.0, "mode_dx_um": 0.05},
       other_files=("extract-gamma5_extraction.json",)),
)

PUMP_SPACING = (
    _pump_op("fig5c", {"design": "spacing", "ws_um": 20.0,
                       "phi0_rad": math.pi / 5, "Z_cm": 15.0, "W_um": 4.3,
                       "dz_um": 7.5, "injection_guide": -4},
             chern_band=2, chern_target=1.97),
)

WORKLOADS = {
    "lattice": LATTICE,
    "pump-index": PUMP_INDEX,
    "pump-spacing": PUMP_SPACING,
}

# Gates of the pump presets' --check, repeated here so the benchmark checks
# the outputs itself instead of trusting the program's verdict alone.
PUMP_CHERN_TOL = 0.05
NORM_DRIFT_GATE = 1e-10
LEAKAGE_GATE = 1e-4


def pass_orders(workload: str, seed: int):
    """Yield the op order of each pass: the seed only permutes the ops."""
    rng = random.Random(seed)
    ops = list(WORKLOADS[workload])
    while True:
        yield rng.sample(ops, len(ops))


def _count_lines(path: str) -> int:
    n = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            n += chunk.count(b"\n")
    return n


def verify(op: Op, outdir: str, stdout: str) -> tuple[list, dict]:
    """Check one finished op's outputs.

    Returns (errors, values): a list of problems found, and the measured
    quantities the benchmark reports (pump readout and health values).
    """
    errors, values = [], {}
    if f"check passed [{op.preset}]" not in stdout:
        errors.append("no 'check passed' line on stdout")
    for name, lines in op.csv_lines.items():
        path = os.path.join(outdir, name)
        if not os.path.isfile(path):
            errors.append(f"missing {name}")
        elif _count_lines(path) != lines:
            errors.append(f"{name}: {_count_lines(path)} lines, "
                          f"expected {lines}")
    for name in op.other_files:
        if not os.path.isfile(os.path.join(outdir, name)):
            errors.append(f"missing {name}")
    if errors:
        return errors, values

    if op.windings is not None:
        with open(os.path.join(outdir, f"{op.preset}_windings.json")) as fh:
            report = json.load(fh)
        if tuple(report["gap_windings"]) != op.windings:
            errors.append(f"windings {report['gap_windings']} != "
                          f"{list(op.windings)}")
        if not report["bulk_edge_consistent"]:
            errors.append("bulk-edge correspondence violated")
    if op.chern_band is not None:
        with open(os.path.join(outdir, f"{op.preset}_summary.json")) as fh:
            summary = json.load(fh)
        c = summary["chern_estimate"]
        values = {"chern_dev": abs(c - op.chern_band),
                  "norm_drift": summary["norm_drift"],
                  "leakage_max": summary["leakage_max"]}
        if abs(c - op.chern_target) > PUMP_CHERN_TOL:
            errors.append(f"C_est {c} not within {PUMP_CHERN_TOL} of "
                          f"{op.chern_target}")
        if not values["norm_drift"] < NORM_DRIFT_GATE:
            errors.append(f"norm drift {values['norm_drift']} >= "
                          f"{NORM_DRIFT_GATE}")
        if not values["leakage_max"] < LEAKAGE_GATE:
            errors.append(f"leakage {values['leakage_max']} >= "
                          f"{LEAKAGE_GATE}")
    return errors, values
