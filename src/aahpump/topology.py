"""Gauge-invariant lattice computation of band Chern numbers.

Link variables U_mu(k) = <psi_n(k)|psi_n(k+mu)> / |...| are formed on a
periodic mesh of the Brillouin-like zone, the per-plaquette field strength is
the principal argument of the oriented plaquette product, and the Chern
number is the total flux / 2*pi.  The construction is manifestly gauge
invariant, so the result is an exact integer whenever every plaquette is
admissible (|F| < pi) and the band stays separated from its neighbours.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ModulationParams, NumericalFailure, \
    bloch_grid_hamiltonians
from .spectral import direct_gaps, zone_mesh

LINK_MODULUS_MIN = 1e-8
INTEGER_ROUNDING_TOL = 0.01
DEFAULT_GAP_TOL_FACTOR = 1e-6


class EvenDenominator(ConfigError):
    """Chern numbers are only computed for odd q."""


class MeshTooCoarse(NumericalFailure, ArithmeticError):
    """Plaquette field inadmissible or flux fails to round to an integer."""


@dataclass(frozen=True)
class Undefined:
    """Marker for a band whose Chern number is undefined (gap closed).

    min_gap carries the offending minimum pointwise spacing to the nearest
    adjacent band over the mesh.
    """

    min_gap: float

    def __str__(self):
        return "undef"


class ChernVector(tuple):
    """Per-band entries: exact integers, or Undefined markers."""

    @property
    def all_defined(self) -> bool:
        return all(isinstance(c, int) for c in self)

    def as_tuple(self):
        """Integer tuple; raises if any band is Undefined."""
        if not self.all_defined:
            raise ValueError(f"undefined entries present: {self}")
        return tuple(self)


def plaquette_phases(states: np.ndarray) -> np.ndarray:
    """Per-plaquette field strength from single-band states.

    states has shape (nx+1, ny+1, dim): one eigenvector per mesh point
    including the wrap-around row/column.  Returns the (nx, ny) array of
    principal-branch plaquette phases.  Raises MeshTooCoarse if any link
    modulus is below 1e-8 or any |F| hits the branch cut.
    """
    U1 = np.einsum("ijk,ijk->ij", states[:-1, :].conj(), states[1:, :])
    U2 = np.einsum("ijk,ijk->ij", states[:, :-1].conj(), states[:, 1:])
    if min(np.abs(U1).min(), np.abs(U2).min()) < LINK_MODULUS_MIN:
        raise MeshTooCoarse("link variable with near-zero modulus")
    U1 = U1 / np.abs(U1)
    U2 = U2 / np.abs(U2)
    F = np.angle(U1[:, :-1] * U2[1:, :] * np.conj(U1[:, 1:]) * np.conj(U2[:-1, :]))
    if np.abs(F).max() >= np.pi * (1.0 - 1e-12):
        raise MeshTooCoarse("plaquette phase at the branch cut; refine mesh")
    return F


def _band_min_gaps(values: np.ndarray) -> np.ndarray:
    """Minimum pointwise distance of each band to its nearest neighbour;
    values has the band axis last."""
    d = direct_gaps(np.moveaxis(values, -1, 0))
    return np.minimum(np.r_[np.inf, d], np.r_[d, np.inf])


def _require_computable(q: int, nx: int, ny: int) -> None:
    """Reject an even reduced q (EvenDenominator) or a mesh below 4 x 4."""
    if q % 2 == 0:
        raise EvenDenominator(f"reduced q = {q} is even; Chern numbers are "
                              "only computed for odd q")
    if nx < 4 or ny < 4:
        raise ConfigError(f"nx and ny must be >= 4, got {nx} x {ny}")


def chern_numbers(params: ModulationParams, nx: int = 48,
                  ny: int = 48) -> ChernVector:
    """Chern numbers of all q bands on an nx x ny mesh.

    Bands whose minimum pointwise spacing to an adjacent band falls below
    DEFAULT_GAP_TOL_FACTOR * |J| are reported as Undefined rather than
    silently computed.  Raises EvenDenominator (a ConfigError) for even q,
    ConfigError for a mesh below 4 x 4, and MeshTooCoarse when the flux of
    a gapped band fails to round to an integer within 0.01, or when every
    band is defined but the integers do not sum to zero (two nearly
    touching bands whose curvature the mesh does not resolve).
    """
    _require_computable(params.q, nx, ny)
    gap_tol = DEFAULT_GAP_TOL_FACTOR * abs(params.J)
    # the wrap-around row and column carry the actual wrapped momenta (kx +
    # 2*pi/q, ky + 2*pi); their eigenvectors agree with the identified
    # states up to a phase, which the plaquette product cancels exactly
    kxs, kys = zone_mesh(params.q, nx, ny, extra=1)
    values, vectors = np.linalg.eigh(bloch_grid_hamiltonians(params, kxs, kys))
    min_gaps = _band_min_gaps(values)
    entries = []
    for n in range(params.q):
        if min_gaps[n] < gap_tol:
            entries.append(Undefined(float(min_gaps[n])))
            continue
        try:
            F = plaquette_phases(vectors[:, :, :, n])
        except MeshTooCoarse:
            entries.append(Undefined(float(min_gaps[n])))
            continue
        c = F.sum() / (2.0 * np.pi)
        c_int = round(c)
        if abs(c - c_int) > INTEGER_ROUNDING_TOL:
            raise MeshTooCoarse(
                f"band {n + 1} flux {c:.6f} does not round to an integer")
        entries.append(int(c_int))
    cv = ChernVector(entries)
    if cv.all_defined and sum(entries) != 0:
        raise MeshTooCoarse(f"Chern numbers {entries} sum to {sum(entries)}, "
                            "not 0; refine the mesh")
    return cv


@dataclass(frozen=True)
class PhaseDiagram:
    """ChernVector per cell of a (nu_od, nu_d) parameter sweep (units of J)."""

    cells: list  # cells[i][j] is the ChernVector at (nu_od[i], nu_d[j])


def _cell_line(flat: int, cv: ChernVector) -> str:
    # an Undefined entry keeps its min_gap, exactly (repr round-trips)
    return f"{flat} " + " ".join(
        f"undef:{c.min_gap!r}" if isinstance(c, Undefined) else str(c)
        for c in cv) + "\n"


def _read_cache(path, key_line: str, q: int) -> dict:
    """Flat cell index -> ChernVector from a phase-diagram cache, or {} if
    the file is missing or keyed otherwise.  A line without its newline was
    cut short (3.552713678800501e-15 to 3.55 still parses): it is skipped."""
    if not os.path.exists(path):
        return {}
    cells = {}
    with open(path) as fh:
        if fh.readline() != key_line + "\n":
            return {}
        for line in fh:
            parts = line.split()
            try:
                if line.endswith("\n") and len(parts) == q + 1:
                    cells[int(parts[0])] = ChernVector(
                        Undefined(float(t[len("undef:"):]))
                        if t.startswith("undef:") else int(t)
                        for t in parts[1:])
            except ValueError:  # a whole line that is not a cell
                continue
    return cells


def phase_diagram(params_template: ModulationParams, nu_od_over_J,
                  nu_d_over_J, cache, nx: int = 48, ny: int = 48,
                  threads: int = 1) -> PhaseDiagram:
    """Chern numbers over a grid of modulation amplitudes.

    Cells where the computation fails (gap closure, inadmissible mesh) are
    recorded as all-Undefined instead of aborting the sweep.  The cache
    file makes the sweep resumable; its first line hashes what a cell
    depends on, so a file keyed to another sweep is discarded.  The file
    is rewritten once, top to bottom in cell order with a flushed line per
    cell, while a pool of `threads` workers computes the missing cells, so
    it ends with the same bytes at any thread count or resume point.
    Inputs no cell can be computed for raise before the cache is touched.
    """
    od = np.asarray(list(nu_od_over_J), dtype=float)
    d = np.asarray(list(nu_d_over_J), dtype=float)
    if len(od) == 0 or len(d) == 0:
        raise ValueError("sample lists must be nonempty")
    J, q = params_template.J, params_template.q
    _require_computable(q, nx, ny)

    def one(flat):
        i, j = divmod(flat, len(d))
        p = ModulationParams(J, d[j] * J, od[i] * J,
                             params_template.p, q, params_template.delta_phi)
        try:
            return chern_numbers(p, nx, ny)
        except MeshTooCoarse:
            return ChernVector(Undefined(0.0) for _ in range(p.q))

    # the key hashes Python floats: numpy 2 prints np.float64 differently
    config = (params_template.p, q, params_template.delta_phi, nx, ny,
              od.tolist(), d.tolist())
    key_line = "key " + hashlib.sha256(repr(config).encode()).hexdigest()
    done = _read_cache(cache, key_line, q)
    n_cells = len(od) * len(d)
    with ThreadPoolExecutor(threads) as pool, open(cache, "w") as fh:
        results = pool.map(one, [f for f in range(n_cells) if f not in done])
        fh.write(key_line + "\n")
        for flat in range(n_cells):
            if flat not in done:
                done[flat] = next(results)
            fh.write(_cell_line(flat, done[flat]))
            fh.flush()
    cells = [[done[i * len(d) + j] for j in range(len(d))]
             for i in range(len(od))]
    return PhaseDiagram(cells)
