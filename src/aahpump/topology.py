"""Gauge-invariant lattice computation of band Chern numbers.

Link variables U_mu(k) = <psi_n(k)|psi_n(k+mu)> / |...| are formed on a
periodic mesh of the Brillouin-like zone, the per-plaquette field strength is
the principal argument of the oriented plaquette product, and the Chern
number is the total flux / 2*pi.  The construction is manifestly gauge
invariant, so the result is an exact integer whenever every plaquette is
admissible (|F| < pi) and the band stays separated from its neighbours.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import ModulationParams, bloch_grid_hamiltonians
from .spectral import direct_gaps, zone_mesh

LINK_MODULUS_MIN = 1e-8
INTEGER_ROUNDING_TOL = 0.01
DEFAULT_GAP_TOL_FACTOR = 1e-6


class EvenDenominator(ValueError):
    """Chern numbers are only computed for odd q."""


class MeshTooCoarse(ArithmeticError):
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


@dataclass(frozen=True)
class ChernVector:
    """Per-band entries: exact integers, or Undefined markers."""

    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __len__(self):
        return len(self.entries)

    @property
    def all_defined(self) -> bool:
        return all(isinstance(c, int) for c in self.entries)

    def as_tuple(self):
        """Integer tuple; raises if any band is Undefined."""
        if not self.all_defined:
            raise ValueError(f"undefined entries present: {self.entries}")
        return tuple(self.entries)


def _eig_grid_with_wrap(params: ModulationParams, nx: int, ny: int):
    """Eigensystem on the (nx+1) x (ny+1) mesh including wrap-around points.

    The wrap points carry the actual wrapped momenta (kx + 2*pi/q, ky + 2*pi);
    their eigenvectors agree with the identified states up to a phase, which
    the gauge-invariant plaquette product cancels exactly.
    """
    kxs, kys = zone_mesh(params.q, nx, ny, extra=1)
    H = bloch_grid_hamiltonians(params, kxs, kys)
    return np.linalg.eigh(H)


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


def chern_numbers(params: ModulationParams, nx: int = 48, ny: int = 48,
                  gap_tol: float | None = None) -> ChernVector:
    """Chern numbers of all q bands on an nx x ny mesh.

    Bands whose minimum pointwise spacing to an adjacent band falls below
    gap_tol (default 1e-6 * |J|) are reported as Undefined rather than
    silently computed.  Raises EvenDenominator for even q and MeshTooCoarse
    when the flux of a gapped band fails to round to an integer within 0.01,
    or when every band is defined but the integers do not sum to zero (two
    nearly touching bands whose curvature the mesh does not resolve).
    """
    if params.q % 2 == 0:
        raise EvenDenominator(f"q = {params.q} is even; Chern numbers are "
                              "only defined here for odd q")
    if nx < 4 or ny < 4:
        raise ValueError("mesh must be at least 4 x 4")
    if gap_tol is None:
        gap_tol = DEFAULT_GAP_TOL_FACTOR * abs(params.J)
    values, vectors = _eig_grid_with_wrap(params, nx, ny)
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
    cv = ChernVector(tuple(entries))
    if cv.all_defined and sum(entries) != 0:
        raise MeshTooCoarse(f"Chern numbers {entries} sum to {sum(entries)}, "
                            "not 0; refine the mesh")
    return cv


def plaquette_field(params: ModulationParams, band: int,
                    nx: int = 48, ny: int = 48) -> np.ndarray:
    """Plaquette field of one band (1-based index), for diagnostics/export."""
    if params.q % 2 == 0:
        raise EvenDenominator(f"q = {params.q} is even")
    if not 1 <= band <= params.q:
        raise IndexError(f"band {band} outside 1..{params.q}")
    _, vectors = _eig_grid_with_wrap(params, nx, ny)
    return plaquette_phases(vectors[:, :, :, band - 1])


@dataclass(frozen=True)
class PhaseDiagram:
    """ChernVector per cell of a (nu_od, nu_d) parameter sweep (units of J)."""

    nu_od_over_J: np.ndarray
    nu_d_over_J: np.ndarray
    cells: list  # cells[i][j] is the ChernVector at (nu_od[i], nu_d[j])


def phase_diagram(params_template: ModulationParams, nu_od_over_J,
                  nu_d_over_J, nx: int = 48, ny: int = 48,
                  gap_tol: float | None = None, threads: int = 1,
                  cell_cache: dict | None = None,
                  on_cell=None) -> PhaseDiagram:
    """Chern numbers over a grid of modulation amplitudes.

    Cells where the computation fails (gap closure, inadmissible mesh) are
    recorded as all-Undefined instead of aborting the sweep.  cell_cache maps
    flat cell index -> ChernVector for resumable sweeps; on_cell(index, cv)
    is invoked for each newly computed cell.
    """
    od = np.asarray(list(nu_od_over_J), dtype=float)
    d = np.asarray(list(nu_d_over_J), dtype=float)
    if len(od) == 0 or len(d) == 0:
        raise ValueError("sample lists must be nonempty")
    J = params_template.J
    cache = cell_cache or {}

    def one(flat):
        i, j = divmod(flat, len(d))
        if flat in cache:
            return cache[flat]
        p = ModulationParams(J, d[j] * J, od[i] * J,
                             params_template.p, params_template.q,
                             params_template.delta_phi)
        try:
            cv = chern_numbers(p, nx, ny, gap_tol)
        except MeshTooCoarse:
            cv = ChernVector(tuple(Undefined(0.0) for _ in range(p.q)))
        if on_cell is not None:
            on_cell(flat, cv)
        return cv

    flats = range(len(od) * len(d))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, flats))
    else:
        results = [one(f) for f in flats]
    cells = [[results[i * len(d) + j] for j in range(len(d))]
             for i in range(len(od))]
    return PhaseDiagram(od, d, cells)
