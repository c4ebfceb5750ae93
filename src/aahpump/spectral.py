"""Band-structure scans, the two band gaps, and the tridiagonal eigensolver.

The direct gap n is min over k of E_{n+1}(k) - E_n(k) (direct_gaps); the
indirect gap n is the bottom of band n+1 minus the top of band n
(band_edges).  The direct gap is never smaller than the indirect one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigError, ModulationParams, _require_elements, \
    bloch_grid_hamiltonians


@dataclass(frozen=True)
class BandGrid:
    """Band energies over a uniform mesh of the Brillouin-like zone.

    energies has shape (q, len(kxs), ny), bands ascending, energies[n, i, j]
    at (kxs[i], kys[j]); kys are ky_j = (j+1) * 2*pi/ny and kxs are kx_i =
    -pi/q + (i+1) * (2*pi/q)/nx, all i or zone_edge_grid's columns alone.
    """

    kxs: np.ndarray
    kys: np.ndarray
    energies: np.ndarray


def zone_mesh(q: int, nx: int, ny: int, extra: int = 0):
    """Uniform mesh of (-pi/q, pi/q] x (0, 2*pi], lower edges excluded.

    extra > 0 appends wrap-around points past the upper zone edge (used by
    the lattice-gauge Chern computation to close plaquettes on the torus).
    Raises ConfigError, before it allocates, when the two axes would hold
    more than MAX_ARRAY_ELEMENTS.
    """
    _require_elements(nx + ny + 2 * extra,
                      f"the axes of a {nx} x {ny} zone mesh")
    dkx = (2.0 * np.pi / q) / nx
    dky = 2.0 * np.pi / ny
    kxs = -np.pi / q + dkx * np.arange(1, nx + 1 + extra)
    kys = dky * np.arange(1, ny + 1 + extra)
    return kxs, kys


def band_grid(params: ModulationParams, nx: int, ny: int) -> BandGrid:
    """Band energies of the Bloch blocks on an nx x ny mesh of the zone."""
    return _grid(params, nx, ny, slice(None))


def zone_edge_grid(params: ModulationParams, nx: int, ny: int) -> BandGrid:
    """band_grid on the kx columns holding each band's top and bottom and
    each direct gap's minimum: det(E - H) = D_ky(E) - 2 prod_j t_j(ky)
    cos(q kx) (Chambers, Phys. Rev. 140, A135, 1965), so bands are monotone
    in cos(q kx), neighbours in opposite senses.  The columns are i = nx - 1
    (q kx = pi), ceil(nx/2) - 1 (q kx = 0) and, for odd nx, floor(nx/2) - 1
    (the pair at +-pi/nx).  Where a bond vanishes at a mesh ky, bands are
    flat in kx and may differ from band_grid's by rounding (<= 5e-15),
    never to a smaller gap, a higher top or a lower bottom."""
    return _grid(params, nx, ny, _edge_columns(nx))


def _edge_columns(nx: int) -> list:
    """The kx columns of zone_edge_grid on a mesh of nx columns."""
    return sorted({nx - 1, (nx - 1) // 2, nx // 2 - 1})


def _grid(params, nx, ny, columns) -> BandGrid:
    if nx < 2 or ny < 2:
        raise ConfigError(f"nx and ny must be >= 2, got {nx} x {ny}")
    kxs, kys = zone_mesh(params.q, nx, ny)
    kxs = kxs[columns]
    w = np.linalg.eigvalsh(bloch_grid_hamiltonians(params, kxs, kys))
    return BandGrid(kxs, kys, np.transpose(w, (2, 0, 1)))


def tridiagonal_eigh(diag: np.ndarray, off: np.ndarray, lowest=None):
    """Ascending eigenvalues and column eigenvectors of the tridiagonal
    matrix (diag, off): all of them by LAPACK's divide and conquer (stevd,
    called straight through scipy.linalg.lapack, for n >= 2), or the lowest
    `lowest` by bisection and inverse iteration (stebz, through scipy's
    eigh_tridiagonal).  The LAPACK routines are named, so results do not
    follow scipy's default, and both keep eigh_tridiagonal's contract:
    ValueError on a non-finite input, LinAlgError when LAPACK fails.
    scipy.linalg is imported here, at the first solve, so that runs which
    never solve an open chain or a mode basis do not load it."""
    if lowest is None:
        from scipy.linalg.lapack import dstevd

        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise ValueError("array must not contain infs or NaNs")
        vals, vecs, info = dstevd(diag, off)
        if info:
            raise np.linalg.LinAlgError(f"stevd failed with info = {info}")
        return vals, vecs
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(diag, off, select="i",
                            select_range=(0, lowest - 1),
                            lapack_driver="stebz")


def direct_gaps(energies: np.ndarray) -> np.ndarray:
    """Direct gaps min_k [E_{n+1}(k) - E_n(k)], n = 1 .. q-1.

    energies has the band axis first, shape (q, nx, ny).  A negative or
    near-zero gap flags closure.  On a zone_edge_grid it is the full mesh's
    gap by Chambers' relation, to <= 5e-15 where a band is flat in kx.
    """
    return (energies[1:] - energies[:-1]).min(axis=(1, 2))


def band_edges(grid: BandGrid):
    """(tops, bottoms) of every band over the mesh; the indirect gap n is
    bottoms[n] - tops[n - 1] (0-based bands)."""
    return grid.energies.max(axis=(1, 2)), grid.energies.min(axis=(1, 2))


def gap_scan(params_template: ModulationParams, nu_od_over_J,
             nx: int = 48, ny: int = 48) -> list[tuple]:
    """Direct gaps of the nx x ny mesh as a function of nu_od/J, from its
    zone_edge_grid columns (2 ny blocks a ratio, 3 ny for odd nx).

    Returns one (ratio, G_1, ..., G_{q-1}) tuple per requested ratio, in
    input order.  Raises ConfigError for nx or ny below 2.
    """
    return [(r, *direct_gaps(zone_edge_grid(
        replace(params_template, nu_od=r * params_template.J),
        nx, ny).energies).tolist()) for r in map(float, nu_od_over_J)]
