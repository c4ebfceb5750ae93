"""Tight-binding parameters of the index-modulated array from localized modes.

The continuous paraxial Hamiltonian H = -(1/2 k0) d_x^2 - (k0 gamma/n0) R(x)
is reduced to a lattice model by building a localized orthonormal basis and
taking matrix elements.  The basis is constructed from the modulation-averaged
(uniform-depth) array: isolated-guide bound modes are projected onto the
lowest bound-band manifold and symmetrically (Loewdin) orthonormalized, which
yields exponentially localized Wannier-like functions.  Matrix elements of
the fully modulated Hamiltonian in this basis give on-site energies eps_j and
bond integrals t_j, and exact q-point Fourier inversion over one modulation
period fits eps_j = nu_d*cos(2*pi*beta*j) and t_j = -J + nu_od*cos(2*pi*beta*j
+ delta_phi).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigError, NumericalFailure, _mod_angle
from .propagation import MAX_GRID_SAMPLES, IndexModulated, OpticalConstants, \
    refractive_profile
from .spectral import tridiagonal_eigh

MODE_DX = 0.05            # um; finite-difference step for mode solves
BASIS_GUIDES = 13         # guides in the Wannier construction


class NoBoundMode(NumericalFailure, ValueError):
    """The single-guide potential supports no mode below the asymptote."""


class FitDegenerate(NumericalFailure, ValueError):
    """The projected trial modes are linearly dependent."""


@dataclass(frozen=True)
class ExtractedParams:
    """Fitted lattice parameters (1/um) and extraction diagnostics."""

    J: float
    nu_od: float
    nu_d: float
    delta_phi: float
    onsite: tuple
    bonds: tuple
    overlap_deficit: float   # max |<trial_j|trial_j+1>| before orthogonalization


def _fd_operator(V: np.ndarray, dx: float, k0: float):
    """Diagonal and off-diagonal of -(1/2 k0) d^2/dx^2 + V on a hard-walled
    grid (3-point finite differences)."""
    t = 1.0 / (2.0 * k0 * dx * dx)
    return 2.0 * t + V, np.full(len(V) - 1, -t)


def _fd_eig(V: np.ndarray, dx: float, k0: float, n_modes: int):
    """Lowest n_modes of the finite-difference operator, unit L2 norm."""
    vals, vecs = tridiagonal_eigh(*_fd_operator(V, dx, k0), n_modes)
    return vals, vecs / math.sqrt(dx)


def _bound_mode(V: np.ndarray, dx: float, k0: float):
    """(level, profile) of the lowest mode, its largest lobe positive; raises
    NoBoundMode unless the level lies below the asymptotic (zero) potential."""
    vals, vecs = _fd_eig(V, dx, k0, 1)
    if vals[0] >= 0.0:
        raise NoBoundMode(
            f"lowest level {vals[0]:.3e} not below the asymptotic potential")
    phi = vecs[:, 0]
    if phi[np.argmax(np.abs(phi))] < 0:
        phi = -phi
    return float(vals[0]), phi


def _basis_grid(design: IndexModulated, dx: float = MODE_DX):
    """(xs, samples per ws) of the grid shared by the basis construction and
    the matrix elements, on which every guide centre is a sample.  Raises
    ConfigError for q < 3 (the fit needs three sites), for q + 3 >
    BASIS_GUIDES (a guide to spare on each side), for a grid of more than
    MAX_GRID_SAMPLES samples, before it is made, and unless a finite dx > 0
    divides ws at least once."""
    if design.q < 3:
        raise ConfigError(f"q = {design.q} leaves the amplitude/phase/"
                          "offset inversion underdetermined")
    if design.q + 3 > BASIS_GUIDES:
        raise ConfigError(f"q = {design.q} needs more than the "
                          f"{BASIS_GUIDES} guides of the basis")
    if not 0 < dx < math.inf:  # NaN included
        raise ConfigError(f"mode dx must be positive and finite, got {dx}")
    half = ((BASIS_GUIDES - 1) // 2 + 2) * design.ws
    n = 2.0 * half / dx  # inf when it overflows
    if not n < MAX_GRID_SAMPLES - 0.5:  # round(n) + 1 samples
        raise ConfigError(f"a mode grid {2.0 * half:g} um wide at dx = "
                          f"{dx:g} um holds more than {MAX_GRID_SAMPLES} "
                          "samples")
    if not design.ws >= dx:
        raise ConfigError(f"ws = {design.ws:g} um is below the mode dx = "
                          f"{dx:g} um")
    samples_per_ws = int(round(design.ws / dx))
    if abs(samples_per_ws * dx - design.ws) > 1e-12 * design.ws:
        raise ConfigError("ws must be a multiple of dx for the shared grid")
    return -half + dx * np.arange(int(round(n)) + 1), samples_per_ws


def extract_parameters(constants: OpticalConstants, design: IndexModulated,
                       dx: float = MODE_DX) -> ExtractedParams:
    """Fit (J, nu_od, nu_d, delta_phi) for an index-modulated array.

    The localized basis comes from the uniform-depth array (the modulation
    average): its lowest BASIS_GUIDES bound levels span the first band
    manifold, isolated-guide trial modes are projected onto that manifold,
    and the projections are Loewdin-orthonormalized.  The fit uses the q
    central sites and bonds at drive phase 0.
    """
    xs, samples_per_ws = _basis_grid(design, dx)
    n = len(xs)
    k0 = constants.k0
    scale = k0 * constants.gamma / constants.n0
    half_idx = (BASIS_GUIDES - 1) // 2
    basis_design = replace(design, num_guides=BASIS_GUIDES)

    V_uniform = -scale * refractive_profile(replace(basis_design, alpha=0.0),
                                            xs, 0.0)
    _, band = _fd_eig(V_uniform, dx, k0, BASIS_GUIDES)

    # one isolated-guide trial mode, translated to every guide center
    g0 = refractive_profile(replace(basis_design, num_guides=1, alpha=0.0),
                            xs, 0.0)
    _, trial0 = _bound_mode(-scale * g0, dx, k0)
    trials = np.zeros((n, BASIS_GUIDES))
    for i, j in enumerate(basis_design.guide_indices):
        trials[:, i] = np.roll(trial0, j * samples_per_ws)
    raw_overlap = trials.T @ trials * dx
    overlap_deficit = float(np.abs(raw_overlap - np.diag(np.diag(raw_overlap))
                                   ).max())

    # project onto the band manifold, then Loewdin-orthonormalize
    proj = band @ (band.T @ trials * dx)
    S = proj.T @ proj * dx
    s_vals, s_vecs = np.linalg.eigh(S)
    if s_vals.min() < 1e-10 * s_vals.max():
        raise FitDegenerate("projected trial modes are linearly dependent")
    W = proj @ (s_vecs / np.sqrt(s_vals) @ s_vecs.T)

    # matrix elements of the fully modulated Hamiltonian at phase 0
    V_full = -scale * refractive_profile(basis_design, xs, 0.0)
    diag, off = _fd_operator(V_full, dx, k0)
    HW = diag[:, None] * W
    HW[:-1] += off[:, None] * W[1:]
    HW[1:] += off[:, None] * W[:-1]
    M = W.T @ HW * dx

    q = design.q
    sites = [half_idx + j for j in range(q)]         # guides j = 0 .. q-1
    thetas = _mod_angle(np.arange(q), design.p, design.q)
    eps = np.array([M[i, i] for i in sites])
    t = np.array([M[i, i + 1] for i in sites])

    J = -float(t.mean())
    phasors = np.exp(-1j * thetas)
    od_amp = (2.0 / q) * np.sum((t + J) * phasors)
    nu_od = float(np.abs(od_amp))
    delta_phi = float(np.angle(od_amp)) if nu_od > 0 else 0.0
    d_amp = (2.0 / q) * np.sum((eps - eps.mean()) * phasors)
    nu_d = float(np.abs(d_amp)) * (1.0 if abs(np.angle(d_amp)) < np.pi / 2
                                   else -1.0)
    return ExtractedParams(J, nu_od, nu_d, delta_phi,
                           tuple(float(e) for e in eps),
                           tuple(float(b) for b in t), overlap_deficit)


def extraction_report(constants: OpticalConstants, design: IndexModulated,
                      params: ExtractedParams, dx: float = MODE_DX) -> dict:
    """JSON-friendly report of an extraction run."""
    return {
        "gamma": constants.gamma,
        "alpha": design.alpha,
        "ws_um": design.ws,
        "wx_um": design.wx,
        "Z_um": design.Z,
        "J_per_um": params.J,
        "nu_od_per_um": params.nu_od,
        "nu_d_per_um": params.nu_d,
        "delta_phi_rad": params.delta_phi,
        "onsite_per_um": list(params.onsite),
        "bonds_per_um": list(params.bonds),
        "overlap_deficit": params.overlap_deficit,
        "mode_dx_um": dx,
        "basis_guides": BASIS_GUIDES,
    }
