"""Generalized commensurate Aubry-Andre-Harper (AAH) lattice model.

On-site potentials V_j = nu_d * cos(2*pi*beta*j + ky) and modulated
nearest-neighbour hoppings J_{j,j+1} = -J + nu_od * cos(2*pi*beta*j + ky + dphi)
with rational modulation frequency beta = p/q, assembled either into q x q
Bloch blocks (periodic boundaries, momentum kx along the chain) or into
the two bands of the tridiagonal open-chain Hamiltonian of N sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# elements an array sized by integer inputs may hold: 13 times a 4000-ky
# flow of 301 sites, over 400 times the largest a preset makes
MAX_ARRAY_ELEMENTS = 2**24


class ConfigError(ValueError):
    """An input no computation can run on; the CLI exits 2 on it."""


class NumericalFailure(Exception):
    """A computation ran but its result cannot be trusted; the CLI exits 3
    on it."""


def _require_finite(obj, *names) -> None:
    """Reject a NaN or infinite float field of obj: no result computed from
    one can be trusted."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def _require_elements(n: int, what: str) -> None:
    """Reject an array of n elements above MAX_ARRAY_ELEMENTS."""
    if n > MAX_ARRAY_ELEMENTS:
        raise ConfigError(f"{what} would hold {n} elements, more than "
                          f"{MAX_ARRAY_ELEMENTS}")


def _reduce_ratio(obj) -> None:
    """Reject q < 1 and p < 0, then reduce the p/q of a frozen dataclass to
    lowest terms, so its cell length q is always minimal."""
    if obj.q < 1:
        raise ConfigError(f"q must be >= 1, got {obj.q}")
    if obj.p < 0:
        raise ConfigError(f"p must be >= 0, got {obj.p}")
    g = math.gcd(obj.p, obj.q)
    if g > 1:
        object.__setattr__(obj, "p", obj.p // g)
        object.__setattr__(obj, "q", obj.q // g)


@dataclass(frozen=True)
class ModulationParams:
    """Parameter tuple (J, nu_d, nu_od, beta=p/q, delta_phi) of the lattice.

    beta is stored as the exact integer pair (p, q); p/q is reduced to lowest
    terms on construction so the cell length q is always minimal.  A NaN
    or infinite float raises ConfigError.
    """

    J: float
    nu_d: float
    nu_od: float
    p: int
    q: int
    delta_phi: float = 0.0

    def __post_init__(self):
        _require_finite(self, "J", "nu_d", "nu_od", "delta_phi")
        _reduce_ratio(self)

    def with_ratio(self, nu_od_over_J: float) -> "ModulationParams":
        """Copy with nu_od set to the given multiple of J."""
        return ModulationParams(self.J, self.nu_d, nu_od_over_J * self.J,
                                self.p, self.q, self.delta_phi)


def _mod_angle(j, p: int, q: int):
    # 2*pi*beta*j computed from the exact residue p*j mod q, so the cosine
    # argument never grows with j; j may be an int or an integer array
    return TWO_PI * ((p * j) % q) / q


def _site_energies(params: ModulationParams, angles, ky):
    """(on-site, bond) energies nu_d*cos(a + ky) and -J + nu_od*cos(a + ky +
    dphi) at modulation angles a = 2*pi*beta*j, broadcast over arrays of
    angles or of ky."""
    return (params.nu_d * np.cos(angles + ky),
            -params.J + params.nu_od * np.cos(angles + ky + params.delta_phi))


def bloch_grid_hamiltonians(params: ModulationParams,
                            kxs: np.ndarray, kys: np.ndarray) -> np.ndarray:
    """Stacked Bloch blocks, shape (len(kxs), len(kys), q, q).

    Every hopping bond carries the phase e^{i kx} (periodic gauge); the bond
    j = q wraps from site q back to site 1.  The blocks are Hermitian by
    construction (no symmetrization is applied).
    """
    q = params.q
    kxs = np.asarray(kxs, dtype=float)
    kys = np.asarray(kys, dtype=float)
    nx, ny = len(kxs), len(kys)
    _require_elements(nx * ny * q * q, f"{nx} x {ny} blocks of {q} x {q}")
    H = np.zeros((nx, ny, q, q), dtype=complex)
    phase = np.exp(1j * kxs)[:, None]
    for j in range(1, q + 1):
        V, t = _site_energies(params, _mod_angle(j, params.p, params.q), kys)
        V = V[None, :]
        t = t[None, :] * phase
        a, b = j - 1, j % q
        H[:, :, a, a] += V
        if a == b:
            H[:, :, a, a] += 2.0 * t.real
        else:
            H[:, :, a, b] += t
            H[:, :, b, a] += np.conj(t)
    return H


def open_hamiltonian(params: ModulationParams, num_sites: int, ky: float):
    """(diag, off) bands, of lengths num_sites and num_sites - 1, of the
    open (hard-wall) chain's tridiagonal Hamiltonian at modulation phase ky.

    Bonds j = 1 .. N-1 only, no wrap-around term.  Adding 0.0 turns the -0.0
    that nu_d = 0 times a negative cosine leaves into +0.0: the solver's
    near-zero eigenvalues depend on that sign in their last bits.
    """
    if num_sites < 2:
        raise ConfigError(f"need at least 2 sites, got {num_sites}")
    angles = _mod_angle(np.arange(1, num_sites + 1), params.p, params.q)
    diag, off = _site_energies(params, angles, ky)
    return diag + 0.0, off[:-1] + 0.0
