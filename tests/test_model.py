import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aahpump.model import ModulationParams, _mod_angle, \
    bloch_grid_hamiltonians, open_hamiltonian
from openchain import open_matrix


def params(nu_d=0.0, nu_od=1.0, p=1, q=3, delta_phi=0.0, J=1.0):
    return ModulationParams(J, nu_d, nu_od, p, q, delta_phi)


# ------------------------------------------------------------ references
# The scalar per-site terms and the per-k Bloch block that the array code
# replaced, kept as oracles.

def reference_onsite_potential(j, params, ky):
    """On-site energy nu_d * cos(2*pi*beta*j + ky) at site j."""
    return params.nu_d * math.cos(_mod_angle(j, params.p, params.q) + ky)


def reference_hopping(j, params, ky):
    """Bond energy -J + nu_od * cos(2*pi*beta*j + ky + dphi) between j, j+1."""
    return -params.J + params.nu_od * math.cos(
        _mod_angle(j, params.p, params.q) + ky + params.delta_phi)


def reference_bloch_hamiltonian(params, kx, ky):
    """q x q Bloch block at (kx, ky), assembled bond by bond: every hopping
    bond carries the phase e^{i kx}, and bond j = q wraps from site q back
    to site 1."""
    q = params.q
    H = np.zeros((q, q), dtype=complex)
    for j in range(1, q + 1):
        H[j - 1, j - 1] += reference_onsite_potential(j, params, ky)
        t = reference_hopping(j, params, ky) * np.exp(1j * kx)
        a, b = j - 1, j % q
        if a == b:
            H[a, a] += 2.0 * t.real
        else:
            H[a, b] += t
            H[b, a] += np.conj(t)
    return H


def bloch_block(params, kx, ky):
    """The package's Bloch block at one (kx, ky)."""
    return bloch_grid_hamiltonians(params, [kx], [ky])[0, 0]


class TestModulationParams:
    def test_ratio_reduced(self):
        p = ModulationParams(1.0, 0.0, 1.0, 2, 6)
        assert (p.p, p.q) == (1, 3)

    def test_with_ratio(self):
        p = params().with_ratio(2.5)
        assert p.nu_od == pytest.approx(2.5)
        assert p.nu_d == 0.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            ModulationParams(1.0, 0.0, 1.0, 1, 0)

    @given(j=st.integers(-1000, 1000), p=st.integers(1, 10),
           q=st.integers(1, 11))
    def test_mod_angle_periodic_and_exact(self, j, p, q):
        # exact residue arithmetic: shifting j by q never changes the angle
        assert _mod_angle(j, p, q) == _mod_angle(j + q, p, q)
        assert _mod_angle(j, p, q) == pytest.approx(
            2 * np.pi * ((p * j) % q) / q)


class TestSiteTerms:
    def test_onsite_cosine(self):
        p = params(nu_d=0.7, q=3)
        for j in range(6):
            assert reference_onsite_potential(j, p, 0.4) == pytest.approx(
                0.7 * np.cos(2 * np.pi * j / 3 + 0.4))

    def test_hopping_cosine(self):
        p = params(nu_od=0.3, delta_phi=np.pi / 3)
        for j in range(6):
            assert reference_hopping(j, p, 0.2) == pytest.approx(
                -1.0 + 0.3 * np.cos(2 * np.pi * j / 3 + 0.2 + np.pi / 3))

    def test_site_period_q(self):
        p = params(nu_d=0.5, nu_od=0.3, q=5)
        for j in range(5):
            assert reference_onsite_potential(j, p, 0.1) == \
                reference_onsite_potential(j + 5, p, 0.1)
            assert reference_hopping(j, p, 0.1) == \
                reference_hopping(j + 5, p, 0.1)


class TestBlochHamiltonian:
    def test_explicit_three_by_three(self):
        # independent oracle: the q=3 block written out literally (sites
        # 1..3, bond j couples sites j and j+1, bond 3 wraps around)
        p = params(nu_d=0.4, nu_od=0.3, delta_phi=0.1)
        kx, ky = 0.37, 1.21
        t = {j: reference_hopping(j, p, ky) for j in (1, 2, 3)}
        v = {j: reference_onsite_potential(j, p, ky) for j in (1, 2, 3)}
        e = np.exp(1j * kx)
        H_ref = np.array([
            [v[1], t[1] * e, np.conj(t[3] * e)],
            [np.conj(t[1] * e), v[2], t[2] * e],
            [t[3] * e, np.conj(t[2] * e), v[3]],
        ])
        H = bloch_block(p, kx, ky)
        assert np.allclose(H, H_ref, atol=1e-14)

    @given(nu_d=st.floats(-2, 2), nu_od=st.floats(-2, 2),
           kx=st.floats(-3, 3), ky=st.floats(0, 6.3),
           q=st.sampled_from([1, 3, 5, 7]))
    @settings(max_examples=50)
    def test_hermitian(self, nu_d, nu_od, kx, ky, q):
        H = bloch_block(params(nu_d, nu_od, q=q), kx, ky)
        assert np.abs(H - H.conj().T).max() < 1e-12

    def test_q1_free_cosine_band(self):
        # single-site zone: energy is the free-chain cosine band
        p = ModulationParams(1.0, 0.0, 0.0, 0, 1)
        for kx in (0.0, 0.3, 1.0):
            H = bloch_block(p, kx, 0.0)
            assert H.shape == (1, 1)
            assert H[0, 0] == pytest.approx(-2 * np.cos(kx))

    def test_grid_matches_single(self):
        p = params(nu_d=0.2, nu_od=0.8)
        kxs = np.array([-0.5, 0.1, 0.9])
        kys = np.array([0.3, 2.0])
        stack = bloch_grid_hamiltonians(p, kxs, kys)
        for i, kx in enumerate(kxs):
            for j, ky in enumerate(kys):
                assert np.allclose(
                    stack[i, j], reference_bloch_hamiltonian(p, kx, ky),
                    atol=1e-14)


class TestOpenHamiltonian:
    def test_structure(self):
        p = params(nu_d=0.4, nu_od=0.3)
        H = open_matrix(p, 7, 0.9)
        assert H.shape == (7, 7)
        assert np.allclose(H, H.T)
        # tridiagonal: no next-nearest couplings, open ends; sites 1-based
        assert np.abs(np.triu(H, 2)).max() == 0.0
        for j in range(6):
            assert H[j, j + 1] == pytest.approx(
                reference_hopping(j + 1, p, 0.9))
        for j in range(7):
            assert H[j, j] == pytest.approx(
                reference_onsite_potential(j + 1, p, 0.9))

    def test_too_short(self):
        with pytest.raises(ValueError):
            open_hamiltonian(params(), 1, 0.0)
