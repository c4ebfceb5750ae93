"""Acceptance gate: the ten pinned numerical criteria for this package.

Reference values are pinned results for the beta = 1/3
commensurate AAH lattice and its photonic pump realization.  Tolerances are
pinned here and must not be loosened without a recorded decision.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aahpump.cli import PRESETS
from aahpump.edges import winding_numbers
from aahpump.extraction import extract_parameters
from aahpump.model import ModulationParams, bloch_grid_hamiltonians
from aahpump.propagation import IndexModulated, OpticalConstants, \
    default_grid, gaussian_input, split_step_propagate
from aahpump.spectral import band_grid, direct_gaps, gap_scan, zone_mesh
from aahpump.topology import chern_numbers, plaquette_phases
from openchain import open_matrix


def params(nu_d=0.0, nu_od=1.0, q=3, delta_phi=0.0):
    return ModulationParams(1.0, nu_d, nu_od, 1, q, delta_phi)


class TestCriterion1ChernPhasePoints:
    def test_weak_and_strong_tuples_fast(self):
        t0 = time.perf_counter()
        weak = chern_numbers(params(nu_od=1.0), 48, 48)
        t1 = time.perf_counter()
        strong = chern_numbers(params(nu_od=10.0), 48, 48)
        t2 = time.perf_counter()
        assert weak.as_tuple() == (-1, 2, -1)
        assert strong.as_tuple() == (2, -4, 2)
        assert t1 - t0 < 1.0
        assert t2 - t1 < 1.0

    def test_diagonal_limit_equals_weak_tuple(self):
        diag = chern_numbers(params(nu_d=1.0, nu_od=1e-6), 48, 48)
        assert diag.as_tuple() == (-1, 2, -1)


class TestCriterion2TransitionLocation:
    RATIOS = [round(3.5 + 0.01 * i, 2) for i in range(101)]

    def test_simultaneous_closure_at_four(self):
        rows = gap_scan(params(nu_d=0.0), self.RATIOS, 48, 48)
        g1 = {r: a for r, a, _ in rows}
        g2 = {r: b for r, _, b in rows}
        r1 = min(g1, key=g1.get)
        r2 = min(g2, key=g2.get)
        assert abs(r1 - 4.0) <= 0.02
        assert abs(r2 - 4.0) <= 0.02
        assert g1[r1] < 1e-3
        assert g2[r2] < 1e-3

    def test_diagonal_modulation_splits_the_closure(self):
        # with on-site modulation the simultaneous closure splits into two
        # distinct ratios, one per gap.  The Dirac points fall between mesh
        # momenta so the sampled minima stay finite; the closures are instead
        # certified by the Chern transitions across each minimizing ratio.
        rows = gap_scan(params(nu_d=0.2), self.RATIOS, 48, 48)
        g1 = {r: a for r, a, _ in rows}
        g2 = {r: b for r, _, b in rows}
        r1 = min(g1, key=g1.get)
        r2 = min(g2, key=g2.get)
        assert abs(r1 - r2) > 0.05
        before = chern_numbers(params(nu_d=0.2).with_ratio(min(r1, r2) - 0.2))
        between = chern_numbers(
            params(nu_d=0.2).with_ratio((r1 + r2) / 2.0))
        after = chern_numbers(params(nu_d=0.2).with_ratio(max(r1, r2) + 0.2))
        assert tuple(before) == (-1, 2, -1)
        assert tuple(after) == (2, -4, 2)
        assert tuple(between) not in (tuple(before), tuple(after))


class TestCriterion3ChiralSymmetry:
    def test_gaps_equal_without_onsite_modulation(self):
        for r in (0.5, 1.0, 2.0, 6.0, 10.0):
            g = direct_gaps(band_grid(params(nu_od=r), 48, 48).energies)
            assert abs(g[0] - g[1]) < 1e-10

    def test_open_chain_mirror_symmetric(self):
        for ky in (0.0, 0.9, 2.5, 5.1):
            e = np.linalg.eigvalsh(open_matrix(params(nu_od=1.0), 89, ky))
            assert np.abs(np.sort(e) + np.sort(-e)[::-1]).max() < 1e-10


class TestCriterion4LinearGapGrowth:
    def test_first_gap_grows_linearly(self):
        ratios = [5.0 + 0.25 * i for i in range(29)]
        rows = gap_scan(params(), ratios, 48, 48)
        x = np.array([r[0] for r in rows])
        y = np.array([r[1] for r in rows])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        r2 = 1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))
        assert r2 > 0.999
        assert slope > 0


class TestCriterion5EdgeWindings:
    @pytest.mark.parametrize("num_sites", [89, 149, 299])
    def test_weak_modulation(self, num_sites):
        wr = winding_numbers(params(nu_od=1.0), num_sites)
        assert wr.windings == (-1, 1)
        if num_sites == 89:
            assert wr.branch_counts == (2, 2)

    @pytest.mark.parametrize("num_sites", [89, 149, 299])
    def test_strong_modulation(self, num_sites):
        wr = winding_numbers(params(nu_od=10.0), num_sites)
        assert wr.windings == (2, -2)
        if num_sites == 89:
            assert wr.branch_counts == (4, 4)

    @pytest.mark.parametrize("nu_od", [1.0, 10.0])
    def test_bulk_edge_correspondence(self, nu_od):
        cherns = chern_numbers(params(nu_od=nu_od)).as_tuple()
        wr = winding_numbers(params(nu_od=nu_od), 89)
        bounded = (0,) + wr.windings + (0,)  # I_0 = I_q = 0
        assert tuple(bounded[n + 1] - bounded[n]
                     for n in range(3)) == cherns


def _random_gapped_draws(n_draws=50, seed=20260826):
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < n_draws:
        q = int(rng.choice([3, 5]))
        p = params(nu_d=rng.uniform(-2, 2),
                   nu_od=rng.uniform(-3, 3), q=q,
                   delta_phi=rng.uniform(0, 2 * np.pi))
        if direct_gaps(band_grid(p, 48, 48).energies).min() > 0.05:
            draws.append(p)
    return draws


class TestCriterion6GaugeAndMeshProperties:
    DRAWS = _random_gapped_draws()

    def test_zero_sum_and_mesh_independence(self):
        for p in self.DRAWS:
            fine = chern_numbers(p, 48, 48)
            assert fine.all_defined
            assert sum(fine.as_tuple()) == 0
            coarse = chern_numbers(p, 12, 12)
            assert coarse.as_tuple() == fine.as_tuple()

    def test_gauge_invariance_of_plaquettes(self):
        rng = np.random.default_rng(11)
        for p in self.DRAWS:
            kxs, kys = zone_mesh(p.q, 12, 12, extra=1)
            _, vecs = np.linalg.eigh(bloch_grid_hamiltonians(p, kxs, kys))
            band = int(rng.integers(p.q))
            states = vecs[:, :, :, band]
            phases = np.exp(
                1j * rng.uniform(0, 2 * np.pi, states.shape[:2]))
            F0 = plaquette_phases(states)
            F1 = plaquette_phases(states * phases[:, :, None])
            assert np.abs(F0 - F1).max() < 1e-12


class TestCriterion7PumpingReproduction:
    @pytest.mark.parametrize("name,target", [
        ("fig5a", -0.97), ("fig5b", -0.99), ("fig5c", 1.97)])
    def test_pump_preset(self, pump_summary, name, target):
        s = pump_summary(name)
        assert abs(s["chern_estimate"] - target) <= 0.05
        assert s["norm_drift"] < 1e-10
        assert s["leakage_max"] < 1e-4


class TestCriterion8FreeDiffractionOracle:
    @given(W=st.floats(min_value=25.0, max_value=45.0))
    @settings(max_examples=5, deadline=None)
    def test_gaussian_diffraction_over_one_cm(self, W):
        design = IndexModulated(alpha=0.5, p=1, q=3, ws=10.0, wx=3.0,
                                Z=1e4, num_guides=21)
        free = OpticalConstants(gamma=0.0)
        grid = default_grid(design, num_slices=2)
        psi0 = gaussian_input(0.0, W, grid)
        traj = split_step_propagate(psi0, design, free, grid,
                                    lambda z, row: None, leakage_abort=1.0)
        s = W ** 2 + 2j * design.Z / free.k0
        ref = np.sqrt(W ** 2 / s) * np.exp(-grid.xs ** 2 / s)
        ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * grid.dx)
        err = np.sqrt(np.sum(np.abs(traj.final - ref) ** 2) * grid.dx)
        assert err < 1e-3


class TestCriterion9ParameterExtraction:
    @pytest.mark.parametrize("gamma,J_ref", [(9e-4, 3.76e-4),
                                             (5e-4, 5.23e-4)])
    def test_extraction_contracts(self, gamma, J_ref):
        design = IndexModulated(alpha=0.5, p=1, q=3, ws=10.0, wx=3.0, Z=3e5)
        fit = extract_parameters(OpticalConstants(gamma=gamma), design)
        assert abs(fit.J - J_ref) <= 0.3 * J_ref
        assert fit.nu_d < 0
        assert abs(fit.nu_d) > 5 * abs(fit.nu_od)
        assert fit.nu_od < 0.5 * fit.J
        assert abs(fit.delta_phi - math.pi / 3) <= 0.3

    def test_deeper_guides_hop_less(self):
        design = IndexModulated(alpha=0.5, p=1, q=3, ws=10.0, wx=3.0, Z=3e5)
        j9 = extract_parameters(OpticalConstants(gamma=9e-4), design).J
        j5 = extract_parameters(OpticalConstants(gamma=5e-4), design).J
        assert j9 < j5


class TestCriterion10Determinism:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_threads_do_not_change_outputs(self, run_preset, name):
        d1 = run_preset(name, threads=1)
        d8 = run_preset(name, threads=8)
        files1 = sorted(p.name for p in d1.iterdir())
        files8 = sorted(p.name for p in d8.iterdir())
        assert files1 == files8 and files1
        for fname in files1:
            assert (d1 / fname).read_bytes() == (d8 / fname).read_bytes(), \
                f"{name}/{fname} differs between --threads 1 and --threads 8"
