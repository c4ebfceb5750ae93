import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, \
    strategies as st

from aahpump.edges import BULK, LEFT, RIGHT, FiducialInGapViolation, \
    WindingUnderresolved, _LABELS, _edge_codes, bulk_edge_check, \
    gap_fiducials, spectral_flow, winding_numbers
from aahpump.model import ModulationParams, bloch_grid_hamiltonians, \
    open_hamiltonian
from aahpump.spectral import band_edges, band_grid, zone_mesh
from aahpump.topology import MeshTooCoarse, chern_numbers, plaquette_phases
from openchain import open_matrix


def params(nu_d=0.0, nu_od=1.0, delta_phi=0.0):
    return ModulationParams(1.0, nu_d, nu_od, 1, 3, delta_phi)


# ------------------------------------------------------------ references
# The scalar per-site, per-state and per-sample loops that the array code
# replaced, kept as oracles: the array code must match them bit for bit.

def reference_open_hamiltonian(p, num_sites, ky):
    def angle(j):
        return 2.0 * math.pi * ((p.p * j) % p.q) / p.q
    diag = np.array([p.nu_d * math.cos(angle(j) + ky)
                     for j in range(1, num_sites + 1)])
    off = np.array([-p.J + p.nu_od * math.cos(angle(j) + ky + p.delta_phi)
                    for j in range(1, num_sites)])
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def reference_classify(state, m=5, threshold=0.5):
    prob = np.abs(state) ** 2
    prob = prob / prob.sum()
    left, right = float(prob[:m].sum()), float(prob[-m:].sum())
    if left >= threshold and left >= right:
        return LEFT
    if right >= threshold:
        return RIGHT
    return BULK


def reference_spectral_flow(p, num_sites, n_ky, m=5, threshold=0.5):
    kys = 2.0 * np.pi * np.arange(n_ky) / n_ky
    energies = np.empty((n_ky, num_sites))
    labels = np.empty((n_ky, num_sites), dtype=object)
    for t, ky in enumerate(kys):
        vals, vecs = np.linalg.eigh(
            reference_open_hamiltonian(p, num_sites, ky))
        energies[t] = vals
        for a in range(num_sites):
            labels[t, a] = reference_classify(vecs[:, a], m, threshold)
    return energies, labels


def reference_windings(energies, labels, fiducials):
    """Per gap: (left winding, right winding, left crossings, right
    crossings, largest step of a crossing branch between two samples,
    crossings by branches labelled Bulk)."""
    nt = energies.shape[0]
    out = []
    for Ef in fiducials:
        w_left = w_right = n_left = n_right = n_bulk = 0
        max_step = 0.0
        for t in range(nt):
            t2 = (t + 1) % nt
            e1, e2 = energies[t], energies[t2]
            for a in np.nonzero((e1 - Ef) * (e2 - Ef) < 0.0)[0]:
                slope = e2[a] - e1[a]
                max_step = max(max_step, abs(slope))
                label = labels[t, a] if abs(e1[a] - Ef) >= abs(
                    e2[a] - Ef) else labels[t2, a]
                if label == LEFT:
                    w_left += -int(np.sign(slope))
                    n_left += 1
                elif label == RIGHT:
                    w_right += -int(np.sign(slope))
                    n_right += 1
                else:
                    n_bulk += 1
        out.append((w_left, w_right, n_left, n_right, max_step, n_bulk))
    return out


def lattices(qs=(1, 3, 5, 7)):
    """Random p/q (q odd), nu_od, nu_d (0 included) and delta_phi."""
    return st.builds(
        lambda q, p, nu_od, nu_d, delta_phi: ModulationParams(
            1.0, nu_d, nu_od, p % q or 1, q, delta_phi),
        q=st.sampled_from(qs), p=st.integers(1, 6),
        nu_od=st.floats(-12.0, 12.0),
        nu_d=st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        delta_phi=st.floats(0.0, 2 * math.pi))


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def smallest_plaquette_links(states):
    """Per plaquette of plaquette_phases(states), the smallest modulus of
    its four links."""
    m1 = np.abs(np.einsum("ijk,ijk->ij", states[:-1].conj(), states[1:]))
    m2 = np.abs(np.einsum("ijk,ijk->ij", states[:, :-1].conj(),
                          states[:, 1:]))
    return np.minimum.reduce([m1[:, :-1], m2[1:], m1[:, 1:], m2[:-1]])


def classify(states, m=5, threshold=0.5):
    """Labels of the columns of states (or of one state), as spectral_flow
    gives them."""
    states = np.reshape(states, (len(states), -1))
    return _LABELS[_edge_codes(states, m, threshold)].tolist()


class TestInvariantProperties:
    @given(p=lattices())
    @settings(max_examples=60, deadline=None)
    def test_chern_numbers_sum_to_zero(self, p):
        try:
            cv = chern_numbers(p)
        except MeshTooCoarse:
            assume(False)
        assume(cv.all_defined)
        assert sum(cv.as_tuple()) == 0

    # draws on which a fixed bound of 1e-12 failed, at a small link modulus
    # (nu_d and nu_od as printed then, so the failing bits need not recur)
    @example(p=ModulationParams(1.0, -1.6e-29, 0.0, 1, 7), seed=1)
    @example(p=ModulationParams(1.0, 0.0, -4.002223, 1, 3, 3.765625), seed=0)
    @example(p=ModulationParams(1.0, 0.0, 1.3642e-8, 1, 7, 1.0), seed=0)
    @given(p=lattices(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gauge_invariance_of_chern_numbers(self, p, seed):
        # a random phase per k on every band's states, the wrap-around row
        # and column included, moves no plaquette beyond roundoff and no
        # Chern number.  Rounding a link of modulus |U| turns its phase by
        # about eps/|U|, so each plaquette is held to 4 eps over its
        # smallest link modulus, and to 1e-12 wherever that is >= 1e-3.
        kxs, kys = zone_mesh(p.q, 48, 48, extra=1)
        _, vecs = np.linalg.eigh(bloch_grid_hamiltonians(p, kxs, kys))
        rng = np.random.default_rng(seed)
        turned = vecs * np.exp(1j * rng.uniform(
            0, 2 * np.pi, (len(kxs), len(kys), 1, p.q)))
        for n in range(p.q):
            try:
                F0 = plaquette_phases(vecs[:, :, :, n])
            except MeshTooCoarse:
                continue
            F1 = plaquette_phases(turned[:, :, :, n])
            tol = np.maximum(1e-12, 4 * np.finfo(float).eps
                             / smallest_plaquette_links(vecs[:, :, :, n]))
            assert (np.abs(F0 - F1) < tol).all()
            assert round(F0.sum() / (2 * np.pi)) == \
                round(F1.sum() / (2 * np.pi))

    # Known to fail for some q = 7 lattices: a left and a right edge branch
    # that cross each other at a fiducial within one ky step swap sorted
    # indices, so neither crossing is seen.  For p/q = 4/7, nu_od/J = 6.795
    # (TestBulkEdge.test_swapping_edge_branches_at_coarse_ky, a strict
    # xfail) the windings read (-2, -4, 0, 0, 4, 2) at n_ky = 400 and the
    # Chern-consistent (-2, -4, 1, -1, 4, 2) at n_ky = 2000.  The draws are
    # derandomized, so every run tries the same 25 lattices; all of them
    # pass, so a failure here is a regression in the winding count.
    @given(p=lattices())
    @settings(max_examples=25, deadline=None, derandomize=True,
              phases=[Phase.explicit, Phase.reuse, Phase.generate,
                      Phase.shrink])
    def test_chern_equals_winding_difference(self, p):
        # C_n = I_n - I_{n-1} on the 89-site chain at n_ky = 400
        try:
            report = bulk_edge_check(p, winding_numbers(p, 89, 400))
        except (MeshTooCoarse, FiducialInGapViolation, WindingUnderresolved):
            assume(False)
        cherns = report["chern_numbers"]
        assume(all(isinstance(c, int) for c in cherns))
        assert report["chern_from_windings"] == cherns


class TestMatchesScalarReference:
    @given(p=lattices(), num_sites=st.integers(2, 60),
           ky=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_open_hamiltonian_bitwise(self, p, num_sites, ky):
        diag, off = open_hamiltonian(p, num_sites, ky)
        H = reference_open_hamiltonian(p, num_sites, ky)
        assert np.array_equal(bits(diag), bits(H.diagonal()))
        assert np.array_equal(bits(off), bits(H.diagonal(1)))

    def test_zero_onsite_diagonal_is_positive_zero(self):
        # nu_d = 0 times a negative cosine is -0.0; adding 0.0 makes it
        # +0.0, which keeps the solver's near-zero eigenvalues bit for bit
        p = ModulationParams(1.0, 0.0, 10.0, 1, 3)
        diag, off = open_hamiltonian(p, 89, 2.5)
        H = reference_open_hamiltonian(p, 89, 2.5)
        assert np.array_equal(bits(diag), bits(H.diagonal()))
        assert np.array_equal(bits(off), bits(H.diagonal(1)))
        assert not np.signbit(diag).any()

    @given(p=lattices(), num_sites=st.integers(10, 60),
           n_ky=st.integers(8, 64))
    @settings(max_examples=40, deadline=None)
    def test_spectral_flow_bitwise(self, p, num_sites, n_ky):
        flow = spectral_flow(p, num_sites, n_ky)
        energies, labels = reference_spectral_flow(p, num_sites, n_ky)
        assert np.array_equal(bits(flow.energies), bits(energies))
        assert flow.labels.dtype == object
        assert flow.labels.tolist() == labels.tolist()

    # q = 1 has no gap to wind around
    @given(p=lattices((3, 5, 7)), num_sites=st.integers(10, 60),
           n_ky=st.integers(8, 64))
    @settings(max_examples=60, deadline=None)
    def test_windings_match_reference_or_fail_loudly(self, p, num_sites,
                                                       n_ky):
        try:
            fiducials, widths = gap_fiducials(p)
        except FiducialInGapViolation:
            assume(False)
        flow = spectral_flow(p, num_sites, n_ky)
        ref = reference_windings(flow.energies, flow.labels, fiducials)
        if any(r[4] > 0.25 * w or r[5] for r, w in zip(ref, widths)):
            with pytest.raises(WindingUnderresolved):
                winding_numbers(p, num_sites, n_ky)
            return
        wr = winding_numbers(p, num_sites, n_ky)
        assert wr.windings == tuple(r[0] for r in ref)
        assert wr.right_windings == tuple(r[1] for r in ref)
        assert wr.left_branch_crossings == tuple(r[2] for r in ref)
        assert wr.right_branch_crossings == tuple(r[3] for r in ref)

    def test_classify_matches_reference_per_state(self):
        _, vecs = np.linalg.eigh(open_matrix(params(nu_od=10.0), 89, 0.3))
        assert classify(vecs) == [reference_classify(vecs[:, a])
                                  for a in range(89)]


class TestClassification:
    def test_edge_weight_normalizes(self):
        # |v|^2 sums to 1/4 here: only a normalized weight reaches 0.99
        v = np.zeros(20)
        v[0] = 0.5
        assert classify(v, threshold=0.99) == [LEFT]

    def test_classify(self):
        left = np.zeros(30)
        left[:2] = 1.0
        right = np.zeros(30)
        right[-2:] = 1.0
        bulk = np.ones(30)
        assert classify(left) == [LEFT]
        assert classify(right) == [RIGHT]
        assert classify(bulk) == [BULK]


class TestSpectralFlow:
    def test_shapes(self):
        flow = spectral_flow(params(), 30, n_ky=16)
        assert flow.energies.shape == (16, 30)
        assert flow.labels.shape == (16, 30)
        assert np.all(np.diff(flow.energies, axis=1) >= -1e-12)

    def test_open_spectrum_mirror_symmetric(self):
        # chiral (nu_d = 0) open chains have exactly E -> -E symmetric
        # spectra at every ky, with no momentum shift needed
        for ky in (0.0, 0.7, 2.0, 4.5):
            e = np.linalg.eigvalsh(open_matrix(params(nu_od=2.0), 89, ky))
            assert np.abs(e + e[::-1]).max() < 1e-10

    @given(p=lattices(), num_sites=st.integers(2, 120),
           ky=st.floats(0.0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_chiral_symmetry_property(self, p, num_sites, ky):
        # at nu_d = 0 the sublattice sign flip maps H to -H
        p = ModulationParams(p.J, 0.0, p.nu_od, p.p, p.q, p.delta_phi)
        e = np.linalg.eigvalsh(open_matrix(p, num_sites, ky))
        assert np.abs(e + e[::-1]).max() <= 1e-12 * max(1.0, np.abs(e).max()) \
            * num_sites

    def test_too_short_chain(self):
        with pytest.raises(ValueError):
            spectral_flow(params(), 8, m=5)

    def test_no_edge_sites_rejected(self):
        # p[:, -0:] would select every site: all 480 states RightEdge
        with pytest.raises(ValueError):
            spectral_flow(params(), 30, 16, m=0)


class TestFiducials:
    def test_midgap_position(self):
        fid, widths = gap_fiducials(params())
        tops, bottoms = band_edges(band_grid(params(), 48, 48))
        assert len(fid) == 2
        assert np.all(fid > tops[:-1])
        assert np.all(fid < bottoms[1:])
        assert np.array_equal(widths, bottoms[1:] - tops[:-1])

    def test_closed_gap_rejected(self):
        with pytest.raises(FiducialInGapViolation):
            gap_fiducials(params(nu_od=4.0))


class TestWindings:
    def test_weak_modulation(self):
        wr = winding_numbers(params(nu_od=1.0), 89)
        assert wr.windings == (-1, 1)
        assert wr.right_windings == (1, -1)
        assert wr.branch_counts == (2, 2)

    def test_strong_modulation(self):
        wr = winding_numbers(params(nu_od=10.0), 89)
        assert wr.windings == (2, -2)
        assert wr.right_windings == (-2, 2)
        assert wr.branch_counts == (4, 4)

    def test_left_right_opposite(self):
        for r in (1.0, 10.0):
            wr = winding_numbers(params(nu_od=r), 89)
            assert tuple(-w for w in wr.windings) == wr.right_windings


    @pytest.mark.parametrize("n_ky", [1, 2])
    def test_too_few_ky_samples_rejected(self, n_ky):
        # one or two samples retrace their steps; at n_ky = 1 fig4a's
        # (-1, 1) read (0, 0)
        with pytest.raises(ValueError, match="n_ky"):
            winding_numbers(params(nu_od=1.0), 89, n_ky)

    @pytest.mark.parametrize("n_ky", [4, 40])
    def test_underresolved_loop_fails_loudly(self, n_ky):
        # at nu_od/J = 10 the crossing branches move 1.45 (n_ky = 4) and
        # 0.33 (n_ky = 40) gap widths per sample
        with pytest.raises(WindingUnderresolved, match="raise n_ky"):
            winding_numbers(params(nu_od=10.0), 89, n_ky)


class TestBulkEdge:
    @pytest.mark.parametrize("nu_od", [1.0, 10.0])
    def test_consistent(self, nu_od):
        p = params(nu_od=nu_od)
        report = bulk_edge_check(p, winding_numbers(p, 89))
        assert report["consistent"]
        assert report["chern_from_windings"] == report["chern_numbers"]

    def test_unattributed_crossings_fail_loudly(self):
        # near the closure at nu_od/J = 4 the in-gap states spread past the
        # 5 outer sites, are labelled Bulk, and the windings read (0, 0)
        p = params(nu_od=3.5)
        with pytest.raises(WindingUnderresolved, match="labelled Bulk"):
            winding_numbers(p, 89)
        wr = winding_numbers(p, 89, m=10)
        assert wr.windings == (-1, 1)
        assert bulk_edge_check(p, wr)["consistent"]

    @pytest.mark.xfail(raises=AssertionError, strict=True,
                       reason="unseen crossings of swapping edge branches")
    def test_swapping_edge_branches_at_coarse_ky(self):
        # the property's known counterexample; n_ky = 2000 reads it right
        p = ModulationParams(1.0, 0.0, 6.795043468751103, 4, 7)
        assert bulk_edge_check(p, winding_numbers(p, 89, 400))["consistent"]

    def test_reuses_given_windings(self):
        wr = winding_numbers(params(nu_od=10.0), 89)
        report = bulk_edge_check(params(nu_od=10.0), wr)
        assert wr.windings == (2, -2)
        assert report["chern_from_windings"] == (2, -4, 2)
        assert report["chern_numbers"] == (2, -4, 2)
        assert report["consistent"]
        # the comparison reads the windings it is given, not its own
        report = bulk_edge_check(params(nu_od=10.0),
                                 replace(wr, windings=(-1, 1)))
        assert report["chern_from_windings"] == (-1, 2, -1)
        assert not report["consistent"]
