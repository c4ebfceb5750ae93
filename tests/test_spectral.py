import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal

from aahpump import spectral
from aahpump.edges import gap_fiducials
from aahpump.model import ModulationParams, bloch_grid_hamiltonians
from aahpump.spectral import band_edges, band_grid, direct_gaps, gap_scan, \
    tridiagonal_eigh, zone_edge_grid, zone_mesh
from aahpump.topology import _neighbour_gaps


def params(nu_d=0.0, nu_od=1.0, q=3, delta_phi=0.0):
    return ModulationParams(1.0, nu_d, nu_od, 1, q, delta_phi)


class TestZoneMesh:
    def test_edges_excluded_upper_included(self):
        kxs, kys = zone_mesh(3, 8, 8)
        assert len(kxs) == 8 and len(kys) == 8
        assert kxs[0] > -np.pi / 3
        assert kxs[-1] == pytest.approx(np.pi / 3)
        assert kys[0] > 0.0
        assert kys[-1] == pytest.approx(2 * np.pi)

    def test_extra_appends_wrap_points(self):
        kxs, kys = zone_mesh(3, 8, 8, extra=1)
        assert len(kxs) == 9
        assert kxs[-1] == pytest.approx(np.pi / 3 + (2 * np.pi / 3) / 8)
        assert kys[-1] == pytest.approx(2 * np.pi + 2 * np.pi / 8)


class TestBandGrid:
    def test_shapes_and_order(self):
        grid = band_grid(params(nu_d=0.5), 6, 6)
        assert grid.energies.shape == (3, 6, 6)
        assert np.all(np.diff(grid.energies, axis=0) >= 0)

    def test_q1_cosine_band(self):
        grid = band_grid(ModulationParams(1.0, 0.0, 0.0, 0, 1), 16, 4)
        assert np.allclose(grid.energies[0], -2 * np.cos(grid.kxs)[:, None],
                           atol=1e-12)


class TestGaps:
    def test_gaps_open_at_weak_modulation(self):
        gaps = direct_gaps(band_grid(params(nu_od=1.0), 48, 48).energies)
        assert np.all(gaps > 0.1)

    def test_gap_scan_order_and_values(self):
        rows = gap_scan(params(), [1.0, 2.0], nx=24, ny=24)
        assert [r[0] for r in rows] == [1.0, 2.0]
        direct = direct_gaps(band_grid(params(nu_od=2.0), 24, 24).energies)
        assert rows[1][1] == pytest.approx(direct[0])
        assert rows[1][2] == pytest.approx(direct[1])

    @pytest.mark.parametrize("nx, ny", [(1, 48), (48, 1)])
    def test_gap_scan_rejects_mesh_below_2x2(self, nx, ny):
        with pytest.raises(ValueError, match="nx and ny must be >= 2"):
            gap_scan(params(), [1.0], nx, ny)


class TestSpectralSymmetries:
    def test_chiral_mirror_under_kx_shift(self):
        # with nu_d = 0 the spectrum at (kx + pi/q, ky) is the negative of
        # the spectrum at (kx, ky); pointwise E -> -E holds only after this
        # half-reciprocal-cell shift (the odd invariant ~cos(q*kx) flips)
        p = params(nu_od=2.0)
        grid = band_grid(p, 36, 12)
        shift = 36 // 2  # pi/q in mesh units of (2*pi/q)/36
        for j in range(12):
            for i in range(36):
                e = np.sort(grid.energies[:, i, j])
                e_shift = np.sort(-grid.energies[:, (i + shift) % 36, j])
                assert np.allclose(e, e_shift, atol=1e-10)

    def test_gaps_equal_when_chiral(self):
        for r in (0.5, 1.0, 2.0, 8.0):
            g = direct_gaps(band_grid(params(nu_od=r), 48, 48).energies)
            assert abs(g[0] - g[1]) < 1e-10


# the per-band gap formulas that direct_gaps, band_edges and _neighbour_gaps
# replaced, kept as references
def reference_direct_gaps(energies):
    return np.array([float((energies[n] - energies[n - 1]).min())
                     for n in range(1, energies.shape[0])])


def reference_band_min_gaps(values):
    q = values.shape[-1]
    gaps = np.full(q, np.inf)
    for n in range(q - 1):
        d = (values[..., n + 1] - values[..., n]).min()
        gaps[n] = min(gaps[n], d)
        gaps[n + 1] = min(gaps[n + 1], d)
    return gaps


lattices = st.builds(
    lambda q, p, nu_od, nu_d, dphi, closed: ModulationParams(
        1.0, 0.0 if closed else nu_d, 4.0 if closed else nu_od, p, q,
        0.0 if closed else dphi),
    q=st.sampled_from([1, 3, 5, 7]), p=st.integers(0, 6),
    nu_od=st.floats(-6, 6), nu_d=st.floats(-3, 3),
    dphi=st.floats(0, 2 * np.pi),
    # nu_od/J = 4 at nu_d = 0: both gaps of p/q = 1/3 close
    closed=st.booleans())


class TestGapFunctions:
    @given(p=lattices, n=st.sampled_from([4, 7, 12]))
    @settings(max_examples=60, deadline=None)
    def test_match_per_band_formulas(self, p, n):
        grid = band_grid(p, n, n)
        E = grid.energies
        gaps = direct_gaps(E)
        assert gaps.shape == (p.q - 1,)
        assert np.array_equal(gaps.view(np.int64),
                              reference_direct_gaps(E).view(np.int64))
        tops, bottoms = band_edges(grid)
        assert np.array_equal(tops, [e.max() for e in E])
        assert np.array_equal(bottoms, [e.min() for e in E])
        # the indirect gap never exceeds the direct one
        assert np.all(bottoms[1:] - tops[:-1] <= gaps)

    def test_closed_gaps_at_transition(self):
        grid = band_grid(params(nu_od=4.0), 48, 48)
        tops, bottoms = band_edges(grid)
        assert np.all(direct_gaps(grid.energies) < 1e-3)
        assert np.all(bottoms[1:] - tops[:-1] < 1e-3)

    @given(p=lattices)
    @settings(max_examples=40, deadline=None)
    def test_band_min_gaps_unchanged(self, p):
        kxs, kys = zone_mesh(p.q, 8, 8, extra=1)
        values = np.linalg.eigvalsh(bloch_grid_hamiltonians(p, kxs, kys))
        gaps = direct_gaps(np.moveaxis(values, -1, 0))
        assert np.array_equal(_neighbour_gaps(gaps),
                              reference_band_min_gaps(values))


# every q from 1 to 9 with a p coprime to it, so the cell length stays q
coprime_lattices = st.integers(1, 9).flatmap(lambda q: st.builds(
    ModulationParams, st.just(1.0), st.floats(-3, 3), st.floats(-6, 6),
    st.sampled_from([p for p in range(1, q + 1) if math.gcd(p, q) == 1]),
    st.just(q), st.floats(0, 2 * np.pi)))


class TestZoneEdgeColumns:
    # Chambers' relation: det(E - H) depends on kx only through
    # cos(q kx), so the columns where it is largest and smallest hold
    # every band extreme and every direct-gap minimum of the mesh
    @given(p=coprime_lattices, nx=st.integers(2, 49), ny=st.integers(2, 49))
    @settings(max_examples=150, deadline=None)
    # a bond vanishes on the mesh: bond 2 of q = 2 at ky = 2*pi, and bond
    # q of nu_od = +J (at ky = 2*pi) or -J (at ky = pi) with dphi = 0
    @example(p=ModulationParams(1.0, 0.5, 1.0, 1, 2), nx=48, ny=48)
    @example(p=ModulationParams(1.0, 0.3, 1.0, 1, 3), nx=7, ny=9)
    @example(p=ModulationParams(1.0, -0.7, -1.0, 2, 3), nx=10, ny=12)
    @example(p=ModulationParams(1.0, 0.0, -1.0, 1, 4), nx=9, ny=8)
    def test_match_full_mesh(self, p, nx, ny):
        full, edge = band_grid(p, nx, ny), zone_edge_grid(p, nx, ny)
        c = np.cos(p.q * full.kxs)
        extreme = np.isclose(c, c.max(), rtol=0, atol=1e-12) | \
            np.isclose(c, c.min(), rtol=0, atol=1e-12)
        assert np.array_equal(edge.kxs, full.kxs[extreme])
        assert np.array_equal(edge.kys, full.kys)
        tol = 1e-13 * max(1.0, np.abs(full.energies).max())
        gaps, edge_gaps = direct_gaps(full.energies), \
            direct_gaps(edge.energies)
        assert np.all((edge_gaps >= gaps) & (edge_gaps - gaps <= tol))
        (tops, bottoms), (edge_tops, edge_bottoms) = band_edges(full), \
            band_edges(edge)
        assert np.all((edge_tops <= tops) & (tops - edge_tops <= tol))
        assert np.all((edge_bottoms >= bottoms)
                      & (edge_bottoms - bottoms <= tol))

    @pytest.fixture
    def blocks(self, monkeypatch):
        built = []

        def spy(params, kxs, kys):
            built.append(len(kxs) * len(kys))
            return bloch_grid_hamiltonians(params, kxs, kys)

        monkeypatch.setattr(spectral, "bloch_grid_hamiltonians", spy)
        return built

    @pytest.mark.parametrize("nx, ny, per_ratio", [(48, 48, 96), (24, 7, 14),
                                                   (7, 5, 15), (3, 4, 12)])
    def test_gap_scan_builds_column_blocks_only(self, blocks, nx, ny,
                                                per_ratio):
        gap_scan(params(), [0.5, 1.0, 4.0], nx, ny)
        assert blocks == [per_ratio] * 3

    def test_gap_fiducials_build_two_columns(self, blocks):
        gap_fiducials(params())
        assert blocks == [2 * 48]


class TestBlochGridHermitian:
    @given(p=lattices, nx=st.integers(2, 9), ny=st.integers(2, 9),
           extra=st.integers(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_hermitian(self, p, nx, ny, extra):
        kxs, kys = zone_mesh(p.q, nx, ny, extra)
        H = bloch_grid_hamiltonians(p, kxs, kys)
        assert H.shape == (len(kxs), len(kys), p.q, p.q)
        assert np.abs(H - np.conj(np.swapaxes(H, -1, -2))).max() <= 1e-12


class TestTridiagonalEigh:
    @given(n=st.integers(2, 120), seed=st.integers(0, 2**32 - 1),
           lowest=st.sampled_from([None, 1, 2, 5]))
    @settings(max_examples=60, deadline=None)
    def test_named_lapack_routines_bitwise(self, n, seed, lowest):
        # the whole spectrum by divide and conquer (stevd), the lowest
        # modes by bisection and inverse iteration (stebz), never by
        # whatever scipy's "auto" resolves to
        rng = np.random.default_rng(seed)
        diag, off = rng.normal(size=n), rng.normal(size=n - 1)
        if lowest is None:
            want = eigh_tridiagonal(diag, off, lapack_driver="stevd")
        else:
            lowest = min(lowest, n)
            want = eigh_tridiagonal(diag, off, select="i",
                                    select_range=(0, lowest - 1),
                                    lapack_driver="stebz")
        got = tridiagonal_eigh(diag, off, lowest)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("lowest", [None, 2])
    @pytest.mark.parametrize("band", ["diag", "off"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, lowest, band, bad):
        # eigh_tridiagonal's input contract, kept on both branches
        bands = {"diag": np.arange(5.0), "off": np.ones(4)}
        bands[band][1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            tridiagonal_eigh(bands["diag"], bands["off"], lowest)
