import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aahpump.model import _mod_angle
from aahpump.propagation import GUIDE_WINDOW_WIDTHS, BoundaryLeakage, \
    GridUnderresolved, IndexModulated, OpticalConstants, SimulationGrid, \
    SpacingModulated, _IndexPotential, _SpacingPotential, _phase_support, \
    _super_gaussian, default_grid, gaussian_input, injection_guide, \
    lz_ratio, mean_position, pump_chern, refractive_profile, run_summary, \
    split_step_propagate

CONST = OpticalConstants(gamma=9e-4)


def index_design(**kw):
    base = dict(alpha=0.5, p=1, q=3, ws=10.0, wx=3.0, Z=3e5, num_guides=21)
    base.update(kw)
    return IndexModulated(**base)


def spacing_design(**kw):
    base = dict(p=1, q=3, ws=20.0, wx=3.0, wm=18.0, phi0=math.pi / 5,
                Z=1.5e5, num_guides=21)
    base.update(kw)
    with pytest.warns(UserWarning):
        return SpacingModulated(**base)


def make_design(name):
    if name == "index":
        return index_design()
    if name == "spacing":
        return spacing_design()
    if name == "spacing_negative_wm":
        # the sign of wm only moves the drive phase by pi
        return spacing_design(wm=-18.0)
    raise ValueError(name)


def windowed_spacing_profile(d, x, z, phase=None):
    """Per-guide loop over the support windows: the gathered potential's
    reference."""
    R = np.zeros(x.shape)
    dx = x[1] - x[0]
    half = GUIDE_WINDOW_WIDTHS * d.wx
    dz_phase = 0.0 if phase is None else phase - d.Omega * z
    for j in d.guide_indices:
        c = j * d.ws + d.wm * math.cos(
            _mod_angle(j, d.p, d.q) + d.phi0 + d.Omega * z + dz_phase)
        lo = max(0, int((c - half - x[0]) / dx))
        hi = min(len(x), int((c + half - x[0]) / dx) + 2)
        if lo < hi:
            R[lo:hi] += _super_gaussian(x[lo:hi], c, d.wx)
    return R


SPACING_GRIDS = [
    np.arange(-280, 280, 0.15625),  # whole array, overlapping windows
    np.arange(-150, 150, 0.15625),  # narrower: windows clipped at ends
    np.linspace(-201.3, 187.9, 1999),
]


class TestProfiles:
    def test_unmodulated_peak(self):
        d = index_design(alpha=0.0)
        assert refractive_profile(d, 30.0, 0.0) == pytest.approx(1.0,
                                                                 abs=1e-6)

    def test_modulated_peak_factor(self):
        # alpha = 0.5 at the j = 0 guide center, z = 0: factor 1.5
        d = index_design()
        assert refractive_profile(d, 0.0, 0.0) == pytest.approx(1.5,
                                                                abs=1e-6)

    def test_spacing_centers_formula(self):
        d = spacing_design()
        for j in (-2, 0, 1, 3):
            x_j = j * 20.0 + 18.0 * math.cos(
                2 * math.pi * j / 3 + math.pi / 5)
            assert d.guide_center(j, 0.0) == pytest.approx(x_j)
            assert refractive_profile(d, x_j, 0.0) >= 1.0 - 1e-6

    def test_factorized_index_potential_matches_direct(self):
        d = index_design()
        x = np.linspace(-120, 120, 1537)
        pot = _IndexPotential(d, x)
        for z in (0.0, 1e4, 1.37e5):
            assert np.abs(pot.profile(z)
                          - refractive_profile(d, x, z)).max() < 1e-12

    def test_windowed_spacing_potential_matches_direct(self):
        # samples beyond a window hold exact zeros of the guide shape, so
        # the windowed sum equals the all-guide sum bit for bit
        d = spacing_design()
        for x in SPACING_GRIDS:
            pot = _SpacingPotential(d, x)
            for z in np.linspace(0.0, d.Z, 37):
                assert np.array_equal(pot.profile(z),
                                      refractive_profile(d, x, z))

    @pytest.mark.parametrize("design", ["index", "spacing",
                                        "spacing_negative_wm"])
    def test_profile_exactly_zero_outside_phase_support(self, design):
        # the stepper applies the potential phase on this slice only
        d = make_design(design)
        x = default_grid(d).xs
        outside = np.ones(x.shape, dtype=bool)
        outside[_phase_support(d, x)] = False
        assert 0.25 < outside.mean() < 0.4
        for z in np.linspace(0.0, d.Z, 37):
            assert not refractive_profile(d, x, z)[outside].any()

    @pytest.mark.parametrize("x", SPACING_GRIDS)
    @pytest.mark.parametrize("phase", [None, 0.0, 2.0, -7.5])
    def test_gathered_spacing_potential_matches_window_loop(self, x, phase):
        d = spacing_design()
        pot = _SpacingPotential(d, x)
        for z in (0.0, 3.3e4, 1.1e5, 1.5e5):
            assert np.abs(pot.profile(z, phase)
                          - windowed_spacing_profile(d, x, z, phase)
                          ).max() <= 1e-14

    def test_super_gaussian_matches_sixth_power(self):
        x = np.linspace(-20.0, 20.0, 100001)
        for c, wx in ((0.0, 3.0), (0.37, 3.0), (-5.1, 1.7)):
            ref = np.exp(-((x - c) / wx) ** 6)
            assert np.abs(_super_gaussian(x, c, wx) - ref).max() <= 1e-15

    def test_design_validation(self):
        with pytest.raises(ValueError):
            index_design(wx=-1.0)
        with pytest.raises(ValueError):
            index_design(num_guides=4)
        with pytest.warns(UserWarning):
            index_design(ws=5.0)


class TestInjection:
    def test_index_center_guide(self):
        assert injection_guide(index_design()) == 0

    def test_spacing_max_min_separation(self):
        # guides j = 2 (mod 3) have the largest minimum adjacent spacing;
        # the tie resolves to the one nearest the array center
        assert injection_guide(spacing_design()) == -1


class TestGrid:
    def test_default_grid_width_and_slices(self):
        d = index_design()
        g = default_grid(d)
        assert g.nx == 2048
        assert g.x_max - g.x_min >= 27 * d.ws
        assert len(g.z_slices) == 201
        assert g.z_slices[-1] == d.Z

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            SimulationGrid(-10, 10, 100, 1.0, np.array([0.0]))

    def test_gaussian_input_unit_norm(self):
        g = default_grid(index_design())
        psi = gaussian_input(12.0, 4.0, g)
        assert np.sum(np.abs(psi) ** 2) * g.dx == pytest.approx(1.0)
        assert mean_position(psi, g) == pytest.approx(12.0, abs=1e-9)


class TestDiagnostics:
    def test_mean_position_symmetric(self):
        g = default_grid(index_design())
        assert mean_position(gaussian_input(0.0, 5.0, g), g) == \
            pytest.approx(0.0, abs=1e-9)

    def test_lz_ratio(self):
        assert lz_ratio(0.0, 1.0) == 1.0
        assert lz_ratio(3e-3, 1e5) == pytest.approx(math.exp(-0.9))
        assert lz_ratio(1e-3, 1e12) < 1e-100
        with pytest.raises(ValueError):
            lz_ratio(-1.0, 1.0)


def free_gaussian(x, W, z, k0):
    """Closed-form paraxial diffraction of exp(-x^2/W^2)."""
    s = W ** 2 + 2j * z / k0
    return np.sqrt(W ** 2 / s) * np.exp(-x ** 2 / s)


def phase_factor(theta):
    """exp(i*theta) with cos/sin written into the real and imaginary parts,
    as the stepper builds it."""
    factor = np.empty(theta.shape, dtype=complex)
    factor.real = np.cos(theta)
    factor.imag = np.sin(theta)
    return factor


def reference_propagate(psi0, design, constants, grid, phase_fn=None):
    """Strang stepper with fresh arrays per step and the potential phase
    applied on the whole grid: the reference the in-place, support-trimmed
    stepper must reproduce bit for bit.  The phase factor is phase_factor,
    not np.exp(1j*theta): the two agree bit for bit only where numpy
    evaluates real cos/sin and complex exp with the same kernels
    (test_phase_factor_matches_complex_exp bounds their difference)."""
    x, dx, dz = grid.xs, grid.dx, grid.dz
    pot = (_IndexPotential(design, x) if isinstance(design, IndexModulated)
           else _SpacingPotential(design, x))
    v_scale = constants.k0 * constants.gamma / constants.n0
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, dx)
    half_kin = np.exp(-1j * kx ** 2 * dz / (4.0 * constants.k0))
    psi = np.asarray(psi0, dtype=complex)
    fields = [psi.copy()]
    norms = [np.sum(np.abs(psi) ** 2) * dx]
    record = set(grid.steps.tolist())
    psi_k = np.fft.fft(psi)
    for s in range(grid.steps[-1]):
        z_mid = (s + 0.5) * dz
        psi = np.fft.ifft(psi_k * half_kin)
        phase = None if phase_fn is None else phase_fn(z_mid)
        psi *= phase_factor(v_scale * dz * pot.profile(z_mid, phase))
        psi_k = np.fft.fft(psi) * half_kin
        if s + 1 in record:
            out = np.fft.ifft(psi_k)
            fields.append(out)
            norms.append(np.sum(np.abs(out) ** 2) * dx)
    return fields, np.array(norms)


class TestSplitStep:
    def test_phase_factor_matches_complex_exp(self):
        # |theta| <= PHASE_STEP_MAX in the stepper; a wider range as well
        rng = np.random.default_rng(7)
        for theta in (np.linspace(-0.1, 0.1, 20001),
                      rng.uniform(-np.pi, np.pi, 20001)):
            got, want = phase_factor(theta), np.exp(1j * theta)
            np.testing.assert_array_max_ulp(got.real, want.real, maxulp=1)
            np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=1)

    @pytest.mark.parametrize("design, dz, guide", [
        ("index", 4.0, 0),
        ("spacing", 7.5, -4),
        ("spacing_negative_wm", 7.5, -4),
    ])
    @pytest.mark.parametrize("drive", ["default", "phase_fn"])
    def test_matches_reference_stepper(self, design, dz, guide, drive):
        d = make_design(design)
        const = OpticalConstants(gamma=5e-4)
        grid = default_grid(d, dz=dz)
        grid = SimulationGrid(grid.x_min, grid.x_max, grid.nx, dz,
                              dz * np.arange(0, 301, 50))
        psi0 = gaussian_input(d.guide_center(guide, 0.0), 4.3, grid)
        psi0_before = psi0.copy()
        phase_fn = (None if drive == "default"
                    else lambda z: 1.3 * d.Omega * z + 0.2)
        traj = split_step_propagate(psi0, d, const, grid, phase_fn=phase_fn)
        fields, norms = reference_propagate(psi0_before, d, const, grid,
                                            phase_fn)
        assert np.array_equal(psi0, psi0_before)
        assert len(traj.fields) == len(fields) == 7
        for got, want in zip(traj.fields, fields):
            assert np.array_equal(got, want)
        assert np.array_equal(traj.norms, norms)

    def test_free_diffraction_oracle(self):
        d = index_design(Z=1e4)
        free = OpticalConstants(gamma=0.0)
        grid = default_grid(d, num_slices=4)
        psi0 = gaussian_input(0.0, 30.0, grid)
        traj = split_step_propagate(psi0, d, free, grid, leakage_abort=1.0)
        for z, psi in zip(traj.zs, traj.fields):
            ref = free_gaussian(grid.xs, 30.0, z, free.k0)
            ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * grid.dx)
            err = np.sqrt(np.sum(np.abs(psi - ref) ** 2) * grid.dx)
            assert err < 1e-3

    def test_stationary_guided_mode(self):
        # imaginary-distance relaxation of the split operator gives a mode
        # that then propagates with only a global phase
        d = index_design(alpha=0.0, Z=1e4, num_guides=1)
        grid = default_grid(d, num_slices=2)
        x, dx, dz = grid.xs, grid.dx, grid.dz
        kx = 2 * np.pi * np.fft.fftfreq(grid.nx, dx)
        decay = np.exp(-kx ** 2 * dz / (4 * CONST.k0))
        gain = np.exp(CONST.k0 * CONST.gamma / CONST.n0 * dz
                      * refractive_profile(d, x, 0.0))
        psi = gaussian_input(0.0, 4.0, grid)
        for _ in range(4000):
            psi = np.fft.ifft(np.fft.fft(psi) * decay)
            psi *= gain
            psi = np.fft.ifft(np.fft.fft(psi) * decay)
            psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
        traj = split_step_propagate(psi, d, CONST, grid)
        drift = np.abs(np.abs(traj.fields[-1]) ** 2
                       - np.abs(psi) ** 2).max() / (np.abs(psi) ** 2).max()
        # imaginary-distance relaxation and the real-distance stepper agree
        # on the eigenvector only up to their (different) O(dz^2) splitting
        # errors, so the profile is stationary to ~1e-5, not machine zero
        assert drift < 1e-4

    def test_norm_conserved(self):
        d = index_design(Z=4000.0)
        grid = default_grid(d, num_slices=8)
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                    CONST, grid)
        assert np.abs(traj.norms / traj.norms[0] - 1.0).max() < 1e-12

    @pytest.mark.parametrize("x_min", [-400.0, 200.0])
    def test_grid_without_guides(self, x_min):
        # no guide within reach: the potential vanishes on the whole grid
        d = index_design(Z=1e3)
        grid = SimulationGrid(x_min, x_min + 200.0, 2048, 1.0,
                              np.array([0.0, 10.0]))
        psi0 = gaussian_input(x_min + 100.0, 4.0, grid)
        with pytest.warns(UserWarning, match="domain width"):
            traj = split_step_propagate(psi0, d, CONST, grid)
        fields, _ = reference_propagate(psi0, d, CONST, grid)
        assert all(map(np.array_equal, traj.fields, fields))

    @given(spacing=st.booleans(), q=st.sampled_from([1, 3, 5, 7]),
           p=st.integers(1, 6), offset=st.floats(-np.pi, np.pi),
           gamma=st.sampled_from([-9e-4, -5e-4, -1e-4, 1e-4, 5e-4, 9e-4]))
    @settings(max_examples=25, deadline=None)
    def test_unitary_for_any_drive(self, spacing, q, p, offset, gamma):
        # one pump cycle in 100 steps
        if spacing:
            d = SpacingModulated(p=p, q=q, ws=20.0, wx=3.0, wm=4.0,
                                 phi0=math.pi / 5, Z=400.0, num_guides=7)
        else:
            d = index_design(p=p, q=q, Z=400.0, num_guides=7)
        grid = default_grid(d, dz=4.0, num_slices=4)
        traj = split_step_propagate(
            gaussian_input(0.0, 4.0, grid), d, OpticalConstants(gamma=gamma),
            grid, leakage_abort=1.0,
            phase_fn=lambda z: d.Omega * z + offset)
        assert np.abs(traj.norms / traj.norms[0] - 1.0).max() <= 1e-12

    def test_second_order_convergence(self):
        d = index_design(Z=4000.0)

        def final_field(dz):
            grid = default_grid(d, dz=dz, num_slices=2)
            return split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                        CONST, grid).fields[-1]

        ref = final_field(0.5)
        e_coarse = np.linalg.norm(final_field(4.0) - ref)
        e_fine = np.linalg.norm(final_field(2.0) - ref)
        assert 3.0 < e_coarse / e_fine < 5.0

    def test_grid_underresolved(self):
        d = index_design()
        with pytest.raises(GridUnderresolved):
            grid = default_grid(d, dz=50.0)
            split_step_propagate(gaussian_input(0.0, 3.77, grid), d, CONST,
                                 grid)
        with pytest.raises(GridUnderresolved):
            grid = default_grid(d, dx=1.25)
            split_step_propagate(gaussian_input(0.0, 3.77, grid), d, CONST,
                                 grid)

    def test_boundary_leakage_aborts(self):
        d = index_design(num_guides=1, Z=1e4)
        free = OpticalConstants(gamma=0.0)
        grid = default_grid(d, num_slices=20)
        psi0 = gaussian_input(0.0, 20.0, grid)
        with pytest.raises(BoundaryLeakage):
            split_step_propagate(psi0, d, free, grid)


class TestReadout:
    def test_pump_chern_from_shift(self):
        d = index_design(Z=1000.0)
        grid = default_grid(d, num_slices=2)
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                    CONST, grid)
        expected = (mean_position(traj.fields[-1], grid)
                    - mean_position(traj.fields[0], grid)) / (3 * d.ws)
        assert pump_chern(traj, 3, d.ws) == pytest.approx(expected)

    def test_run_summary_keys(self):
        d = index_design(Z=1000.0)
        grid = default_grid(d, num_slices=2)
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                    CONST, grid)
        s = run_summary(traj, d, CONST, G1=1e-3)
        for key in ("chern_estimate", "norm_drift", "leakage_max",
                    "lz_ratio", "mean_x_start_um", "mean_x_end_um"):
            assert key in s


class TestConfinement:
    def test_pumped_light_stays_on_the_instantaneous_guide(self, run_preset):
        # strongly trapped pump: intensity stays concentrated near the
        # brightest guide.  During a hop the light is briefly shared between
        # two adjacent guides, so the single-guide criterion (half a spacing)
        # must hold for the large majority of slices while a window of 1.5
        # spacings captures the light at every slice.
        outdir = run_preset("fig5a", threads=1)
        single_guide_ok = 0
        total = 0
        with open(outdir / "fig5a_intensity.csv") as fh:
            header = fh.readline().split(",")
            xs = np.array([float(v) for v in header[1:]])
            for line in fh:
                row = np.array([float(v) for v in line.split(",")[1:]])
                peak = xs[np.argmax(row)]
                offset = np.abs(xs - peak)
                power = row.sum()
                assert row[offset <= 15.0].sum() / power > 0.9
                single_guide_ok += row[offset <= 5.0].sum() / power > 0.8
                total += 1
        assert total == 201
        assert single_guide_ok / total > 0.9
