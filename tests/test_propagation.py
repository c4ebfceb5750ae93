import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from aahpump.cli import PRESETS, _build_design, build_config
from aahpump.model import _mod_angle
from aahpump.propagation import GUIDE_WINDOW_WIDTHS, PHASE_STEP_MAX, \
    BoundaryLeakage, GridUnderresolved, IndexModulated, OpticalConstants, \
    SimulationGrid, SpacingModulated, _GuidePotential, _phase_support, \
    _super_gaussian, default_grid, gaussian_input, injection_guide, \
    lz_ratio, mean_position, refractive_profile, run_summary, \
    split_step_propagate

CONST = OpticalConstants(gamma=9e-4)


def ignore(z, row):
    """An on_slice callback that keeps nothing."""


class Slices:
    """An on_slice callback that keeps every z and a copy of every row it
    is handed, and the rows themselves to tell whether one buffer serves
    them all."""

    def __init__(self):
        self.zs, self.rows, self.handed = [], [], []

    def __call__(self, z, row):
        self.zs.append(z)
        self.rows.append(row.copy())
        self.handed.append(row)


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


def reference_profile(d, x, z, phase=None):
    """Per-guide loop over the whole grid, with the drive phase Omega*z
    unless phase is given: the gathered potential's oracle."""
    ph = d.Omega * z if phase is None else phase
    R = np.zeros(x.shape)
    for j in d.guide_indices:
        a = _mod_angle(j, d.p, d.q) + d.phi0 + ph
        g = _super_gaussian(x, j * d.ws + d.wm * math.cos(a), d.wx)
        if isinstance(d, IndexModulated):
            g = g * (1.0 + d.alpha * math.cos(a))
        R += g
    return R


def windowed_spacing_profile(d, x, z, phase=None):
    """Per-guide loop over the support windows: the gathered potential's
    reference."""
    R = np.zeros(x.shape)
    dx = x[1] - x[0]
    half = GUIDE_WINDOW_WIDTHS * d.wx
    ph = d.Omega * z if phase is None else phase
    for j in d.guide_indices:
        c = j * d.ws + d.wm * math.cos(_mod_angle(j, d.p, d.q) + d.phi0 + ph)
        lo = max(0, int((c - half - x[0]) / dx))
        hi = min(len(x), int((c + half - x[0]) / dx) + 2)
        if lo < hi:
            R[lo:hi] += _super_gaussian(x[lo:hi], c, d.wx)
    return R


def profile_at(d, x0, z):
    """R at the point x0, evaluated on a small uniform grid centred on it."""
    return refractive_profile(d, x0 + 0.15625 * np.arange(-2, 3), z)[2]


def preset_design(name):
    command, overrides, _, _ = PRESETS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return _build_design(build_config(command, overrides, None, []))


SPACING_GRIDS = [
    np.arange(-280, 280, 0.15625),  # whole array, overlapping windows
    np.arange(-150, 150, 0.15625),  # narrower: windows clipped at ends
    np.linspace(-201.3, 187.9, 1999),
]


class TestProfiles:
    def test_unmodulated_peak(self):
        d = index_design(alpha=0.0)
        assert profile_at(d, 30.0, 0.0) == pytest.approx(1.0, abs=1e-6)

    def test_modulated_peak_factor(self):
        # alpha = 0.5 at the j = 0 guide center, z = 0: factor 1.5
        d = index_design()
        assert profile_at(d, 0.0, 0.0) == pytest.approx(1.5, abs=1e-6)

    def test_spacing_centers_formula(self):
        d = spacing_design()
        for j in (-2, 0, 1, 3):
            x_j = j * 20.0 + 18.0 * math.cos(
                2 * math.pi * j / 3 + math.pi / 5)
            assert d.guide_center(j, 0.0) == pytest.approx(x_j)
            assert profile_at(d, x_j, 0.0) >= 1.0 - 1e-6

    def test_factorized_index_potential_matches_direct(self):
        d = index_design()
        x = np.linspace(-120, 120, 1537)
        pot = _GuidePotential(d, x)
        for z in (0.0, 1e4, 1.37e5):
            assert np.abs(pot.profile(d.Omega * z)
                          - reference_profile(d, x, z)).max() < 1e-12

    def test_windowed_spacing_potential_matches_direct(self):
        # samples beyond a window hold exact zeros of the guide shape, so
        # the windowed sum equals the all-guide sum bit for bit
        d = spacing_design()
        for x in SPACING_GRIDS:
            for z in np.linspace(0.0, d.Z, 37):
                assert np.array_equal(refractive_profile(d, x, z),
                                      reference_profile(d, x, z))

    def test_unmodulated_index_potential_matches_direct(self):
        # the extraction's uniform basis: G0 alone, summed as the loop sums
        d = index_design(alpha=0.0)
        for x in SPACING_GRIDS:
            for z in np.linspace(0.0, d.Z, 37):
                assert np.array_equal(refractive_profile(d, x, z),
                                      reference_profile(d, x, z))

    @pytest.mark.parametrize("design", ["index", "spacing"])
    def test_profile_takes_the_drive_phase(self, design):
        d = make_design(design)
        x = SPACING_GRIDS[2]
        pot = _GuidePotential(d, x)
        for phase in (0.0, 2.0, -7.5, 123.4):
            got, want = pot.profile(phase), reference_profile(d, x, 0.0, phase)
            if design == "index":
                assert np.abs(got - want).max() <= 1e-12
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("x", [30.0, np.array([30.0]), [0.0, 1.0, 3.0],
                                   [1.0, 0.0], np.zeros((2, 2))])
    def test_profile_needs_a_uniform_grid(self, x):
        for d in (index_design(), spacing_design()):
            with pytest.raises(ValueError, match="uniform grid"):
                refractive_profile(d, x, 0.0)

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
        pot = _GuidePotential(d, x)
        for z in (0.0, 3.3e4, 1.1e5, 1.5e5):
            assert np.abs(pot.profile(d.Omega * z if phase is None else phase)
                          - windowed_spacing_profile(d, x, z, phase)
                          ).max() <= 1e-14

    @given(spacing=st.booleans(), p=st.integers(1, 6),
           q=st.sampled_from([1, 3, 5, 7]), ws=st.floats(6.0, 25.0),
           wx=st.floats(1.0, 4.0), frac=st.floats(-1.0, 1.0),
           phi0=st.floats(0.0, 2 * np.pi),
           num_guides=st.sampled_from([1, 3, 9, 21]))
    @settings(max_examples=40, deadline=None)
    def test_spacing_bound_holds_over_a_cycle(self, spacing, p, q, ws, wx,
                                              frac, phi0, num_guides):
        # frac is wm/ws for a spacing design and alpha for an index design
        with warnings.catch_warnings():  # overlapping guides are the point
            warnings.simplefilter("ignore", UserWarning)
            d = (SpacingModulated(p=p, q=q, ws=ws, wx=wx, wm=frac * ws,
                                  phi0=phi0, Z=1.5e5, num_guides=num_guides)
                 if spacing else
                 IndexModulated(alpha=frac, p=p, q=q, ws=ws, wx=wx, Z=1.5e5,
                                num_guides=num_guides))
        x = np.arange(-400.0, 400.0, 0.15625)
        pot = _GuidePotential(d, x[_phase_support(d, x)])
        peak = max(pot.profile(d.Omega * z).max()
                   for z in np.linspace(0.0, d.Z, 400))
        assert pot.bound() >= peak

    @pytest.mark.parametrize("name, bound", [("fig5a", 1.5), ("fig5b", 1.5),
                                             ("fig5c", 2.0)])
    def test_bound_on_presets(self, name, bound):
        d = preset_design(name)
        x = default_grid(d).xs
        assert _GuidePotential(d, x[_phase_support(d, x)]).bound() == \
            pytest.approx(bound, abs=1e-12)

    def test_spacing_bound_on_fig5c(self):
        d = spacing_design()
        x = default_grid(d).xs
        assert _GuidePotential(d, x[_phase_support(d, x)]).bound() == \
            pytest.approx(2.0, abs=1e-12)

    def test_super_gaussian_matches_sixth_power(self):
        x = np.linspace(-20.0, 20.0, 100001)
        for c, wx in ((0.0, 3.0), (0.37, 3.0), (-5.1, 1.7)):
            ref = np.exp(-((x - c) / wx) ** 6)
            assert np.abs(_super_gaussian(x, c, wx) - ref).max() <= 1e-15

    @given(spacing=st.booleans(), p=st.integers(1, 6),
           q=st.sampled_from([1, 3, 5, 7]), ws=st.floats(6.0, 25.0),
           wx=st.floats(1.0, 4.0), frac=st.floats(-1.0, 1.0),
           phi0=st.floats(0.0, 2 * np.pi),
           num_guides=st.sampled_from([1, 3, 9, 21]),
           x0=st.floats(-320.0, -250.0), dx=st.floats(0.05, 0.25),
           phase=st.floats(-10.0, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_guide_shape_is_never_subnormal(self, spacing, p, q, ws, wx,
                                            frac, phi0, num_guides, x0, dx,
                                            phase):
        # the shape is exactly 0 where its exponent -u^6 (taken as
        # -u2*u2*u2) is below ln(tiny), and exp of that exponent, bit for
        # bit, elsewhere; no shape, profile or bound is ever subnormal
        tiny = np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            d = (SpacingModulated(p=p, q=q, ws=ws, wx=wx, wm=frac * ws,
                                  phi0=phi0, Z=1.5e5, num_guides=num_guides)
                 if spacing else
                 IndexModulated(alpha=frac, p=p, q=q, ws=ws, wx=wx, Z=1.5e5,
                                num_guides=num_guides))
        x = x0 + dx * np.arange(int(600.0 / dx))
        pot = _GuidePotential(d, x)
        centres = d.guide_indices * ws + d.wm * np.cos(pot.angles + phase)
        # each guide on the grid, and densely across the cutoff |u| = 2.9857
        band = wx * np.linspace(2.95, 3.05, 2001)
        band = np.concatenate((-band, band))
        for c in centres:
            for xs in (x, c + band):
                shape = _super_gaussian(xs, c, wx)
                u2 = np.square(np.divide(np.subtract(xs, c), wx))
                arg = -u2 * u2 * u2
                below = arg < math.log(tiny)
                assert not shape[below].any()
                assert np.array_equal(shape[~below], np.exp(arg[~below]))
                assert not np.any((shape != 0.0) & (shape < tiny))
        R = pot.profile(phase)
        assert not np.any((R != 0.0) & (np.abs(R) < tiny))
        assert pot.bound() >= tiny

    def test_shape_vanishes_at_the_window_radius(self):
        # a window of radius GUIDE_WINDOW_WIDTHS*wx drops no nonzero
        # sample, and ends within 0.01*wx of the last one
        u = np.linspace(2.9, 3.2, 300001)
        for c, wx in ((0.0, 3.0), (0.37, 3.0), (-5.1, 1.7), (123.4, 2.2)):
            for side in (-1.0, 1.0):
                x = c + side * wx * u
                shape = _super_gaussian(x, c, wx)
                dist = np.abs(x - c) / wx
                assert not shape[dist >= GUIDE_WINDOW_WIDTHS].any()
                last = dist[shape > 0.0].max()
                assert GUIDE_WINDOW_WIDTHS - 0.01 < last < GUIDE_WINDOW_WIDTHS

    def test_design_validation(self):
        with pytest.raises(ValueError):
            index_design(wx=-1.0)
        with pytest.raises(ValueError):
            index_design(num_guides=4)
        with pytest.warns(UserWarning):
            index_design(ws=5.0)
        # a negative p is rejected as ModulationParams rejects it
        with pytest.raises(ValueError, match="p must be >= 0"):
            index_design(p=-1)
        with pytest.raises(ValueError, match="p must be >= 0"):
            SpacingModulated(p=-1, q=3, ws=20.0, wx=3.0, wm=4.0, phi0=0.0,
                             Z=1.5e5)

    @pytest.mark.parametrize("p, q, wm, separation", [
        (1, 7, 8.0, 13.0579), (1, 3, 18.0, -11.1769), (2, 5, -6.0, 8.5873),
        (1, 1, 18.0, 20.0)])
    def test_min_separation_over_a_cycle(self, p, q, wm, separation):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            d = SpacingModulated(p=p, q=q, ws=20.0, wx=3.0, wm=wm,
                                 phi0=math.pi / 5, Z=1.5e5, num_guides=9)
        assert d.min_separation == pytest.approx(separation, abs=1e-4)
        # the smallest sampled gap between neighbours over a cycle
        gaps = [d.guide_center(j + 1, z) - d.guide_center(j, z)
                for j in d.guide_indices[:-1]
                for z in np.linspace(0.0, d.Z, 2001)]
        assert min(gaps) == pytest.approx(d.min_separation, abs=1e-3)

    def test_overlap_warning_from_the_smallest_separation(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # 1/7 at wm = 8: 13.06 um >= 2*wx, though |wm| >= ws/2 - wx
            SpacingModulated(p=1, q=7, ws=20.0, wx=3.0, wm=8.0, phi0=0.0,
                             Z=1.5e5)
            # a single guide has no neighbour
            SpacingModulated(p=1, q=3, ws=20.0, wx=3.0, wm=18.0, phi0=0.0,
                             Z=1.5e5, num_guides=1)
        # fig5c's geometry: neighbouring guides cross during the cycle
        crossing = r"is -11\.18 um < 2\*wx = 6 um: .* can overlap and cross"
        with pytest.warns(UserWarning, match=crossing):
            SpacingModulated(p=1, q=3, ws=20.0, wx=3.0, wm=18.0,
                             phi0=math.pi / 5, Z=1.5e5)
        touching = r"is 5\.00 um < 2\*wx = 6 um: .* can overlap$"
        with pytest.warns(UserWarning, match=touching):
            SpacingModulated(p=1, q=2, ws=20.0, wx=3.0, wm=7.5, phi0=0.0,
                             Z=1.5e5)


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
        assert mean_position(np.abs(psi) ** 2, g) == \
            pytest.approx(12.0, abs=1e-9)


class TestDiagnostics:
    def test_mean_position_symmetric(self):
        g = default_grid(index_design())
        intensity = np.abs(gaussian_input(0.0, 5.0, g)) ** 2
        assert mean_position(intensity, g) == pytest.approx(0.0, abs=1e-9)

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
    """exp(i*theta) as (u - 1) + i*t*u with t = tan(theta/2) and u = 2/(1 +
    t^2), as the stepper builds it."""
    t = np.tan(theta / 2.0)
    u = 2.0 / (1.0 + t * t)
    factor = np.empty(theta.shape, dtype=complex)
    factor.real = u - 1.0
    factor.imag = t * u
    return factor


def reference_propagate(psi0, design, constants, grid):
    """Strang stepper with fresh arrays per step and the potential phase
    applied on the whole grid: the reference the in-place, support-trimmed
    stepper must reproduce bit for bit.  The inverse FFT's 1/nx is moved
    (exactly: nx is a power of two) into the first spectrum and into the
    one multiply that merges the trailing half step of one step with the
    leading one of the next; a recorded field is the plain inverse FFT of
    the trailing half step alone.  The phase factor is phase_factor, not
    np.exp(1j*theta) (test_phase_factor_matches_complex_exp bounds their
    difference)."""
    x, dx, dz = grid.xs, grid.dx, grid.dz
    pot = _GuidePotential(design, x)
    v_scale = constants.k0 * constants.gamma / constants.n0
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, dx)
    half_kin = np.exp(-1j * kx ** 2 * dz / (4.0 * constants.k0))
    merged = half_kin * half_kin / grid.nx
    psi = np.asarray(psi0, dtype=complex)
    fields = [psi.copy()]
    norms = [np.sum(np.abs(psi) ** 2) * dx]
    record = set(grid.steps.tolist())
    psi_k = np.fft.fft(psi, norm="forward")
    for s in range(grid.steps[-1]):
        z_mid = (s + 0.5) * dz
        kin = half_kin if s == 0 else merged
        psi = np.fft.ifft(psi_k * kin, norm="forward")
        psi *= phase_factor(v_scale * dz * pot.profile(design.Omega * z_mid))
        psi_k = np.fft.fft(psi)
        if s + 1 in record:
            out = np.fft.ifft(psi_k * half_kin)
            fields.append(out)
            norms.append(np.sum(np.abs(out) ** 2) * dx)
    return fields, np.array(norms)


def assert_matches_reference(slices, traj, fields, norms):
    """The callback saw |psi|^2 of the reference fields, and the trajectory
    holds the first of them, their norms and the last field, bit for
    bit."""
    assert len(slices.rows) == len(fields)
    for got, want in zip(slices.rows, fields):
        assert np.array_equal(got, np.abs(want) ** 2)
    assert np.array_equal(traj.first, slices.rows[0])
    assert np.array_equal(traj.norms, norms)
    assert np.array_equal(traj.final, fields[-1])


class TestSplitStep:
    def test_phase_factor_matches_complex_exp(self):
        # |theta| <= PHASE_STEP_MAX in the stepper: within 3 ulps (real
        # part) and 2 ulps (imaginary part) of exp(i*theta)
        eps = np.finfo(float).eps
        theta = np.linspace(-PHASE_STEP_MAX, PHASE_STEP_MAX, 200001)
        got, want = phase_factor(theta), np.exp(1j * theta)
        np.testing.assert_array_max_ulp(got.real, want.real, maxulp=3)
        np.testing.assert_array_max_ulp(got.imag, want.imag, maxulp=2)
        assert np.abs(np.abs(got) - 1.0).max() <= 2 * eps
        # and a wider range, in absolute terms
        theta = np.random.default_rng(7).uniform(-np.pi, np.pi, 20001)
        got, want = phase_factor(theta), np.exp(1j * theta)
        assert np.abs(got - want).max() <= 2 * eps
        assert np.abs(np.abs(got) - 1.0).max() <= 2 * eps

    @pytest.mark.parametrize("design, dz, guide", [
        ("index", 4.0, 0),
        ("spacing", 7.5, -4),
        ("spacing_negative_wm", 7.5, -4),
    ])
    def test_matches_reference_stepper(self, design, dz, guide):
        d = make_design(design)
        const = OpticalConstants(gamma=5e-4)
        grid = default_grid(d, dz=dz)
        grid = SimulationGrid(grid.x_min, grid.x_max, grid.nx, dz,
                              dz * np.arange(0, 301, 50))
        psi0 = gaussian_input(d.guide_center(guide, 0.0), 4.3, grid)
        psi0_before = psi0.copy()
        slices = Slices()
        traj = split_step_propagate(psi0, d, const, grid, slices)
        fields, norms = reference_propagate(psi0_before, d, const, grid)
        assert np.array_equal(psi0, psi0_before)
        assert_matches_reference(slices, traj, fields, norms)
        assert len(fields) == 7

    def test_free_diffraction_oracle(self):
        d = index_design(Z=1e4)
        free = OpticalConstants(gamma=0.0)
        grid = default_grid(d, num_slices=4)
        psi0 = gaussian_input(0.0, 30.0, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, free, grid, slices,
                                    leakage_abort=1.0)
        for z, intensity in zip(slices.zs, slices.rows):
            ref = free_gaussian(grid.xs, 30.0, z, free.k0)
            ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * grid.dx)
            # an L2 error e of the field bounds the L1 error of |psi|^2
            # by 2e (Cauchy-Schwarz, both unit-norm)
            assert np.sum(np.abs(intensity - np.abs(ref) ** 2)) * grid.dx \
                < 2e-3
        err = np.sqrt(np.sum(np.abs(traj.final - ref) ** 2) * grid.dx)
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
        slices = Slices()
        split_step_propagate(psi, d, CONST, grid, slices)
        drift = np.abs(slices.rows[-1]
                       - np.abs(psi) ** 2).max() / (np.abs(psi) ** 2).max()
        # imaginary-distance relaxation and the real-distance stepper agree
        # on the eigenvector only up to their (different) O(dz^2) splitting
        # errors, so the profile is stationary to ~1e-5, not machine zero
        assert drift < 1e-4

    def test_norm_conserved(self):
        d = index_design(Z=4000.0)
        grid = default_grid(d, num_slices=8)
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                    CONST, grid, ignore)
        assert np.abs(traj.norms / traj.norms[0] - 1.0).max() < 1e-12

    def test_slices_stream_through_the_callback(self):
        # every recorded z in order, each row in one read-only nx buffer
        # and equal to the reference stepper's; the trajectory keeps the
        # z = 0 row and the last field, and no table
        d = spacing_design(Z=3000.0)
        const = OpticalConstants(gamma=5e-4)
        grid = default_grid(d, dz=7.5, num_slices=4)
        psi0 = gaussian_input(d.guide_center(-4), 4.3, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, const, grid, slices)
        assert slices.zs == grid.z_slices.tolist()
        assert all(type(z) is float for z in slices.zs)
        buffer = slices.handed[0]
        assert buffer.shape == (grid.nx,) and buffer.dtype == float
        assert not buffer.flags.writeable
        assert all(np.shares_memory(row, buffer) for row in slices.handed)
        assert_matches_reference(slices, traj,
                                 *reference_propagate(psi0, d, const, grid))
        assert not hasattr(traj, "table") and not hasattr(traj, "intensity")
        assert traj.final.shape == (grid.nx,)
        assert traj.final.dtype == complex

    @pytest.mark.parametrize("x_min", [-400.0, 200.0])
    def test_grid_without_guides(self, x_min):
        # no guide within reach: the potential vanishes on the whole grid
        d = index_design(Z=1e3)
        grid = SimulationGrid(x_min, x_min + 200.0, 2048, 1.0,
                              np.array([0.0, 10.0]))
        psi0 = gaussian_input(x_min + 100.0, 4.0, grid)
        slices = Slices()
        with pytest.warns(UserWarning, match="domain width"):
            traj = split_step_propagate(psi0, d, CONST, grid, slices)
        assert_matches_reference(slices, traj,
                                 *reference_propagate(psi0, d, CONST, grid))

    @given(spacing=st.booleans(), q=st.sampled_from([1, 3, 5, 7]),
           p=st.integers(1, 6),
           gamma=st.sampled_from([-9e-4, -5e-4, -1e-4, 1e-4, 5e-4, 9e-4]))
    @settings(max_examples=25, deadline=None)
    def test_unitary_for_any_drive(self, spacing, q, p, gamma):
        # one pump cycle in 100 steps, equal to the reference bit for bit
        if spacing:
            d = SpacingModulated(p=p, q=q, ws=20.0, wx=3.0, wm=4.0,
                                 phi0=math.pi / 5, Z=400.0, num_guides=7)
        else:
            d = index_design(p=p, q=q, Z=400.0, num_guides=7)
        const = OpticalConstants(gamma=gamma)
        grid = default_grid(d, dz=4.0, num_slices=4)
        psi0 = gaussian_input(0.0, 4.0, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, const, grid, slices,
                                    leakage_abort=1.0)
        assert np.abs(traj.norms / traj.norms[0] - 1.0).max() <= 1e-12
        assert_matches_reference(slices, traj,
                                 *reference_propagate(psi0, d, const, grid))

    def test_second_order_convergence(self):
        d = index_design(Z=4000.0)

        def final_field(dz):
            grid = default_grid(d, dz=dz, num_slices=2)
            return split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                        CONST, grid, ignore).final

        ref = final_field(0.5)
        e_coarse = np.linalg.norm(final_field(4.0) - ref)
        e_fine = np.linalg.norm(final_field(2.0) - ref)
        assert 3.0 < e_coarse / e_fine < 5.0

    def test_grid_underresolved(self):
        d = index_design()
        with pytest.raises(GridUnderresolved):
            grid = default_grid(d, dz=50.0)
            split_step_propagate(gaussian_input(0.0, 3.77, grid), d, CONST,
                                 grid, ignore)
        with pytest.raises(GridUnderresolved):
            grid = default_grid(d, dx=1.25)
            split_step_propagate(gaussian_input(0.0, 3.77, grid), d, CONST,
                                 grid, ignore)

    def test_boundary_leakage_aborts(self):
        d = index_design(num_guides=1, Z=1e4)
        free = OpticalConstants(gamma=0.0)
        grid = default_grid(d, num_slices=20)
        psi0 = gaussian_input(0.0, 20.0, grid)
        slices = Slices()
        with pytest.raises(BoundaryLeakage):
            split_step_propagate(psi0, d, free, grid, slices)
        # the light fills the strips at z = 0 already; a slice that leaks
        # is not handed on
        assert slices.zs == []


class TestReadout:
    def test_pump_chern_from_shift(self):
        d = index_design(Z=1000.0)
        grid = default_grid(d, num_slices=2)
        slices = Slices()
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                    CONST, grid, slices)
        expected = (mean_position(slices.rows[-1], grid)
                    - mean_position(slices.rows[0], grid)) / (3 * d.ws)
        assert run_summary(traj, d, CONST)["chern_estimate"] == \
            pytest.approx(expected)

    def test_run_summary_keys(self):
        d = index_design(Z=1000.0)
        grid = default_grid(d, num_slices=2)
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                    CONST, grid, ignore)
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
        outdir = run_preset("fig5a")
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
