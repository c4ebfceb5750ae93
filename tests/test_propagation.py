import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aahpump.cli import PRESETS, _build_design, build_config, \
    main as cli_main
from aahpump.model import _mod_angle
from aahpump.propagation import GUIDE_WINDOW_WIDTHS, K0, N0, \
    PHASE_BLOCK, PHASE_STEP_MAX, BoundaryLeakage, GridUnderresolved, \
    IndexModulated, SimulationGrid, SpacingModulated, _GuidePotential, \
    _super_gaussian, default_grid, gaussian_input, injection_guide, \
    lz_ratio, mean_position, refractive_profile, run_summary, \
    split_step_propagate


# the keys of run_summary's dict without the lz fit
SUMMARY_KEYS = {"design", "gamma", "Z_um", "num_guides", "ws_um",
                "mean_x_start_um", "mean_x_end_um", "chern_estimate",
                "norm_drift", "leakage_max", "dx_um", "dz_um", "nx",
                "x_min_um", "x_max_um"}


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
    base = dict(gamma=9e-4, alpha=0.5, p=1, q=3, ws=10.0, wx=3.0, Z=3e5,
                num_guides=21)
    base.update(kw)
    return IndexModulated(**base)


def spacing_design(**kw):
    base = dict(gamma=5e-4, p=1, q=3, ws=20.0, wx=3.0, wm=18.0,
                phi0=math.pi / 5, Z=1.5e5, num_guides=21)
    base.update(kw)
    with pytest.warns(UserWarning):
        return SpacingModulated(**base)


def make_design(name, **kw):
    if name == "index":
        return index_design(**kw)
    if name == "spacing":
        return spacing_design(**kw)
    if name == "spacing_negative_wm":
        # the sign of wm only moves the drive phase by pi
        return spacing_design(wm=-18.0, **kw)
    raise ValueError(name)


def reference_profile(d, x, z, phase=None):
    """Per-guide loop over the whole grid, with the drive phase Omega*z
    unless phase is given: the windowed potential's oracle.  A guide's
    shape is taken at the offsets x - j*ws to its lattice position, less
    wm*cos(a): the centre j*ws + wm*cos(a), rounded first, would be off by
    up to half an ulp of j*ws (1.4e-14 um at 200 um), and the shape by that
    times its slope (test_profile_is_exact_to_rounding)."""
    ph = d.Omega * z if phase is None else phase
    R = np.zeros(x.shape)
    for j in d.guide_indices:
        a = _mod_angle(j, d.p, d.q) + d.phi0 + ph
        g = _super_gaussian(x - j * d.ws, d.wm * math.cos(a), d.wx)
        if isinstance(d, IndexModulated):
            g = g * (1.0 + d.alpha * math.cos(a))
        R += g
    return R


def windowed_spacing_profile(d, x, z, phase=None):
    """Per-guide loop over the support windows, each shape taken as
    reference_profile takes it: the windowed potential's reference."""
    R = np.zeros(x.shape)
    dx = x[1] - x[0]
    half = GUIDE_WINDOW_WIDTHS * d.wx
    ph = d.Omega * z if phase is None else phase
    for j in d.guide_indices:
        shift = d.wm * math.cos(_mod_angle(j, d.p, d.q) + d.phi0 + ph)
        c = j * d.ws + shift
        lo = max(0, int((c - half - x[0]) / dx))
        hi = min(len(x), int((c + half - x[0]) / dx) + 2)
        if lo < hi:
            R[lo:hi] += _super_gaussian(x[lo:hi] - j * d.ws, shift, d.wx)
    return R


def extended_profile(d, x, phase):
    """R in extended precision (np.longdouble), from the same drive angles
    and the same wm*cos(a) as the double evaluations."""
    L = np.longdouble
    R = np.zeros(x.shape, dtype=L)
    for j in d.guide_indices:
        cos = np.cos(_mod_angle(j, d.p, d.q) + d.phi0 + phase)
        u = (x.astype(L) - (L(j * d.ws) + L(d.wm * cos))) / L(d.wx)
        R += np.exp(-u ** 6) * L(1.0 + d.alpha * cos)
    return R


def reaching_guides(d, x):
    """Indices into d.guide_indices of the guides whose windows, within
    |wm| + GUIDE_WINDOW_WIDTHS*wx of j*ws, meet the grid x."""
    reach = abs(d.wm) + GUIDE_WINDOW_WIDTHS * d.wx
    return [i for i, j in enumerate(d.guide_indices)
            if j * d.ws - reach <= x[-1] and j * d.ws + reach >= x[0]]


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
        # the windowed sum equals the all-guide sum; the members of a group
        # share one row and the sums run in group order, so only to
        # rounding
        d = spacing_design()
        for x in SPACING_GRIDS:
            for z in np.linspace(0.0, d.Z, 37):
                assert np.abs(refractive_profile(d, x, z)
                              - reference_profile(d, x, z)).max() <= 1e-14

    def test_unmodulated_index_potential_matches_direct(self):
        # the extraction's uniform basis, summed in group order
        d = index_design(alpha=0.0)
        for x in SPACING_GRIDS:
            for z in np.linspace(0.0, d.Z, 37):
                assert np.abs(refractive_profile(d, x, z)
                              - reference_profile(d, x, z)).max() <= 1e-14

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than float")
    @pytest.mark.parametrize("design", ["index", "spacing"])
    def test_profile_is_exact_to_rounding(self, design):
        # a translated row is as exact as the member's own: within a few
        # ulps of R in extended precision, at the outermost guides too
        d = make_design(design)
        for x in SPACING_GRIDS:
            pot = _GuidePotential(d, x)
            for phase in np.linspace(0.0, 2.0 * np.pi, 9):
                assert np.abs(pot.profile(phase)
                              - extended_profile(d, x, phase)).max() <= 2e-15

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
                assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("x", [30.0, np.array([30.0]), [0.0, 1.0, 3.0],
                                   [1.0, 0.0], np.zeros((2, 2))])
    def test_profile_needs_a_uniform_grid(self, x):
        for d in (index_design(), spacing_design()):
            with pytest.raises(ValueError, match="uniform grid"):
                refractive_profile(d, x, 0.0)

    @pytest.mark.parametrize("design", ["index", "spacing",
                                        "spacing_negative_wm"])
    def test_profile_exactly_zero_outside_phase_support(self, design):
        # R lies inside the guides' windows, all within their reach, and
        # bound() takes its maximum on this slice only
        d = make_design(design)
        x = default_grid(d).xs
        outside = np.ones(x.shape, dtype=bool)
        outside[_GuidePotential(d, x).support] = False
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
            d = (SpacingModulated(gamma=5e-4, p=p, q=q, ws=ws, wx=wx,
                                  wm=frac * ws, phi0=phi0, Z=1.5e5,
                                  num_guides=num_guides)
                 if spacing else
                 IndexModulated(gamma=5e-4, alpha=frac, p=p, q=q, ws=ws,
                                wx=wx, Z=1.5e5, num_guides=num_guides))
        x = np.arange(-400.0, 400.0, 0.15625)
        pot = _GuidePotential(d, x)
        peak = max(pot.profile(d.Omega * z).max()
                   for z in np.linspace(0.0, d.Z, 400))
        assert pot.bound() >= peak

    @pytest.mark.parametrize("name, bound", [("fig5a", 1.5), ("fig5b", 1.5),
                                             ("fig5c", 2.0)])
    def test_bound_on_presets(self, name, bound):
        d = preset_design(name)
        assert _GuidePotential(d, default_grid(d).xs).bound() == \
            pytest.approx(bound, abs=1e-12)

    def test_spacing_bound_on_fig5c(self):
        d = spacing_design()
        assert _GuidePotential(d, default_grid(d).xs).bound() == \
            pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("name, stride", [("fig5a", 192), ("fig5b", 192),
                                              ("fig5c", 384)])
    def test_preset_grids_form_three_groups(self, name, stride):
        # guides j, j + 3, ..., j + 18 share their drive angle and lie
        # q*ws/dx samples apart: one row and one view per group
        d = preset_design(name)
        pot = _GuidePotential(d, default_grid(d).xs)
        assert pot.stride == stride
        assert [list(g) for g in pot.groups] == \
            [list(range(r, 21, 3)) for r in range(3)]

    @pytest.mark.parametrize("q, ws, num_guides, stride", [
        (1, 10.0, 7, 128), (3, 10.3, 7, 0), (3, 10.0, 23, 192),
        (1, 3.0, 9, 0), (1, 2.5, 9, 128)])
    def test_groups_cover_each_reaching_guide_once(self, q, ws, num_guides,
                                                   stride):
        # a group's members share the drive angle and lie stride >= W
        # samples apart, so its windows never overlap one another, and the
        # groups hold every guide that reaches the grid exactly once
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            d = index_design(q=q, ws=ws, num_guides=num_guides)
        x = np.arange(-200.0, 200.0, 0.15625)
        pot = _GuidePotential(d, x)
        assert pot.stride == stride
        held = [m for members in pot.groups for m in members]
        assert sorted(held) == reaching_guides(d, x)
        for members in pot.groups:
            if len(members) > 1:
                assert stride >= pot.width
                assert np.all(np.diff(pot.base[members]) / pot.dx == stride)
                assert len(set(pot.angles[members] % (2 * np.pi))) == 1

    @pytest.mark.parametrize("design", ["index", "spacing"])
    @pytest.mark.parametrize("x", [np.arange(0.0, 320.0, 0.15625),
                                   np.linspace(-301.7, -40.9, 1777)])
    def test_half_covering_grid_builds_the_reaching_guides(self, design, x):
        d = make_design(design)
        pot = _GuidePotential(d, x)
        held = sorted(m for members in pot.groups for m in members)
        assert held == reaching_guides(d, x)
        assert 0 < len(held) < d.num_guides
        for phase in np.linspace(0.0, 2.0 * np.pi, 9):
            assert np.abs(pot.profile(phase)
                          - reference_profile(d, x, 0.0, phase)
                          ).max() <= 1e-14

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
            d = (SpacingModulated(gamma=5e-4, p=p, q=q, ws=ws, wx=wx,
                                  wm=frac * ws, phi0=phi0, Z=1.5e5,
                                  num_guides=num_guides)
                 if spacing else
                 IndexModulated(gamma=5e-4, alpha=frac, p=p, q=q, ws=ws,
                                wx=wx, Z=1.5e5, num_guides=num_guides))
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

    def test_subnormal_row_reads_zero(self):
        # a shape just above tiny times a depth factor of 0.5 is subnormal;
        # the profile reads it as 0.0
        tiny = np.finfo(float).tiny
        d = index_design(alpha=-0.5, num_guides=1)
        x = 3.0 * (-math.log(tiny) - 0.1) ** (1.0 / 6.0) + 0.001 * np.arange(3)
        assert tiny < _super_gaussian(x[0], 0.0, 3.0) < 2.0 * tiny
        assert 0.0 < 0.5 * _super_gaussian(x[0], 0.0, 3.0) < tiny
        assert not refractive_profile(d, x, 0.0).any()

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
            SpacingModulated(gamma=5e-4, p=-1, q=3, ws=20.0, wx=3.0, wm=4.0,
                             phi0=0.0, Z=1.5e5)

    @pytest.mark.parametrize("p, q, wm, separation", [
        (1, 7, 8.0, 13.0579), (1, 3, 18.0, -11.1769), (2, 5, -6.0, 8.5873),
        (1, 1, 18.0, 20.0)])
    def test_min_separation_over_a_cycle(self, p, q, wm, separation):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            d = SpacingModulated(gamma=5e-4, p=p, q=q, ws=20.0, wx=3.0,
                                 wm=wm, phi0=math.pi / 5, Z=1.5e5,
                                 num_guides=9)
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
            SpacingModulated(gamma=5e-4, p=1, q=7, ws=20.0, wx=3.0, wm=8.0,
                             phi0=0.0, Z=1.5e5)
            # a single guide has no neighbour
            SpacingModulated(gamma=5e-4, p=1, q=3, ws=20.0, wx=3.0, wm=18.0,
                             phi0=0.0, Z=1.5e5, num_guides=1)
            index_design(ws=5.0, num_guides=1)
            # fixed guides exactly 2*wx apart
            index_design(ws=6.0)
        # fig5c's geometry: neighbouring guides cross during the cycle
        crossing = r"is -11\.18 um < 2\*wx = 6 um: .* can overlap and cross"
        with pytest.warns(UserWarning, match=crossing):
            SpacingModulated(gamma=5e-4, p=1, q=3, ws=20.0, wx=3.0, wm=18.0,
                             phi0=math.pi / 5, Z=1.5e5)
        touching = r"is 5\.00 um < 2\*wx = 6 um: .* can overlap$"
        with pytest.warns(UserWarning, match=touching):
            SpacingModulated(gamma=5e-4, p=1, q=2, ws=20.0, wx=3.0, wm=7.5,
                             phi0=0.0, Z=1.5e5)

    @pytest.mark.parametrize("design, count", [
        (lambda: SpacingModulated(gamma=5e-4, p=1, q=3, ws=5.0, wx=3.0,
                                  wm=1.0, phi0=0.0, Z=1.5e5), 1),
        (lambda: SpacingModulated(gamma=5e-4, p=1, q=3, ws=6.0, wx=3.0,
                                  wm=0.0, phi0=0.0, Z=1.5e5), 0),
        (lambda: index_design(ws=5.0), 1)],
        ids=["spacing-ws<2wx", "spacing-ws=2wx-wm=0", "index-ws<2wx"])
    def test_overlapping_array_warns_once(self, design, count):
        # one overlap rule for both designs: an array whose neighbours come
        # closer than 2*wx warns once, and guides exactly 2*wx apart do not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            design()
        assert len(caught) == count
        assert all("can overlap" in str(w.message) for w in caught)


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


def free_gaussian(x, W, z):
    """Closed-form paraxial diffraction of exp(-x^2/W^2)."""
    s = W ** 2 + 2j * z / K0
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


def reference_propagate(psi0, design, grid):
    """Strang stepper with fresh arrays per step and the potential phase
    applied window by window: the reference the in-place, blocked stepper
    must reproduce bit for bit.  The inverse FFT's 1/nx is moved (exactly:
    nx is a power of two) into the first spectrum and into the one multiply
    that merges the trailing half step of one step with the leading one of
    the next; a recorded field is the plain inverse FFT of the trailing half
    step alone.  Each step, the field is copied into the inner slice of a
    zeroed buffer padded as the potential's grid is.  Only the guides that
    reach the grid take part.  When q*ws/dx is whole, every k-th of them
    that lie q*ws apart, k = ceil(W*dx/(q*ws)), forms one group, whose
    members lie k*q*ws/dx >= W samples apart; otherwise each is its own
    group.  Per group, in order, the first member's row depth*shape is
    taken at the mid-step phase and phase_factor(v*dz*row) multiplies each
    member's window, the row's translated by whole samples, one member at a
    time.  The phase factor is phase_factor, not np.exp(1j*theta)
    (test_phase_factor_matches_complex_exp bounds their difference)."""
    x, dx, dz = grid.xs, grid.dx, grid.dz
    pot = _GuidePotential(design, x)
    v_scale = K0 * design.gamma / N0
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, dx)
    half_kin = np.exp(-1j * kx ** 2 * dz / (4.0 * K0))
    merged = half_kin * half_kin / grid.nx
    W = pot.width
    near = reaching_guides(design, x)
    stride = design.q * design.ws / dx
    if stride == int(stride):
        k = -(-W // int(stride))
        period, stride = k * design.q, k * int(stride)
    else:
        period, stride = len(near), 0
    groups = [near[r::period] for r in range(min(period, len(near)))]
    psi = np.asarray(psi0, dtype=complex)
    fields = [psi.copy()]
    norms = [np.sum(np.abs(psi) ** 2) * dx]
    record = set(grid.steps.tolist())
    psi_k = np.fft.fft(psi, norm="forward")
    for s in range(grid.steps[-1]):
        z_mid = (s + 0.5) * dz
        kin = half_kin if s == 0 else merged
        padded = np.zeros(len(pot.xp), dtype=complex)
        padded[pot.inner] = np.fft.ifft(psi_k * kin, norm="forward")
        for members in groups:
            j = members[0]
            cos = np.cos(pot.angles[j] + design.Omega * z_mid)
            base, shift = pot.base[j], design.wm * cos
            lo = int((base + shift - pot.origin) / dx)
            row = _super_gaussian(pot.xp[lo:lo + W] - base, shift, design.wx)
            factor = phase_factor(v_scale * dz
                                  * (row * (1.0 + design.alpha * cos)))
            for m in range(len(members)):
                padded[lo + m * stride:lo + m * stride + W] *= factor
        psi_k = np.fft.fft(padded[pot.inner])
        if s + 1 in record:
            out = np.fft.ifft(psi_k * half_kin)
            fields.append(out)
            norms.append(np.sum(np.abs(out) ** 2) * dx)
    return fields, np.array(norms)


def whole_grid_propagate(psi0, design, grid):
    """Strang stepper with the potential phase exp(i*v*dz*R) taken on the
    whole grid from the per-guide reference_profile: the physics the
    windowed stepper must reproduce to rounding.  Returns every recorded
    field."""
    dx, dz = grid.dx, grid.dz
    v_scale = K0 * design.gamma / N0
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, dx)
    half_kin = np.exp(-1j * kx ** 2 * dz / (4.0 * K0))
    psi = np.asarray(psi0, dtype=complex)
    fields = [psi.copy()]
    record = set(grid.steps.tolist())
    for s in range(grid.steps[-1]):
        R = reference_profile(design, grid.xs, (s + 0.5) * dz)
        psi = np.fft.ifft(np.fft.fft(psi) * half_kin)
        psi = psi * np.exp(1j * v_scale * dz * R)
        psi = np.fft.ifft(np.fft.fft(psi) * half_kin)
        if s + 1 in record:
            fields.append(psi)
    return fields


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
        d = make_design(design, gamma=5e-4)
        grid = default_grid(d, dz=dz)
        grid = SimulationGrid(grid.x_min, grid.x_max, grid.nx, dz,
                              dz * np.arange(0, 301, 50))
        psi0 = gaussian_input(d.guide_center(guide, 0.0), 4.3, grid)
        psi0_before = psi0.copy()
        slices = Slices()
        traj = split_step_propagate(psi0, d, grid, slices)
        fields, norms = reference_propagate(psi0_before, d, grid)
        assert np.array_equal(psi0, psi0_before)
        assert_matches_reference(slices, traj, fields, norms)
        assert len(fields) == 7

    @pytest.mark.parametrize("design, dz, guide", [
        ("index", 4.0, 0),
        ("spacing", 7.5, -4),
        ("spacing_negative_wm", 7.5, -4),
    ])
    def test_matches_whole_grid_physics(self, design, dz, guide):
        # the product of the windows' factors is exp(i*v*dz*R) on the
        # whole grid, to rounding
        d = make_design(design, gamma=5e-4)
        grid = default_grid(d, dz=dz)
        grid = SimulationGrid(grid.x_min, grid.x_max, grid.nx, dz,
                              dz * np.arange(0, 301, 50))
        psi0 = gaussian_input(d.guide_center(guide, 0.0), 4.3, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, grid, slices)
        fields = whole_grid_propagate(psi0, d, grid)
        assert len(fields) == len(slices.rows) == 7
        assert np.sqrt(np.sum(np.abs(traj.final - fields[-1]) ** 2)
                       * grid.dx) <= 1e-12
        # an L2 error e of a unit-norm field bounds the L1 error of its
        # |psi|^2 by 2e
        for row, want in zip(slices.rows, fields):
            assert np.sum(np.abs(row - np.abs(want) ** 2)) * grid.dx \
                <= 2e-12

    @pytest.mark.parametrize("design", ["index", "spacing"])
    def test_slices_inside_a_block(self, design):
        # recorded z inside the first block of PHASE_BLOCK steps, at a
        # block's end and in a last, partial block
        d = make_design(design, gamma=5e-4)
        grid = default_grid(d, dz=7.5)
        assert PHASE_BLOCK == 16
        steps = [0, 7, 16, 23, 41]
        grid = SimulationGrid(grid.x_min, grid.x_max, grid.nx, 7.5,
                              7.5 * np.array(steps))
        psi0 = gaussian_input(d.guide_center(-4, 0.0), 4.3, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, grid, slices)
        assert slices.zs == [7.5 * n for n in steps]
        assert_matches_reference(slices, traj,
                                 *reference_propagate(psi0, d, grid))

    def test_free_diffraction_oracle(self):
        d = index_design(gamma=0.0, Z=1e4)
        grid = default_grid(d, num_slices=4)
        psi0 = gaussian_input(0.0, 30.0, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, grid, slices)
        for z, intensity in zip(slices.zs, slices.rows):
            ref = free_gaussian(grid.xs, 30.0, z)
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
        decay = np.exp(-kx ** 2 * dz / (4 * K0))
        gain = np.exp(K0 * d.gamma / N0 * dz
                      * refractive_profile(d, x, 0.0))
        psi = gaussian_input(0.0, 4.0, grid)
        for _ in range(4000):
            psi = np.fft.ifft(np.fft.fft(psi) * decay)
            psi *= gain
            psi = np.fft.ifft(np.fft.fft(psi) * decay)
            psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
        slices = Slices()
        split_step_propagate(psi, d, grid, slices)
        drift = np.abs(slices.rows[-1]
                       - np.abs(psi) ** 2).max() / (np.abs(psi) ** 2).max()
        # imaginary-distance relaxation and the real-distance stepper agree
        # on the eigenvector only up to their (different) O(dz^2) splitting
        # errors, so the profile is stationary to ~1e-5, not machine zero
        assert drift < 1e-4

    def test_norm_conserved(self):
        d = index_design(Z=4000.0)
        grid = default_grid(d, num_slices=8)
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d, grid,
                                    ignore)
        assert np.abs(traj.norms / traj.norms[0] - 1.0).max() < 1e-12

    def test_slices_stream_through_the_callback(self):
        # every recorded z in order, each row in one read-only nx buffer
        # and equal to the reference stepper's; the trajectory keeps the
        # z = 0 row and the last field, and no table
        d = spacing_design(Z=3000.0)
        grid = default_grid(d, dz=7.5, num_slices=4)
        psi0 = gaussian_input(d.guide_center(-4), 4.3, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, grid, slices)
        assert slices.zs == grid.z_slices.tolist()
        assert all(type(z) is float for z in slices.zs)
        buffer = slices.handed[0]
        assert buffer.shape == (grid.nx,) and buffer.dtype == float
        assert not buffer.flags.writeable
        assert all(np.shares_memory(row, buffer) for row in slices.handed)
        assert_matches_reference(slices, traj,
                                 *reference_propagate(psi0, d, grid))
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
            traj = split_step_propagate(psi0, d, grid, slices)
        assert_matches_reference(slices, traj,
                                 *reference_propagate(psi0, d, grid))

    @pytest.mark.parametrize("design", ["index", "spacing"])
    def test_grid_far_from_the_array(self, design):
        # no guide reaches a grid 1e5 um away: no group, padding of one
        # window and at most two guide reaches on either side, whatever the
        # distance, and R = 0
        d = make_design(design, Z=1e3)
        grid = SimulationGrid(1e5, 1e5 + 4096 * 0.15625, 4096, 1.0,
                              np.array([0.0, 10.0]))
        pot = _GuidePotential(d, grid.xs)
        reach = abs(d.wm) + GUIDE_WINDOW_WIDTHS * d.wx
        assert pot.groups == []
        assert len(pot.xp) <= grid.nx + 2 * pot.width \
            + 2 * math.ceil(2.0 * reach / grid.dx)
        assert not pot.profile(0.3).any()
        assert pot.bound() == 0.0
        psi0 = gaussian_input(grid.x_min + 320.0, 4.0, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, grid, slices)
        assert_matches_reference(slices, traj,
                                 *reference_propagate(psi0, d, grid))

    @given(spacing=st.booleans(), q=st.sampled_from([1, 3, 5, 7]),
           p=st.integers(1, 6),
           gamma=st.sampled_from([-9e-4, -5e-4, -1e-4, 1e-4, 5e-4, 9e-4]),
           ws=st.sampled_from([10.0, 20.0]), num_guides=st.just(7))
    # guides 64 samples apart, closer than a window: two groups whose
    # members lie 128 samples apart
    @example(spacing=False, q=1, p=1, gamma=5e-4, ws=10.0, num_guides=7)
    @example(spacing=True, q=1, p=1, gamma=-5e-4, ws=10.0, num_guides=7)
    # q*ws/dx = 197.76 samples: each guide its own group
    @example(spacing=False, q=3, p=1, gamma=5e-4, ws=10.3, num_guides=7)
    @example(spacing=True, q=3, p=2, gamma=9e-4, ws=20.3, num_guides=7)
    # groups of 8, 8 and 7 guides
    @example(spacing=False, q=3, p=1, gamma=9e-4, ws=10.0, num_guides=23)
    @example(spacing=True, q=3, p=1, gamma=-9e-4, ws=20.0, num_guides=23)
    @settings(max_examples=25, deadline=None)
    def test_unitary_for_any_drive(self, spacing, q, p, gamma, ws,
                                   num_guides):
        # one pump cycle in 100 steps, equal to the reference bit for bit
        if spacing:
            with warnings.catch_warnings():  # close guides at ws = 10
                warnings.simplefilter("ignore", UserWarning)
                d = SpacingModulated(gamma=gamma, p=p, q=q, ws=ws, wx=3.0,
                                     wm=4.0, phi0=math.pi / 5, Z=400.0,
                                     num_guides=num_guides)
        else:
            d = index_design(gamma=gamma, p=p, q=q, ws=ws, Z=400.0,
                             num_guides=num_guides)
        grid = default_grid(d, dz=4.0, num_slices=4)
        psi0 = gaussian_input(0.0, 4.0, grid)
        slices = Slices()
        traj = split_step_propagate(psi0, d, grid, slices)
        assert np.abs(traj.norms / traj.norms[0] - 1.0).max() <= 1e-12
        assert_matches_reference(slices, traj,
                                 *reference_propagate(psi0, d, grid))

    def test_second_order_convergence(self):
        d = index_design(Z=4000.0)

        def final_field(dz):
            grid = default_grid(d, dz=dz, num_slices=2)
            return split_step_propagate(gaussian_input(0.0, 3.77, grid), d,
                                        grid, ignore).final

        ref = final_field(0.5)
        e_coarse = np.linalg.norm(final_field(4.0) - ref)
        e_fine = np.linalg.norm(final_field(2.0) - ref)
        assert 3.0 < e_coarse / e_fine < 5.0

    def test_grid_underresolved(self):
        d = index_design()
        with pytest.raises(GridUnderresolved):
            grid = default_grid(d, dz=50.0)
            split_step_propagate(gaussian_input(0.0, 3.77, grid), d, grid,
                                 ignore)
        with pytest.raises(GridUnderresolved):
            grid = default_grid(d, dx=1.25)
            split_step_propagate(gaussian_input(0.0, 3.77, grid), d, grid,
                                 ignore)

    def test_boundary_leakage_aborts(self):
        d = index_design(gamma=0.0, num_guides=1, Z=1e4)
        grid = default_grid(d, num_slices=20)
        psi0 = gaussian_input(0.0, 20.0, grid)
        slices = Slices()
        with pytest.raises(BoundaryLeakage):
            split_step_propagate(psi0, d, grid, slices)
        # the light fills the strips at z = 0 already; a slice that leaks
        # is not handed on
        assert slices.zs == []


class TestReadout:
    def test_pump_chern_from_shift(self):
        d = index_design(Z=1000.0)
        grid = default_grid(d, num_slices=2)
        slices = Slices()
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d, grid,
                                    slices)
        expected = (mean_position(slices.rows[-1], grid)
                    - mean_position(slices.rows[0], grid)) / (3 * d.ws)
        assert run_summary(traj, d)["chern_estimate"] == \
            pytest.approx(expected)

    def test_run_summary_keys(self, tmp_path):
        # run_summary writes the design, the grid, the health metrics and
        # the readout; cmd_pump adds only the input's keys, and the first
        # gap's when the lz fit runs
        d = index_design(Z=1000.0)
        grid = default_grid(d, num_slices=2)
        traj = split_step_propagate(gaussian_input(0.0, 3.77, grid), d, grid,
                                    ignore)
        s = run_summary(traj, d)
        assert set(s) == SUMMARY_KEYS
        assert (s["gamma"], s["dx_um"], s["dz_um"], s["nx"], s["x_min_um"],
                s["x_max_um"]) == (d.gamma, grid.dx, grid.dz, grid.nx,
                                   grid.x_min, grid.x_max)
        assert set(run_summary(traj, d, G1=1e-3)) == \
            SUMMARY_KEYS | {"lz_ratio"}
        inputs = {"injection_guide", "input_width_um"}
        for lz, extra in ((False, inputs),
                          (True, inputs | {"lz_ratio", "first_gap_per_um"})):
            assert cli_main(["pump", "--preset", "fig5b", "--outdir",
                             str(tmp_path), "Z_cm=0.2", "num_slices=10",
                             "dz_um=10", f"lz_estimate={lz}"]) == 0
            summary = json.loads((tmp_path / "fig5b_summary.json").read_text())
            assert set(summary) == SUMMARY_KEYS | extra


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
