import numpy as np
import pytest
from hypothesis import example, given, settings

from aahpump import topology
from aahpump.model import ModulationParams, bloch_grid_hamiltonians
from aahpump.spectral import band_edges, zone_edge_grid, zone_mesh
from aahpump.topology import ChernVector, EvenDenominator, MeshTooCoarse, \
    Undefined, _bond_energies, _cell_chern_numbers, _certified_fiducials, \
    _in_gap, _left_windings, chern_numbers, phase_diagram, plaquette_phases
from test_edges import lattices


def params(nu_d=0.0, nu_od=1.0, q=3, delta_phi=0.0):
    return ModulationParams(1.0, nu_d, nu_od, 1, q, delta_phi)


def congruent(p, cv):
    """The gap windings I_r = C_1 + ... + C_r of the defined vector cv
    satisfy the gap-labelling congruence I_r = -r p^-1 (mod q)."""
    I, r = np.cumsum(cv)[:-1], np.arange(1, p.q)
    return p.q == 1 or not np.any((I + r * pow(p.p, -1, p.q)) % p.q)


# q = 7 lattices some readout gets wrong: p/q = 6/7 (FHS at 24^2 reads
# (1, 1, 0, 2, -6, 1, 1); 96^2 and 192^2 agree), 1/7 at (nu_od, nu_d)/J =
# (2, -3) and (2.5, -3) (FHS at 24^2, and for the latter 96^2, wrong), 3/7
# at (12, -4) and (12, 4) (the 24^2 midpoint of gap 3, gap 4 at nu_d = +4,
# lies in a band; 384^2 agrees), and 4/7 at nu_od/J = 6.795 (the strict
# xfail of test_edges, whose 400-sample windings are wrong); each with its
# FHS answer on the finest mesh tried
KNOWN_Q7 = [
    (ModulationParams(1.0, -2.0229, 2.2182, 6, 7, 3.3329),
     (1, 1, -6, 8, -6, 1, 1)),
    (ModulationParams(1.0, -3.0, 2.0, 1, 7), (-1, -1, -1, 6, -1, -1, -1)),
    (ModulationParams(1.0, -3.0, 2.5, 1, 7), (-1, -1, 6, -1, -1, -1, -1)),
    (ModulationParams(1.0, -4.0, 12.0, 3, 7), (2, 2, 2, -5, -5, 2, 2)),
    (ModulationParams(1.0, 4.0, 12.0, 3, 7), (2, 2, -5, -5, 2, 2, 2)),
    (ModulationParams(1.0, 0.0, 6.795043468751103, 4, 7),
     (-2, -2, 5, -2, 5, -2, -2)),
]


class TestChernNumbers:
    def test_weak_modulation_tuple(self):
        assert chern_numbers(params(nu_od=1.0)).as_tuple() == (-1, 2, -1)

    def test_strong_modulation_tuple(self):
        assert chern_numbers(params(nu_od=10.0)).as_tuple() == (2, -4, 2)

    def test_diagonal_limit_matches_weak_tuple(self):
        # pure on-site modulation gives the same phase as weak hopping
        # modulation (gap continuity across the weak-coupling region)
        diag = chern_numbers(params(nu_d=1.0, nu_od=1e-6)).as_tuple()
        assert diag == chern_numbers(params(nu_od=1.0)).as_tuple()

    def test_undefined_at_transition(self):
        cv = chern_numbers(params(nu_od=4.0), 48, 48)
        assert any(isinstance(c, Undefined) for c in cv)
        with pytest.raises(ValueError):
            cv.as_tuple()

    def test_even_denominator_rejected(self):
        with pytest.raises(EvenDenominator):
            chern_numbers(ModulationParams(1.0, 0.5, 1.0, 1, 4))

    def test_q5_zero_sum(self):
        cv = chern_numbers(params(nu_od=1.0, q=5), 30, 30)
        assert cv.all_defined
        assert sum(cv.as_tuple()) == 0

    def test_markers_str(self):
        assert str(Undefined(1e-9)) == "undef"
        cv = ChernVector((1, Undefined(0.0), -1))
        assert not cv.all_defined
        assert len(cv) == 3 and cv[0] == 1

    def test_nonzero_sum_raises(self):
        # bands 3 and 4 are 3.4e-3 apart: on the 48 x 48 mesh they read
        # (-5, 5) and the vector sums to -2; a 96 x 96 mesh gives (1, 1)
        p = ModulationParams(1.0, 2.0421030431361977, 2.0421030431361977,
                             6, 7)
        with pytest.raises(MeshTooCoarse, match="sum to -2"):
            chern_numbers(p)
        assert chern_numbers(p, 96, 96).as_tuple() == (1, 1, 1, 1, -6, 1, 1)


class TestExactCells:
    @pytest.mark.parametrize("p, expected", KNOWN_Q7,
                             ids=["6/7", "1/7-(2,-3)", "1/7-(2.5,-3)",
                                  "3/7-(12,-4)", "3/7-(12,4)", "4/7-6.795"])
    def test_known_q7_cells(self, p, expected):
        assert _cell_chern_numbers(p, 24, 24).as_tuple() == expected

    @example(p=KNOWN_Q7[0][0])
    @example(p=KNOWN_Q7[1][0])
    @example(p=KNOWN_Q7[2][0])
    @example(p=KNOWN_Q7[3][0])
    @example(p=KNOWN_Q7[4][0])
    @example(p=KNOWN_Q7[5][0])
    @given(p=lattices())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_fhs_where_it_is_defined_and_congruent(self, p):
        exact = _cell_chern_numbers(p, 24, 24)
        try:
            fhs = chern_numbers(p, 96, 96)
        except MeshTooCoarse:
            return
        if fhs.all_defined and congruent(p, fhs):
            assert [c for c in exact if isinstance(c, int)] == \
                [c for c, e in zip(fhs, exact) if isinstance(e, int)]

    @given(p=lattices())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_defined_cells_are_congruent(self, p):
        cv = _cell_chern_numbers(p, 24, 24)
        if cv.all_defined:
            assert congruent(p, cv)
            assert sum(cv) == 0

    def test_congruence_violation_undefines_the_cell(self, monkeypatch):
        exact = topology._left_windings

        def off_by_one(params, E, gaps):
            windings, resolved = exact(params, E, gaps)
            return windings + np.r_[1, 0], resolved

        p = params(nu_od=10.0)
        assert _cell_chern_numbers(p, 24, 24).as_tuple() == (2, -4, 2)
        monkeypatch.setattr(topology, "_left_windings", off_by_one)
        cv = _cell_chern_numbers(p, 24, 24)
        assert all(isinstance(c, Undefined) for c in cv)

    @pytest.mark.parametrize("p, gap", [(KNOWN_Q7[3][0], 3),
                                        (KNOWN_Q7[4][0], 4)],
                             ids=["3/7-(12,-4)", "3/7-(12,4)"])
    def test_fiducial_in_a_band_is_placed_again(self, monkeypatch, p, gap):
        # 3/7 at (12, -4): the 24^2 band edges leave gap 3 0.35 J wide, but
        # it is 0.0138 J wide and its 24^2 midpoint lies in a band (gap 4
        # at nu_d = +4); the 96^2 edges place a fiducial that certifies
        r = gap - 1
        tops, bottoms = band_edges(zone_edge_grid(p, 24, 24))
        midpoints = 0.5 * (tops[:-1] + bottoms[1:])
        assert bottoms[r + 1] - tops[r] == pytest.approx(0.3500409, abs=1e-7)
        assert np.flatnonzero(~_in_gap(p, midpoints)).tolist() == [r]
        fiducials, widths, certified = _certified_fiducials(p, 24, 24)
        assert certified.all()
        tops, bottoms = band_edges(zone_edge_grid(p, 24, 96))
        assert fiducials[r] == 0.5 * (tops[r] + bottoms[r + 1])
        assert widths[r] == pytest.approx(0.01383258, abs=1e-8)
        # without the finer meshes its two bands are undefined
        monkeypatch.setattr(topology, "FIDUCIAL_REFINEMENTS", (1,))
        assert np.flatnonzero(~_certified_fiducials(p, 24, 24)[2]).tolist() \
            == [r]
        cv = _cell_chern_numbers(p, 24, 24)
        assert [n for n, c in enumerate(cv) if isinstance(c, Undefined)] \
            == [r, r + 1]

    @pytest.mark.parametrize("nu_d", [1e120, 1e300])
    def test_overflowed_certificate_certifies_nothing(self, nu_d):
        # q = 3 at nu_d/J = 1e120 or 1e300: the determinants overflow to
        # inf and NaN and leave no finite root, yet +-nu_d/2 and nu_d lie
        # in a band at some ky (the site energies sweep [-nu_d, nu_d])
        p = params(nu_d=nu_d)
        assert not _in_gap(p, np.array([-nu_d / 2, nu_d / 2, nu_d])).any()

    def test_crossing_on_a_vanishing_bond(self):
        # at nu_od/J = 10 the Dirichlet level of gap 1 reaches E = -7.1168
        # at a ky where t_q = t_3 vanishes (|t_{q-1} psi_{q-1} / t_q| is
        # x/0: a right-edge crossing) and at a ky where t_{q-1} = t_2
        # vanishes (0/x: a left-edge one); the count there is fig4b's and
        # the same as beside it
        p = params(nu_od=10.0)
        # t_3 = -1 + 10 cos(ky) and t_2 = -1 + 10 cos(ky + 4 pi / 3)
        kys = np.array([-np.arccos(0.1), np.arccos(0.1) - 4 * np.pi / 3])
        V, t = _bond_energies(p, kys % (2 * np.pi))
        assert abs(t[2, 0]) < 1e-14 and abs(t[1, 1]) < 1e-14
        assert min(abs(t[1, 0]), abs(t[2, 1])) > 1.0
        levels = [np.linalg.eigvalsh([[V[0, i], t[0, i]], [t[0, i], V[1, i]]])
                  for i in range(2)]
        assert levels[0][0] == pytest.approx(levels[1][0], abs=1e-12)
        for E in levels[0][0] + np.array([0.0, -1e-3, 1e-3]):
            fiducials = np.array([E, -E])
            assert _in_gap(p, fiducials).all()
            windings, resolved = _left_windings(p, fiducials, [1, 2])
            assert resolved.all()
            assert windings.tolist() == [2, -2]

    def test_q1_has_no_gap(self):
        assert _cell_chern_numbers(params(q=1), 8, 8) == ChernVector((0,))


class TestPlaquettes:
    def test_field_sums_to_chern(self):
        kxs, kys = zone_mesh(3, 24, 24, extra=1)
        _, vecs = np.linalg.eigh(
            bloch_grid_hamiltonians(params(nu_od=10.0), kxs, kys))
        F = plaquette_phases(vecs[:, :, :, 0])
        assert F.shape == (24, 24)
        assert F.sum() / (2 * np.pi) == pytest.approx(2.0, abs=1e-9)

    def test_gauge_invariance(self):
        # multiplying each state by a random phase changes no plaquette
        p = params(nu_od=1.0)
        kxs, kys = zone_mesh(3, 12, 12, extra=1)
        _, vecs = np.linalg.eigh(bloch_grid_hamiltonians(p, kxs, kys))
        states = vecs[:, :, :, 0]
        rng = np.random.default_rng(3)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, states.shape[:2]))
        F0 = plaquette_phases(states)
        F1 = plaquette_phases(states * phases[:, :, None])
        assert np.abs(F0 - F1).max() < 1e-12


class TestPhaseDiagram:
    def test_known_cells(self):
        diag = phase_diagram(params(), [1.0, 10.0], [0.0], nx=24, ny=24)
        assert tuple(diag.cells[0][0]) == (-1, 2, -1)
        assert tuple(diag.cells[1][0]) == (2, -4, 2)

    def test_transition_cell_not_fatal(self):
        diag = phase_diagram(params(), [4.0], [0.0], nx=48, ny=48)
        assert any(isinstance(c, Undefined) for c in diag.cells[0][0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            phase_diagram(params(), [], [0.0])
        # an even q or a mesh below 4 x 4 fails before any cell is computed
        with pytest.raises(EvenDenominator):
            phase_diagram(params(q=4), [1.0], [0.0])
        with pytest.raises(ValueError):
            phase_diagram(params(), [1.0], [0.0], nx=2)
