import numpy as np
import pytest

from aahpump.model import ModulationParams, bloch_grid_hamiltonians
from aahpump.spectral import zone_mesh
from aahpump.topology import ChernVector, EvenDenominator, MeshTooCoarse, \
    Undefined, chern_numbers, phase_diagram, plaquette_phases


def params(nu_d=0.0, nu_od=1.0, q=3, delta_phi=0.0):
    return ModulationParams(1.0, nu_d, nu_od, 1, q, delta_phi)


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
    def test_known_cells(self, tmp_path):
        diag = phase_diagram(params(), [1.0, 10.0], [0.0], tmp_path / "c",
                             nx=24, ny=24)
        assert tuple(diag.cells[0][0]) == (-1, 2, -1)
        assert tuple(diag.cells[1][0]) == (2, -4, 2)

    def test_threads_and_cache(self, tmp_path):
        od, d = [1.0, 4.0, 10.0], [-1.0, 0.0, 1.0]
        a = phase_diagram(params(), od, d, tmp_path / "a", nx=24, ny=24,
                          threads=1)
        b = phase_diagram(params(), od, d, tmp_path / "b", nx=24, ny=24,
                          threads=8)
        for i in range(3):
            for j in range(3):
                ca, cb = a.cells[i][j], b.cells[i][j]
                assert [str(x) for x in ca] == [str(x) for x in cb]
        # a correctly keyed cached cell is served as-is, not recomputed
        cache = tmp_path / "cells.cache"
        phase_diagram(params(), od, d, cache, nx=24, ny=24)
        key = cache.read_text().splitlines()[0]
        cache.write_text(f"{key}\n0 9 9 9\n")
        c = phase_diagram(params(), od, d, cache, nx=24, ny=24, threads=8)
        assert c.cells[0][0] == ChernVector((9, 9, 9))
        assert cache.read_text().splitlines()[1] == "0 9 9 9"
        # a file keyed to another sweep is discarded
        cache.write_text("key 0\n0 9 9 9\n")
        c = phase_diagram(params(), od, d, cache, nx=24, ny=24)
        assert c.cells[0][0] == a.cells[0][0]
        assert cache.read_text().splitlines()[0] == key

    def test_transition_cell_not_fatal(self, tmp_path):
        diag = phase_diagram(params(), [4.0], [0.0], tmp_path / "c",
                             nx=48, ny=48)
        assert any(isinstance(c, Undefined) for c in diag.cells[0][0])

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            phase_diagram(params(), [], [0.0], tmp_path / "c")
        assert list(tmp_path.iterdir()) == []
        # an even q or a mesh below 4 x 4 fails before any cache is written
        with pytest.raises(EvenDenominator):
            phase_diagram(params(q=4), [1.0], [0.0], tmp_path / "c")
        with pytest.raises(ValueError):
            phase_diagram(params(), [1.0], [0.0], tmp_path / "c", nx=2)
        assert list(tmp_path.iterdir()) == []
