import math

import pytest

from aahpump import extraction
from aahpump.extraction import NoBoundMode, extract_parameters, \
    extraction_report
from aahpump.model import ConfigError
from aahpump.propagation import IndexModulated, OpticalConstants


def design(**kw):
    base = dict(alpha=0.5, p=1, q=3, ws=10.0, wx=3.0, Z=3e5)
    base.update(kw)
    return IndexModulated(**base)


class TestLocalizedMode:
    def test_no_potential_no_bound_mode(self):
        # the isolated-guide trial mode needs a guide to bind to
        with pytest.raises(NoBoundMode):
            extract_parameters(OpticalConstants(gamma=0.0), design())


class TestExtraction:
    def test_unmodulated_array_fits_zero(self):
        fit = extract_parameters(OpticalConstants(gamma=9e-4),
                                 design(alpha=0.0))
        assert fit.J > 0
        assert abs(fit.nu_od) < 1e-5 * fit.J
        assert abs(fit.nu_d) < 1e-5 * fit.J

    def test_fit_degenerate_for_short_period(self):
        # q < 3 leaves the fit underdetermined: an input rule, not a failure
        with pytest.raises(ConfigError, match="underdetermined"):
            extract_parameters(OpticalConstants(gamma=9e-4), design(q=1))

    def test_phase_offset_near_pi_over_three(self):
        fit = extract_parameters(OpticalConstants(gamma=9e-4), design())
        assert abs(fit.delta_phi - math.pi / 3) < 0.05

    def test_stability_under_grid_refinement(self):
        c = OpticalConstants(gamma=9e-4)
        coarse = extract_parameters(c, design(), dx=0.05)
        fine = extract_parameters(c, design(), dx=0.025)
        assert abs(fine.J - coarse.J) / coarse.J < 0.02
        assert abs(fine.nu_d - coarse.nu_d) / abs(coarse.nu_d) < 0.02

    def test_stability_under_wider_basis(self, monkeypatch):
        c = OpticalConstants(gamma=9e-4)
        small = extract_parameters(c, design())
        monkeypatch.setattr(extraction, "BASIS_GUIDES", 15)
        wide = extract_parameters(c, design())
        assert abs(wide.J - small.J) / small.J < 0.02
        assert extraction_report(c, design(), wide)["basis_guides"] == 15

    def test_overlap_deficit_reported(self):
        c9 = extract_parameters(OpticalConstants(gamma=9e-4), design())
        c5 = extract_parameters(OpticalConstants(gamma=5e-4), design())
        # shallower guides -> wider modes -> larger neighbour overlap
        assert 0 < c9.overlap_deficit < c5.overlap_deficit < 0.5

    def test_report_round_trip(self):
        c = OpticalConstants(gamma=9e-4)
        d = design()
        fit = extract_parameters(c, d)
        report = extraction_report(c, d, fit)
        assert report["J_per_um"] == fit.J
        assert report["gamma"] == 9e-4
        assert len(report["bonds_per_um"]) == 3
