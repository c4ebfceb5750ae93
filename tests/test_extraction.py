import math

import pytest

from aahpump import extraction
from aahpump.extraction import NoBoundMode, extract_parameters, \
    extraction_report
from aahpump.model import ConfigError
from aahpump.propagation import IndexModulated


def design(**kw):
    base = dict(gamma=9e-4, alpha=0.5, p=1, q=3, ws=10.0, wx=3.0, Z=3e5)
    base.update(kw)
    return IndexModulated(**base)


class TestLocalizedMode:
    def test_no_potential_no_bound_mode(self):
        # the isolated-guide trial mode needs a guide to bind to
        with pytest.raises(NoBoundMode):
            extract_parameters(design(gamma=0.0))


class TestExtraction:
    def test_unmodulated_array_fits_zero(self):
        fit = extract_parameters(design(alpha=0.0))
        assert fit.J > 0
        assert abs(fit.nu_od) < 1e-5 * fit.J
        assert abs(fit.nu_d) < 1e-5 * fit.J

    def test_fit_degenerate_for_short_period(self):
        # q < 3 leaves the fit underdetermined: an input rule, not a failure
        with pytest.raises(ConfigError, match="underdetermined"):
            extract_parameters(design(q=1))

    def test_phase_offset_near_pi_over_three(self):
        fit = extract_parameters(design())
        assert abs(fit.delta_phi - math.pi / 3) < 0.05

    def test_stability_under_grid_refinement(self):
        coarse = extract_parameters(design(), dx=0.05)
        fine = extract_parameters(design(), dx=0.025)
        assert abs(fine.J - coarse.J) / coarse.J < 0.02
        assert abs(fine.nu_d - coarse.nu_d) / abs(coarse.nu_d) < 0.02

    def test_stability_under_wider_basis(self, monkeypatch):
        small = extract_parameters(design())
        monkeypatch.setattr(extraction, "BASIS_GUIDES", 15)
        wide = extract_parameters(design())
        assert abs(wide.J - small.J) / small.J < 0.02
        assert extraction_report(design(), wide)["basis_guides"] == 15

    def test_overlap_deficit_reported(self):
        c9 = extract_parameters(design())
        c5 = extract_parameters(design(gamma=5e-4))
        # shallower guides -> wider modes -> larger neighbour overlap
        assert 0 < c9.overlap_deficit < c5.overlap_deficit < 0.5

    def test_report_round_trip(self):
        d = design()
        fit = extract_parameters(d)
        report = extraction_report(d, fit)
        assert report["J_per_um"] == fit.J
        assert report["gamma"] == 9e-4
        assert len(report["bonds_per_um"]) == 3
