import importlib

import pytest

import aahpump

# names removed from the package; none may come back into its namespace
REMOVED = ("BlochMomentum", "band_gap", "all_gaps", "EigenDecomposition",
           "NonHermitianInput", "BandIndexOutOfRange", "HERMITICITY_TOL",
           "eigh", "_IndexPotential", "_SpacingPotential", "_cache_key",
           "_cache_line", "_cache_entry", "_read_cell_cache")


def test_all_names_resolve():
    assert len(set(aahpump.__all__)) == len(aahpump.__all__)
    for name in aahpump.__all__:
        assert getattr(aahpump, name) is not None


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_not_importable(name):
    assert name not in aahpump.__all__
    assert not hasattr(aahpump, name)
    with pytest.raises(ImportError):
        exec(f"from aahpump import {name}", {})
    for module in ("model", "spectral", "topology", "propagation", "cli"):
        assert not hasattr(importlib.import_module(f"aahpump.{module}"), name)
