import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import aahpump
from aahpump import BoundaryLeakage, ConfigError, FiducialInGapViolation, \
    FitDegenerate, GridUnderresolved, IndexModulated, MeshTooCoarse, \
    ModulationParams, NoBoundMode, NumericalFailure, SpacingModulated, \
    WindingUnderresolved, chern_numbers, default_grid, gap_scan, \
    gaussian_input, spectral_flow, winding_numbers
from aahpump.extraction import _basis_grid

# names removed from the package; none may come back into its namespace
REMOVED = ("BlochMomentum", "band_gap", "all_gaps", "EigenDecomposition",
           "NonHermitianInput", "BandIndexOutOfRange", "HERMITICITY_TOL",
           "eigh", "_IndexPotential", "_SpacingPotential", "_cache_key",
           "_cache_line", "_cache_entry", "_read_cell_cache",
           "localized_mode", "LocalizedMode", "MODE_WINDOW_SPACINGS",
           "plaquette_field", "edge_weight", "classify_state",
           "_edge_weights", "OpenChainSpec", "onsite_potential", "hopping",
           "bloch_hamiltonian", "format_cell", "_first_gap", "_write_cache",
           "NUMERICAL_ERRORS", "ThreadPoolExecutor", "pump_chern",
           "_shift_readout", "_require_finite_scale", "OpticalConstants",
           "_read_cache", "CELL_READOUT", "_phase_support")

MODULES = ("model", "spectral", "topology", "edges", "propagation",
           "extraction", "ioutil", "cli")
PACKAGE = Path(aahpump.__file__).parent
# the console entry point, called from outside the package
ENTRY_POINTS = {("cli", "main")}


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
    for module in MODULES:
        assert not hasattr(importlib.import_module(f"aahpump.{module}"), name)


def test_no_public_name_only_tests_reach():
    # a public function or class of a package module is exported, or some
    # package code uses it; anything else is reached by tests alone
    trees = {path.stem: ast.parse(path.read_text())
             for path in PACKAGE.glob("*.py")}
    used = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    used |= {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    dead = [f"{module}.{node.name}" for module in MODULES
            for node in trees[module].body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and (module, node.name) not in ENTRY_POINTS
            and node.name not in aahpump.__all__ and node.name not in used]
    assert dead == []


def _design(**kw):
    base = dict(gamma=9e-4, alpha=0.5, p=1, q=3, ws=10.0, wx=3.0, Z=1.5e5)
    base.update(kw)
    return IndexModulated(**base)


def _lattice(q=3):
    return ModulationParams(1.0, 0.0, 1.0, 1, q)


# every library check an input of the CLI can trip; the CLI exits 2 on
# ConfigError and on nothing broader
@pytest.mark.parametrize("call", [
    pytest.param(lambda: ModulationParams(1.0, 0.0, 1.0, 1, 0),
                 id="ModulationParams-q=0"),
    pytest.param(lambda: ModulationParams(1.0, 0.0, np.nan, 1, 3),
                 id="ModulationParams-nu_od=nan"),
    pytest.param(lambda: ModulationParams(1.0, 0.0, 1.0, 1, 3, np.inf),
                 id="ModulationParams-delta_phi=inf"),
    pytest.param(lambda: _design(gamma=-np.inf),
                 id="IndexModulated-gamma=-inf"),
    pytest.param(lambda: SpacingModulated(gamma=np.nan, p=1, q=3, ws=20.0,
                                          wx=3.0, wm=4.0, phi0=0.0, Z=1.5e5),
                 id="SpacingModulated-gamma=nan"),
    pytest.param(lambda: default_grid(_design(Z=1e8)),
                 id="default_grid-Z=1e8"),
    pytest.param(lambda: _design(wx=0.0), id="IndexModulated-wx=0"),
    pytest.param(lambda: _design(ws=0.0), id="IndexModulated-ws=0"),
    pytest.param(lambda: _design(alpha=np.nan), id="IndexModulated-alpha=nan"),
    pytest.param(lambda: _design(Z=np.inf), id="IndexModulated-Z=inf"),
    # dz = 4 does not divide the 750 um slices
    pytest.param(lambda: default_grid(_design(), dz=4.0),
                 id="default_grid-dz=4"),
    pytest.param(lambda: default_grid(_design(), dx=0.0),
                 id="default_grid-dx=0"),
    pytest.param(lambda: default_grid(_design(), dx=np.inf),
                 id="default_grid-dx=inf"),
    pytest.param(lambda: default_grid(_design(), dz=np.nan),
                 id="default_grid-dz=nan"),
    pytest.param(lambda: default_grid(_design(), dx=1e-5),
                 id="default_grid-dx=1e-5"),
    pytest.param(lambda: default_grid(_design(ws=1e300)),
                 id="default_grid-ws=1e300"),
    pytest.param(lambda: gaussian_input(0.0, 0.0, default_grid(_design())),
                 id="gaussian_input-W=0"),
    pytest.param(lambda: gaussian_input(1e4, 3.0, default_grid(_design())),
                 id="gaussian_input-center-off-grid"),
    pytest.param(lambda: _basis_grid(_design(q=1)), id="basis_grid-q=1"),
    pytest.param(lambda: _basis_grid(_design(q=11)), id="basis_grid-q=11"),
    pytest.param(lambda: _basis_grid(_design(), np.nan),
                 id="basis_grid-dx=nan"),
    pytest.param(lambda: _basis_grid(_design(), 1e-300),
                 id="basis_grid-dx=1e-300"),
    pytest.param(lambda: _basis_grid(_design(ws=1e300)),
                 id="basis_grid-ws=1e300"),
    pytest.param(lambda: gap_scan(_lattice(), [1.0], 1, 48),
                 id="gap_scan-nx=1"),
    pytest.param(lambda: chern_numbers(_lattice(q=4), 8, 8),
                 id="chern_numbers-q=4"),
    pytest.param(lambda: chern_numbers(_lattice(), 3, 48),
                 id="chern_numbers-nx=3"),
    pytest.param(lambda: spectral_flow(_lattice(), 30, 16, m=0),
                 id="spectral_flow-m=0"),
    pytest.param(lambda: spectral_flow(_lattice(), 8, 16, m=5),
                 id="spectral_flow-num_sites=8"),
    pytest.param(lambda: spectral_flow(_lattice(), 30, 16, threshold=1.0),
                 id="spectral_flow-threshold=1"),
    pytest.param(lambda: winding_numbers(_lattice(), 30, 2),
                 id="winding_numbers-n_ky=2"),
])
def test_input_checks_raise_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("cls", [
    GridUnderresolved, NoBoundMode, FitDegenerate, FiducialInGapViolation,
    MeshTooCoarse, WindingUnderresolved, BoundaryLeakage,
    np.linalg.LinAlgError])
def test_numerical_failures_are_not_config_errors(cls):
    assert not issubclass(cls, ConfigError)
    # main exits 3 on a NumericalFailure or on numpy's LinAlgError
    assert issubclass(cls, NumericalFailure) or cls is np.linalg.LinAlgError


def test_grid_sample_cap(monkeypatch):
    # the pump grid of _design() spans 270 um at dx 0.15625 um (1728
    # samples, so nx = 2048) and the mode grid 160 um at 0.05 um (3201
    # samples); the cap is a power of two, as nx is
    monkeypatch.setattr("aahpump.propagation.MAX_GRID_SAMPLES", 2048)
    assert default_grid(_design()).nx == 2048
    monkeypatch.setattr("aahpump.propagation.MAX_GRID_SAMPLES", 1024)
    with pytest.raises(ConfigError, match="more than 1024 samples"):
        default_grid(_design())
    monkeypatch.setattr("aahpump.extraction.MAX_GRID_SAMPLES", 3201)
    assert len(_basis_grid(_design())[0]) == 3201
    monkeypatch.setattr("aahpump.extraction.MAX_GRID_SAMPLES", 3200)
    with pytest.raises(ConfigError, match="more than 3200 samples"):
        _basis_grid(_design())
