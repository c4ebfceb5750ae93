import ast
import importlib
from pathlib import Path

import pytest

import aahpump

# names removed from the package; none may come back into its namespace
REMOVED = ("BlochMomentum", "band_gap", "all_gaps", "EigenDecomposition",
           "NonHermitianInput", "BandIndexOutOfRange", "HERMITICITY_TOL",
           "eigh", "_IndexPotential", "_SpacingPotential", "_cache_key",
           "_cache_line", "_cache_entry", "_read_cell_cache",
           "localized_mode", "LocalizedMode", "MODE_WINDOW_SPACINGS",
           "plaquette_field", "edge_weight", "classify_state",
           "_edge_weights", "OpenChainSpec", "onsite_potential", "hopping",
           "bloch_hamiltonian", "format_cell", "_first_gap")

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
