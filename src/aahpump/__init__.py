"""Numerical laboratory for commensurate AAH photonic lattices.

Band structures and gaps, lattice-gauge Chern numbers and phase diagrams,
open-boundary edge spectra with winding numbers, split-step paraxial beam
propagation for Thouless pumping of light, and tight-binding parameter
extraction from localized waveguide modes.
"""

from .model import ConfigError, ModulationParams, NumericalFailure, \
    open_hamiltonian
from .spectral import BandGrid, band_edges, band_grid, direct_gaps, \
    gap_scan, tridiagonal_eigh, zone_mesh
from .topology import ChernVector, EvenDenominator, MeshTooCoarse, \
    Undefined, chern_numbers, phase_diagram
from .edges import FiducialInGapViolation, WindingUnderresolved, \
    bulk_edge_check, gap_fiducials, spectral_flow, winding_numbers
from .propagation import BoundaryLeakage, FieldTrajectory, GridUnderresolved, \
    IndexModulated, SimulationGrid, SpacingModulated, default_grid, \
    gaussian_input, injection_guide, lz_ratio, mean_position, \
    refractive_profile, split_step_propagate
from .extraction import ExtractedParams, FitDegenerate, NoBoundMode, \
    extract_parameters

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ModulationParams", "NumericalFailure", "open_hamiltonian",
    "BandGrid", "band_edges", "band_grid", "direct_gaps", "gap_scan",
    "tridiagonal_eigh", "zone_mesh",
    "ChernVector", "EvenDenominator", "MeshTooCoarse", "Undefined",
    "chern_numbers", "phase_diagram",
    "FiducialInGapViolation", "WindingUnderresolved", "bulk_edge_check",
    "gap_fiducials", "spectral_flow", "winding_numbers",
    "BoundaryLeakage", "FieldTrajectory", "GridUnderresolved",
    "IndexModulated", "SimulationGrid", "SpacingModulated", "default_grid",
    "gaussian_input", "injection_guide", "lz_ratio", "mean_position",
    "refractive_profile", "split_step_propagate",
    "ExtractedParams", "FitDegenerate", "NoBoundMode", "extract_parameters",
]
