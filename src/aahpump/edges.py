"""Open-boundary spectra, edge-state winding numbers, bulk-edge correspondence.

The open chain is diagonalized along a loop of transverse phases
ky in [0, 2*pi).  Mid-gap fiducial energies are placed from the bulk band
edges, and the winding number of gap n is the signed count of left-edge
eigenvalue branches crossing the fiducial over one pump cycle: a branch
moving downward in energy with increasing ky contributes +1, a branch moving
upward contributes -1.  Right-edge crossings carry the opposite total.

The work is done in array form: each ky costs one build of the open chain's
two tridiagonal bands and one solve, after which all its eigenstates are
classified at once as integer codes (mapped to the LeftEdge / RightEdge /
Bulk labels once, at the end), and the crossings of each fiducial are found
in one pass over all samples.  winding_numbers holds every check on that
count: a crossing branch that moves more than CROSSING_STEP_MAX of its gap's
width between two ky samples, or is labelled Bulk (too spread out to reach
the edge weight threshold), raises WindingUnderresolved instead of counting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ConfigError, ModulationParams, NumericalFailure, \
    open_hamiltonian
from .spectral import band_edges, tridiagonal_eigh, zone_edge_grid
from .topology import DEFAULT_GAP_TOL_FACTOR, chern_numbers

DEFAULT_EDGE_SITES = 5
DEFAULT_EDGE_THRESHOLD = 0.5
DEFAULT_N_KY = 400

LEFT = "LeftEdge"
RIGHT = "RightEdge"
BULK = "Bulk"


class FiducialInGapViolation(NumericalFailure, ValueError):
    """A gap-center fiducial energy falls inside the bulk bands."""


class WindingUnderresolved(NumericalFailure, ArithmeticError):
    """A fiducial-crossing branch moves too far between ky samples, or lies
    in neither edge, so the windings cannot be trusted."""


# A branch may move at most this fraction of its gap's width between two
# consecutive ky samples; a faster one may cross the fiducial more than once
# unseen, so the crossing count could be wrong.
CROSSING_STEP_MAX = 0.25

_BULK, _LEFT, _RIGHT = 0, 1, 2
_LABELS = np.array([BULK, LEFT, RIGHT], dtype=object)


def _edge_codes(states: np.ndarray, m: int, threshold: float) -> np.ndarray:
    """Edge code of each column of states from its probability weights in
    the outermost m sites: left when its left weight reaches threshold and
    is at least its right weight, else right when the right weight reaches
    threshold, else bulk.

    The |v|^2 rows are made C-contiguous so that numpy sums each state
    pairwise, exactly as it sums one 1-D state; a strided row sum differs
    in the last bits.
    """
    p = np.ascontiguousarray(np.abs(states.T) ** 2)
    p = p / p.sum(axis=1, keepdims=True)
    left, right = p[:, :m].sum(axis=1), p[:, -m:].sum(axis=1)
    return np.where((left >= threshold) & (left >= right), _LEFT,
                    np.where(right >= threshold, _RIGHT, _BULK))


@dataclass(frozen=True)
class SpectralFlow:
    """Open-chain eigenvalues and edge classification along the pump loop.

    energies has shape (n_ky, num_sites); labels is the same shape, an
    object array of the LeftEdge / RightEdge / Bulk strings.
    """

    kys: np.ndarray
    energies: np.ndarray
    labels: np.ndarray


def spectral_flow(params: ModulationParams, num_sites: int,
                  n_ky: int = DEFAULT_N_KY, m: int = DEFAULT_EDGE_SITES,
                  threshold: float = DEFAULT_EDGE_THRESHOLD) -> SpectralFlow:
    """Diagonalize the open chain on a uniform ky loop and label each state;
    raises ConfigError unless 1 <= m <= num_sites / 2 and 0 < threshold < 1
    (a threshold of 1 or more would label no state as an edge state)."""
    if m < 1:
        raise ConfigError(f"edge_sites must be >= 1, got {m}")
    if num_sites < 2 * m:
        raise ConfigError(f"num_sites = {num_sites} leaves no bulk between "
                          f"two edges of edge_sites = {m}; need >= {2 * m}")
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"edge_threshold must lie in (0, 1), "
                          f"got {threshold}")
    kys = 2.0 * np.pi * np.arange(n_ky) / n_ky
    energies = np.empty((n_ky, num_sites))
    codes = np.empty((n_ky, num_sites), dtype=np.int8)
    for t, ky in enumerate(kys):
        vals, vecs = tridiagonal_eigh(*open_hamiltonian(params, num_sites, ky))
        energies[t] = vals
        codes[t] = _edge_codes(vecs, m, threshold)
    return SpectralFlow(kys, energies, _LABELS[codes])


def gap_fiducials(params: ModulationParams):
    """Mid-gap fiducial energies: midpoints between adjacent bulk band edges.

    Returns (fiducials, widths) from the band edges of zone_edge_grid(params,
    48, 48) (Chambers' relation: the full mesh's, to 5e-15), where widths are
    the indirect gaps (bottom of the band above minus top of the band below).
    Raises FiducialInGapViolation if any bulk gap is closed (narrower than
    DEFAULT_GAP_TOL_FACTOR * |J|), which would put the fiducial in a band.
    """
    gap_tol = DEFAULT_GAP_TOL_FACTOR * abs(params.J)
    tops, bottoms = band_edges(zone_edge_grid(params, 48, 48))
    widths = bottoms[1:] - tops[:-1]
    closed = np.flatnonzero(widths < gap_tol)
    if closed.size:
        n = closed[0]
        raise FiducialInGapViolation(f"bulk gap {n + 1} is closed: width "
                                     f"{widths[n]:.6g} < {gap_tol:.3g}")
    return 0.5 * (tops[:-1] + bottoms[1:]), widths


@dataclass(frozen=True)
class WindingResult:
    """Per-gap winding numbers and crossing tallies (gaps indexed from 1)."""

    fiducials: np.ndarray
    windings: tuple          # signed left-edge crossing count per gap
    right_windings: tuple    # signed right-edge crossing count per gap
    left_branch_crossings: tuple   # unsigned left-edge crossings per gap
    right_branch_crossings: tuple  # unsigned right-edge crossings per gap
    flow: SpectralFlow

    @property
    def branch_counts(self) -> tuple:
        """In-gap edge branches per gap (left plus right crossings)."""
        return tuple(l + r for l, r in zip(self.left_branch_crossings,
                                           self.right_branch_crossings))


def winding_numbers(params: ModulationParams, num_sites: int,
                    n_ky: int = DEFAULT_N_KY, m: int = DEFAULT_EDGE_SITES,
                    threshold: float = DEFAULT_EDGE_THRESHOLD
                    ) -> WindingResult:
    """Signed fiducial-crossing winding numbers of each bulk gap.

    Crossings are detected on the sorted eigenvalue branches between
    consecutive ky samples (the loop wraps around).  A crossing branch is
    attributed to an edge by its label at whichever of the two samples lies
    farther from the fiducial (the earlier one on a tie), and a left-edge
    branch crossing the fiducial contributes -sign(dE/dky).  Raises
    ConfigError for n_ky < 3 and spectral_flow's inputs, and
    WindingUnderresolved if in some gap a crossing branch moves more than
    CROSSING_STEP_MAX of the gap's width between two samples or is labelled
    Bulk.
    """
    if n_ky < 3:
        raise ConfigError(f"n_ky must be >= 3, got {n_ky}")
    flow = spectral_flow(params, num_sites, n_ky, m, threshold)
    fiducials, widths = gap_fiducials(params)
    E, labels = flow.energies, flow.labels
    E2, labels2 = np.roll(E, -1, axis=0), np.roll(labels, -1, axis=0)
    windings, right_windings = [], []
    unsigned_left, unsigned_right = [], []
    for n, (Ef, width) in enumerate(zip(fiducials, widths)):
        d, d2 = E - Ef, E2 - Ef
        t, a = np.nonzero(d * d2 < 0.0)
        slope = E2[t, a] - E[t, a]
        if slope.size and np.abs(slope).max() > CROSSING_STEP_MAX * width:
            step = float(np.abs(slope).max())
            raise WindingUnderresolved(
                f"gap {n + 1}: a crossing branch moves {step:.3g} between "
                f"ky samples, {step / width:.3g} of the gap width "
                f"{width:.3g} (limit {CROSSING_STEP_MAX}); raise n_ky "
                f"(now {E.shape[0]})")
        label = np.where(np.abs(d[t, a]) >= np.abs(d2[t, a]),
                         labels[t, a], labels2[t, a])
        sign = -np.sign(slope).astype(int)
        left, right = label == LEFT, label == RIGHT
        bulk = int(np.count_nonzero(label == BULK))
        if bulk:
            raise WindingUnderresolved(
                f"gap {n + 1}: {bulk} fiducial crossings by branches "
                "labelled Bulk (edge weight below the threshold); raise "
                "edge_sites or lower edge_threshold")
        windings.append(int(sign[left].sum()))
        right_windings.append(int(sign[right].sum()))
        unsigned_left.append(int(left.sum()))
        unsigned_right.append(int(right.sum()))
    return WindingResult(fiducials, tuple(windings), tuple(right_windings),
                         tuple(unsigned_left), tuple(unsigned_right), flow)


def bulk_edge_check(params: ModulationParams,
                    windings: WindingResult) -> dict:
    """Compare bulk Chern numbers with the edge windings of params' chain.

    The Chern number of band n equals I_n - I_{n-1}, where I_n is the
    winding of gap n and I_0 = I_q = 0.  Returns a report dict with both
    sides and a boolean 'consistent'; the Chern side holds the ChernVector
    entries, so an Undefined band never matches.
    """
    cherns = tuple(chern_numbers(params))
    bounded = (0,) + windings.windings + (0,)
    from_edges = tuple(bounded[n + 1] - bounded[n] for n in range(params.q))
    return {
        "chern_numbers": cherns,
        "chern_from_windings": from_edges,
        "consistent": from_edges == cherns,
    }
