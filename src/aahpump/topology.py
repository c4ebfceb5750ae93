"""Band Chern numbers: the lattice-gauge sum, and the exact edge readout of
the phase diagram.

chern_numbers (the readout of `bands` and of the bulk-edge check) forms
link variables U_mu(k) = <psi_n(k)|psi_n(k+mu)> / |...| on a periodic mesh
of the Brillouin-like zone; the per-plaquette field strength is the
principal argument of the oriented plaquette product, and the Chern number
is the total flux / 2*pi.  The construction is manifestly gauge invariant,
so the result is an exact integer whenever every plaquette is admissible
(|F| < pi) and the band stays separated from its neighbours.

phase_diagram reads each cell without an eigenvector mesh, from the edge
windings of the semi-infinite chain (Hatsugai, PRB 48, 11851, 1993),
vectorised over the q - 1 gaps: the cell's zone_edge_grid gives the direct
gaps and the band-edge midpoints E_r; each E_r is certified to lie in its
gap at every ky by Chambers' relation, the real roots of two trigonometric
polynomials of degree q, and a midpoint that fails is placed again from a
ky mesh 4x, then 16x finer (FIDUCIAL_REFINEMENTS); the winding I_r is the
signed count of the real roots of det(E_r - H_{1..q-1}(ky)) that are
left-edge states; C_n = I_n - I_{n-1}.  Windings that break the gap-
labelling congruence I_r = -r p^-1 (mod q) leave the cell undefined.  The
sweep's cache key names this readout, so a cache of the earlier sweep by
chern_numbers (the Fukui-Hatsugai-Suzuki, FHS, sum) is not resumed.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

import numpy as np

from .model import TWO_PI, ConfigError, ModulationParams, NumericalFailure, \
    _mod_angle, _require_elements, _site_energies, bloch_grid_hamiltonians
from .spectral import _edge_columns, band_edges, direct_gaps, \
    zone_edge_grid, zone_mesh

LINK_MODULUS_MIN = 1e-8
INTEGER_ROUNDING_TOL = 0.01
DEFAULT_GAP_TOL_FACTOR = 1e-6
# ky meshes, in multiples of the caller's ny, whose band edges place a
# fiducial: a midpoint that fails its certificate is placed again from the
# next one
FIDUCIAL_REFINEMENTS = (1, 4, 16)
# a polynomial root this close to the unit circle is a real ky
ROOT_CIRCLE_TOL = 1e-6
# a trigonometric coefficient this small against its polynomial's largest
# is a zero, so a vanishing top degree leaves no spurious root
COEFFICIENT_TOL = 1e-13
# names the readout of phase_diagram's cells in its cache key, so that a
# cache written by another readout is not resumed
CELL_READOUT = "dirichlet-block windings"


class EvenDenominator(ConfigError):
    """Chern numbers are only computed for odd q."""


class MeshTooCoarse(NumericalFailure, ArithmeticError):
    """Plaquette field inadmissible or flux fails to round to an integer."""


@dataclass(frozen=True)
class Undefined:
    """Marker for a band whose Chern number is undefined (gap closed).

    min_gap carries the offending minimum pointwise spacing to the nearest
    adjacent band over the mesh.
    """

    min_gap: float

    def __str__(self):
        return "undef"


class ChernVector(tuple):
    """Per-band entries: exact integers, or Undefined markers."""

    @property
    def all_defined(self) -> bool:
        return all(isinstance(c, int) for c in self)

    def as_tuple(self):
        """Integer tuple; raises if any band is Undefined."""
        if not self.all_defined:
            raise ValueError(f"undefined entries present: {self}")
        return tuple(self)


def plaquette_phases(states: np.ndarray) -> np.ndarray:
    """Per-plaquette field strength from single-band states.

    states has shape (nx+1, ny+1, dim): one eigenvector per mesh point
    including the wrap-around row/column.  Returns the (nx, ny) array of
    principal-branch plaquette phases.  Raises MeshTooCoarse if any link
    modulus is below 1e-8 or any |F| hits the branch cut.
    """
    U1 = np.einsum("ijk,ijk->ij", states[:-1, :].conj(), states[1:, :])
    U2 = np.einsum("ijk,ijk->ij", states[:, :-1].conj(), states[:, 1:])
    if min(np.abs(U1).min(), np.abs(U2).min()) < LINK_MODULUS_MIN:
        raise MeshTooCoarse("link variable with near-zero modulus")
    U1 = U1 / np.abs(U1)
    U2 = U2 / np.abs(U2)
    F = np.angle(U1[:, :-1] * U2[1:, :] * np.conj(U1[:, 1:]) * np.conj(U2[:-1, :]))
    if np.abs(F).max() >= np.pi * (1.0 - 1e-12):
        raise MeshTooCoarse("plaquette phase at the branch cut; refine mesh")
    return F


def _neighbour_gaps(gaps: np.ndarray) -> np.ndarray:
    """Each band's direct gap to its nearer neighbour, from the q - 1 gaps."""
    return np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])


def _require_computable(q: int, nx: int, ny: int) -> None:
    """Reject an even reduced q (EvenDenominator) or a mesh below 4 x 4."""
    if q % 2 == 0:
        raise EvenDenominator(f"reduced q = {q} is even; Chern numbers are "
                              "only computed for odd q")
    if nx < 4 or ny < 4:
        raise ConfigError(f"nx and ny must be >= 4, got {nx} x {ny}")


def chern_numbers(params: ModulationParams, nx: int = 48,
                  ny: int = 48) -> ChernVector:
    """Chern numbers of all q bands on an nx x ny mesh.

    Bands whose minimum pointwise spacing to an adjacent band falls below
    DEFAULT_GAP_TOL_FACTOR * |J| are reported as Undefined rather than
    silently computed.  Raises EvenDenominator (a ConfigError) for even q,
    ConfigError for a mesh below 4 x 4, and MeshTooCoarse when the flux of
    a gapped band fails to round to an integer within 0.01, or when every
    band is defined but the integers do not sum to zero (two nearly
    touching bands whose curvature the mesh does not resolve).
    """
    _require_computable(params.q, nx, ny)
    gap_tol = DEFAULT_GAP_TOL_FACTOR * abs(params.J)
    # the wrap-around row and column carry the actual wrapped momenta (kx +
    # 2*pi/q, ky + 2*pi); their eigenvectors agree with the identified
    # states up to a phase, which the plaquette product cancels exactly
    kxs, kys = zone_mesh(params.q, nx, ny, extra=1)
    values, vectors = np.linalg.eigh(bloch_grid_hamiltonians(params, kxs, kys))
    min_gaps = _neighbour_gaps(direct_gaps(np.moveaxis(values, -1, 0)))
    entries = []
    for n in range(params.q):
        if min_gaps[n] < gap_tol:
            entries.append(Undefined(float(min_gaps[n])))
            continue
        try:
            F = plaquette_phases(vectors[:, :, :, n])
        except MeshTooCoarse:
            entries.append(Undefined(float(min_gaps[n])))
            continue
        c = F.sum() / (2.0 * np.pi)
        c_int = round(c)
        if abs(c - c_int) > INTEGER_ROUNDING_TOL:
            raise MeshTooCoarse(
                f"band {n + 1} flux {c:.6f} does not round to an integer")
        entries.append(int(c_int))
    cv = ChernVector(entries)
    if cv.all_defined and sum(entries) != 0:
        raise MeshTooCoarse(f"Chern numbers {entries} sum to {sum(entries)}, "
                            "not 0; refine the mesh")
    return cv


def _bond_energies(params: ModulationParams, kys):
    """(V_j, t_j) of sites and bonds j = 1 .. q at each ky, each of shape
    (q, *kys.shape)."""
    angles = _mod_angle(np.arange(1, params.q + 1), params.p, params.q)
    kys = np.asarray(kys, dtype=float)
    return _site_energies(params, angles.reshape((-1,) + (1,) * kys.ndim),
                          kys)


def _chain_dets(E, V, t2):
    """det(E - H) of the open chain with on-site energies V[0], V[1], ...
    and squared bonds t2 between them, and of the chain without its last
    site: phi_j = (E - V_j) phi_{j-1} - t_{j-1}^2 phi_{j-2}, from phi_0 =
    1 (the empty chain) and phi_{-1} = 0."""
    prev, cur = 0.0, 1.0
    for v, b in zip(V, (0.0, *t2)):
        prev, cur = cur, (E - v) * cur - b * prev
    return cur, prev


def _trig_coefficients(samples, degree: int):
    """Coefficients c_{-degree} .. c_degree of the real trigonometric
    polynomials sampled along the last axis at ky_s = 2 pi s / n, exact
    for n > 2 degree.  The DFT is a product with the n x (degree + 1)
    matrix of e^{-i k ky_s}: n is at most 4q, and a lattice run then never
    loads numpy.fft (0.3 MB of peak RSS)."""
    n = samples.shape[-1]
    c = samples @ np.exp(-1j * TWO_PI / n * np.outer(
        np.arange(n), np.arange(degree + 1))) / n
    return np.concatenate([c[..., :0:-1].conj(), c], axis=-1)


def _real_roots(coefs) -> np.ndarray:
    """Real roots of real trigonometric polynomials in ky, one per row of
    coefs (its coefficients c_{-d} .. c_d): the roots of z^d sum_k c_k z^k
    on the unit circle, from the eigenvalues of its companion matrix (as
    numpy.roots, batched over the rows of equal degree) once vanishing top
    and bottom degrees are dropped.  Returns their ky in [0, 2 pi), sorted
    along each row of shape (2 d,) and padded with NaN."""
    mag = np.abs(coefs)
    big = mag > COEFFICIENT_TOL * mag.max(axis=-1, keepdims=True)
    lo = big.argmax(axis=-1)
    # a row of zeros gets lo == hi, as a constant does
    hi = np.where(big.any(axis=-1),
                  big.shape[-1] - 1 - big[:, ::-1].argmax(axis=-1), lo)
    out = np.full((len(coefs), coefs.shape[-1] - 1), np.nan)
    for a, b in set(zip(lo.tolist(), hi.tolist())):
        if a == b:  # a constant has no root
            continue
        rows = np.flatnonzero((lo == a) & (hi == b))
        c = coefs[rows, a:b + 1]
        companion = np.zeros((len(rows), b - a, b - a), dtype=complex)
        companion[:, 0] = -c[:, -2::-1] / c[:, -1:]
        companion[:, np.arange(1, b - a), np.arange(b - a - 1)] = 1.0
        z = np.linalg.eigvals(companion)
        out[rows, :b - a] = np.where(
            np.abs(np.abs(z) - 1.0) < ROOT_CIRCLE_TOL,
            np.angle(z) % TWO_PI, np.nan)
    return np.sort(out, axis=-1)


def _loop_samples(params: ModulationParams):
    """4q ky samples of the loop and the bonds there: enough for an exact
    DFT of any determinant of the period's blocks (degree <= q in ky)."""
    kys = TWO_PI * np.arange(4 * params.q) / (4 * params.q)
    return _bond_energies(params, kys)


def _gap_certificate(params: ModulationParams, E) -> np.ndarray:
    """Coefficients of the two trigonometric polynomials of _in_gap per
    energy: the rows of det(E - H)|_{q kx = 0} for every E, then those of
    det(E - H)|_{q kx = pi}.  They overflow to inf or NaN on a lattice too
    large for float64 (q = 3 at |nu_d| = 1e120 does); _in_gap reads a
    non-finite row as no certificate, so numpy's warnings are silenced."""
    V, t = _loop_samples(params)
    t2 = t * t
    with np.errstate(over="ignore", invalid="ignore"):
        full, _ = _chain_dets(E[:, None], V, t2)
        inner, _ = _chain_dets(E[:, None], V[1:-1], t2[1:])
        D = full - t2[-1] * inner
        P2 = 2.0 * np.prod(t, axis=0)
        return _trig_coefficients(np.concatenate([D - P2, D + P2]), params.q)


def _in_gap(params: ModulationParams, E) -> np.ndarray:
    """Per energy, whether it lies in a gap at every ky.  Chambers'
    relation gives det(E - H(kx, ky)) = D(E, ky) - 2 prod_j t_j cos(q kx)
    up to the sign of the product, so E lies in a band at ky exactly where
    D^2 - 4 (prod_j t_j)^2 = det(E - H)|_{q kx = 0} * det(E - H)|_{q kx =
    pi} <= 0.  Each factor is a trigonometric polynomial of degree q in ky,
    and E is certified when both have finite coefficients and neither has
    a real root."""
    coefs = _gap_certificate(params, E)
    rootless = np.isfinite(coefs).all(axis=-1) \
        & ~np.isfinite(_real_roots(coefs)).any(axis=-1)
    return rootless.reshape(2, -1).all(axis=0)


def _certified_fiducials(params: ModulationParams, nx: int, ny: int,
                         grid=None):
    """(fiducials, widths, certified) of the q - 1 gaps.

    A fiducial is the midpoint between the band edges of zone_edge_grid
    (given as grid, or computed on nx x ny) and its width the indirect gap.
    A gap narrower than DEFAULT_GAP_TOL_FACTOR * |J| is closed and not
    certified.  An open gap whose midpoint fails _in_gap (it lies in a band
    at some ky between the mesh rows) is placed again from a ky mesh 4x,
    then 16x finer (FIDUCIAL_REFINEMENTS); certified marks the gaps whose
    fiducial passed.  Each gap keeps the fiducial and the width of the
    last mesh it was placed from.
    """
    gap_tol = DEFAULT_GAP_TOL_FACTOR * abs(params.J)
    certified = np.zeros(params.q - 1, dtype=bool)
    todo = ~certified
    for factor in FIDUCIAL_REFINEMENTS:
        if factor > 1 or grid is None:
            grid = zone_edge_grid(params, nx, factor * ny)
        tops, bottoms = band_edges(grid)
        mid, w = 0.5 * (tops[:-1] + bottoms[1:]), bottoms[1:] - tops[:-1]
        if factor == FIDUCIAL_REFINEMENTS[0]:
            fiducials, widths = mid, w
        fiducials[todo], widths[todo] = mid[todo], w[todo]
        # a finer mesh only narrows a gap, so a closed one stays closed
        todo &= w >= gap_tol
        if todo.any():
            certified[todo] = _in_gap(params, mid[todo])
            todo &= ~certified
        if not todo.any():
            break
    return fiducials, widths, certified


def _left_windings(params: ModulationParams, E, gaps):
    """(windings, resolved): the signed left-edge crossing count I_r of the
    fiducial E_r of each gap r in gaps (numbered from 1), which _in_gap
    must certify, on the semi-infinite chain from site 1 (Hatsugai, PRB 48,
    11851, 1993).

    Its edge states sit at the eigenvalues of the open block of sites 1 ..
    q - 1, one per gap, so the state of gap r crosses E_r at the real roots
    of f_r(ky) = det(E_r - H_{1..q-1}(ky)), a trigonometric polynomial of
    degree q - 1.  With psi_0 = 0 and psi_1 = 1 it is a left-edge state
    where the period transfer matrix's eigenvalue |t_{q-1} psi_{q-1} / t_q|
    is below 1, compared without division: a vanishing t_q makes it a right
    state, a vanishing t_{q-1} a left one, and both vanishing a right one.
    A crossing moving down in energy counts +1, which is the sign of f_r's
    change across the root times (-1)^(q-1-r); the change is read at the
    midpoints between adjacent roots, so a tangency counts 0.  A gap whose
    count is odd (a root the circle test missed) is not resolved.
    """
    q = params.q
    V, t = _loop_samples(params)
    f, _ = _chain_dets(E[:, None], V[:-1], (t * t)[:-2])
    ky = _real_roots(_trig_coefficients(f, q - 1))
    n, k = np.isfinite(ky).sum(axis=-1, keepdims=True), np.arange(ky.shape[1])
    after = np.where(k + 1 < n, k + 1, 0)
    mid = 0.5 * (ky + np.take_along_axis(ky, after, axis=-1)
                 + np.where(after, 0.0, TWO_PI))
    V, t = _bond_energies(params, np.concatenate([ky, mid], axis=-1))
    f, g = _chain_dets(E[:, None], V[:-1], (t * t)[:-2])
    w = ky.shape[1]
    left = np.abs(t[q - 2, :, :w] * g[:, :w]) < \
        np.abs(t[q - 1, :, :w] * np.prod(t[:q - 2, :, :w], axis=0))
    s = np.sign(f[:, w:])
    change = s - np.take_along_axis(s, np.where(k > 0, k - 1, n - 1), axis=-1)
    total = np.where(left, change, 0.0).sum(axis=-1).astype(int)
    return (-1) ** (q - 1 - np.asarray(gaps)) * total // 2, total % 2 == 0


def _cell_chern_numbers(params: ModulationParams, nx: int,
                        ny: int) -> ChernVector:
    """Chern numbers C_n = I_n - I_{n-1} (I_0 = I_q = 0) of one phase-
    diagram cell from the exact edge windings of _left_windings.

    zone_edge_grid(params, nx, ny) gives the direct gaps: a gap below
    DEFAULT_GAP_TOL_FACTOR * |J| makes its two bands Undefined, as in
    chern_numbers, and so does a gap whose fiducial _certified_fiducials
    cannot certify or whose count is not resolved.  Windings that break
    the gap-labelling congruence I_r = -r p^-1 (mod q) (TKNN, PRL 49, 405,
    1982) make every band Undefined.  An Undefined band carries its
    minimum direct gap to a neighbour.
    """
    q = params.q
    if q == 1:
        return ChernVector((0,))
    grid = zone_edge_grid(params, nx, ny)
    min_gaps = _neighbour_gaps(direct_gaps(grid.energies))
    # a certified gap is open: its direct gap is no narrower than its
    # indirect one, which is at least the closure tolerance
    fiducials, _, known = _certified_fiducials(params, nx, ny, grid)
    gaps = np.flatnonzero(known)
    windings = np.zeros(q - 1, dtype=int)
    windings[gaps], known[gaps] = _left_windings(params, fiducials[gaps],
                                                 gaps + 1)
    if np.any(((windings + np.arange(1, q) * pow(params.p, -1, q)) % q)
              [known]):
        known[:] = False
    known = np.r_[True, known, True]
    I = np.r_[0, windings, 0]
    return ChernVector(
        int(I[n + 1] - I[n]) if known[n] and known[n + 1]
        else Undefined(float(min_gaps[n])) for n in range(q))


@dataclass(frozen=True)
class PhaseDiagram:
    """ChernVector per cell of a (nu_od, nu_d) parameter sweep (units of J)."""

    cells: list  # cells[i][j] is the ChernVector at (nu_od[i], nu_d[j])


def _cell_line(flat: int, cv: ChernVector) -> str:
    # an Undefined entry keeps its min_gap, exactly (repr round-trips)
    return f"{flat} " + " ".join(
        f"undef:{c.min_gap!r}" if isinstance(c, Undefined) else str(c)
        for c in cv) + "\n"


def _read_cache(path, key_line: str, q: int) -> dict:
    """Flat cell index -> ChernVector from a phase-diagram cache, or {} if
    the file is missing or keyed otherwise.  A line without its newline was
    cut short (3.552713678800501e-15 to 3.55 still parses): it is skipped."""
    if not os.path.exists(path):
        return {}
    cells = {}
    with open(path) as fh:
        if fh.readline() != key_line + "\n":
            return {}
        for line in fh:
            parts = line.split()
            try:
                if line.endswith("\n") and len(parts) == q + 1:
                    cells[int(parts[0])] = ChernVector(
                        Undefined(float(t[len("undef:"):]))
                        if t.startswith("undef:") else int(t)
                        for t in parts[1:])
            except ValueError:  # a whole line that is not a cell
                continue
    return cells


def phase_diagram(params_template: ModulationParams, nu_od_over_J, nu_d_over_J,
                  cache, nx: int = 48, ny: int = 48) -> PhaseDiagram:
    """Chern numbers over a grid of modulation amplitudes.

    Each cell is read from the exact edge windings of the Dirichlet block
    (_cell_chern_numbers), with its gaps and fiducials from the cell's
    nx x ny zone_edge_grid; a band it cannot read (closed gap, uncertified
    fiducial, windings off the congruence) is recorded as Undefined
    instead of aborting the sweep.  The cache file makes the sweep
    resumable; its first line hashes what a cell depends on, the readout
    included, so a file keyed to another sweep or written by another
    readout is discarded.  The file is rewritten once, top to bottom in
    cell order, each missing cell computed in turn and each line flushed as
    it is written, so it ends with the same bytes at any resume point.
    Inputs no cell can be computed for raise before the cache is touched,
    a cell mesh above MAX_ARRAY_ELEMENTS (ConfigError) included.
    """
    od = np.asarray(list(nu_od_over_J), dtype=float)
    d = np.asarray(list(nu_d_over_J), dtype=float)
    if len(od) == 0 or len(d) == 0:
        raise ValueError("sample lists must be nonempty")
    J, q = params_template.J, params_template.q
    _require_computable(q, nx, ny)
    if q > 1:
        # the largest mesh a cell builds: zone_edge_grid at the finest
        # refinement of its fiducials: its blocks and its axes
        cols, rows = len(_edge_columns(nx)), FIDUCIAL_REFINEMENTS[-1] * ny
        _require_elements(cols * rows * q * q,
                          f"{cols} x {rows} blocks of {q} x {q}")
        _require_elements(nx + rows, f"the axes of a {nx} x {rows} zone "
                                     "mesh")

    # the key hashes Python floats: numpy 2 prints np.float64 differently
    config = (CELL_READOUT, params_template.p, q, params_template.delta_phi,
              nx, ny, od.tolist(), d.tolist())
    key_line = "key " + hashlib.sha256(repr(config).encode()).hexdigest()
    done = _read_cache(cache, key_line, q)
    with open(cache, "w") as fh:
        fh.write(key_line + "\n")
        for flat in range(len(od) * len(d)):
            if flat not in done:
                i, j = divmod(flat, len(d))
                done[flat] = _cell_chern_numbers(replace(
                    params_template, nu_d=d[j] * J, nu_od=od[i] * J), nx, ny)
            fh.write(_cell_line(flat, done[flat]))
            fh.flush()
    cells = [[done[i * len(d) + j] for j in range(len(d))]
             for i in range(len(od))]
    return PhaseDiagram(cells)
