"""Split-step spectral propagation of paraxial light through waveguide arrays.

The paraxial field obeys i d_z psi = -(1/2 k0) d_x^2 psi - (k0 gamma / n0)
R(x, z) psi, integrated by symmetric Strang splitting: exact half kinetic
steps in the spatial-frequency domain bracket a pointwise potential phase
evaluated at the step midpoint.  R is exactly zero beyond the outer guides'
reach, so the potential is evaluated and its phase applied only on the slice
of the grid inside that reach.  Stepping is unitary, boundaries are
periodic, and the domain is padded with empty space whose occupancy is
monitored so runs abort loudly instead of wrapping light around.

Two array designs are supported: guides with longitudinally modulated index
depth (on-site pumping) and guides with longitudinally modulated positions
(hopping-dominated pumping).  Both drive the system through one pump cycle
z in [0, Z], and the Chern number of the injected band is read off from the
mean transverse shift divided by q * ws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .model import _mod_angle

DEFAULT_DX = 0.15625   # um; 64 samples per 10 um guide spacing
DEFAULT_DZ = 1.0       # um
DEFAULT_NUM_GUIDES = 21
DEFAULT_NUM_SLICES = 200
PHASE_STEP_MAX = 0.1         # rad; max potential phase per step
LEAKAGE_MAX = 1e-4           # per-sample power fraction near the boundary
BOUNDARY_PAD_GUIDES = 3      # empty spacings required beyond the outer guides
# Super-Gaussian support radius, in units of wx.  exp(-u^6) underflows to
# exactly 0.0 in float64 beyond |u| = 3.011 (u^6 > 745.1), so samples outside
# a window of this radius would add only exact zeros.
GUIDE_WINDOW_WIDTHS = 3.1


class GridUnderresolved(ValueError):
    """dx or dz too coarse for the requested potential."""


class BoundaryLeakage(RuntimeError):
    """Light reached the monitored boundary strip; the run is unreliable."""


@dataclass(frozen=True)
class OpticalConstants:
    """Background index, vacuum wavelength (um), and index-contrast depth."""

    gamma: float
    n0: float = 1.45
    wavelength: float = 0.63

    @property
    def k0(self) -> float:
        return 2.0 * np.pi * self.n0 / self.wavelength


def _check_design(num_guides, ws, wx, p, q, Z):
    if wx <= 0:
        raise ValueError("wx must be positive")
    if num_guides < 1 or num_guides % 2 == 0:
        raise ValueError("num_guides must be a positive odd count")
    if Z <= 0:
        raise ValueError("pump period Z must be positive")
    if q <= 0:
        raise ValueError("q must be positive")
    if ws <= 2.0 * wx:
        warnings.warn(f"ws = {ws} <= 2*wx = {2 * wx}: guides are not well "
                      "separated", stacklevel=3)


@dataclass(frozen=True)
class IndexModulated:
    """Equally spaced guides with longitudinally modulated index depth.

    Guide j (centered at j*ws, j symmetric about zero) carries the depth
    factor 1 + alpha*cos(2*pi*(p/q)*j + Omega*z) with Omega = 2*pi/Z.
    """

    alpha: float
    p: int
    q: int
    ws: float
    wx: float
    Z: float
    num_guides: int = DEFAULT_NUM_GUIDES

    def __post_init__(self):
        _check_design(self.num_guides, self.ws, self.wx, self.p, self.q,
                      self.Z)

    @property
    def Omega(self) -> float:
        return 2.0 * np.pi / self.Z

    @property
    def guide_indices(self) -> np.ndarray:
        h = (self.num_guides - 1) // 2
        return np.arange(-h, h + 1)

    def guide_center(self, j: int, z: float = 0.0) -> float:
        return j * self.ws

    @property
    def center_bound(self) -> float:
        """Bound on |guide_center(j, z)| over all guides and all z."""
        return float(self.guide_indices[-1] * self.ws)

    def depth_factor(self, j: int, z: float) -> float:
        return 1.0 + self.alpha * math.cos(
            _mod_angle(j, self.p, self.q) + self.Omega * z)


@dataclass(frozen=True)
class SpacingModulated:
    """Fixed-depth guides with longitudinally modulated positions.

    Guide j sits at x_j(z) = j*ws + wm*cos(2*pi*(p/q)*j + Omega*z + phi0).
    """

    p: int
    q: int
    ws: float
    wx: float
    wm: float
    phi0: float
    Z: float
    num_guides: int = DEFAULT_NUM_GUIDES

    def __post_init__(self):
        _check_design(self.num_guides, self.ws, self.wx, self.p, self.q,
                      self.Z)
        if abs(self.wm) >= self.ws / 2.0 - self.wx:
            warnings.warn(
                f"|wm| = {abs(self.wm)} >= ws/2 - wx = "
                f"{self.ws / 2 - self.wx}: "
                "neighbouring guides can overlap or cross", stacklevel=3)

    @property
    def Omega(self) -> float:
        return 2.0 * np.pi / self.Z

    @property
    def guide_indices(self) -> np.ndarray:
        h = (self.num_guides - 1) // 2
        return np.arange(-h, h + 1)

    def guide_center(self, j: int, z: float = 0.0) -> float:
        return j * self.ws + self.wm * math.cos(
            _mod_angle(j, self.p, self.q) + self.phi0 + self.Omega * z)

    @property
    def center_bound(self) -> float:
        """Bound on |guide_center(j, z)| over all guides and all z."""
        return float(self.guide_indices[-1] * self.ws + abs(self.wm))


def _super_gaussian(x, center, wx):
    """Guide shape exp(-((x - center)/wx)^6), with the sixth power taken as
    u2*u2*u2 from u2 = ((x - center)/wx)^2 (a libm pow per sample costs
    more than the exp)."""
    u2 = ((x - center) / wx) ** 2
    return np.exp(-u2 * u2 * u2)


def refractive_profile(design, x, z: float):
    """Dimensionless index profile R(x, z) of the array; x may be an array."""
    x = np.asarray(x, dtype=float)
    R = np.zeros(x.shape)
    for j in design.guide_indices:
        g = _super_gaussian(x, design.guide_center(j, z), design.wx)
        if isinstance(design, IndexModulated):
            g = g * design.depth_factor(j, z)
        R += g
    return R


def injection_guide(design) -> int:
    """Default input guide at z = 0.

    IndexModulated: the guide with the largest instantaneous depth factor.
    SpacingModulated: the guide whose two adjacent spacings have the largest
    minimum ("largest inter-waveguide separations").  Ties are broken toward
    the array center, negative index first.
    """
    js = design.guide_indices
    if isinstance(design, IndexModulated):
        score = {j: design.depth_factor(j, 0.0) for j in js}
        candidates = js
    else:
        if design.num_guides < 3:
            raise ValueError(
                "the default input guide of a spacing design compares the "
                "two spacings next to a guide and needs num_guides >= 3; "
                "set injection_guide explicitly")
        centers = {j: design.guide_center(j, 0.0) for j in js}
        score = {}
        for j in js[1:-1]:
            score[j] = min(centers[j] - centers[j - 1],
                           centers[j + 1] - centers[j])
        candidates = js[1:-1]
    best = max(score[j] for j in candidates)
    tied = [int(j) for j in candidates if score[j] >= best - 1e-9]
    tied.sort(key=lambda j: (abs(j), j))
    return tied[0]


@dataclass(frozen=True)
class SimulationGrid:
    """Uniform x grid (periodic), z step, and the z values to record."""

    x_min: float
    x_max: float
    nx: int
    dz: float
    z_slices: np.ndarray

    def __post_init__(self):
        if self.nx < 2 or self.nx & (self.nx - 1):
            raise ValueError(f"nx = {self.nx} is not a power of two")
        if self.dz <= 0 or self.x_max <= self.x_min:
            raise ValueError("need dz > 0 and x_max > x_min")
        self.steps  # validates z_slices against dz

    @property
    def steps(self) -> np.ndarray:
        """Step count at each recorded slice.

        z_slices must start at 0, increase, and be multiples of dz.
        """
        zs = np.asarray(self.z_slices, dtype=float)
        steps = np.rint(zs / self.dz).astype(int)
        if np.abs(steps * self.dz - zs).max() > 1e-9 * max(1.0, abs(zs[-1])):
            raise ValueError(f"z_slices must be multiples of dz = {self.dz:g}")
        if steps[0] != 0 or np.any(np.diff(steps) <= 0):
            raise ValueError("z_slices must start at 0 and increase")
        return steps

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)


def default_grid(design, dx: float = DEFAULT_DX, dz: float = DEFAULT_DZ,
                 num_slices: int = DEFAULT_NUM_SLICES) -> SimulationGrid:
    """Grid with >= (num_guides + 6)*ws width, power-of-two nx, at step dx."""
    width = (design.num_guides + 2 * BOUNDARY_PAD_GUIDES) * design.ws
    nx = 1 << max(1, math.ceil(math.log2(width / dx)))
    half = nx * dx / 2.0
    zs = np.linspace(0.0, design.Z, num_slices + 1)
    return SimulationGrid(-half, half, nx, dz, zs)


def gaussian_input(center: float, W: float, grid: SimulationGrid):
    """Unit-L2-norm Gaussian A*exp(-(x - center)^2 / W^2)."""
    if W <= 0:
        raise ValueError("W must be positive")
    x = grid.xs
    psi = np.exp(-((x - center) / W) ** 2).astype(complex)
    return psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)


@dataclass
class FieldTrajectory:
    """Recorded complex fields and norms along a propagation run."""

    grid: SimulationGrid
    zs: np.ndarray
    fields: list
    norms: np.ndarray
    leakage_max: float

    def intensity(self) -> np.ndarray:
        """(n_slices, nx) array of |psi|^2."""
        return np.abs(np.array(self.fields)) ** 2


def mean_position(psi, grid: SimulationGrid) -> float:
    """Intensity-weighted mean transverse position <x> in um."""
    w = np.abs(psi) ** 2
    return float(np.sum(grid.xs * w) / np.sum(w))


def pump_chern(trajectory: FieldTrajectory, q: int, ws: float) -> float:
    """Chern estimate (<x>(Z) - <x>(0)) / (q * ws) over one pump cycle."""
    x0 = mean_position(trajectory.fields[0], trajectory.grid)
    x1 = mean_position(trajectory.fields[-1], trajectory.grid)
    return (x1 - x0) / (q * ws)


def lz_ratio(G1: float, Z: float) -> float:
    """Landau-Zener leakage estimate exp(-G1^2 * Z)."""
    if G1 < 0 or Z <= 0:
        raise ValueError("need G1 >= 0 and Z > 0")
    return math.exp(-G1 * G1 * Z)


class _IndexPotential:
    """O(nx) per-step evaluation via R = G0 + alpha*(Gc*cos - Gs*sin)."""

    def __init__(self, design: IndexModulated, x: np.ndarray):
        G0 = np.zeros(x.shape)
        Gc = np.zeros(x.shape)
        Gs = np.zeros(x.shape)
        for j in design.guide_indices:
            g = _super_gaussian(x, j * design.ws, design.wx)
            theta = _mod_angle(j, design.p, design.q)
            G0 += g
            Gc += math.cos(theta) * g
            Gs += math.sin(theta) * g
        self.G0, self.Gc, self.Gs = G0, Gc, Gs
        self.alpha = design.alpha
        self.Omega = design.Omega

    def profile(self, z: float, phase: float | None = None):
        ph = self.Omega * z if phase is None else phase
        return self.G0 + self.alpha * (math.cos(ph) * self.Gc
                                       - math.sin(ph) * self.Gs)

    def bound(self) -> float:
        return float((self.G0 + abs(self.alpha)
                      * np.hypot(self.Gc, self.Gs)).max())


class _SpacingPotential:
    """Gathered evaluation of all guide windows per step.

    Each guide contributes only on its window [lo, hi) of samples, of radius
    GUIDE_WINDOW_WIDTHS*wx, beyond which its shape is exactly 0.0.  The
    windows are laid out as rows of one fixed-width (num_guides, W) index
    block, samples beyond hi are masked to weight 0, and the rows are
    summed into R by one bincount in guide order.
    """

    def __init__(self, design: SpacingModulated, x: np.ndarray):
        self.design = design
        self.x = x
        self.dx = x[1] - x[0]
        self.half = GUIDE_WINDOW_WIDTHS * design.wx
        # guide j sits at base_j + wm*cos(angles_j + Omega*z)
        js = design.guide_indices
        self.base = js * design.ws
        self.angles = np.array([_mod_angle(j, design.p, design.q)
                                for j in js]) + design.phi0
        # hi - lo <= floor(b - a) + 3 for window ends a, b (in samples);
        # b - a is 2*half/dx up to rounding, which one more sample covers
        self.offsets = np.arange(int(2.0 * self.half / self.dx) + 4)

    def profile(self, z: float, phase: float | None = None):
        d = self.design
        nx = len(self.x)
        dz_phase = 0.0 if phase is None else phase - d.Omega * z
        c = self.base + d.wm * np.cos(self.angles + d.Omega * z + dz_phase)
        # astype(int) truncates toward zero, as int() does
        lo = np.maximum(0, ((c - self.half - self.x[0]) / self.dx)
                        .astype(int))
        hi = np.minimum(nx, ((c + self.half - self.x[0]) / self.dx)
                        .astype(int) + 2)
        idx = lo[:, None] + self.offsets
        inside = idx < hi[:, None]
        idx = np.minimum(idx, nx - 1)
        g = _super_gaussian(self.x[idx], c[:, None], d.wx)
        return np.bincount(idx.ravel(), (g * inside).ravel(), minlength=nx)

    def bound(self) -> float:
        # neighbouring guides may overlap when wm is large
        return 2.5


def _phase_support(design, x: np.ndarray) -> slice:
    """Slice of the increasing grid x outside which R(x, z) is exactly 0 at
    every z: the design's bound on the guide centres plus the window radius
    GUIDE_WINDOW_WIDTHS*wx, beyond which the guide shape underflows.  It
    holds at least two samples, as the potentials read dx from x."""
    reach = design.center_bound + GUIDE_WINDOW_WIDTHS * design.wx
    lo = int(np.searchsorted(x, -reach))
    hi = int(np.searchsorted(x, reach, side="right"))
    return slice(min(lo, len(x) - 2), max(hi, 2))


def split_step_propagate(psi0, design, constants: OpticalConstants,
                         grid: SimulationGrid,
                         leakage_abort: float = LEAKAGE_MAX,
                         phase_fn=None) -> FieldTrajectory:
    """Strang-split spectral propagation over the grid's recorded z range.

    Records the field at every entry of grid.z_slices (multiples of dz,
    starting at 0; the grid checks this).  The boundary strips of width
    2*ws are monitored at every recorded slice: if any single sample there
    carries a power fraction above leakage_abort the run raises
    BoundaryLeakage.

    phase_fn optionally remaps z to the drive phase (default Omega*z),
    allowing monotone gap-adaptive pump schedules.  psi0 is not modified.
    """
    x = grid.xs
    dx, dz = grid.dx, grid.dz
    if dx > design.wx / 4.0:
        raise GridUnderresolved(
            f"dx = {dx:.4g} exceeds wx/4 = {design.wx / 4:.4g}")
    # the potential phase factor is exactly 1 outside x[sup]
    sup = _phase_support(design, x)
    pot = (_IndexPotential(design, x[sup])
           if isinstance(design, IndexModulated)
           else _SpacingPotential(design, x[sup]))
    v_scale = constants.k0 * constants.gamma / constants.n0
    if dz * abs(v_scale) * pot.bound() > PHASE_STEP_MAX:
        raise GridUnderresolved(
            f"dz = {dz:.4g} gives potential phase "
            f"{dz * abs(v_scale) * pot.bound():.3g} rad > {PHASE_STEP_MAX} "
            "per step")
    width = (design.num_guides + 2 * BOUNDARY_PAD_GUIDES) * design.ws
    if grid.x_max - grid.x_min < width - 1e-9:
        warnings.warn(f"domain width {grid.x_max - grid.x_min:.0f} um below "
                      f"recommended {width:.0f} um", stacklevel=2)

    zs = np.asarray(grid.z_slices, dtype=float)
    steps = grid.steps

    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, dx)
    half_kin = np.exp(-1j * kx ** 2 * dz / (4.0 * constants.k0))
    boundary = (x < grid.x_min + 2.0 * design.ws) | \
               (x >= grid.x_max - 2.0 * design.ws)

    psi = np.asarray(psi0, dtype=complex)
    norm0 = np.sum(np.abs(psi) ** 2) * dx
    fields = [psi.copy()]
    norms = [norm0]
    leak_max = float((np.abs(psi[boundary]) ** 2).max() * dx / norm0)

    record = set(steps.tolist())
    kick = v_scale * dz
    theta = np.empty(sup.stop - sup.start)
    factor = np.empty(theta.shape, dtype=complex)
    # exp(i*theta) as cos/sin written into one buffer, without the
    # temporaries of np.exp(1j*theta); the two agree to an ulp, and bit for
    # bit where numpy evaluates real cos/sin and complex exp alike
    psi_k = np.fft.fft(psi)
    for s in range(steps[-1]):
        z_mid = (s + 0.5) * dz
        psi_k *= half_kin
        psi = np.fft.ifft(psi_k)
        phase = None if phase_fn is None else phase_fn(z_mid)
        np.multiply(pot.profile(z_mid, phase), kick, out=theta)
        np.cos(theta, out=factor.real)
        np.sin(theta, out=factor.imag)
        psi[sup] *= factor
        psi_k = np.fft.fft(psi)
        psi_k *= half_kin
        if s + 1 in record:
            out = np.fft.ifft(psi_k)
            fields.append(out)
            norms.append(np.sum(np.abs(out) ** 2) * dx)
            leak = float((np.abs(out[boundary]) ** 2).max() * dx / norm0)
            leak_max = max(leak_max, leak)
            if leak_max > leakage_abort:
                raise BoundaryLeakage(
                    f"boundary power fraction {leak_max:.3e} > "
                    f"{leakage_abort:.1e} at z = {(s + 1) * dz:.1f} um; "
                    "widen the domain or shorten the run")
    return FieldTrajectory(grid, zs, fields, np.array(norms), leak_max)


def run_summary(trajectory: FieldTrajectory, design,
                constants: OpticalConstants, G1: float | None = None) -> dict:
    """Summary dict for JSON export: shift readout plus health metrics."""
    norms = trajectory.norms
    out = {
        "design": type(design).__name__,
        "gamma": constants.gamma,
        "Z_um": float(design.Z),
        "num_guides": design.num_guides,
        "ws_um": design.ws,
        "mean_x_start_um": mean_position(trajectory.fields[0],
                                         trajectory.grid),
        "mean_x_end_um": mean_position(trajectory.fields[-1],
                                       trajectory.grid),
        "chern_estimate": pump_chern(trajectory, design.q, design.ws),
        "norm_drift": float(np.abs(norms / norms[0] - 1.0).max()),
        "leakage_max": trajectory.leakage_max,
    }
    if G1 is not None:
        out["lz_ratio"] = lz_ratio(G1, design.Z)
    return out
