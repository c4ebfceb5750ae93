"""Split-step spectral propagation of paraxial light through waveguide arrays.

A design is the whole array, the index profile N0 + gamma*R(x, z): its
contrast gamma and the guides whose depths or positions R modulates along
z.  The background index N0, the vacuum wavelength WAVELENGTH and
K0 = 2*pi*N0/WAVELENGTH are module constants.  The paraxial field obeys
i d_z psi = -(1/2 K0) d_x^2 psi - (K0 gamma / N0) R(x, z) psi, integrated
by symmetric Strang splitting: exact half kinetic steps in the
spatial-frequency domain bracket a pointwise potential phase evaluated at
the step midpoint.  The trailing half step of one step and
the leading half step of the next are one multiply, which also carries the
inverse FFT's 1/nx (a recorded slice takes the trailing half step alone);
the phase factor exp(i*theta) is built from one tangent, tan(theta/2).

A guide's shape is exactly zero, never subnormal, from just inside
GUIDE_WINDOW_WIDTHS*wx of its centre, and the phase of a sum of guides is
the product of their phases, so the potential phase is applied window by
window, to the guides that reach the grid.  Guides a multiple of q apart
share their drive angle and depth; when they lie whole samples and a
window or more apart they form a group, whose factor is one row of W
samples multiplied into every member's window through one strided view of
a padded field buffer.  The rows of PHASE_BLOCK steps are taken in one
pass, so a step is the kinetic multiply, two in-place FFTs and one
multiply per group; a second buffer serves only the recorded slices.
Stepping is unitary, boundaries are periodic, and the domain is padded
with empty space whose occupancy is monitored so runs abort loudly instead
of wrapping light around.

Two array designs are supported: guides with longitudinally modulated index
depth (on-site pumping) and guides with longitudinally modulated positions
(hopping-dominated pumping).  Both drive the system through one pump cycle
z in [0, Z], and the Chern number of the injected band is read off from the
mean transverse shift divided by q * ws.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import MAX_ARRAY_ELEMENTS, ConfigError, NumericalFailure, \
    _mod_angle, _reduce_ratio, _require_elements, _require_finite

DEFAULT_DX = 0.15625   # um; 64 samples per 10 um guide spacing
DEFAULT_DZ = 1.0       # um
DEFAULT_NUM_GUIDES = 21
DEFAULT_NUM_SLICES = 200
# samples an x grid may hold: a power of two, as a pump grid's nx is, and
# 256 times fig5c's 4096; a huge width or a tiny step would otherwise ask
# for an unbounded array
MAX_GRID_SAMPLES = 2**20
PHASE_STEP_MAX = 0.1         # rad; max potential phase per step
LEAKAGE_MAX = 1e-4           # per-sample power fraction near the boundary
NORM_DRIFT_MAX = 1e-10       # relative norm drift a pump --check allows
BOUNDARY_PAD_GUIDES = 3      # empty spacings required beyond the outer guides
N0 = 1.45                    # background refractive index
WAVELENGTH = 0.63            # um; vacuum wavelength
K0 = 2.0 * np.pi * N0 / WAVELENGTH  # 1/um; wavenumber in the background
# The guide shape exp(-u^6) is set to exactly 0.0 where -u^6 < ln(tiny), the
# natural log of the smallest normal float64: there exp's result is subnormal
# or 0.0, which numpy's exp computes off its vector path (on an AVX-512 Xeon,
# about 96 ns per subnormal result and 13 ns per 0.0 against 1 ns), and a
# subnormal R would slow the tangent and the multiplies after it too.  The
# cutoff is |u| = (-ln tiny)^(1/6) = 2.9857; GUIDE_WINDOW_WIDTHS, the window
# radius in units of wx, clears it by a margin, so samples outside a window
# would add only exact zeros.
_TINY = float(np.finfo(float).tiny)
_LN_TINY = math.log(_TINY)
GUIDE_WINDOW_WIDTHS = 2.99
# Arcs of the drive phase over which the potential's bound on R is taken:
# one arc gives 2.83 on fig5c, 16 give its true maximum, 2.0.
BOUND_PHASE_ARCS = 16
_BOUND_BLOCK = 256           # samples per block of the bound's evaluation
PHASE_BLOCK = 16             # steps whose potential rows are taken at once


class GridUnderresolved(NumericalFailure, ValueError):
    """dx or dz too coarse for the requested potential."""


class BoundaryLeakage(NumericalFailure, RuntimeError):
    """Light reached the monitored boundary strip; the run is unreliable."""


class _GuideArray:
    """Index profile N0 + gamma*R(x, z): guide j at j*ws + wm*cos(a_j) with
    depth 1 + alpha*cos(a_j), where a_j = 2*pi*(p/q)*j + phi0 + Omega*z; a
    design's unmodulated terms are class constants, not fields.  p/q is
    reduced as in ModulationParams.  An array whose neighbouring guides come
    closer than 2*wx during a cycle warns once."""

    def __post_init__(self):
        _reduce_ratio(self)
        _require_finite(self, "gamma", "alpha", "ws", "wx", "wm", "phi0", "Z")
        if self.wx <= 0:
            raise ConfigError("wx must be positive")
        if self.num_guides < 1 or self.num_guides % 2 == 0:
            raise ConfigError("num_guides must be a positive odd count")
        if self.Z <= 0:
            raise ConfigError("pump period Z must be positive")
        if self.ws <= 0:
            raise ConfigError("ws must be positive")
        sep = self.min_separation
        if self.num_guides > 1 and sep < 2.0 * self.wx:
            warnings.warn(f"the smallest neighbour separation over a cycle "
                          f"is {sep:.2f} um < 2*wx = {2 * self.wx:g} um: "
                          "neighbouring guides can overlap"
                          + (" and cross" if sep < 0 else ""), stacklevel=3)

    @property
    def Omega(self) -> float:
        return 2.0 * np.pi / self.Z

    @property
    def min_separation(self) -> float:
        """Smallest distance between neighbouring guides over a cycle.

        Guides j and j + 1 sit ws - 2*wm*sin(pi*p/q)*sin(a_j + pi*p/q)
        apart, so the smallest is ws - 2*|wm|*|sin(pi*p/q)|, ws itself for
        fixed guides; below zero the two cross.
        """
        return self.ws - 2.0 * abs(self.wm) * abs(
            math.sin(math.pi * self.p / self.q))

    @property
    def guide_indices(self) -> np.ndarray:
        h = (self.num_guides - 1) // 2
        return np.arange(-h, h + 1)

    def _angle(self, j, z: float) -> float:
        return _mod_angle(j, self.p, self.q) + self.phi0 + self.Omega * z

    def guide_center(self, j: int, z: float = 0.0) -> float:
        return j * self.ws + self.wm * math.cos(self._angle(j, z))

    def depth_factor(self, j: int, z: float) -> float:
        return 1.0 + self.alpha * math.cos(self._angle(j, z))

    @property
    def domain_width(self) -> float:
        """Recommended grid width: the guides plus BOUNDARY_PAD_GUIDES
        empty spacings on each side."""
        return (self.num_guides + 2 * BOUNDARY_PAD_GUIDES) * self.ws


@dataclass(frozen=True)
class IndexModulated(_GuideArray):
    """Equally spaced guides with longitudinally modulated index depth.

    Guide j (centered at j*ws, j symmetric about zero) carries the depth
    factor 1 + alpha*cos(2*pi*(p/q)*j + Omega*z) with Omega = 2*pi/Z.
    """

    gamma: float
    alpha: float
    p: int
    q: int
    ws: float
    wx: float
    Z: float
    num_guides: int = DEFAULT_NUM_GUIDES
    wm = phi0 = 0.0


@dataclass(frozen=True)
class SpacingModulated(_GuideArray):
    """Fixed-depth guides with longitudinally modulated positions.

    Guide j sits at x_j(z) = j*ws + wm*cos(2*pi*(p/q)*j + Omega*z + phi0).
    """

    gamma: float
    p: int
    q: int
    ws: float
    wx: float
    wm: float
    phi0: float
    Z: float
    num_guides: int = DEFAULT_NUM_GUIDES
    alpha = 0.0


def _super_gaussian(x, center, wx, out=None):
    """Guide shape exp(-((x - center)/wx)^6), written to out if given, with
    the sixth power taken as -u2*u2*u2 from u2 = ((x - center)/wx)^2 (a
    libm pow per sample costs more than the exp).  It is exactly 0.0 where
    that exponent is below _LN_TINY, so it is never subnormal, and exp runs
    only on the other samples."""
    u2 = np.asarray(np.subtract(x, center, out=out))
    np.square(np.divide(u2, wx, out=u2), out=u2)
    arg = np.negative(u2)
    arg *= u2
    arg *= u2
    u2.fill(0.0)
    return np.exp(arg, out=u2, where=arg >= _LN_TINY)


def refractive_profile(design, x, z: float):
    """Dimensionless index profile R(x, z) on a uniform increasing grid x."""
    return _GuidePotential(design, x).profile(design.Omega * z)


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
            raise ConfigError(
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
            raise ConfigError(f"nx = {self.nx} is not a power of two")
        if not 0 < self.dz < math.inf:  # NaN included
            raise ConfigError(f"need a finite dz > 0, got {self.dz}")
        if not self.x_min < self.x_max:
            raise ConfigError("need x_max > x_min")
        self.steps  # validates z_slices against dz

    @property
    def steps(self) -> np.ndarray:
        """Step count at each recorded slice.

        z_slices must start at 0, increase, and be multiples of dz, and
        the run may take at most MAX_ARRAY_ELEMENTS steps, checked first.
        """
        zs = np.asarray(self.z_slices, dtype=float)
        Z = np.abs(zs).max()
        n = Z / self.dz  # inf when it overflows
        if not n <= MAX_ARRAY_ELEMENTS:  # NaN included
            raise ConfigError(f"a run to Z = {Z:g} um at dz = {self.dz:g} um "
                              f"takes {n:g} steps, more than "
                              f"{MAX_ARRAY_ELEMENTS}")
        steps = np.rint(zs / self.dz).astype(int)
        if np.abs(steps * self.dz - zs).max() > 1e-9 * max(1.0, abs(zs[-1])):
            raise ConfigError(
                f"z_slices must be multiples of dz = {self.dz:g}")
        if steps[0] != 0 or np.any(np.diff(steps) <= 0):
            raise ConfigError("z_slices must start at 0 and increase")
        return steps

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.nx

    @property
    def xs(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)


def default_grid(design, dx: float = DEFAULT_DX, dz: float = DEFAULT_DZ,
                 num_slices: int = DEFAULT_NUM_SLICES) -> SimulationGrid:
    """Grid with >= design.domain_width, power-of-two nx, at step dx; at
    most MAX_GRID_SAMPLES x, MAX_ARRAY_ELEMENTS z and MAX_ARRAY_ELEMENTS
    steps, checked first."""
    if not 0 < dx < math.inf or num_slices < 1:  # NaN included
        raise ConfigError(f"need dx > 0, finite, and num_slices >= 1, got "
                          f"dx = {dx} and num_slices = {num_slices}")
    n = design.domain_width / dx  # inf when it overflows
    if not n <= MAX_GRID_SAMPLES:  # a power of two, so nx is capped too
        raise ConfigError(f"a grid {design.domain_width:g} um wide at dx = "
                          f"{dx:g} um holds more than {MAX_GRID_SAMPLES} "
                          "samples")
    _require_elements(num_slices + 1, f"{num_slices} slices")
    nx = 1 << max(1, math.ceil(math.log2(n)))
    half = nx * dx / 2.0
    zs = np.linspace(0.0, design.Z, num_slices + 1)
    return SimulationGrid(-half, half, nx, dz, zs)


def gaussian_input(center: float, W: float, grid: SimulationGrid):
    """Unit-L2-norm Gaussian A*exp(-(x - center)^2 / W^2).  Raises
    ConfigError unless W is positive and finite, the centre lies on the
    grid's span [x_min, x_max] and the samples of the Gaussian are not all
    zero, as they are when W is far below dx."""
    if not 0 < W < math.inf:  # NaN included
        raise ConfigError(f"W must be positive and finite, got {W}")
    if not grid.x_min <= center <= grid.x_max:
        raise ConfigError(f"input centre {center} is outside the grid "
                          f"[{grid.x_min}, {grid.x_max}]")
    x = grid.xs
    with np.errstate(over="ignore"):  # exp(-inf) is the 0 it stands for
        psi = np.exp(-((x - center) / W) ** 2).astype(complex)
    norm = np.sum(np.abs(psi) ** 2) * grid.dx
    if not norm > 0:
        raise ConfigError(f"an input of width W = {W:g} um samples to zero "
                          f"on a grid of dx = {grid.dx:g} um")
    return psi / np.sqrt(norm)


@dataclass
class FieldTrajectory:
    """A propagation run as the pump reads it: |psi|^2 at z = 0, the norm
    of each recorded slice, the complex field at the last recorded z, and
    the largest boundary power fraction seen.  The slices themselves went
    to the stepper's on_slice callback and are not kept."""

    grid: SimulationGrid
    first: np.ndarray
    norms: np.ndarray
    final: np.ndarray
    leakage_max: float


def mean_position(intensity, grid: SimulationGrid) -> float:
    """Mean transverse position <x> in um weighted by one |psi|^2 row."""
    return float(np.sum(grid.xs * intensity) / np.sum(intensity))


def lz_ratio(G1: float, Z: float) -> float:
    """Landau-Zener leakage estimate exp(-G1^2 * Z)."""
    if G1 < 0 or Z <= 0:
        raise ValueError("need G1 >= 0 and Z > 0")
    return math.exp(-G1 * G1 * Z)


class _GuidePotential:
    """R of either design on the grid x, as rows of guide windows.

    A window of W samples holds a guide's shape, which is exactly 0.0 from
    the subnormal cutoff of _super_gaussian outward.  Only the guides that
    can reach x are built, and support is the slice of x they reach.  A
    group's row is its first member's window at the drive phase, taken from
    the offsets to the guide's lattice position j*ws, exact on a dyadic
    grid, so translated to another member it differs from that member's
    own window only by rounding.  The rows act on a buffer padded by one
    window plus those guides' reach beyond x, so no window is clipped or
    wraps, through one view per group, of stride >= W, so no view overlaps
    itself.  profile() sums the rows in group order and sets R to 0.0
    wherever |R| < tiny, as a depth factor near 0 (alpha near -1) can make
    a row subnormal.
    """

    def __init__(self, design, x):
        x = np.asarray(x, dtype=float)
        steps = np.diff(x) if x.ndim == 1 else np.zeros(0)
        if not (len(steps) and steps[0] > 0
                and np.abs(steps - steps[0]).max() <= 1e-9 * steps[0]):
            raise ValueError("x must be an increasing uniform grid of at "
                             "least 2 samples")
        self.design, self.x = design, x
        self.dx = dx = steps[0]
        n = design.num_guides
        half = GUIDE_WINDOW_WIDTHS * design.wx
        # guide j sits at base_j + wm*cos(angles_j + phase)
        self.base = design.guide_indices * design.ws
        self.angles = _mod_angle(design.guide_indices, design.p,
                                 design.q) + design.phi0
        # a window from at most one sample below c - half reaches past
        # c + half with one sample to spare
        span = 2.0 * half / dx  # inf when it overflows
        _require_elements(PHASE_BLOCK * n * (span + 4),
                          f"{PHASE_BLOCK} steps of {n} guide windows "
                          f"{2.0 * half:g} um wide at dx = {dx:g} um")
        self.width = width = int(span) + 4
        # the guides whose windows meet x, a run of j reaching [lo, hi]
        reach = abs(design.wm) + half
        near = np.flatnonzero((self.base + reach >= x[0])
                              & (self.base - reach <= x[-1]))
        lo = self.base[near].min(initial=math.inf) - reach
        hi = self.base[near].max(initial=-math.inf) + reach
        self.support = slice(*np.searchsorted(x, (lo, hi), side="right"))
        pad = width + math.ceil(max(0.0, x[0] - lo, hi - x[-1]) / dx)
        self.xp = np.concatenate((x[0] - dx * np.arange(pad, 0, -1), x,
                                  x[-1] + dx * np.arange(1, pad + 1)))
        self.inner = slice(pad, pad + len(x))
        # window starts are counted from origin = xp[0] + half in one
        # subtraction: its rounding may move a start by one sample, which
        # the spare sample absorbs, as both ends of a window hold zeros
        self.origin = self.xp[0] + half
        # xp_windows[i] is the window of xp that starts at xp[i]
        self.xp_windows = np.lib.stride_tricks.sliding_window_view(self.xp,
                                                                   width)
        # guides q apart share their drive angle and depth: when q*ws/dx is
        # whole, every k-th of them, stride >= W samples apart, is a group
        stride = design.q * design.ws / dx
        if stride > 0 and stride.is_integer():
            k = -(-width // int(stride))
            period, self.stride = k * design.q, k * int(stride)
        else:
            period, self.stride = len(near), 0
        self.groups = [near[r::period]
                       for r in range(min(period, len(near)))]
        first = near[:len(self.groups)]
        self.first_base, self.first_angles = self.base[first], \
            self.angles[first]

    def rows(self, phases):
        """Window starts in the padded grid, (len(phases), groups), and
        rows depth*shape, (len(phases), groups, W), of the groups at the
        drive phases."""
        d = self.design
        cos = np.cos(self.first_angles + phases[:, None])
        shift = d.wm * cos
        # the padding keeps every window start positive, so the truncating
        # cast takes the floor
        lo = ((self.first_base + shift - self.origin) / self.dx
              ).astype(np.intp)
        rows = self.xp_windows[lo]
        rows -= self.first_base[:, None]
        _super_gaussian(rows, shift[..., None], d.wx, out=rows)
        rows *= (1.0 + d.alpha * cos)[..., None]
        return lo, rows

    def windows(self, buf):
        """One array per group of the padded buffer buf: its [i] is the
        group's (members, W) block of windows, the first starting at
        buf[i]."""
        size, W = buf.itemsize, self.width
        return [np.lib.stride_tricks.as_strided(
            buf, (len(buf) - (len(members) - 1) * self.stride - W + 1,
                  len(members), W),
            (size, self.stride * size, size)) for members in self.groups]

    def profile(self, phase: float):
        """R at the drive phase, in a new array."""
        lo, rows = self.rows(np.array([phase], dtype=float))
        R = np.zeros(len(self.xp))
        for g, windows in enumerate(self.windows(R)):
            windows[lo[0, g]] += rows[0, g]
        R = R[self.inner]
        R[np.abs(R) < _TINY] = 0.0
        return R

    def bound(self) -> float:
        """Bound on R at the samples x over every drive phase.

        The phase circle is cut into BOUND_PHASE_ARCS arcs.  Over one arc,
        guide j's centre stays in an interval it computes, so at x the guide
        adds at most its largest depth factor on the arc inside that
        interval and, outside it, that factor times its shape at the
        distance to the interval; the bound is the largest sum over the
        samples and the arcs.  With one arc each interval is j*ws +- |wm|.
        With wm == 0 every interval is the point j*ws on every arc, so the
        shapes are taken once per block of samples.  The samples are taken
        _BOUND_BLOCK at a time, so memory does not grow with the grid.
        """
        d = self.design
        arc = 2.0 * np.pi / BOUND_PHASE_ARCS
        # arc starts, one row per arc and one column per guide
        a = np.mod(self.angles + arc * np.arange(BOUND_PHASE_ARCS)[:, None],
                   2.0 * np.pi)
        # cos over [a, a + arc] spans [lo, hi]: 1 where the arc holds a
        # crest, -1 where it holds a trough, else the end values
        ends = np.cos(a), np.cos(a + arc)
        hi = np.where((a == 0.0) | (a + arc >= 2.0 * np.pi), 1.0,
                      np.maximum(*ends))
        lo = np.where((a <= np.pi) & (a + arc >= np.pi), -1.0,
                      np.minimum(*ends))
        c1, c2 = self.base + d.wm * lo, self.base + d.wm * hi
        near, far = np.minimum(c1, c2), np.maximum(c1, c2)
        depth = 1.0 + np.maximum(d.alpha * lo, d.alpha * hi)
        bound = 0.0
        xs = self.x[self.support]
        for start in range(0, len(xs), _BOUND_BLOCK):
            x = xs[start:start + _BOUND_BLOCK, None]
            for k in range(BOUND_PHASE_ARCS):
                if k == 0 or d.wm != 0.0:
                    dist = np.maximum(np.maximum(near[k] - x, x - far[k]),
                                      0.0)
                    shape = _super_gaussian(dist, 0.0, d.wx)
                bound = max(bound,
                            float((shape * depth[k]).sum(axis=1).max()))
        # profile() rounds in another order: allow 4 ulps per guide
        return bound * (1.0 + 4 * d.num_guides * np.finfo(float).eps)


def _phase_factors(t, out):
    """exp(i*theta) in out from t = theta/2, which it overwrites.

    exp(i*theta) = (1 + i*T)/(1 - i*T) = (u - 1) + i*T*u with T = tan(t)
    and u = 2/(1 + T^2): one vectorised tangent where cos and sin are two
    scalar libm calls per sample.  |theta| <= PHASE_STEP_MAX keeps T small,
    and the factor within 3 ulps of exp(i*theta) and 2 eps of unit modulus.
    """
    np.tan(t, out=t)
    u = np.multiply(t, t)
    u += 1.0
    np.divide(2.0, u, out=u)
    np.subtract(u, 1.0, out=out.real)
    np.multiply(t, u, out=out.imag)


def split_step_propagate(psi0, design, grid: SimulationGrid,
                         on_slice) -> FieldTrajectory:
    """Strang-split spectral propagation over the grid's recorded z range.

    At every entry z of grid.z_slices (multiples of dz, starting at 0; the
    grid checks this), in order, calls on_slice(z, row) with |psi|^2 at z
    in row, a read-only view of one nx float buffer that the next slice
    overwrites: a caller that keeps a row copies it.  The trajectory keeps
    the z = 0 row, the norms and the complex field of the last slice, so
    memory does not grow with the number of slices.  The boundary strips
    of width 2*ws are monitored at every recorded slice, z = 0 included:
    if any single sample there carries a power fraction above LEAKAGE_MAX
    the run raises BoundaryLeakage before that slice is handed on.  The
    drive phase at z is Omega*z.  psi0 is not modified.
    """
    x = grid.xs
    dx, dz = grid.dx, grid.dz
    if dx > design.wx / 4.0:
        raise GridUnderresolved(
            f"dx = {dx:.4g} exceeds wx/4 = {design.wx / 4:.4g}")
    pot = _GuidePotential(design, x)
    v_scale = K0 * design.gamma / N0
    if dz * abs(v_scale) * pot.bound() > PHASE_STEP_MAX:
        raise GridUnderresolved(
            f"dz = {dz:.4g} gives potential phase "
            f"{dz * abs(v_scale) * pot.bound():.3g} rad > {PHASE_STEP_MAX} "
            "per step")
    width = design.domain_width
    if grid.x_max - grid.x_min < width - 1e-9:
        warnings.warn(f"domain width {grid.x_max - grid.x_min:.0f} um below "
                      f"recommended {width:.0f} um", stacklevel=2)

    steps = grid.steps
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, dx)
    half_kin = np.exp(-1j * kx ** 2 * dz / (4.0 * K0))
    # the inverse FFTs of the steps run unscaled: the first spectrum
    # carries their 1/nx (nx is a power of two, so moving it is exact), and
    # so does merged, the trailing half step of step s and the leading one
    # of step s + 1 as one multiply
    merged = half_kin * half_kin / grid.nx
    boundary = (x < grid.x_min + 2.0 * design.ws) | \
               (x >= grid.x_max - 2.0 * design.ws)

    zs = np.asarray(grid.z_slices, dtype=float).tolist()
    row = np.empty(grid.nx)
    view = row.view()
    view.flags.writeable = False
    norms = np.empty(len(steps))
    leaks = np.empty(len(steps))
    psi = np.array(psi0, dtype=complex)

    def record(k):
        np.abs(psi, out=row)
        np.square(row, out=row)
        norms[k] = np.sum(row) * dx
        leaks[k] = row[boundary].max() * dx / norms[0]
        if leaks[k] > LEAKAGE_MAX:
            raise BoundaryLeakage(
                f"boundary power fraction {leaks[k]:.3e} > "
                f"{LEAKAGE_MAX:.1e} at z = {steps[k] * dz:.1f} um; "
                "widen the domain or shorten the run")
        on_slice(zs[k], view)

    record(0)
    first = row.copy()
    row_of_step = {n: k for k, n in enumerate(steps.tolist())}
    half_kick, Omega = v_scale * dz / 2.0, design.Omega
    # psi_k holds the spectrum between steps and the field inside one: the
    # FFTs transform it in place, where pocketfft runs the same algorithm
    # as out of place without first copying its input into out.  It is the
    # inner slice of the padded buffer the windows act on, whose padding
    # stays zero.  psi only takes the recorded slices.
    padded = np.zeros(len(pot.xp), dtype=complex)
    psi_k = padded[pot.inner]
    np.fft.fft(psi, out=psi_k, norm="forward")
    plan = list(enumerate(pot.windows(padded)))
    factor = np.empty((PHASE_BLOCK, len(pot.groups), pot.width),
                      dtype=complex)
    block = np.arange(PHASE_BLOCK)
    kin = half_kin
    for s0 in range(0, steps[-1], PHASE_BLOCK):
        # the rows at the block's mid-step phases (the last block's past
        # the run's end go unused), then their factors; the rows are freed
        # before the next block's are taken
        lo, t = pot.rows(Omega * ((block + (s0 + 0.5)) * dz))
        t *= half_kick
        _phase_factors(t, factor)
        del t
        steps_of_block = range(s0, min(s0 + PHASE_BLOCK, steps[-1]))
        for b, (s, starts) in enumerate(zip(steps_of_block, lo.tolist())):
            psi_k *= kin
            kin = merged
            np.fft.ifft(psi_k, out=psi_k, norm="forward")
            for g, windows in plan:
                windows[starts[g]] *= factor[b, g]
            np.fft.fft(psi_k, out=psi_k)
            if s + 1 in row_of_step:
                # the trailing half step alone, leaving psi_k for the next
                # step
                np.fft.ifft(np.multiply(psi_k, half_kin, out=psi), out=psi)
                record(row_of_step[s + 1])
    return FieldTrajectory(grid, first, norms, psi, float(leaks.max()))


def run_summary(trajectory: FieldTrajectory, design,
                G1: float | None = None) -> dict:
    """Summary dict for JSON export: the design, the grid, health metrics
    and the shift readout, <x> at the first and at the last recorded z and
    the Chern estimate (<x>(Z) - <x>(0)) / (q * ws) that the two give;
    lz_ratio too when the first gap G1 is given."""
    norms, grid = trajectory.norms, trajectory.grid
    x0 = mean_position(trajectory.first, grid)
    x1 = mean_position(np.square(np.abs(trajectory.final)), grid)
    out = {
        "design": type(design).__name__,
        "gamma": design.gamma,
        "Z_um": float(design.Z),
        "num_guides": design.num_guides,
        "ws_um": design.ws,
        "mean_x_start_um": x0,
        "mean_x_end_um": x1,
        "chern_estimate": (x1 - x0) / (design.q * design.ws),
        "norm_drift": float(np.abs(norms / norms[0] - 1.0).max()),
        "leakage_max": trajectory.leakage_max,
        "dx_um": grid.dx,
        "dz_um": grid.dz,
        "nx": grid.nx,
        "x_min_um": grid.x_min,
        "x_max_um": grid.x_max,
    }
    if G1 is not None:
        out["lz_ratio"] = lz_ratio(G1, design.Z)
    return out
