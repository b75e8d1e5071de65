"""1D Schrodinger evolution in hydrodynamic (R, S) form.

The wave field evolves by Strang-split spectral stepping on a periodic grid:
half a potential kick, a full kinetic step applied in Fourier space, half a
potential kick.  Each factor is unitary, so the norm is conserved to FFT
roundoff per step.  hbar and the mass are plain configuration values in
natural units; they parameterize how strongly the trajectory bundle couples
to its own density curvature.

Polar decomposition writes psi = R exp(iS/hbar).  The phase S is unwrapped
cumulatively from the leftmost unmasked point; stretches separated by nodes
(R below 1e-6 of its max) unwrap independently and therefore carry an
arbitrary gauge constant each, which is harmless because only grad S and
dS/dt enter any residual.

Discretization orders (the documented orders checked by the tests):

* spatial derivatives of R and S: 4th order (5-point central stencils;
  one-sided 4th-order stencils at array edges for the non-periodic phase)
* time derivatives in the residual operators: 2nd order (centered at the
  midpoint of two consecutive snapshots, spatial terms averaged)
* trajectory advection: explicit 2nd-order (Heun across two consecutive
  snapshots)

Residual and derived fields are reported as :class:`MaskedField`: values
plus the validity mask left after node masking and stencil-halo erosion.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .born_density import DensityModel, TabulatedDensity
from .errors import InsufficientHistory, UnstableStep
from .sampler import _write_csv, sample_positions

__all__ = [
    "Grid",
    "WaveField",
    "PolarField",
    "PotentialKind",
    "Potential",
    "MaskedField",
    "TrajectoryEnsemble",
    "NODE_THRESHOLD_REL",
    "Evolution",
    "decompose_polar",
    "quantum_potential",
    "hj_residual",
    "continuity_residual",
    "advect_trajectories",
    "classicality_check",
    "plane_wave",
    "gaussian_packet",
    "harmonic_ground_state",
    "screen_state_from_density",
    "sample_ensemble_from_field",
    "ks_distance",
    "write_polar_csv",
    "write_trajectories_csv",
]

NODE_THRESHOLD_REL = 1e-6
_STEP_NORM_DRIFT_LIMIT = 1e-9


@dataclass(frozen=True)
class Grid:
    """Periodic spatial grid plus evolution step and physical constants."""

    x_min: float
    x_max: float
    points: int
    dt: float
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.points < 16 or self.points & (self.points - 1):
            raise ValueError(f"points must be a power of two >= 16, got {self.points}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        for name in ("mass", "hbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.points

    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.points)

    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.points, self.dx)


@dataclass
class WaveField:
    """Complex field on a grid at one instant."""

    grid: Grid
    psi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (self.grid.points,):
            raise ValueError("psi length must match grid points")
        if not np.all(np.isfinite(self.psi.real)) or not np.all(np.isfinite(self.psi.imag)):
            raise ValueError("psi must be finite")
        if not self.norm() > 0:
            raise ValueError("psi norm must be positive")

    def norm(self) -> float:
        return float((np.abs(self.psi) ** 2).sum() * self.grid.dx)


@dataclass
class PolarField:
    """Amplitude R >= 0 and unwrapped action-phase S, with node mask."""

    grid: Grid
    R: np.ndarray
    S: np.ndarray
    node_mask: np.ndarray
    time: float = 0.0

    @functools.cached_property
    def velocity(self) -> np.ndarray:
        """grad(S)/m, NaN where the phase is not usable; built on first use."""
        return _velocity_field(self)


class PotentialKind(enum.Enum):
    FREE = "free"
    HARMONIC = "harmonic"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class Potential:
    """External potential V(x)."""

    kind: PotentialKind
    omega: float = 1.0
    center: float = 0.0
    values: tuple[float, ...] | None = None

    @staticmethod
    def free() -> "Potential":
        return Potential(PotentialKind.FREE)

    @staticmethod
    def harmonic(omega: float, center: float = 0.0) -> "Potential":
        if not omega > 0:
            raise ValueError("omega must be > 0")
        return Potential(PotentialKind.HARMONIC, omega=omega, center=center)

    @staticmethod
    def tabulated(values) -> "Potential":
        vals = tuple(float(v) for v in values)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("tabulated potential must be finite")
        return Potential(PotentialKind.TABULATED, values=vals)

    def on_grid(self, grid: Grid) -> np.ndarray:
        if self.kind is PotentialKind.FREE:
            return np.zeros(grid.points)
        if self.kind is PotentialKind.HARMONIC:
            d = grid.x() - self.center
            return 0.5 * grid.mass * self.omega**2 * d * d
        assert self.values is not None
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (grid.points,):
            raise ValueError("tabulated potential length must match grid points")
        return arr


@dataclass
class MaskedField:
    """Grid field defined only where ``valid`` is True."""

    values: np.ndarray
    valid: np.ndarray

    def max_norm(self) -> float:
        if not self.valid.any():
            raise ValueError("field has no valid cells")
        return float(np.abs(self.values[self.valid]).max())

    def l2_norm(self) -> float:
        """Root-mean-square over valid cells (comparable across resolutions)."""
        if not self.valid.any():
            raise ValueError("field has no valid cells")
        v = self.values[self.valid]
        return float(np.sqrt(np.mean(v * v)))


@dataclass
class TrajectoryEnsemble:
    """Equal-weight particle positions advected along grad(S)/m in storage
    order: ``positions[j]`` and ``frozen[j]`` belong to particle ``index[j]``."""

    positions: np.ndarray
    time: float = 0.0
    frozen: np.ndarray = field(default=None)  # type: ignore[assignment]
    collisions: int = 0
    index: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.size < 1:
            raise ValueError("ensemble needs at least one trajectory")
        if self.frozen is None:
            self.frozen = np.zeros(self.positions.shape, dtype=bool)
        if self.index is None:
            self.index = np.arange(self.positions.size)


# ---------------------------------------------------------------------------
# evolution

class Evolution:
    """Driver that owns a wave field and reuses the split-step phase factors."""

    def __init__(self, initial: WaveField, potential: Potential):
        self.field = initial
        self.potential = potential
        self._norm = initial.norm()
        grid = initial.grid
        self._half_kick = np.exp(-0.5j * potential.on_grid(grid) * grid.dt / grid.hbar)
        k = grid.k()
        self._kinetic = np.exp(-0.5j * grid.hbar * (k * k) * grid.dt / grid.mass)

    def step(self, n: int = 1) -> WaveField:
        """``n`` Strang-split steps.  Raises UnstableStep on norm drift > 1e-9 in one step."""
        grid = self.field.grid
        psi = self.field.psi
        t = self.field.time
        norm = self._norm  # the previous step's "after" is this step's "before"
        for _ in range(n):
            psi = self._half_kick * np.fft.ifft(self._kinetic * np.fft.fft(self._half_kick * psi))
            after = float((np.abs(psi) ** 2).sum() * grid.dx)
            drift = abs(after - norm) / norm
            if not drift <= _STEP_NORM_DRIFT_LIMIT:
                raise UnstableStep(f"norm drift {drift:.3e} in one step at t={t}")
            norm = after
            t += grid.dt
        self.field = WaveField(grid, psi, t)
        self._norm = norm
        return self.field


# ---------------------------------------------------------------------------
# polar decomposition

def _segments(valid: np.ndarray) -> list[tuple[int, int]]:
    padded = np.concatenate(([False], valid, [False]))
    jumps = np.flatnonzero(np.diff(padded.astype(np.int8)))
    return list(zip(jumps[0::2], jumps[1::2]))


def decompose_polar(w: WaveField, node_threshold_rel: float = NODE_THRESHOLD_REL) -> PolarField:
    """R = |psi|, S = hbar * unwrapped phase where R clears the node threshold."""
    r = np.abs(w.psi)
    mask = r < node_threshold_rel * r.max()
    s = np.zeros_like(r)
    angles = np.angle(w.psi)
    for a, b in _segments(~mask):
        s[a:b] = w.grid.hbar * np.unwrap(angles[a:b])
    return PolarField(w.grid, r, s, mask, w.time)


# ---------------------------------------------------------------------------
# stencils

def _derivative4(arr: np.ndarray, dx: float) -> np.ndarray:
    """4th-order first derivative, non-periodic (one-sided at the edges)."""
    n = arr.size
    out = np.empty_like(arr)
    out[2:-2] = (-arr[4:] + 8 * arr[3:-1] - 8 * arr[1:-3] + arr[:-4]) / (12 * dx)
    out[0] = (-25 * arr[0] + 48 * arr[1] - 36 * arr[2] + 16 * arr[3] - 3 * arr[4]) / (12 * dx)
    out[1] = (-3 * arr[0] - 10 * arr[1] + 18 * arr[2] - 6 * arr[3] + arr[4]) / (12 * dx)
    out[n - 2] = (3 * arr[n - 1] + 10 * arr[n - 2] - 18 * arr[n - 3]
                  + 6 * arr[n - 4] - arr[n - 5]) / (12 * dx)
    out[n - 1] = (25 * arr[n - 1] - 48 * arr[n - 2] + 36 * arr[n - 3]
                  - 16 * arr[n - 4] + 3 * arr[n - 5]) / (12 * dx)
    return out


def _laplacian4_periodic(arr: np.ndarray, dx: float) -> np.ndarray:
    """4th-order second derivative with periodic wrap."""
    return (
        -np.roll(arr, 2) + 16 * np.roll(arr, 1) - 30 * arr
        + 16 * np.roll(arr, -1) - np.roll(arr, -2)
    ) / (12 * dx * dx)


def _erode(valid: np.ndarray, radius: int) -> np.ndarray:
    out = valid.copy()
    for k in range(1, radius + 1):
        out[k:] &= valid[:-k]
        out[:-k] &= valid[k:]
    return out


def _erode_periodic(valid: np.ndarray, radius: int) -> np.ndarray:
    out = valid.copy()
    for k in range(1, radius + 1):
        out &= np.roll(valid, k) & np.roll(valid, -k)
    return out


_GRAD_HALO = 4  # one-sided edge stencils reach 4 cells inward
_ADVECT_BLOCK = 8192  # trajectories per block of advect_trajectories


# ---------------------------------------------------------------------------
# residual operators

def quantum_potential(p: PolarField) -> MaskedField:
    """Q = -(hbar^2 / 2m) * laplacian(R) / R, masked at nodes.

    Identically zero for spatially constant R (the stencil weights cancel
    exactly on a constant array)."""
    grid = p.grid
    lap = _laplacian4_periodic(p.R, grid.dx)
    valid = _erode_periodic(~p.node_mask, 2)
    q = np.zeros_like(p.R)
    q[valid] = -(grid.hbar**2 / (2.0 * grid.mass)) * lap[valid] / p.R[valid]
    return MaskedField(q, valid)


def _require_pair(p_prev: PolarField, p_next: PolarField) -> float:
    if p_prev is None or p_next is None:
        raise InsufficientHistory("two consecutive snapshots are required")
    if p_prev.grid != p_next.grid:
        raise ValueError("snapshots live on different grids")
    dt_pair = p_next.time - p_prev.time
    if not dt_pair > 0:
        raise InsufficientHistory("snapshots must be consecutive in time")
    return dt_pair


def _align_phase(s_ref: np.ndarray, s: np.ndarray, valid: np.ndarray, hbar: float) -> np.ndarray:
    """Remove per-segment 2*pi*hbar offsets of s relative to s_ref."""
    out = s.copy()
    period = 2.0 * math.pi * hbar
    for a, b in _segments(valid):
        offset = round(float(np.mean(s[a:b] - s_ref[a:b])) / period) * period
        out[a:b] -= offset
    return out


def hj_residual(p_prev: PolarField, p_next: PolarField, v: Potential) -> MaskedField:
    """Residual of dS/dt + (grad S)^2 / 2m + V + Q at the snapshot midpoint.

    dS/dt is the time-centered difference of the two snapshots (after gauge
    alignment); the spatial terms are averaged over the pair."""
    dt_pair = _require_pair(p_prev, p_next)
    grid = p_prev.grid
    vg = v.on_grid(grid)
    pair_valid = ~(p_prev.node_mask | p_next.node_mask)
    s_next = _align_phase(p_prev.S, p_next.S, pair_valid, grid.hbar)
    ds_dt = (s_next - p_prev.S) / dt_pair

    spatial = np.zeros(grid.points)
    valid = pair_valid.copy()
    for p in (p_prev, p_next):
        grad_s = _derivative4(p.S, grid.dx)
        q = quantum_potential(p)
        spatial += 0.5 * (grad_s * grad_s / (2.0 * grid.mass) + vg + q.values)
        valid &= _erode(~p.node_mask, _GRAD_HALO) & q.valid
    res = np.where(valid, ds_dt + spatial, 0.0)
    return MaskedField(res, valid)


def continuity_residual(p_prev: PolarField, p_next: PolarField,
                        normalized: bool = False) -> MaskedField:
    """Residual of d(R^2)/dt + div(R^2 grad(S)/m) at the snapshot midpoint.

    The raw residual is linear in R^2, so it scales with the density;
    ``normalized`` divides by the larger of the two term magnitudes, giving
    a scale-free figure for dynamically nontrivial fields.
    """
    dt_pair = _require_pair(p_prev, p_next)
    grid = p_prev.grid
    r2_prev = p_prev.R * p_prev.R
    r2_next = p_next.R * p_next.R
    dr2_dt = (r2_next - r2_prev) / dt_pair

    div = np.zeros(grid.points)
    valid = np.ones(grid.points, dtype=bool)
    for p, r2 in ((p_prev, r2_prev), (p_next, r2_next)):
        flux = r2 * _derivative4(p.S, grid.dx) / grid.mass
        div += 0.5 * _derivative4(flux, grid.dx)
        valid &= _erode(~p.node_mask, 2 * _GRAD_HALO)
    res = np.where(valid, dr2_dt + div, 0.0)
    if normalized:
        scale = max(
            float(np.abs(dr2_dt[valid]).max()) if valid.any() else 0.0,
            float(np.abs(div[valid]).max()) if valid.any() else 0.0,
        )
        if scale > 0:
            res = res / scale
    return MaskedField(res, valid)


def classicality_check(p: PolarField, tol: float) -> tuple[bool, MaskedField]:
    """True iff max|laplacian R| * L^2 / max R stays below ``tol``.

    L is the domain length, making the figure dimensionless and independent
    of grid resolution; spatially constant R passes at any positive tol.
    """
    grid = p.grid
    lap = _laplacian4_periodic(p.R, grid.dx)
    valid = _erode_periodic(~p.node_mask, 2)
    scale = grid.length**2 / float(p.R.max())
    diag = np.where(valid, np.abs(lap) * scale, 0.0)
    metric = float(diag[valid].max()) if valid.any() else 0.0
    return metric < tol, MaskedField(diag, valid)


# ---------------------------------------------------------------------------
# trajectories

def _velocity_field(p: PolarField) -> np.ndarray:
    """grad(S)/m with NaN in cells where the phase is not usable."""
    grid = p.grid
    v = _derivative4(p.S, grid.dx) / grid.mass
    valid = _erode(~p.node_mask, _GRAD_HALO)
    return np.where(valid, v, np.nan)


def advect_trajectories(e: TrajectoryEnsemble, p: PolarField,
                        p_next: PolarField) -> TrajectoryEnsemble:
    """Advance every active trajectory one step along the interpolated velocity.

    The step is Heun across the two snapshots (2nd order in time).
    Trajectories whose step would read velocity inside the node mask (or
    leave the domain) are frozen in place and counted as collisions.

    Trajectories are taken ``_ADVECT_BLOCK`` at a time in storage order and
    written straight into the result.  ``np.interp`` is fastest on ascending
    queries; a sampled ensemble is stored ascending and 1D trajectories along
    grad(S)/m do not cross, so it stays ascending with no per-step sort.  Every
    result is elementwise, so each particle moves exactly as it would alone.
    The arithmetic runs in place (the probe in the result's slots) with the
    IEEE operations, in order, of ``p0 + dt*k1`` and ``p0 + 0.5*dt*(k1 + k2)``;
    the freeze mask is built only for a block with a frozen member or a step
    leaving the domain (NaN too), as elsewhere it would be all False.  Neither
    moves a byte.
    """
    grid = p.grid
    if p_next.grid != grid:
        raise ValueError("snapshots live on different grids")
    dt_step = p_next.time - p.time
    if not dt_step > 0:
        raise ValueError("snapshots must advance in time")
    x = grid.x()
    v_now, v_then = p.velocity, p_next.velocity  # each snapshot's field once

    pos = np.empty_like(e.positions)
    frozen = e.frozen.copy()
    collisions = e.collisions
    for start in range(0, pos.size, _ADVECT_BLOCK):
        p0 = e.positions[start:start + _ADVECT_BLOCK]
        p1 = pos[start:start + _ADVECT_BLOCK]
        stuck = frozen[start:start + _ADVECT_BLOCK]
        k1 = np.interp(p0, x, v_now)
        np.multiply(k1, dt_step, out=p1)  # the probe, in the result's slots
        p1 += p0
        k2 = np.interp(p1, x, v_then)
        np.add(k1, k2, out=p1)
        p1 *= 0.5 * dt_step
        p1 += p0
        if stuck.any() or not (grid.x_min <= p1.min() and p1.max() <= grid.x_max):
            bad = ~((p1 >= grid.x_min) & (p1 <= grid.x_max)) & ~stuck  # NaN and +-inf too
            collisions += int(np.count_nonzero(bad))
            stuck |= bad
            np.copyto(p1, p0, where=stuck)
    return TrajectoryEnsemble(pos, e.time + dt_step, frozen, collisions, e.index)


def sample_ensemble_from_field(p: PolarField, count: int, seed: int) -> TrajectoryEnsemble:
    """Born-distributed draws against R^2 on the grid, stored ascending, labelled by draw."""
    density = TabulatedDensity(p.grid.x(), p.R * p.R)
    positions = sample_positions(density, density.support, count, seed)
    order = np.argsort(positions)  # labels travel with positions, so ties need no stable sort
    return TrajectoryEnsemble(positions[order], p.time, index=order)


def ks_distance(e: TrajectoryEnsemble, p: PolarField) -> float:
    """Kolmogorov-Smirnov distance between the ensemble and R^2 on the grid."""
    x = p.grid.x()
    r2 = p.R * p.R
    seg = 0.5 * (r2[1:] + r2[:-1]) * np.diff(x)
    cdf = np.concatenate([[0.0], np.cumsum(seg)])
    cdf /= cdf[-1]
    pos = np.sort(e.positions)
    f = np.interp(pos, x, cdf)
    m = pos.size
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(max(np.abs(hi - f).max(), np.abs(f - lo).max()))


# ---------------------------------------------------------------------------
# initial states

def plane_wave(grid: Grid, k_index: int = 8) -> WaveField:
    """exp(ikx) with k commensurate with the periodic box."""
    k = 2.0 * math.pi * k_index / grid.length
    return WaveField(grid, np.exp(1j * k * grid.x()), 0.0)


def gaussian_packet(grid: Grid, center: float = 0.0, sigma: float = 1.0,
                    k_index: int = 0) -> WaveField:
    """Normalized Gaussian with position spread ``sigma``, optional drift."""
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    x = grid.x()
    k = 2.0 * math.pi * k_index / grid.length
    envelope = (2.0 * math.pi * sigma**2) ** (-0.25) * np.exp(
        -((x - center) ** 2) / (4.0 * sigma**2)
    )
    return WaveField(grid, envelope * np.exp(1j * k * x), 0.0)


def harmonic_ground_state(grid: Grid, omega: float, center: float = 0.0) -> WaveField:
    """Stationary ground state of the harmonic well (energy hbar*omega/2)."""
    a = grid.mass * omega / grid.hbar
    x = grid.x()
    psi = (a / math.pi) ** 0.25 * np.exp(-0.5 * a * (x - center) ** 2)
    return WaveField(grid, psi.astype(complex), 0.0)


def screen_state_from_density(grid: Grid, d: DensityModel) -> WaveField:
    """sqrt(density) with zero phase: the screen field of the two-slit pattern."""
    vals = d.evaluate(grid.x())
    return WaveField(grid, np.sqrt(np.maximum(vals, 0.0)).astype(complex), 0.0)


# ---------------------------------------------------------------------------
# snapshot I/O

def write_polar_csv(p: PolarField, path) -> None:
    _write_csv(path, ("x", "R", "S", "node_mask"), (p.grid.x(), p.R, p.S, p.node_mask.astype(int)))


def write_trajectories_csv(e: TrajectoryEnsemble, path) -> None:
    x = np.empty(e.positions.size)
    x[e.index] = e.positions  # back to label order
    _write_csv(path, ("index", "x"), (np.arange(x.size), x))
