"""Deterministic detection-event generation from any density.

PRNG contract: streams come from numpy's PCG64 bit generator seeded with the
64-bit seed value (``np.random.Generator(np.random.PCG64(seed))``).  The
algorithm name is part of this module's compatibility contract; changing it
requires a version bump, since reports are expected to replicate
byte-identically from (config, seed).

Sampling inverts the quadrature CDF by bisection.  A CDF table on a 4096-knot
grid (plus the density's advertised breakpoints) acts as the bracket
accelerator: each uniform draw is bracketed into one panel by binary search
on the table, then bisected against the exact CDF until the CDF value matches
the draw to 1e-10.  Within-panel partial integrals use a fixed Gauss-Legendre
rule whose adequacy is verified against the adaptive integrator when the
table is built (the rule is escalated if the check fails), so the bisection
target is the quadrature CDF itself, not an interpolation.

If a bracket collapses to adjacent floats before the CDF tolerance is met
(the CDF climbs more than the tolerance between neighboring float values),
the draw resolves to the bracket midpoint.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .berry_esseen import BinningScheme, EmpiricalHistogram, Origin
from .born_density import DensityModel, total_mass
from .errors import DegenerateState, EmptyFile, OutOfInterval, ParseError
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig, integrate_with_breakpoints

__all__ = [
    "rng_from_seed",
    "inverse_cdf_sample",
    "sample_positions",
    "bin_positions",
    "discrete_frequencies",
    "atomic_open",
    "write_events_csv",
    "read_events_csv",
]

CDF_TABLE_KNOTS = 4096
CDF_VALUE_TOL = 1e-10


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PCG64 stream for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


class _CdfTable:
    """Panel grid with exact cumulative masses, shared via the density memo."""

    def __init__(self, d: DensityModel, iv: Interval, cfg: QuadratureConfig):
        base = np.linspace(iv.lo, iv.hi, CDF_TABLE_KNOTS)
        extra = np.asarray(d.subdivision_points(iv), dtype=float)
        self.knots = np.unique(np.concatenate([base, extra]))
        self.density = d
        reference = total_mass(d, iv, cfg)
        for order in (3, 7, 15, 31):
            gx, gw = np.polynomial.legendre.leggauss(order)
            self._gx, self._gw = gx, gw
            masses = self._panel_masses()
            total = float(masses.sum())
            if abs(total - reference) <= max(1e-9 * abs(reference), 10 * cfg.abs_tol):
                break
        else:
            # density rougher than any fixed rule: fall back to adaptive panels
            masses = np.array([
                integrate_with_breakpoints(d.evaluate, Interval(a, b), (), cfg)
                for a, b in zip(self.knots[:-1], self.knots[1:])
            ])
            total = float(masses.sum())
        self.total = total
        cum = np.concatenate([[0.0], np.cumsum(masses)]) / total
        cum[-1] = 1.0
        self.cum = cum

    def _panel_masses(self) -> np.ndarray:
        lo, hi = self.knots[:-1], self.knots[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid[None, :] + half[None, :] * self._gx[:, None]
        return (self.density.evaluate(nodes) * self._gw[:, None]).sum(axis=0) * half

    def partial(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Normalized integral of the density from a to b, elementwise."""
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[None, :] + half[None, :] * self._gx[:, None]
        vals = (self.density.evaluate(nodes) * self._gw[:, None]).sum(axis=0) * half
        return vals / self.total


def _cdf_table(d: DensityModel, iv: Interval, cfg: QuadratureConfig) -> _CdfTable:
    return d.memo(("cdf_table", iv.lo, iv.hi, cfg), lambda: _CdfTable(d, iv, cfg))


def _invert(table: _CdfTable, u: np.ndarray) -> np.ndarray:
    knots, cum = table.knots, table.cum
    idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(knots) - 2)
    xlo = knots[idx].copy()
    xhi = knots[idx + 1].copy()
    flo = cum[idx].copy()
    target = u.copy()
    out = np.empty_like(u)
    slot = np.arange(u.size)
    eps = np.finfo(float).eps
    # bracket mass halves each pass; 200 passes bottoms out any float bracket
    for _ in range(200):
        if slot.size == 0:
            break
        xm = 0.5 * (xlo + xhi)
        fm = flo + table.partial(xlo, xm)
        diff = fm - target
        converged = np.abs(diff) <= CDF_VALUE_TOL
        collapsed = (xhi - xlo) <= 4 * eps * np.maximum(np.abs(xhi), 1.0)
        finished = converged | collapsed
        if finished.any():
            # xm is also the midpoint-rule answer for a collapsed bracket
            out[slot[finished]] = xm[finished]
            keep = ~finished
            xlo, xhi, flo = xlo[keep], xhi[keep], flo[keep]
            target, slot = target[keep], slot[keep]
            xm, fm, diff = xm[keep], fm[keep], diff[keep]
        go_right = diff < 0
        xlo = np.where(go_right, xm, xlo)
        flo = np.where(go_right, fm, flo)
        xhi = np.where(go_right, xhi, xm)
    if slot.size:
        out[slot] = 0.5 * (xlo + xhi)
    return out


def inverse_cdf_sample(d: DensityModel, iv: Interval, u,
                       cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Position x with cdf(x) = u to 1e-10 in CDF value; monotone in u.

    Accepts a scalar or an ndarray of uniforms in [0, 1); u = 0 maps to
    iv.lo exactly.
    """
    scalar = np.isscalar(u)
    uu = np.atleast_1d(np.asarray(u, dtype=float))
    if np.any((uu < 0.0) | (uu >= 1.0)):
        raise ValueError("u must lie in [0, 1)")
    table = _cdf_table(d, iv, cfg)
    out = _invert(table, uu)
    out[uu == 0.0] = iv.lo
    return float(out[0]) if scalar else out


def sample_positions(d: DensityModel, iv: Interval, n: int, seed: int,
                     cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """n i.i.d. draws from the normalized density, deterministic per seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.empty(0, dtype=float)
    u = rng_from_seed(seed).random(n)
    return np.asarray(inverse_cdf_sample(d, iv, u, cfg))


def bin_positions(positions: Sequence[float], scheme: BinningScheme) -> EmpiricalHistogram:
    """Bin raw positions.  Half-open bins, boundary to the higher ascending
    index, last bin closed; ``from_b`` relabels the same physical bins in
    reverse order, so flipping orientation reverses the counts exactly."""
    pos = np.asarray(positions, dtype=float)
    iv = scheme.interval
    bad = np.flatnonzero(~iv.contains(pos))
    if bad.size:
        raise OutOfInterval(
            f"{bad.size} event(s) outside [{iv.lo}, {iv.hi}]", indices=bad.tolist()
        )
    edges = scheme.edges()
    idx = np.clip(np.searchsorted(edges, pos, side="right") - 1, 0, scheme.bin_count - 1)
    counts = np.bincount(idx, minlength=scheme.bin_count)
    if scheme.origin is Origin.FROM_B:
        counts = counts[::-1]
    return EmpiricalHistogram(scheme, tuple(int(c) for c in counts), int(pos.size))


def discrete_frequencies(amplitudes: Sequence, n: int, seed: int) -> list[tuple[int, float]]:
    """Categorical outcome counts and frequencies for squared-amplitude weights.

    Probabilities are the normalized squared moduli, so amplitudes may be
    complex or plain non-negative weights.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    amps = np.asarray(amplitudes, dtype=complex)
    weights = np.abs(amps) ** 2
    total = weights.sum()
    if not total > 0:
        raise DegenerateState("all amplitudes are zero")
    p = weights / total
    counts = rng_from_seed(seed).multinomial(n, p)
    return [(int(c), float(c) / n) for c in counts]


@contextmanager
def atomic_open(path):
    """Text file handle on a temporary sibling of ``path``, moved onto ``path``
    when the block exits cleanly.  If the block raises, the temporary file is
    removed and an existing ``path`` is left untouched."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_events_csv(positions: Sequence[float], path) -> None:
    """Export with header ``index,t_mm`` (also the real-data ingestion format);
    the index is the row's detection order, starting at 0."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "t_mm"])
        for i, x in enumerate(positions):
            writer.writerow([i, repr(float(x))])


def read_events_csv(path) -> np.ndarray:
    """Parse an ``index,t_mm`` file into positions in row order.  The index
    column must hold integers; its values are otherwise not used."""
    out: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file", line=1)
        if [h.strip() for h in header] != ["index", "t_mm"]:
            raise ParseError(f"{path}: expected header 'index,t_mm'", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}: expected 2 columns", line=lineno)
            try:
                int(row[0])
                out.append(float(row[1]))
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}", line=lineno) from exc
    if not out:
        raise EmptyFile(f"{path}: no data rows")
    return np.array(out)
