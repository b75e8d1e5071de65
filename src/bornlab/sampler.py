"""Deterministic detection-event generation from any density.

PRNG contract: streams come from numpy's PCG64 bit generator seeded with the
64-bit seed value (``np.random.Generator(np.random.PCG64(seed))``).  The
algorithm name is part of this module's compatibility contract; changing it
requires a version bump, since reports are expected to replicate
byte-identically from (config, seed).

Sampling inverts the Born CDF table of :mod:`born_density` (the table that
also serves ``cdf`` and ``cdf_at_points``) by safeguarded Newton iteration.
Each uniform draw ``u`` is bracketed into one panel by binary search on the
table's cumulative masses and starts from linear interpolation of ``u``
across that panel.  Each pass evaluates the table's within-panel CDF
``F(x) = cum[k] + partial(knot[k], x)``, stops once ``|F(x) - u| <= 1e-10``,
shrinks the bracket to the side of ``x`` that holds the root, and takes the
next point by the rule below.  The slope is ``f = density / total mass``, the
derivative of that CDF.

==========================================  ==========================
at the current point                        next point
==========================================  ==========================
``f`` positive and finite, and the Newton   ``x - (F(x) - u) / f``
step lands strictly inside the bracket
``f`` zero (a null), negative, NaN or       bracket midpoint
infinite, or the step leaves the bracket
==========================================  ==========================

If a bracket collapses to adjacent floats before the CDF tolerance is met
(the CDF climbs more than the tolerance between neighboring float values),
the draw resolves to the current point, which lies inside that bracket.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .berry_esseen import BinningScheme, EmpiricalHistogram, Origin
from .born_density import DensityModel, _cdf_table
from .errors import DegenerateState, EmptyFile, OutOfInterval, ParseError
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig

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

CDF_VALUE_TOL = 1e-10


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PCG64 stream for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def _next_point(table, x, diff, lo, hi) -> np.ndarray:
    """The Newton step ``x - (F(x) - u) / f(x)`` where it lands strictly inside
    (lo, hi), else the bracket midpoint.  ``x`` is the bracket end away from
    the root, so an f that is zero, negative, NaN or infinite puts the step at
    or beyond that end, or makes it NaN: the one bracket test covers every
    fallback case.  Its temporaries die on return, so they are
    not held through the next pass."""
    slope = table.density.evaluate(x) / table.total
    with np.errstate(divide="ignore", invalid="ignore"):
        step = x - diff / slope
    return np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))


def _invert(table, u: np.ndarray) -> np.ndarray:
    knots, cum = table.knots, table.cum
    # cum[k] <= u < cum[k + 1], so the panel has positive mass
    idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(knots) - 2)
    start = lo = knots[idx]  # lo is rebound, never written in place
    hi = knots[idx + 1]
    offset = cum[idx] - u  # F(x) - u = offset + partial(start, x)
    x = lo - offset / (cum[idx + 1] - cum[idx]) * (hi - lo)
    out = np.empty_like(u)
    slot = np.arange(u.size)
    eps = np.finfo(float).eps
    # a midpoint pass halves the bracket and a Newton pass lands strictly
    # inside it; draws finish within a handful of passes, 200 bound the loop
    for _ in range(200):
        if slot.size == 0:
            break
        diff = offset + table.partial(start, x)
        converged = np.abs(diff) <= CDF_VALUE_TOL
        collapsed = (hi - lo) <= 4 * eps * np.maximum(np.abs(hi), 1.0)
        finished = converged | collapsed
        if finished.any():
            out[slot[finished]] = x[finished]
            keep = ~finished
            start, lo, hi, offset = start[keep], lo[keep], hi[keep], offset[keep]
            x, diff, slot = x[keep], diff[keep], slot[keep]
        go_right = diff < 0
        lo = np.where(go_right, x, lo)
        hi = np.where(go_right, hi, x)
        x = _next_point(table, x, diff, lo, hi)
    if slot.size:
        out[slot] = x
    return out


def inverse_cdf_sample(d: DensityModel, iv: Interval, u,
                       cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Position x with cdf(x) = u to 1e-10 in CDF value.

    Accepts a scalar or an ndarray of uniforms in [0, 1); u = 0 maps to
    iv.lo exactly.  Each draw is inverted independently, so a batch gives
    the same results as one call per element.  Draws whose u differ by more
    than 2e-10 come out in the order of their u (the CDF is nondecreasing
    and each result is within 1e-10 of its u); closer draws may swap places.
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


def _bin_counts(block: np.ndarray, scheme: BinningScheme) -> np.ndarray:
    """The rows x bins count matrix of a rows x N position block, in ascending
    bin order whatever the scheme's origin: one ``searchsorted`` over the
    block, then one ``bincount`` with each row offset by ``row * bins``.
    ``OutOfInterval.indices`` are flat indices into the block."""
    iv = scheme.interval
    bad = np.flatnonzero(~iv.contains(block))
    if bad.size:
        raise OutOfInterval(
            f"{bad.size} event(s) outside [{iv.lo}, {iv.hi}]", indices=bad.tolist()
        )
    rows, bins = block.shape[0], scheme.bin_count
    idx = np.clip(np.searchsorted(scheme.edges(), block, side="right") - 1, 0, bins - 1)
    idx += np.arange(0, rows * bins, bins)[:, None]
    return np.bincount(idx.ravel(), minlength=rows * bins).reshape(rows, bins)


def bin_positions(positions: Sequence[float], scheme: BinningScheme) -> EmpiricalHistogram:
    """Bin raw positions.  Half-open bins, boundary to the higher ascending
    index, last bin closed; ``from_b`` relabels the same physical bins in
    reverse order, so flipping orientation reverses the counts exactly."""
    pos = np.asarray(positions, dtype=float).reshape(1, -1)
    counts = _bin_counts(pos, scheme)[0]
    if scheme.origin is Origin.FROM_B:
        counts = counts[::-1]
    return EmpiricalHistogram(scheme, tuple(counts.tolist()), pos.shape[1])


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


def _write_index_csv(values: Sequence[float], column: str, path) -> None:
    """Header ``index,<column>``, then one ``i,repr(float(x))`` row per value,
    every line ending in CRLF: the bytes a ``csv.writer`` loop writes.  Rows
    are joined 4,096 at a time, so memory does not grow with the file."""
    xs = np.asarray(values, dtype=float)
    with atomic_open(path) as fh:
        fh.write(f"index,{column}\r\n")
        for start in range(0, xs.size, 4096):
            block = enumerate(xs[start:start + 4096].tolist(), start)
            fh.write("".join([f"{i},{x!r}\r\n" for i, x in block]))


def write_events_csv(positions: Sequence[float], path) -> None:
    """Export with header ``index,t_mm`` (also the real-data ingestion format);
    the index is the row's detection order, starting at 0."""
    _write_index_csv(positions, "t_mm", path)


def read_events_csv(path) -> np.ndarray:
    """Parse an ``index,t_mm`` file into positions in row order.  The index
    column is only checked to hold integers: duplicates and ordering are not
    checked, and rows are used in file order."""
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
