"""Deterministic detection-event generation from any density.

PRNG contract: streams come from numpy's PCG64 bit generator seeded with the
64-bit seed value (``np.random.Generator(np.random.PCG64(seed))``).  The
algorithm name is part of this module's compatibility contract; changing it
requires a version bump, since reports are expected to replicate
byte-identically from (config, seed).

Sampling inverts the Born CDF table of :mod:`born_density`, whose module
notes describe the inversion.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Sequence

import numpy as np

from .berry_esseen import BinningScheme
from .born_density import DensityModel, _cdf_table, _number, _read_csv
from .errors import DegenerateState, OutOfInterval
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig

__all__ = [
    "rng_from_seed",
    "inverse_cdf_sample",
    "sample_positions",
    "bin_counts",
    "discrete_frequencies",
    "atomic_open",
    "write_events_csv",
    "read_events_csv",
]


def rng_from_seed(seed: int) -> np.random.Generator:
    """The package-wide PCG64 stream for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(seed))


def inverse_cdf_sample(d: DensityModel, iv: Interval, u,
                       cfg: QuadratureConfig = DEFAULT_QUADRATURE):
    """Position x with cdf(x) = u to 1e-10 in CDF value.

    Accepts a scalar (gives a float) or an ndarray of uniforms in [0, 1) of
    any shape (gives an array of that shape); u = 0 maps to iv.lo exactly.
    Each draw is inverted independently and lands at its own index, so a
    batch in any order gives the same bits as one call per element.  Draws
    whose u differ by more than 2e-10 come out in the order of their u (the
    CDF is nondecreasing and each result is within 1e-10 of its u); closer
    draws may swap places.
    """
    scalar = np.isscalar(u)
    uu = np.asarray(u, dtype=float)
    if not np.all((uu >= 0.0) & (uu < 1.0)):  # NaN fails both
        raise ValueError("u must lie in [0, 1)")
    flat = uu.ravel()
    out = _cdf_table(d, iv, cfg).invert(flat)
    out[flat == 0.0] = iv.lo
    return float(out[0]) if scalar else out.reshape(uu.shape)


def sample_positions(d: DensityModel, iv: Interval, n: int, seed: int,
                     cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """n i.i.d. draws from the normalized density, deterministic per seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.empty(0, dtype=float)
    return inverse_cdf_sample(d, iv, rng_from_seed(seed).random(n), cfg)


_BIN_BLOCK = 16384  # events per pass of bin_counts


def bin_counts(block: np.ndarray, scheme: BinningScheme) -> np.ndarray:
    """The rows x bins count matrix of a rows x N position block, in ascending
    bin order.  Bins are half-open, an event on an edge goes to the higher bin
    and the last bin is closed: the bin is ``searchsorted(edges, x,
    side="right") - 1``, clipped to the bins.  ``OutOfInterval.indices`` are
    flat indices into the block.

    Each event's bin is guessed by arithmetic, ``(x - lo) * bins / (hi - lo)``
    truncated and clipped, and kept where ``edges[k] <= x < edges[k + 1]`` (or
    ``k`` is the last bin and ``edges[k] <= x``): for ascending edges no other
    bin passes that check, and ``searchsorted`` gives that bin.  The events that fail the check (rounding at an edge, a width too small or
    too large for the arithmetic) are placed by ``searchsorted``.  The block is
    binned ``_BIN_BLOCK`` events at a time, so the temporaries stay small, and
    counted by one ``bincount`` with each row offset by ``row * bins``."""
    iv = scheme.interval
    bad = np.flatnonzero(~iv.contains(block))
    if bad.size:
        raise OutOfInterval(
            f"{bad.size} event(s) outside [{iv.lo}, {iv.hi}]", indices=bad.tolist()
        )
    rows, bins = block.shape[0], scheme.bin_count
    edges = scheme.edges()
    upper = np.append(edges[1:-1], np.inf)  # each bin's upper edge; the last bin is closed
    idx = np.empty(block.shape, dtype=np.intp)
    flat, flat_idx = block.ravel(), idx.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):  # a garbage guess fails the check
        scale = np.float64(bins) / (np.float64(iv.hi) - iv.lo)
        for start in range(0, flat.size, _BIN_BLOCK):
            x, k = flat[start:start + _BIN_BLOCK], flat_idx[start:start + _BIN_BLOCK]
            np.clip(((x - iv.lo) * scale).astype(np.intp), 0, bins - 1, out=k)
            miss = np.flatnonzero((edges[k] > x) | (x >= upper[k]))
            if miss.size:
                k[miss] = np.clip(np.searchsorted(edges, x[miss], side="right") - 1, 0, bins - 1)
    idx += np.arange(0, rows * bins, bins)[:, None]
    return np.bincount(flat_idx, minlength=rows * bins).reshape(rows, bins)


def discrete_frequencies(amplitudes: Sequence, n: int, seed: int) -> list[tuple[int, float]]:
    """Categorical outcome counts and frequencies for squared-amplitude weights.

    Probabilities are the normalized squared moduli, so amplitudes may be
    complex or plain non-negative weights.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    amps = np.asarray(amplitudes, dtype=complex)
    bad = np.flatnonzero(~np.isfinite(amps))
    if bad.size:
        raise ValueError(f"amplitudes[{bad[0]}] is not a finite number")
    moduli = np.abs(amps)
    top = moduli.max(initial=0.0)
    if not top > 0:
        raise DegenerateState("all amplitudes are zero")
    # scaled by the largest modulus before squaring, so no weight overflows
    # and the largest is exactly 1
    weights = (moduli / top) ** 2
    p = weights / weights.sum()
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


def _write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Header ``header``, then one row per index of the equal-length
    ``columns``, each value the ``repr`` of its Python int or float and every
    line ending in CRLF: the bytes a ``csv.writer`` loop writes.  Rows are
    joined 4,096 at a time, so memory does not grow with the file."""
    with atomic_open(path) as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), 4096):
            cells = [map(repr, c[start:start + 4096].tolist()) for c in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def write_events_csv(positions: Sequence[float], path) -> None:
    """Export with header ``index,t_mm`` (also the real-data ingestion format);
    the index is the row's detection order, starting at 0."""
    xs = np.asarray(positions, dtype=float)
    _write_csv(path, ("index", "t_mm"), (np.arange(xs.size), xs))


def _event(row) -> float:
    _number(row[0], int)
    return _number(row[1])


_PLAIN_BYTES = b"0123456789+-.eE,\r\n"  # all a plain events file holds after its header


def _plain_events(path) -> np.ndarray | None:
    """The ``t_mm`` column of a plain events file (header ``index,t_mm``, a
    line end, then only ``_PLAIN_BYTES``) in one ``np.loadtxt`` pass, else
    None.  Other bytes (quotes, whitespace, ``_``, ``nan``, non-ASCII) are where
    ``np.loadtxt`` and ``int``/``float`` could disagree; a row ``np.loadtxt``
    rejects or a warning (a file with no data rows) also gives None."""
    with open(path, "rb") as fh:
        if fh.read(11) not in (b"index,t_mm\n", b"index,t_mm\r"):
            return None
        while chunk := fh.read(1 << 20):
            if chunk.translate(None, _PLAIN_BYTES):
                return None
    with open(path, newline="") as fh, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(fh, dtype=[("index", np.int64), ("t_mm", float)], delimiter=",",
                              comments=None, skiprows=1, ndmin=1)
        except (ValueError, Warning):
            return None
    return np.ascontiguousarray(rows["t_mm"])


def read_events_csv(path) -> np.ndarray:
    """Parse an ``index,t_mm`` file into positions in row order.  The index
    column is only checked to hold integers: duplicates and ordering are not
    checked, and rows are used in file order.

    A plain file (digits, ``+-.eE``, commas and line ends after the header) is
    parsed in one vectorized pass.  Any other file, or a plain one that pass
    rejects, goes through the row parser ``born_density._read_csv``, which
    gives the same result and raises every error with its line number."""
    positions = _plain_events(path)
    return np.array(_read_csv(path, ("index", "t_mm"), _event)) if positions is None else positions
