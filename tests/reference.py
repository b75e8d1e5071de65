"""Definition-level empirical CDF, the check from outside the block API.

A histogram holds its counts in origin order (bin 1 nearest its origin), and
its CDF at a point is read off the definition: the fraction of events in
whole bins at or before that point.  Nothing here imports the block
helpers of ``bornlab.sampler`` or ``bornlab.berry_esseen``, so the tests can
compare them against it.
"""

from dataclasses import dataclass

import numpy as np

from bornlab.berry_esseen import BinningScheme, Origin
from bornlab.errors import EmptyHistogram


@dataclass(frozen=True)
class EmpiricalHistogram:
    """Binned detection counts, indexed from the origin (bin 1 nearest it)."""

    scheme: BinningScheme
    origin: Origin
    counts: tuple[int, ...]
    total_N: int

    def __post_init__(self):
        if len(self.counts) != self.scheme.bin_count:
            raise ValueError("counts length must equal bin_count")
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be >= 0")
        if sum(self.counts) != self.total_N:
            raise ValueError("counts must sum to total_N")


def empirical_cdf(h: EmpiricalHistogram, x: float) -> float:
    """Fraction of events in whole bins at or before ``x``, counted from the origin.

    A step function, right-continuous at bin edges.  ``from_b`` accumulates
    whole bins from the opposite end, so at any shared edge the two
    orientations sum to exactly 1.
    """
    if h.total_N < 1:
        raise EmptyHistogram("histogram holds no events")
    iv = h.scheme.interval
    if not iv.contains(x):
        raise ValueError(f"x={x} outside the scheme interval [{iv.lo}, {iv.hi}]")
    edges = h.scheme.edges()
    cum = np.cumsum(h.counts)
    if h.origin is Origin.FROM_A:
        # whole bins with right edge <= x
        j = int(np.searchsorted(edges[1:], x, side="right"))
    else:
        # whole bins with left edge >= x
        j = h.scheme.bin_count - int(np.searchsorted(edges[:-1], x, side="left"))
    return 0.0 if j == 0 else float(cum[j - 1]) / h.total_N
