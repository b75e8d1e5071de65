"""Both sides of the Born-frequency convergence inequality, with verdicts.

The left-hand side is the sup over bin edges of |binned empirical CDF -
normalized theoretical CDF|.  The right-hand side is

    C * (int |t|^3 rho dt) * (int rho dt)^(1/2) / (int t^2 rho dt)^(3/2)

with t measured from the distribution center, C the Zolotarev lower-bound
constant (3 + sqrt(10)) / (6 sqrt(2 pi)) or its +16% slack variant.  The
ratio of raw integrals equals the normalized third absolute moment over
sigma^3, so the bound is invariant under rescaling the density.  The three
integrals are rule sums of the CDF table over the moment window
(:meth:`born_density._CdfTable.moments`), the table whose CDF the left-hand
side reads at the default window: one rule gives the CDF, the samples and the
moments.

Two normalization variants of the right-hand side are computed: the literal
form with no N dependence, and the classical form carrying an extra
1/sqrt(N).  Verdicts are reported for all four (constant x normalization)
combinations; nothing is silently "fixed" either way.

The API works on blocks, one histogram being a 1 x bins block:
:func:`sup_deviations` gives each count-matrix row's sup at the bin edges (exact
up to within-bin mass), :func:`literal_rhs` a run's right-hand sides and
:func:`bound_reports` a block's sups with the four right-hand sides and the
verdicts as nine array columns, which :mod:`harness` gathers into its report's
columns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .born_density import DensityModel, _cdf_table
from .errors import EmptyHistogram, ZeroVariance
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig

__all__ = [
    "zolotarev_constant",
    "BoundConstantVariant",
    "Origin",
    "BinningScheme",
    "sup_deviations",
    "raw_moments",
    "bound_rhs",
    "literal_rhs",
    "bound_reports",
]


def zolotarev_constant() -> float:
    """Greatest lower bound for the Berry-Esseen constant, ~0.409732."""
    return (3.0 + math.sqrt(10.0)) / (6.0 * math.sqrt(2.0 * math.pi))


class BoundConstantVariant(enum.Enum):
    """Multiplicative constant choice for the bound's right-hand side."""

    LOWER_BOUND_CONSTANT = "lower_bound_constant"
    PLUS_16_PERCENT = "plus_16_percent"

    def constant(self, base: float | None = None) -> float:
        c = zolotarev_constant() if base is None else base
        return c if self is BoundConstantVariant.LOWER_BOUND_CONSTANT else 1.16 * c


class Origin(enum.Enum):
    """Which end of the interval bin labeling starts from: applied when the sup
    is taken (:func:`sup_deviations`), not to the bins."""

    FROM_A = "from_a"
    FROM_B = "from_b"


@dataclass(frozen=True)
class BinningScheme:
    """Equal-width partition of an interval."""

    bin_count: int
    interval: Interval

    def __post_init__(self):
        if self.bin_count < 1:
            raise ValueError(f"bin_count must be >= 1, got {self.bin_count}")

    def edges(self) -> np.ndarray:
        """Ascending bin edges, lo to hi inclusive (bin_count + 1 values)."""
        return np.linspace(self.interval.lo, self.interval.hi, self.bin_count + 1)


def sup_deviations(counts: np.ndarray, n: int, theory: np.ndarray, origin: Origin) -> np.ndarray:
    """Sup-deviation of each row of a rows x bins count matrix, every row
    holding ``n`` events with its counts in scheme order.  ``theory`` is the
    theoretical CDF at the ascending edges."""
    if n < 1:
        raise EmptyHistogram("histogram holds no events")
    theory_at = theory[1:] if origin is Origin.FROM_A else 1.0 - theory[-2::-1]
    return np.abs(np.cumsum(counts, axis=1) / n - theory_at).max(axis=1)


def raw_moments(d: DensityModel, moment_iv: Interval, center: float,
                cfg: QuadratureConfig) -> tuple[float, float, float]:
    """(mass, second moment, third absolute moment) of ``d`` about ``center``
    over the centered ``moment_iv``: the rule sums of the CDF table over
    ``moment_iv`` shifted by ``center``, which at the default window is the
    table that sampling and the edge CDFs read.  Raises ZeroVariance when the
    second moment is numerically zero."""
    iv = Interval(moment_iv.lo + center, moment_iv.hi + center)
    mass, var_raw, rho_raw = _cdf_table(d, iv, cfg).moments(center)
    if not var_raw > cfg.abs_tol:
        raise ZeroVariance(f"second moment over [{moment_iv.lo}, {moment_iv.hi}] is {var_raw}")
    return mass, var_raw, rho_raw


def bound_rhs(d: DensityModel, moment_iv: Interval,
              variant: BoundConstantVariant,
              cfg: QuadratureConfig = DEFAULT_QUADRATURE,
              constant_override: float | None = None) -> float:
    """Right-hand side of the inequality, literal (N-free) normalization.

    ``d`` must already be centered: the distribution mean sits at coordinate
    zero of ``moment_iv``.  Scale-invariant under d -> a*d by construction.
    ``constant_override`` replaces the lower-bound constant (the +16% variant
    is then 1.16x the override); it exists for forced-failure testing.
    """
    both = literal_rhs(d, moment_iv, 0.0, cfg, constant_override)
    return dict(zip(BoundConstantVariant, both))[variant]


def literal_rhs(d: DensityModel, moment_iv: Interval, center: float,
                cfg: QuadratureConfig, constant_override: float | None) -> tuple[float, float]:
    """:func:`bound_rhs` for both constants, in :class:`BoundConstantVariant`
    order, of ``d`` about ``center`` over the centered ``moment_iv``."""
    mass, var_raw, rho_raw = raw_moments(d, moment_iv, center, cfg)
    # normalized moments first: a power-of-two rescaling of d then moves no bit
    ratio = (rho_raw / mass) / (var_raw / mass) ** 1.5
    return tuple(v.constant(constant_override) * ratio for v in BoundConstantVariant)


def bound_reports(sups: np.ndarray, n: int, rhs: tuple[float, float]) -> tuple[np.ndarray, ...]:
    """The report columns of a block of sup-deviations at ``n`` events, each
    an array of ``sups.size`` values: the sups, the right-hand sides
    ``rhs_lo, rhs_hi, rhs_lo / sqrt(n), rhs_hi / sqrt(n)``, each one value
    repeated, then the verdict ``sup <= rhs`` against each of the
    four, compared as arrays: a tie passes, a NaN sup fails."""
    rhs_lo, rhs_hi = rhs
    root_n = math.sqrt(n)
    sides = (rhs_lo, rhs_hi, rhs_lo / root_n, rhs_hi / root_n)
    return (sups, *(np.full(sups.shape, side) for side in sides),
            *(sups <= side for side in sides))
