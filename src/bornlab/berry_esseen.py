"""Both sides of the Born-frequency convergence inequality, with verdicts.

The left-hand side is the sup over bin edges of |binned empirical CDF -
normalized theoretical CDF|.  The right-hand side is

    C * (int |t|^3 rho dt) * (int rho dt)^(1/2) / (int t^2 rho dt)^(3/2)

with t measured from the distribution center, C the Zolotarev lower-bound
constant (3 + sqrt(10)) / (6 sqrt(2 pi)) or its +16% slack variant.  The
ratio of raw integrals equals the normalized third absolute moment over
sigma^3, so the bound is invariant under rescaling the density.

Two normalization variants of the right-hand side are computed: the literal
form with no N dependence, and the classical form carrying an extra
1/sqrt(N).  Verdicts are reported for all four (constant x normalization)
combinations; nothing is silently "fixed" either way.

The API works on blocks, one histogram being a 1 x bins block:
:func:`sup_deviations` gives each count-matrix row's sup at the bin edges (exact
up to within-bin mass), :func:`literal_rhs` a run's right-hand sides and
:func:`bound_reports` each sup with the four right-hand sides and its verdicts,
as a plain tuple that :mod:`harness` places in its report row.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import born_density
from .born_density import DensityModel
from .errors import EmptyHistogram, ZeroVariance
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig, integrate_with_breakpoints

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


# Distinct panels whose density values one raw_moments call keeps: 59 on the
# default config.  An entry (31 values keyed by their 31 nodes) takes about
# 0.7 KB, so the store stays below 1 MB however many panels an integral that
# never settles runs through (up to 2**depth); the rest go unstored.
_MOMENT_STORE_PANELS = 1024


def _stored(evaluate):
    """``evaluate``, keeping its values per node array (that is, per panel) for
    the first ``_MOMENT_STORE_PANELS`` distinct ones.  The density is
    elementwise, so a kept value has the bits of a fresh call."""
    store = {}

    def stored(t):
        key = t.tobytes()
        y = store.get(key)
        if y is None:
            y = evaluate(t)
            if len(store) < _MOMENT_STORE_PANELS:
                store[key] = y
        return y

    return stored


def raw_moments(d: DensityModel, moment_iv: Interval,
                cfg: QuadratureConfig) -> tuple[float, float, float]:
    """(mass, second raw moment, third absolute raw moment) of a centered
    density over ``moment_iv`` (memoized).  The three integrals keep their own
    breakpoints and panels and read the density from one store, so a panel
    they share is evaluated once.  Raises ZeroVariance when the second moment
    is numerically zero."""
    def compute():
        f = _stored(d.evaluate)
        mass = born_density.total_mass(d, moment_iv, cfg, f)
        pts = d.subdivision_points(moment_iv)
        var_raw = integrate_with_breakpoints(lambda t: t**2 * f(t), moment_iv, pts, cfg)
        rho_raw = integrate_with_breakpoints(  # |t|^3 has a kink at the origin
            lambda t: np.abs(t) ** 3 * f(t), moment_iv, (*pts, 0.0), cfg)
        if not var_raw > cfg.abs_tol:
            raise ZeroVariance(f"second moment over [{moment_iv.lo}, {moment_iv.hi}] is {var_raw}")
        return mass, var_raw, rho_raw

    return d.memo(("raw_moments", moment_iv.lo, moment_iv.hi, cfg), compute)


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
    mass, var_raw, rho_raw = raw_moments(d, moment_iv, cfg)
    # normalized moments first: a power-of-two rescaling of d then moves no bit
    return variant.constant(constant_override) * ((rho_raw / mass) / (var_raw / mass) ** 1.5)


def literal_rhs(d: DensityModel, moment_iv: Interval, center: float,
                cfg: QuadratureConfig, constant_override: float | None) -> tuple[float, float]:
    """:func:`bound_rhs` for both constants, of ``d`` recentered at ``center``
    over the centered ``moment_iv``."""
    centered = born_density.recenter(d, center)
    return tuple(bound_rhs(centered, moment_iv, v, cfg, constant_override) for v in (
        BoundConstantVariant.LOWER_BOUND_CONSTANT, BoundConstantVariant.PLUS_16_PERCENT))


def bound_reports(sups: np.ndarray, n: int, rhs: tuple[float, float]) -> list[tuple]:
    """Per sup-deviation at ``n`` events, ``(sup, rhs_lo, rhs_hi, rhs_lo /
    sqrt(n), rhs_hi / sqrt(n))`` and then the verdict ``sup <= rhs`` against
    each of the four: a tie passes, a NaN sup fails."""
    rhs_lo, rhs_hi = rhs
    root_n = math.sqrt(n)
    lo_n, hi_n = rhs_lo / root_n, rhs_hi / root_n
    return [(sup, rhs_lo, rhs_hi, lo_n, hi_n,
             sup <= rhs_lo, sup <= rhs_hi, sup <= lo_n, sup <= hi_n) for sup in sups.tolist()]
