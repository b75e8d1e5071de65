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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import born_density
from .born_density import DensityModel
from .errors import EmptyHistogram, ZeroVariance
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig, central_moment

__all__ = [
    "zolotarev_constant",
    "BoundConstantVariant",
    "Origin",
    "BinningScheme",
    "EmpiricalHistogram",
    "Verdicts",
    "BoundReport",
    "empirical_cdf",
    "sup_deviation",
    "raw_moments",
    "bound_rhs",
    "verify_inequality",
    "REPORT_CSV_COLUMNS",
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
    """Which end of the interval bin labeling starts from."""

    FROM_A = "from_a"
    FROM_B = "from_b"


@dataclass(frozen=True)
class BinningScheme:
    """Equal-width partition of an interval with an origin orientation."""

    bin_count: int
    origin: Origin
    interval: Interval

    def __post_init__(self):
        if self.bin_count < 1:
            raise ValueError(f"bin_count must be >= 1, got {self.bin_count}")

    def edges(self) -> np.ndarray:
        """Ascending bin edges, lo to hi inclusive (bin_count + 1 values)."""
        return np.linspace(self.interval.lo, self.interval.hi, self.bin_count + 1)


@dataclass(frozen=True)
class EmpiricalHistogram:
    """Binned detection counts, indexed in scheme order (bin 1 nearest origin)."""

    scheme: BinningScheme
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
    if h.scheme.origin is Origin.FROM_A:
        # whole bins with right edge <= x
        j = int(np.searchsorted(edges[1:], x, side="right"))
    else:
        # whole bins with left edge >= x
        j = h.scheme.bin_count - int(np.searchsorted(edges[:-1], x, side="left"))
    return 0.0 if j == 0 else float(cum[j - 1]) / h.total_N


def sup_deviation(h: EmpiricalHistogram, d: DensityModel,
                  cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Max |empirical CDF - theoretical CDF| over the orientation's bin edges.

    Edge evaluation attains the sup up to within-bin mass: the empirical CDF
    is constant between edges and the theoretical CDF is monotone.
    """
    if h.total_N < 1:
        raise EmptyHistogram("histogram holds no events")
    iv = h.scheme.interval
    theory = born_density.cdf_at_points(d, iv, h.scheme.edges(), cfg)
    if h.scheme.origin is Origin.FROM_A:
        theory_at = theory[1:]
    else:
        theory_at = 1.0 - theory[-2::-1]
    cum = np.cumsum(h.counts) / h.total_N
    return float(np.abs(cum - theory_at).max())


def raw_moments(d: DensityModel, moment_iv: Interval,
                cfg: QuadratureConfig) -> tuple[float, float, float]:
    """(mass, second raw moment, third absolute raw moment) of a centered
    density over ``moment_iv`` (memoized).  Raises ZeroVariance when the
    second moment is numerically zero."""
    def compute():
        mass = born_density.total_mass(d, moment_iv, cfg)
        var_raw = central_moment(d, 2, absolute=False, iv=moment_iv, cfg=cfg)
        rho_raw = central_moment(d, 3, absolute=True, iv=moment_iv, cfg=cfg)
        if not var_raw > max(cfg.abs_tol, 0.0):
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
    return variant.constant(constant_override) * (rho_raw * math.sqrt(mass) / var_raw**1.5)


@dataclass(frozen=True)
class Verdicts:
    """Pass/fail of the sup deviation against each right-hand-side variant."""

    lower_const: bool
    upper_const: bool
    with_sqrtN_lower: bool
    with_sqrtN_upper: bool

    def to_dict(self) -> dict:
        return {
            "lower_const": self.lower_const,
            "upper_const": self.upper_const,
            "with_sqrtN_lower": self.with_sqrtN_lower,
            "with_sqrtN_upper": self.with_sqrtN_upper,
        }


@dataclass(frozen=True)
class BoundReport:
    """One verification of the inequality for a single histogram."""

    N: int
    sup_deviation: float
    rhs_lower_const: float
    rhs_upper_const: float
    rhs_with_sqrtN_lower: float
    rhs_with_sqrtN_upper: float
    verdicts: Verdicts
    scheme: BinningScheme

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "sup_deviation": self.sup_deviation,
            "rhs_lower_const": self.rhs_lower_const,
            "rhs_upper_const": self.rhs_upper_const,
            "rhs_with_sqrtN_lower": self.rhs_with_sqrtN_lower,
            "rhs_with_sqrtN_upper": self.rhs_with_sqrtN_upper,
            "verdicts": self.verdicts.to_dict(),
            "scheme": {
                "bin_count": self.scheme.bin_count,
                "origin": self.scheme.origin.value,
                "interval": {"a_mm": self.scheme.interval.lo, "b_mm": self.scheme.interval.hi},
            },
        }

    def csv_row(self) -> list[str]:
        return [
            str(self.N),
            repr(self.sup_deviation),
            repr(self.rhs_lower_const),
            repr(self.rhs_upper_const),
            repr(self.rhs_with_sqrtN_lower),
            repr(self.rhs_with_sqrtN_upper),
            "true" if self.verdicts.lower_const else "false",
            "true" if self.verdicts.upper_const else "false",
            "true" if self.verdicts.with_sqrtN_lower else "false",
            "true" if self.verdicts.with_sqrtN_upper else "false",
            str(self.scheme.bin_count),
            self.scheme.origin.value,
            repr(self.scheme.interval.lo),
            repr(self.scheme.interval.hi),
        ]


REPORT_CSV_COLUMNS = [
    "N",
    "sup_deviation",
    "rhs_lower_const",
    "rhs_upper_const",
    "rhs_with_sqrtN_lower",
    "rhs_with_sqrtN_upper",
    "verdict_lower_const",
    "verdict_upper_const",
    "verdict_with_sqrtN_lower",
    "verdict_with_sqrtN_upper",
    "bin_count",
    "origin",
    "a_mm",
    "b_mm",
]


def report_from_json_dict(obj: dict) -> BoundReport:
    scheme = BinningScheme(
        bin_count=int(obj["scheme"]["bin_count"]),
        origin=Origin(obj["scheme"]["origin"]),
        interval=Interval(
            float(obj["scheme"]["interval"]["a_mm"]),
            float(obj["scheme"]["interval"]["b_mm"]),
        ),
    )
    v = obj["verdicts"]
    return BoundReport(
        N=int(obj["N"]),
        sup_deviation=float(obj["sup_deviation"]),
        rhs_lower_const=float(obj["rhs_lower_const"]),
        rhs_upper_const=float(obj["rhs_upper_const"]),
        rhs_with_sqrtN_lower=float(obj["rhs_with_sqrtN_lower"]),
        rhs_with_sqrtN_upper=float(obj["rhs_with_sqrtN_upper"]),
        verdicts=Verdicts(
            bool(v["lower_const"]), bool(v["upper_const"]),
            bool(v["with_sqrtN_lower"]), bool(v["with_sqrtN_upper"]),
        ),
        scheme=scheme,
    )


def report_from_csv_row(row: list[str]) -> BoundReport:
    (n, sup, rl, ru, rsl, rsu, vl, vu, vsl, vsu, bins, origin, a, b) = row
    return BoundReport(
        N=int(n),
        sup_deviation=float(sup),
        rhs_lower_const=float(rl),
        rhs_upper_const=float(ru),
        rhs_with_sqrtN_lower=float(rsl),
        rhs_with_sqrtN_upper=float(rsu),
        verdicts=Verdicts(vl == "true", vu == "true", vsl == "true", vsu == "true"),
        scheme=BinningScheme(int(bins), Origin(origin), Interval(float(a), float(b))),
    )


def verify_inequality(
    h: EmpiricalHistogram,
    d: DensityModel,
    moment_iv: Interval | None = None,
    center: float | None = None,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    constant_override: float | None = None,
) -> BoundReport:
    """Full check of the inequality for one histogram against one density.

    ``center`` defaults to the density's known pattern center, falling back
    to the mass-weighted mean over the histogram interval.  ``moment_iv``
    defaults to the event interval recentered at that point, in centered
    coordinates.  A failing verdict is a result, not an error.
    """
    if h.total_N < 1:
        raise EmptyHistogram("histogram holds no events")
    iv = h.scheme.interval
    if center is None:
        center = d.center if d.center is not None else born_density.mean_position(d, iv, cfg)
    centered = d.memo(("centered", center), lambda: born_density.recenter(d, center))
    if moment_iv is None:
        moment_iv = Interval(iv.lo - center, iv.hi - center)

    sup = sup_deviation(h, d, cfg)
    rhs_lo = bound_rhs(centered, moment_iv, BoundConstantVariant.LOWER_BOUND_CONSTANT,
                       cfg, constant_override)
    rhs_hi = bound_rhs(centered, moment_iv, BoundConstantVariant.PLUS_16_PERCENT,
                       cfg, constant_override)
    root_n = math.sqrt(h.total_N)
    return BoundReport(
        N=h.total_N,
        sup_deviation=sup,
        rhs_lower_const=rhs_lo,
        rhs_upper_const=rhs_hi,
        rhs_with_sqrtN_lower=rhs_lo / root_n,
        rhs_with_sqrtN_upper=rhs_hi / root_n,
        verdicts=Verdicts(
            lower_const=sup <= rhs_lo,
            upper_const=sup <= rhs_hi,
            with_sqrtN_lower=sup <= rhs_lo / root_n,
            with_sqrtN_upper=sup <= rhs_hi / root_n,
        ),
        scheme=h.scheme,
    )
