"""Double-slit Born intensity and the generic 1D density abstraction.

Unit conventions (fixed across the package):

==================  ==========  =====================================
quantity            input unit  internal working unit
==================  ==========  =====================================
slit width w        nm          mm (detector axis is always mm)
slit separation d   nm          mm
screen distance L   mm          mm
wavelength lambda   pm          mm
pattern center mu   mm          mm
peak height I0      arbitrary   arbitrary (all results scale-free)
==================  ==========  =====================================

The far-field intensity on the screen is

    I(t) = I0 * cos^2(n(t) * (t - mu)) * sinc^2(m(t) * (t - mu))

with the envelope wavenumber m(t) = pi * w / (lambda * hypot(L, mu - t))
and the fringe wavenumber n(t) = m(t) * d / w.  Both vary (slowly) with the
screen coordinate through the slit-to-point distance.  The removable
singularity of sinc at the pattern center resolves to I(mu) = I0.

Every zero of the intensity has a closed form, so densities advertise their
zeros exactly and the quadrature layer subdivides there instead of guessing.

Normalized CDFs come from one table per (density, interval, quadrature
config), :class:`_CdfTable`, kept in the density's memo: a 4096-knot grid plus
the advertised breakpoints, with the cumulative mass ``cum`` at every knot.
``partial`` is a fixed Gauss-Legendre rule, checked against the adaptive
``total_mass`` when the table is built (the rule is escalated, or the panels
halved, until they agree).  ``total_mass`` is a density's ``exact_mass`` where
it has one (a tabulated density's trapezoid sum), else adaptive, like
``mean_position``.
No other module reads the table's arrays.  ``_CdfTable.cdf`` gives ``cdf`` and
``cdf_at_points`` (not memoized: a run reads them once per bin count) as
``F(x) = cum[k] + partial(knot[k], x)`` for the panel ``k`` holding ``x``.
``_CdfTable.moments`` gives :mod:`berry_esseen` the bound's moments about a
center as the same rule's sums over the same panels, the one holding the
center split there.
``_CdfTable.invert`` gives :mod:`sampler` the x with ``|F(x) - u| <= 1e-10``.
Each ``u`` is bracketed into the panel ``[a, b]`` with ``cum[i] <= u <
cum[i + 1]``.
Most panels invert by a polynomial (Hoermann & Leydold 2003; Derflinger,
Hoermann & Leydold 2010), fitted on a panel's first draw: ``x - a`` as a
function of ``t = u - cum[i]``, interpolated in Newton form at the order-7
Chebyshev-Lobatto points ``x_j = a + (b - a)(1 - cos(pi j / 7)) / 2``, whose
``t_j`` are the table's own within-panel term ``partial(a, x_j)`` (ends 0 and
``cum[i + 1] - cum[i]``), and evaluated by Horner's rule.  A fit passes only
if its ``t_j`` strictly increase, its coefficients are finite and it lands
in the panel with ``|F(x) - u| <= 2.5e-11`` at the midpoint of each gap
between ``t_j``; a polynomial draw is clamped into its panel.  Panels that
fail, near the nulls where ``x(u)`` grows like ``u^(1/3)`` and where the
density has a kink or a zero run, keep safeguarded Newton iteration.  It
starts from linear interpolation across the panel; each pass stops once
``|F(x) - u| <= 1e-10``, shrinks the bracket to the side of ``x`` that holds
the root, and takes the Newton step ``x - (F(x) - u) / f`` (``f = density /
total mass``) where it lands strictly inside the bracket, else the bracket
midpoint (``f`` zero at a null, negative, NaN or infinite).  A bracket that
collapses to adjacent floats first resolves its draw to the current point.  A
batch is visited in ascending ``u`` (one ``argsort``), so the table gathers and
a tabulated density's ``np.interp`` run in memory order, and each panel's
draws are one run of a block, found by searching the block for each ``cum``
entry; a block with fewer draws than the table has panels searches ``cum``
for each draw instead, which finds the same panels.  It is visited in blocks
of ``_INVERT_BLOCK`` sorted draws; the draws on Newton panels, about 0.2% on
the double slit, are pooled across blocks and iterated whenever the pool
would pass one block, and once at the end.  So the temporaries hold one
block: what grows with the batch is ``u``, the order and the output, about 24
bytes per draw.  The double-slit kernel computes in three
buffers of its input's shape, with the closed form's operations in its order.
Every step is elementwise, each panel's fit reads only that panel, and each
result lands at its draw's own index, so neither the visiting order, nor the
block size, nor which draws share a Newton pass, nor which call first fitted a
panel can move a bit.
"""

from __future__ import annotations

import csv
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidGeometry, NonConvergence, OutOfSupport, ParseError, EmptyFile, ZeroMass
from .quadrature import (
    DEFAULT_QUADRATURE,
    Interval,
    QuadratureConfig,
    integrate_with_breakpoints,
)

__all__ = [
    "SlitGeometry",
    "DensityModel",
    "TabulatedDensity",
    "double_slit_density",
    "uniform_density",
    "total_mass",
    "cdf",
    "cdf_at_points",
    "mean_position",
    "recenter",
    "scaled",
]

CDF_TABLE_KNOTS = 4096
_NM_TO_MM = 1e-6
_PM_TO_MM = 1e-9


@dataclass(frozen=True)
class SlitGeometry:
    """Physical parameters of the two-slit apparatus.

    Defaults follow the published electron double-slit experiment commonly
    used for pattern build-up demonstrations (62 nm slits, 272 nm apart,
    50 pm electrons, 240 mm to the detector).  They are configuration
    inputs, not constants of the model.
    """

    slit_width_w: float = 62.0  # nm
    slit_separation_d: float = 272.0  # nm
    screen_distance_L: float = 240.0  # mm
    wavelength_lambda: float = 50.0  # pm
    center_mu: float = 0.0  # mm
    peak_height_I0: float = 1.0

    def __post_init__(self):
        for name in ("slit_width_w", "slit_separation_d", "screen_distance_L",
                     "wavelength_lambda", "peak_height_I0"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise InvalidGeometry(f"{name} must be finite and > 0, got {v}")
        if not math.isfinite(self.center_mu):
            raise InvalidGeometry(f"center_mu must be finite, got {self.center_mu}")
        if not self.slit_separation_d > self.slit_width_w:
            raise InvalidGeometry(
                f"slit_separation_d ({self.slit_separation_d} nm) must exceed "
                f"slit_width_w ({self.slit_width_w} nm)"
            )

    @property
    def w_mm(self) -> float:
        return self.slit_width_w * _NM_TO_MM

    @property
    def d_mm(self) -> float:
        return self.slit_separation_d * _NM_TO_MM

    @property
    def lambda_mm(self) -> float:
        return self.wavelength_lambda * _PM_TO_MM


class DensityModel:
    """Non-negative, possibly unnormalized 1D intensity on an interval.

    ``evaluate`` maps a float ndarray of detector coordinates (mm) to
    intensities of the same shape; removable singularities are resolved by
    the constructor of the concrete density.  ``breakpoints`` are the points
    where quadrature must split (exact zeros, interpolation knots), read
    through :meth:`subdivision_points`.  Instances are immutable after
    construction (internal memoization of the CDF tables and of their
    polynomial fits is idempotent, so concurrent reads are safe).
    """

    def __init__(self, evaluate: Callable, support: Interval, breakpoints: Sequence[float] = ()):
        self.evaluate = evaluate
        self.support = support
        self._breakpoints = tuple(sorted(float(b) for b in breakpoints))
        self._cache: dict = {}

    def subdivision_points(self, iv: Interval) -> tuple[float, ...]:
        """Mandatory quadrature breakpoints strictly inside ``iv``."""
        return tuple(p for p in self._breakpoints if iv.lo < p < iv.hi)

    def exact_mass(self, iv: Interval) -> float | None:
        """The integral over ``iv`` in closed form, or None where there is none."""
        return None

    def memo(self, key, compute):
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value


class TabulatedDensity(DensityModel):
    """Piecewise-linear density through strictly increasing (t, value) knots."""

    def __init__(self, knots_t: Sequence[float], knots_value: Sequence[float]):
        t = np.asarray(knots_t, dtype=float)
        v = np.asarray(knots_value, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("tabulated density needs at least 2 matching (t, value) knots")
        if not np.all(np.diff(t) > 0):
            raise ValueError("tabulated density knots must be strictly increasing in t")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(v)):
            raise ValueError("tabulated density knots must be finite")
        if np.any(v < 0):
            raise ValueError("tabulated density values must be >= 0")
        self.knots_t = t
        self.knots_value = v
        super().__init__(
            evaluate=lambda x: np.interp(np.asarray(x, dtype=float), t, v),
            support=Interval(float(t[0]), float(t[-1])),
            breakpoints=t[1:-1],
        )

    def exact_mass(self, iv: Interval) -> float:
        """The trapezoid sum over ``iv``, exact for the piecewise-linear density."""
        t = self.knots_t
        xs = np.concatenate([[iv.lo], t[(iv.lo < t) & (t < iv.hi)], [iv.hi]])
        vs = self.evaluate(xs)
        return float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(xs)))


def _number(cell: str, kind: Callable = float):
    """``kind(cell)``, refusing the ``_``, the non-ASCII digits and the
    surrounding whitespace that ``int()`` and ``float()`` read silently."""
    if "_" in cell or not cell.isascii() or cell != cell.strip():
        raise ValueError(f"{cell!r}: a number may not hold '_', non-ASCII text or padding")
    return kind(cell)


def _read_csv(path, columns: Sequence[str], parse: Callable, least: int = 1) -> list:
    """``parse(row)`` of each row of a CSV file with header ``columns``, blank
    lines skipped.  A header other than ``columns`` exactly (padding included),
    a row of another width, a cell holding
    non-ASCII text or padding (``int()``, ``float()`` and ``json.loads`` coerce
    them silently) or a ValueError from ``parse`` raise a ParseError naming
    the line.  A file with no data rows raises EmptyFile unless ``least``
    (0 or 1) is 0."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file", line=1)
        if header != list(columns):
            raise ParseError(f"{path}: expected header '{','.join(columns)}'", line=1)
        width = len(columns)

        def data(row):  # True for a data row, False for a blank line, else an error
            if len(row) != width:
                if row:
                    short = f", column {columns[len(row)]} missing" if len(row) < width else ""
                    raise ValueError(f"expected {width} columns{short}")
                return False
            for cell in row:
                if not cell.isascii() or cell != cell.strip():
                    raise ValueError(f"{cell!r}: a cell may not hold non-ASCII text or padding")
            return True
        try:
            out = [parse(row) for row in reader if data(row)]
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}", line=reader.line_num) from exc
    if len(out) < least:
        raise EmptyFile(f"{path}: no data rows")
    return out


def _null_offset(g: SlitGeometry, slit_mm: float, order: float) -> float | None:
    """Offset from center where slit * sin(theta) = order * lambda: an envelope
    null for the slit width and k = 1, 2, ..., a fringe null for the slit
    separation and j + 1/2.  None when order * lambda reaches the slit.

    slit**2 - s**2 is formed exactly in integers and rounded once: near the
    last null it cancels to a small fraction of slit**2, where rounding s and
    s**2 first costs the offset two or more digits."""
    twice = int(2 * order)  # exact for whole and half orders
    p, q = g.lambda_mm.as_integer_ratio()
    a, b = slit_mm.as_integer_ratio()
    # slit**2 - s**2 == gap / (2*b*q)**2 with s = twice * p / (2*q)
    gap = (2 * a * q) ** 2 - (twice * p * b) ** 2
    if gap <= 0:
        return None
    s = order * g.lambda_mm
    return s * g.screen_distance_L / math.sqrt(gap / (2 * b * q) ** 2)


def _null_count(g: SlitGeometry, half: float) -> float:
    """About how many nulls :func:`double_slit_density` makes within ``half`` of
    the center: ``(w + d) sin(theta) / lambda`` per side at that offset."""
    return 2 * (g.w_mm + g.d_mm) * (half / math.hypot(g.screen_distance_L, half)) / g.lambda_mm


def default_support(g: SlitGeometry) -> Interval:
    """Symmetric support holding the central peak plus >= 4 envelope nulls per
    side: 1.05 times the fifth null, or five times the first when fewer exist."""
    first = _null_offset(g, g.w_mm, 1)
    if first is None:
        raise InvalidGeometry("wavelength exceeds slit width: no envelope nulls exist")
    half = 1.05 * (_null_offset(g, g.w_mm, 5) or 5 * first)
    return Interval(g.center_mu - half, g.center_mu + half)


def double_slit_density(g: SlitGeometry, support: Interval | None = None) -> DensityModel:
    """Far-field two-slit intensity as a :class:`DensityModel`.

    The sinc singularity at the pattern center is removable and resolves to
    ``peak_height_I0``.  Its breakpoints are every envelope and fringe null
    inside the support, in closed form.
    """
    if support is None:
        support = default_support(g)
    mu = g.center_mu
    m_scale = math.pi * g.w_mm / g.lambda_mm
    ratio = g.slit_separation_d / g.slit_width_w
    i0 = g.peak_height_I0
    big_l2 = g.screen_distance_L**2

    def evaluate(t):
        # the closed form in three buffers of t's shape, in place, with its
        # own operations in its order (module notes)
        t = np.asarray(t, dtype=float)
        am, an, s = np.empty(t.shape), np.empty(t.shape), np.empty(t.shape)
        np.subtract(t, mu, out=am)
        np.multiply(am, am, out=an)
        an += big_l2
        np.sqrt(an, out=an)
        am *= m_scale
        am /= an
        np.multiply(am, ratio, out=an)
        # |am| below 4e-9 makes sin(am)/am equal 1.0 to the last ulp, which
        # resolves the removable singularity without a separate series branch
        np.copyto(am, 4e-9, where=np.abs(am, out=s) < 4e-9)
        np.sin(am, out=s)
        s /= am
        s *= s
        np.cos(an, out=an)
        an *= an
        an *= i0
        an *= s
        return an if an.ndim else an[()]

    half = max(abs(support.lo - mu), abs(support.hi - mu))
    zeros: list[float] = []
    for slit_mm, first in ((g.w_mm, 1), (g.d_mm, 0.5)):
        for order in itertools.count(first):
            z = _null_offset(g, slit_mm, order)
            if z is None or z > half:
                break
            zeros.append(z)
    offsets = sorted(set(zeros))
    two_sided = [mu - z for z in reversed(offsets)] + [mu + z for z in offsets]
    in_support = [z for z in two_sided if support.lo < z < support.hi]

    return DensityModel(evaluate, support, in_support)


def uniform_density(iv: Interval, height: float = 1.0) -> DensityModel:
    """Constant density of the given height on ``iv``."""
    if not height >= 0:
        raise ValueError("height must be >= 0")

    def evaluate(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= iv.lo) & (t <= iv.hi), height, 0.0)

    return DensityModel(evaluate, iv)


def scaled(d: DensityModel, a: float) -> DensityModel:
    """The density ``a * d`` (same support and breakpoints)."""
    return DensityModel(lambda t: a * d.evaluate(t), d.support, d._breakpoints)


def recenter(d: DensityModel, center: float) -> DensityModel:
    """View of ``d`` in coordinates where ``center`` maps to zero."""
    return DensityModel(
        lambda t: d.evaluate(np.asarray(t, dtype=float) + center),
        Interval(d.support.lo - center, d.support.hi - center),
        [b - center for b in d._breakpoints],
    )


def total_mass(d: DensityModel, iv: Interval | None = None,
               cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integral of ``d`` over ``iv``: the density's exact mass where it has one,
    else adaptive quadrature.  Raises ZeroMass when degenerate."""
    if iv is None:
        iv = d.support
    mass = d.exact_mass(iv)
    if mass is None:
        mass = integrate_with_breakpoints(d.evaluate, iv, d.subdivision_points(iv), cfg)
    if not mass > cfg.abs_tol:
        raise ZeroMass(f"density mass over [{iv.lo}, {iv.hi}] is {mass}")
    return mass


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of an ascending array holding no NaN, without the numpy.ma
    import that ``np.unique`` makes: the first entry of each run of equal ones."""
    return a[np.concatenate([[True], a[1:] != a[:-1]])]


def _newton_form(rows, t: np.ndarray) -> np.ndarray:
    """Horner evaluation at ``t`` of ``sum_k c_k * prod_{j<k} (t - t_j)`` with
    ``t_0 = c_0 = 0``, from ``rows`` ``c_n, t_{n-1}, c_{n-1}, ..., t_1, c_1``
    taken in that order (an iterable, so a caller may gather them one by one)."""
    rows = iter(rows)
    p = next(rows) * (t - next(rows))
    p += next(rows)
    for tk, ck in zip(rows, rows):
        p *= t - tk
        p += ck
    p *= t
    return p


class _CdfTable:
    """Panel grid with exact cumulative masses, shared via the density memo; the
    one source of normalized CDF values and of their inverse (module notes)."""

    CDF_VALUE_TOL = 1e-10
    _INVERT_BLOCK = 16384  # sorted draws per pass of invert
    # a panel's polynomial (module notes): its order-7 Chebyshev-Lobatto nodes
    # as fractions of the panel, and the |F(x) - u| it must meet at the checks
    _FIT_NODES = (1.0 - np.cos(np.pi * np.arange(8) / 7)) / 2
    _FIT_TOL = 2.5e-11

    def __init__(self, d: DensityModel, iv: Interval, cfg: QuadratureConfig):
        base = np.linspace(iv.lo, iv.hi, CDF_TABLE_KNOTS)
        extra = np.asarray(d.subdivision_points(iv), dtype=float)
        self.knots = _distinct(np.sort(np.concatenate([base, extra])))
        # the density's evaluate, not the density: its memo holds this table, and
        # a reference back would keep both alive until the cyclic collector runs
        self._evaluate = d.evaluate
        reference = total_mass(d, iv, cfg)
        tol = max(1e-9 * abs(reference), 10 * cfg.abs_tol)
        for order in (3, 7, 15, 31):
            self._gx, self._gw = np.polynomial.legendre.leggauss(order)
            masses = self._rule(self.knots[:-1], self.knots[1:])
            total = float(masses.sum())
            if abs(total - reference) <= tol:
                break
        else:
            # density rougher than any fixed rule: refine the grid instead,
            # giving each panel an equal share of the table tolerance
            masses = self._refine_until_rule_agrees(tol / (self.knots.size - 1), cfg)
            total = float(masses.sum())
        self.total = total
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        # dividing by the last entry makes every knot past the last positive
        # mass exactly 1.0, so no u < 1 selects a trailing zero-mass panel
        self.cum = cum / cum[-1]
        # each panel's inverse polynomial, fitted on its first draw.  The first
        # fit allocates the coefficients (one column per panel of the rows
        # _newton_form reads), so a table that is never inverted holds none
        panels = self.knots.size - 1
        self._fitted = np.zeros(panels, dtype=bool)
        self._poly = np.zeros(panels, dtype=bool)  # fitted, and the fit passed
        self._coef = None
        self._fit_lock = threading.Lock()

    def _rule(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Fixed-rule integral of the density from a to b, elementwise."""
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        along = (-1,) + (1,) * mid.ndim  # the rule's nodes on a leading axis
        nodes = mid + half * self._gx.reshape(along)
        return (self._evaluate(nodes) * self._gw.reshape(along)).sum(axis=0) * half

    def _refine_until_rule_agrees(self, tol: float, cfg: QuadratureConfig) -> np.ndarray:
        """Halve every panel where the fixed rule misses the adaptive mass, or
        its own sum over the panel's two halves, by more than ``tol``.  Sets the
        refined knots and returns the fixed-rule panel masses, so ``partial``
        agrees with ``cum``.  The halves test catches a discontinuity that the
        rule and the adaptive integrator misjudge alike, as both do for a step
        close to a panel end."""
        def adaptive(lo, hi):
            return np.array([
                integrate_with_breakpoints(self._evaluate, Interval(a, b), (), cfg)
                for a, b in zip(lo, hi)
            ])

        lo, hi = self.knots[:-1], self.knots[1:]
        exact = adaptive(lo, hi)
        kept_lo, kept_mass = [], []
        for _ in range(cfg.max_refinement_depth + 1):
            rule = self._rule(lo, hi)
            mid = 0.5 * (lo + hi)
            halves = self._rule(lo, mid) + self._rule(mid, hi)
            ok = (np.abs(rule - exact) <= tol) & (np.abs(halves - rule) <= tol)
            kept_lo.append(lo[ok])
            kept_mass.append(rule[ok])
            if ok.all():
                break
            lo, mid, hi = lo[~ok], mid[~ok], hi[~ok]
            lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
            exact = adaptive(lo, hi)
        else:
            raise NonConvergence(
                f"CDF table: fixed rule still misses the adaptive mass on "
                f"{lo.size} panel(s) near {lo[0]} after halving"
            )
        lo = np.concatenate(kept_lo)
        order = np.argsort(lo)
        self.knots = np.append(lo[order], self.knots[-1])
        return np.concatenate(kept_mass)[order]

    def partial(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Normalized integral of the density from a to b, elementwise."""
        return self._rule(a, b) / self.total

    def cdf(self, xs: np.ndarray) -> np.ndarray:
        """Normalized CDF at each of ``xs``, which lie in the table's interval."""
        # the knots run from iv.lo to iv.hi, so k is a valid knot for every x
        k = np.searchsorted(self.knots, xs, side="right") - 1
        return np.clip(self.cum[k] + self.partial(self.knots[k], xs), 0.0, 1.0)

    def moments(self, center: float) -> tuple[float, float, float]:
        """The table's rule sums of the density times 1, ``(x - center)**2`` and
        ``|x - center|**3`` over its interval, with the panel that holds
        ``center`` split there, where the third has a kink."""
        knots = self.knots
        if knots[0] < center < knots[-1]:
            knots = _distinct(np.sort(np.append(knots, center)))
        half = 0.5 * (knots[1:] - knots[:-1])
        x = 0.5 * (knots[1:] + knots[:-1]) + half * self._gx[:, None]
        f = self._evaluate(x) * (self._gw[:, None] * half)
        s = np.abs(x - center)
        f2 = f * (s * s)
        return float(f.sum()), float(f2.sum()), float((f2 * s).sum())

    def invert(self, u: np.ndarray) -> np.ndarray:
        """The x with ``|F(x) - u| <= CDF_VALUE_TOL`` of each uniform in the flat ``u``."""
        # sort once, then invert _INVERT_BLOCK sorted draws at a time, pooling
        # the Newton-panel draws of every block into passes of at most one
        # block (module notes)
        block = self._INVERT_BLOCK
        order = np.argsort(u)
        out = np.empty(u.size)
        pool, pooled = [], 0
        for start in range(0, u.size, block):
            rest = self._invert_block(u, order[start:start + block], out)
            if pooled + rest[0].size > block:
                self._newton(*map(np.concatenate, zip(*pool)), out)
                pool, pooled = [], 0
            pool.append(rest)
            pooled += rest[0].size
        if pooled:
            self._newton(*map(np.concatenate, zip(*pool)), out)
        return out

    def _invert_block(self, u: np.ndarray, slot: np.ndarray, out: np.ndarray) -> tuple:
        """Write to ``out[slot]`` the inverse of each ``u[slot]`` whose panel's
        fit passed, by its polynomial; return the ``u``, panel and slot of the
        others, which ``invert`` passes to Newton iteration.  ``u[slot]``
        ascends, so each panel's draws are one run of it, found by one search
        per ``cum`` entry, or by one search per draw when the block has fewer
        draws than the table has panels."""
        knots, cum = self.knots, self.cum
        u = u[slot]
        # panel k holds the draws with cum[k] <= u < cum[k + 1], so it has
        # positive mass; the first and last panels take any u below 0 or at 1
        panels = cum.size - 1
        if u.size < panels:  # search cum for each draw's panel
            idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, panels - 1)
            new = idx[~self._fitted[idx]]
            if new.size:  # each panel once: idx ascends
                self._fit(_distinct(new))
            poly = self._poly[idx]
        else:  # search the block for each cum entry: each panel's draws are a run
            bounds = np.searchsorted(u, cum, side="left")
            bounds[0], bounds[-1] = 0, u.size
            counts = np.diff(bounds)
            new = np.flatnonzero((counts > 0) & ~self._fitted)
            if new.size:
                self._fit(new)
            idx = np.repeat(np.arange(panels), counts)
            poly = np.repeat(self._poly, counts)
        p = np.flatnonzero(poly)
        ip = idx[p]
        x = knots[ip] + _newton_form((row[ip] for row in self._coef), u[p] - cum[ip])
        out[slot[p]] = np.clip(x, knots[ip], knots[ip + 1], out=x)  # lands in its panel
        rest = np.flatnonzero(~poly)
        return u[rest], idx[rest], slot[rest]

    def _fit(self, i: np.ndarray) -> None:
        """Fit the inverse polynomial of each panel ``i`` and mark it fitted.
        A panel passes only if its u-nodes strictly increase, its coefficients
        are finite and at the midpoint of each gap between u-nodes its polynomial
        lands in the panel with ``|F(x) - u| <= _FIT_TOL`` (module notes)."""
        panels, n = i, self._FIT_NODES.size - 1
        a, b = self.knots[i, None], self.knots[i + 1, None]
        x = a + (b - a) * self._FIT_NODES
        x[:, -1] = b[:, 0]
        # local coordinates: y = x - a, and t = F(x) - cum[i] from the table's
        # within-panel term, so t keeps its relative precision near 0
        t = np.empty_like(x)
        t[:, 0], t[:, -1] = 0.0, self.cum[i + 1] - self.cum[i]
        t[:, 1:-1] = self.partial(a, x[:, 1:-1])
        y = x - a
        keep = np.all(np.diff(t, axis=1) > 0, axis=1)  # so no divisor below is zero
        i, a, b, t, y = i[keep], a[keep], b[keep], t[keep], y[keep]
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the finite test
            for k in range(1, n + 1):
                y[:, k:] = (y[:, k:] - y[:, k - 1:n]) / (t[:, k:] - t[:, :n + 1 - k])
        coef = np.empty((2 * n - 1, i.size))  # the rows of _newton_form
        coef[0::2], coef[1::2] = y[:, n:0:-1].T, t[:, n - 1:0:-1].T
        keep = np.isfinite(coef).all(axis=0)
        i, a, b, t, coef = i[keep], a[keep], b[keep], t[keep], coef[:, keep]
        tc = t[:, :-1] + np.diff(t, axis=1) * 0.5  # each gap's midpoint, where the error peaks
        with np.errstate(over="ignore", invalid="ignore"):  # caught by the range test
            xc = a + _newton_form(coef[:, :, None], tc)
        inside = (a <= xc) & (xc <= b)
        miss = np.abs(self.partial(a, np.where(inside, xc, a)) - tc)
        keep = np.all(inside & (miss <= self._FIT_TOL), axis=1)
        with self._fit_lock:  # one writer, so the coefficients are allocated once
            if self._coef is None:
                self._coef = np.empty((2 * n - 1, self._fitted.size))
            self._coef[:, i[keep]] = coef[:, keep]
            self._poly[i[keep]] = True
            # marked last: a call that finds a panel fitted finds its fit, and
            # one that does not fits it again, to the same bits
            self._fitted[panels] = True

    def _newton(self, u: np.ndarray, idx: np.ndarray, slot: np.ndarray, out: np.ndarray) -> None:
        """Write to ``out[slot]`` the root in panel ``idx`` of ``F(x) = u`` by
        safeguarded Newton iteration (module notes)."""
        knots, cum = self.knots, self.cum
        start = lo = knots[idx]  # lo is rebound, never written in place
        hi = knots[idx + 1]
        offset = cum[idx] - u  # F(x) - u = offset + partial(start, x)
        x = lo - offset / (cum[idx + 1] - cum[idx]) * (hi - lo)
        eps = np.finfo(float).eps
        # a midpoint pass halves the bracket and a Newton pass lands strictly
        # inside it; draws finish within a handful of passes, 200 bound the loop
        for _ in range(200):
            if slot.size == 0:
                break
            diff = offset + self.partial(start, x)
            converged = np.abs(diff) <= self.CDF_VALUE_TOL
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
            x = self._next_point(x, diff, lo, hi)
        if slot.size:
            out[slot] = x

    def _next_point(self, x, diff, lo, hi) -> np.ndarray:
        """The Newton step where it lands strictly inside (lo, hi), else the
        bracket midpoint.  ``x`` is the bracket end away from the root, so an f
        that is zero, negative, NaN or infinite puts the step at or beyond that
        end, or makes it NaN: the one bracket test covers every fallback case.
        Its temporaries die on return, not held through the next pass."""
        slope = self._evaluate(x) / self.total
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - diff / slope
        return np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))


def _cdf_table(d: DensityModel, iv: Interval, cfg: QuadratureConfig) -> _CdfTable:
    return d.memo(("cdf_table", iv.lo, iv.hi, cfg), lambda: _CdfTable(d, iv, cfg))


def cdf_at_points(d: DensityModel, iv: Interval, xs: Sequence[float],
                  cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> np.ndarray:
    """Normalized CDF at each of ``xs``: ``cum[k] + partial(knot[k], x)``."""
    xs = np.asarray(xs, dtype=float)
    outside = ~iv.contains(xs)
    if outside.any():
        raise OutOfSupport(f"x={xs[outside][0]} outside [{iv.lo}, {iv.hi}]")
    return _cdf_table(d, iv, cfg).cdf(xs)


def cdf(d: DensityModel, iv: Interval, x: float,
        cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Normalized CDF of ``d`` restricted to ``iv``, evaluated at ``x``."""
    return float(cdf_at_points(d, iv, [x], cfg)[0])


def mean_position(d: DensityModel, iv: Interval | None = None,
                  cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Mass-weighted mean coordinate of ``d`` over ``iv``."""
    if iv is None:
        iv = d.support
    mass = total_mass(d, iv, cfg)
    first = integrate_with_breakpoints(
        lambda t: t * d.evaluate(t), iv, d.subdivision_points(iv), cfg
    )
    return first / mass
