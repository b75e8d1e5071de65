"""Deterministic adaptive 1D quadrature and central moments.

The integrator is an adaptive Gauss-Legendre pair (10-point estimate nested
inside a 21-point one, difference used as the error estimate) with recursive
interval bisection.  Node tables come from ``numpy.polynomial.legendre`` at
import time, so results are bit-reproducible for fixed inputs and there are
no hand-typed coefficient tables.

Oscillatory densities are handled by mandatory pre-subdivision at the
breakpoints the density advertises (its analytic zeros, plus interpolation
knots for tabulated data): adaptive error estimates are unreliable across
many oscillations, while each sub-arc between zeros is benign.

Integrands must accept a float ndarray and return one of the same shape;
plain scalar callables are detected on first use and evaluated elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .errors import InvalidInterval, NonConvergence

__all__ = [
    "Interval",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "integrate",
    "integrate_with_breakpoints",
    "central_moment",
]

_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(10)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(21)


@dataclass(frozen=True)
class Interval:
    """Closed interval on the detector axis, in mm."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidInterval(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise InvalidInterval(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(self.hi - self.lo):
            raise InvalidInterval(f"interval width must be finite, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x):
        """Elementwise for arrays; NaN is never contained."""
        return (self.lo <= x) & (x <= self.hi)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement budget for :func:`integrate`."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_refinement_depth: int = 60

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_refinement_depth < 1:
            raise ValueError("max_refinement_depth must be >= 1")


DEFAULT_QUADRATURE = QuadratureConfig()


class DensityLike(Protocol):
    """Structural type for densities: vectorized evaluate plus subdivision hints."""

    def evaluate(self, t): ...

    def subdivision_points(self, iv: Interval) -> Sequence[float]: ...


def _vectorize(f: Callable) -> Callable:
    """Wrap ``f`` so it always maps ndarray -> same-shape float ndarray."""
    state = {"scalar": None}

    def call(xs: np.ndarray) -> np.ndarray:
        if state["scalar"] is None:
            try:
                out = np.asarray(f(xs), dtype=float)
                if out.shape == xs.shape:
                    state["scalar"] = False
                    return out
            except (TypeError, ValueError):
                pass
            state["scalar"] = True
        if state["scalar"]:
            return np.array([float(f(x)) for x in xs], dtype=float)
        return np.asarray(f(xs), dtype=float)

    return call


def _panel(fv: Callable, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    hi = half * float(np.dot(_GL_HI_W, fv(mid + half * _GL_HI_X)))
    lo = half * float(np.dot(_GL_LO_W, fv(mid + half * _GL_LO_X)))
    return hi, abs(hi - lo)


def _adapt(fv, a, b, abs_tol, rel_tol, depth):
    value, err = _panel(fv, a, b)
    if err <= max(abs_tol, rel_tol * abs(value)):
        return value
    if depth <= 0:
        raise NonConvergence(
            f"refinement depth exhausted on [{a}, {b}] (error estimate {err:.3e})"
        )
    mid = 0.5 * (a + b)
    left = _adapt(fv, a, mid, 0.5 * abs_tol, rel_tol, depth - 1)
    right = _adapt(fv, mid, b, 0.5 * abs_tol, rel_tol, depth - 1)
    return left + right


def integrate(f: Callable, iv: Interval, cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integrate ``f`` over ``iv`` to the configured tolerance.

    Deterministic for fixed inputs.  Raises :class:`NonConvergence` when the
    refinement budget runs out before the local error estimates meet
    ``max(abs_tol, rel_tol * |I|)``.
    """
    return _adapt(_vectorize(f), iv.lo, iv.hi, cfg.abs_tol, cfg.rel_tol, cfg.max_refinement_depth)


def integrate_with_breakpoints(
    f: Callable,
    iv: Interval,
    breakpoints: Sequence[float],
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Integrate with mandatory subdivision at the given interior points."""
    pts = [p for p in sorted(set(float(b) for b in breakpoints)) if iv.lo < p < iv.hi]
    edges = [iv.lo, *pts, iv.hi]
    fv = _vectorize(f)
    seg_abs = cfg.abs_tol / len(edges)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += _adapt(fv, a, b, seg_abs, cfg.rel_tol, cfg.max_refinement_depth)
    return total


def central_moment(
    d: DensityLike,
    k: int,
    absolute: bool = False,
    iv: Interval | None = None,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """Raw (unnormalized) k-th moment of ``d`` about coordinate zero.

    The caller is responsible for shifting coordinates so the distribution
    center sits at zero; normalization by the total mass is likewise the
    caller's concern.  ``absolute`` integrates |t|^k instead of t^k.
    """
    if k not in (2, 3):
        raise ValueError(f"central_moment supports k in {{2, 3}}, got {k}")
    if iv is None:
        iv = d.support  # type: ignore[attr-defined]

    if absolute:
        def integrand(t):
            return np.abs(t) ** k * d.evaluate(t)
    else:
        def integrand(t):
            return t**k * d.evaluate(t)

    breakpoints = list(d.subdivision_points(iv))
    if absolute and iv.lo < 0.0 < iv.hi:
        breakpoints.append(0.0)  # |t|^k has a derivative kink at the origin
    return integrate_with_breakpoints(integrand, iv, breakpoints, cfg)
