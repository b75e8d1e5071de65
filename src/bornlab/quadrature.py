"""Deterministic adaptive 1D quadrature.

The integrator is an adaptive Gauss-Legendre pair (a 21-point value and a
10-point one, their difference used as the error estimate) with recursive
interval bisection.  The two rules share no node, so each panel hands the
integrand all 31 nodes in one call and takes each rule's sum from its own
slice of the result.  Node tables come from ``numpy.polynomial.legendre`` at
import time, so results are bit-reproducible for fixed inputs and there are
no hand-typed coefficient tables.

Oscillatory densities are handled by mandatory pre-subdivision at the
breakpoints the density advertises (its analytic zeros, plus interpolation
knots for tabulated data): adaptive error estimates are unreliable across
many oscillations, while each sub-arc between zeros is benign.

Integrands must accept a float ndarray and return one of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInterval, NonConvergence

__all__ = [
    "Interval",
    "QuadratureConfig",
    "DEFAULT_QUADRATURE",
    "integrate_with_breakpoints",
]

_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(10)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(21)
_GL_X = np.concatenate([_GL_HI_X, _GL_LO_X])  # one panel's nodes: 21-point rule first
_HI = _GL_HI_X.size


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

    def contains(self, x):
        """Elementwise for arrays; NaN is never contained."""
        return (self.lo <= x) & (x <= self.hi)


_MAX_DEPTH = 200  # bisections of one panel: well inside the interpreter's stack limit
# panels one integral may evaluate per segment between its breakpoints: the
# default window's mass takes 1 per segment, a step density with no breakpoint 109 on its
# one segment, and a window far wider than the density up to 2**depth
_PANELS_PER_SEGMENT = 512


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and refinement budget for :func:`integrate_with_breakpoints`.
    An invalid field raises a ValueError whose message starts with its name."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_refinement_depth: int = 60

    def __post_init__(self):
        if not 0 < self.rel_tol < math.inf:  # NaN fails too
            raise ValueError(f"rel_tol must be a finite number > 0, got {self.rel_tol!r}")
        if not 0 <= self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be a finite number >= 0, got {self.abs_tol!r}")
        if not 1 <= self.max_refinement_depth <= _MAX_DEPTH:
            raise ValueError(f"max_refinement_depth must be from 1 to {_MAX_DEPTH}, "
                             f"got {self.max_refinement_depth!r}")


DEFAULT_QUADRATURE = QuadratureConfig()


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = f(mid + half * _GL_X)
    hi = half * float(np.dot(_GL_HI_W, y[:_HI]))
    lo = half * float(np.dot(_GL_LO_W, y[_HI:]))
    return hi, abs(hi - lo)


def _adapt(f, a, b, abs_tol, rel_tol, depth, budget):
    value, err = _panel(f, a, b)
    if err <= max(abs_tol, rel_tol * abs(value)):
        return value
    mid = 0.5 * (a + b)
    budget[0] -= 2  # panels the call may still evaluate, these two halves charged
    # mid at an end means no float lies strictly between a and b: bisection
    # would only repeat this panel, so no depth left can refine it
    if depth <= 0 or not a < mid < b or budget[0] < 0:
        what = "refinement depth" if budget[0] >= 0 else "panel budget"
        raise NonConvergence(f"{what} exhausted on [{a}, {b}] (error estimate {err:.3e})")
    left = _adapt(f, a, mid, 0.5 * abs_tol, rel_tol, depth - 1, budget)
    right = _adapt(f, mid, b, 0.5 * abs_tol, rel_tol, depth - 1, budget)
    return left + right


def integrate_with_breakpoints(f: Callable, iv: Interval, breakpoints: Sequence[float],
                               cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Integrate ``f`` over ``iv``, split at the breakpoints inside it, until each
    panel's error estimate meets ``max(abs_tol, rel_tol * |I|)``; else raise
    :class:`NonConvergence`, also when the call has evaluated
    ``_PANELS_PER_SEGMENT`` panels per segment.  Deterministic for fixed inputs."""
    pts = [p for p in sorted(set(float(b) for b in breakpoints)) if iv.lo < p < iv.hi]
    edges = [iv.lo, *pts, iv.hi]
    seg_abs = cfg.abs_tol / len(edges)
    budget = [(_PANELS_PER_SEGMENT - 1) * (len(edges) - 1)]  # past each segment's first panel
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += _adapt(f, a, b, seg_abs, cfg.rel_tol, cfg.max_refinement_depth, budget)
    return total
