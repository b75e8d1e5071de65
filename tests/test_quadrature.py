import contextlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import born_density, cli, quadrature
from bornlab.berry_esseen import raw_moments
from bornlab.errors import InvalidInterval, NonConvergence, ZeroMass, ZeroVariance
from bornlab.quadrature import (
    DEFAULT_QUADRATURE,
    Interval,
    QuadratureConfig,
    integrate_with_breakpoints,
)
from bornlab.born_density import SlitGeometry, double_slit_density, recenter, uniform_density


def integrate(f, iv, cfg=DEFAULT_QUADRATURE):
    """The integrator with no breakpoints."""
    return integrate_with_breakpoints(f, iv, (), cfg)


def test_interval_validation():
    with pytest.raises(InvalidInterval):
        Interval(1.0, 1.0)
    with pytest.raises(InvalidInterval):
        Interval(2.0, -2.0)
    with pytest.raises(InvalidInterval):
        Interval(0.0, math.inf)
    # finite ends whose width overflows a double: no bin edge, CDF or
    # quadrature panel has a meaning there
    for lo, hi in ((-1e308, 1e308), (-1e308, 9e307), (-sys.float_info.max, sys.float_info.max)):
        with pytest.raises(InvalidInterval, match="width must be finite"):
            Interval(lo, hi)
    iv = Interval(-1.0, 3.0)
    assert iv.contains(3.0) and not iv.contains(3.0001)


def test_config_validation():
    nan = float("nan")
    for bad in ({"rel_tol": 0.0}, {"rel_tol": nan}, {"rel_tol": math.inf},
                {"abs_tol": -1.0}, {"abs_tol": nan}, {"abs_tol": math.inf},
                {"max_refinement_depth": 0}, {"max_refinement_depth": 201}):
        [name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be"):
            QuadratureConfig(**bad)
    assert QuadratureConfig(abs_tol=0.0, max_refinement_depth=200).max_refinement_depth == 200


def test_identity_on_unit_interval():
    assert integrate(lambda t: t, Interval(0.0, 1.0)) == pytest.approx(0.5, abs=1e-12)


def test_odd_function_cancels():
    assert integrate(lambda t: t, Interval(-1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_sine_against_antiderivative_oracle():
    # oracle: closed-form antiderivative, -cos(pi) + cos(0) = 2
    assert integrate(np.sin, Interval(0.0, math.pi)) == pytest.approx(2.0, abs=1e-9)


def test_deterministic_for_fixed_inputs():
    f = lambda t: np.sin(17.3 * t) * np.exp(-t * t)
    iv = Interval(-2.0, 3.0)
    assert integrate(f, iv) == integrate(f, iv)


def test_non_convergence_on_exhausted_budget():
    cfg = QuadratureConfig(rel_tol=1e-13, abs_tol=0.0, max_refinement_depth=3)
    with pytest.raises(NonConvergence):
        integrate(lambda t: np.abs(t - 1.0 / 3.0) ** -0.5, Interval(0.0, 1.0), cfg)


def test_linearity_within_ten_tolerances():
    iv = Interval(0.0, 2.0)
    f = lambda t: np.sin(3.0 * t)
    g = lambda t: t * t
    lhs = integrate(lambda t: 2.5 * f(t) - 1.5 * g(t), iv)
    rhs = 2.5 * integrate(f, iv) - 1.5 * integrate(g, iv)
    tol = max(DEFAULT_QUADRATURE.abs_tol, DEFAULT_QUADRATURE.rel_tol * abs(lhs))
    assert abs(lhs - rhs) <= 10 * tol


def test_interval_additivity_within_ten_tolerances():
    f = lambda t: np.cos(5.0 * t) + t
    whole = integrate(f, Interval(-1.0, 2.0))
    split = integrate(f, Interval(-1.0, 0.3)) + integrate(f, Interval(0.3, 2.0))
    tol = max(DEFAULT_QUADRATURE.abs_tol, DEFAULT_QUADRATURE.rel_tol * abs(whole))
    assert abs(whole - split) <= 10 * tol


def test_refinement_monotonicity_against_fixed_grid_oracle():
    # oracle: composite Simpson on a fixed 10^6-point grid
    f = lambda t: np.sin(37.0 * t) * np.exp(0.3 * t)
    iv = Interval(0.0, 3.0)
    xs = np.linspace(iv.lo, iv.hi, 1_000_001)
    ys = f(xs)
    h = xs[1] - xs[0]
    oracle = (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum()) * h / 3.0

    rel = 1e-3
    last = None
    while rel >= 1e-9:
        got = integrate(f, iv, QuadratureConfig(rel_tol=rel, abs_tol=0.0))
        disc = abs(got - oracle)
        if last is not None:
            assert disc <= last + 1e-13
        last = disc
        rel /= 2.0


def test_central_moment_uniform_second():
    # oracle: closed form, int_{-1}^{1} dt = 2 and int_{-1}^{1} t^2 dt = 2/3
    iv = Interval(-1.0, 1.0)
    mass, var_raw, _ = raw_moments(uniform_density(iv), iv, 0.0, DEFAULT_QUADRATURE)
    assert mass == pytest.approx(2.0, rel=1e-12)
    assert var_raw == pytest.approx(2.0 / 3.0, rel=1e-10)


def test_central_moment_uniform_third_absolute():
    # oracle: closed form, int_{-1}^{1} |t|^3 dt = 1/2
    iv = Interval(-1.0, 1.0)
    assert raw_moments(uniform_density(iv), iv, 0.0, DEFAULT_QUADRATURE)[2] == pytest.approx(
        0.5, rel=1e-10)


@pytest.mark.parametrize("lo, hi", [(-0.3, 1.7), (-1.9, 0.23), (-1.0, 1e-9)])
def test_third_absolute_moment_kink_off_the_breakpoints(lo, hi):
    # oracle: closed form, int_lo^hi |t|^3 dt = (lo^4 + hi^4) / 4 for lo < 0 < hi.
    # The origin is no edge of the window and no subdivision point of the
    # density, so only the kink breakpoint that raw_moments adds splits there;
    # without it, at abs_tol 0, the panels around the kink never converge
    iv = Interval(lo, hi)
    d = uniform_density(iv, height=1.5)
    assert 0.0 not in d.subdivision_points(iv)
    _, var_raw, rho_raw = raw_moments(d, iv, 0.0, QuadratureConfig(abs_tol=0.0))
    assert var_raw == pytest.approx(1.5 * (hi**3 - lo**3) / 3.0, rel=1e-12)
    assert rho_raw == pytest.approx(1.5 * (lo**4 + hi**4) / 4.0, rel=1e-12)


def test_central_moment_symmetric_third_vanishes():
    d = uniform_density(Interval(-2.0, 2.0), height=0.7)
    got = integrate(lambda t: t**3 * d.evaluate(t), Interval(-2.0, 2.0))
    assert abs(got) < 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_absolute_moment_nonnegative(k):
    d = uniform_density(Interval(-1.5, 0.5), height=0.3)
    assert integrate(lambda t: np.abs(t) ** k * d.evaluate(t), Interval(-1.5, 0.5)) >= 0.0


def test_breakpoint_subdivision_matches_plain_integration():
    f = lambda t: np.sin(8.0 * t) ** 2
    iv = Interval(0.0, 2.0)
    plain = integrate(f, iv)
    split = integrate_with_breakpoints(f, iv, [0.4, 1.1, 1.9])
    assert split == pytest.approx(plain, rel=1e-10)


def _counting_panel(monkeypatch):
    """Patch ``quadrature._panel`` to record each panel's ends; returns the list."""
    panels = []
    panel = quadrature._panel
    monkeypatch.setattr(quadrature, "_panel",
                        lambda f, a, b: panels.append((a, b)) or panel(f, a, b))
    return panels


def test_each_panel_calls_the_integrand_once_on_31_nodes(monkeypatch):
    # both rules' nodes go to the integrand in one call: 21 then 10
    panels = _counting_panel(monkeypatch)
    sizes = []
    f = lambda t: sizes.append(t.size) or np.sin(17.3 * t) * np.exp(-t * t)
    integrate(f, Interval(-2.0, 3.0))
    assert len(panels) > 1
    assert sizes == [31] * len(panels)


def test_unsplittable_panel_raises_at_once(monkeypatch):
    # no float lies between the ends, so bisection cannot split the panel: an
    # unreachable tolerance fails on its first evaluation, naming it, not after
    # the same panel has been evaluated down to the depth cap
    a, b = 1.0, math.nextafter(1.0, 2.0)
    panels = _counting_panel(monkeypatch)
    cfg = QuadratureConfig(rel_tol=1e-300, abs_tol=0.0, max_refinement_depth=200)
    with pytest.raises(NonConvergence, match=re.escape(f"[{a}, {b}]")):
        integrate(np.exp, Interval(a, b), cfg)
    assert panels == [(a, b)]


@pytest.mark.parametrize("breakpoints", [(), (-0.5, 0.25, 3.0)])
def test_panel_budget_bounds_each_call(monkeypatch, breakpoints):
    # a step at an irrational point never settles below this tolerance, and
    # depth 200 alone would allow 2**200 panels: the call stops after
    # _PANELS_PER_SEGMENT panels per segment, naming the failing panel
    monkeypatch.setattr(quadrature, "_PANELS_PER_SEGMENT", 40)
    panels = _counting_panel(monkeypatch)
    cfg = QuadratureConfig(rel_tol=1e-15, abs_tol=0.0, max_refinement_depth=200)
    f = lambda t: np.where(np.abs(t) < 1 / math.pi, 1.0, 2.0)
    with pytest.raises(NonConvergence, match=r"^panel budget exhausted on \[\S+, \S+\]"):
        integrate_with_breakpoints(f, Interval(-1.0, 1.0), breakpoints, cfg)
    segments = 1 + sum(-1.0 < p < 1.0 for p in breakpoints)
    # the budget also holds the right halves still pending on the failing path
    assert 20 * segments < len(panels) <= 40 * segments


def _three_integrals(d, iv, cfg):
    """The mass, second and third absolute moment of ``d`` over ``iv``, each its
    own adaptive integral, the third split at the origin; the mass integral is
    the one the CDF table checks its rule against.  ZeroMass or NonConvergence
    of the mass integral is given as its type, ZeroVariance as its type where
    the second moment is at most ``abs_tol``, and None where a moment integral
    does not converge."""
    pts = d.subdivision_points(iv)
    try:
        mass = integrate_with_breakpoints(d.evaluate, iv, pts, cfg)
    except NonConvergence:
        return NonConvergence
    if not mass > cfg.abs_tol:
        return ZeroMass
    try:
        var_raw = integrate_with_breakpoints(lambda t: t**2 * d.evaluate(t), iv, pts, cfg)
        rho_raw = integrate_with_breakpoints(lambda t: np.abs(t) ** 3 * d.evaluate(t), iv,
                                             (*pts, 0.0), cfg)
    except NonConvergence:
        return None
    return (mass, var_raw, rho_raw) if var_raw > cfg.abs_tol else ZeroVariance


@settings(max_examples=40, deadline=None)
@given(w=st.floats(30.0, 120.0), ratio=st.floats(1.5, 6.0), lam=st.floats(20.0, 80.0),
       mu=st.floats(-0.05, 0.05), center=st.floats(-0.2, 0.2),
       ends=st.tuples(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9)).filter(lambda e: e[0] != e[1]),
       rel_tol=st.sampled_from([1e-6, 1e-9, 1e-11]), abs_tol=st.sampled_from([0.0, 1e-12, 1e-9]),
       depth=st.integers(8, 60))
@pytest.mark.parametrize("half", [None, 0, 1])
def test_raw_moments_equal_three_independent_integrals(half, w, ratio, lam, mu, center, ends,
                                                       rel_tol, abs_tol, depth):
    """The table's moments against three adaptive integrals.  The window often
    holds 0, a kink of |t|^3 that is no breakpoint of the density.

    With ``half`` 0 or 1 the density's memo already holds the table of the
    window's left or right half, as it holds the detection interval's table
    when a config sets its own moment window: the moments still read their
    own window's table, bit for bit those of a fresh density.

    The bound comes from the two rules' tolerances.  The adaptive integrals
    stop where each panel's error estimate is at most ``max(abs_tol, rel_tol *
    |I|)``, so each is within ``rel_tol * |I| + abs_tol`` of the truth.  The
    table keeps a fixed rule whose mass is within ``max(1e-9 * M, 10 *
    abs_tol)`` of that adaptive mass ``M``, so within ``table = max(1e-9 * M,
    10 * abs_tol) + rel_tol * M + abs_tol`` of the true mass.  The moments use
    the same rule on the same panels, with a weight ``|t|^k <= R^k`` (``R`` the
    window's largest ``|t|``) that is a polynomial on each panel once the one
    holding 0 is split, so the k-th moment is within ``R^k * table`` of the
    truth.  The two differ by at most the sum.  In two runs of 400 draws no
    gap used more than 2e-5 of its bound, and none passed 6e-14 relative."""
    g = SlitGeometry(slit_width_w=w, slit_separation_d=w * ratio, wavelength_lambda=lam,
                     center_mu=mu)
    d = recenter(double_slit_density(g), center)
    iv = Interval(min(ends), max(ends))
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=abs_tol, max_refinement_depth=depth)
    if half is not None:
        mid = 0.5 * (iv.lo + iv.hi)
        with contextlib.suppress(NonConvergence, ZeroMass, ZeroVariance):
            raw_moments(d, Interval(*((iv.lo, mid), (mid, iv.hi))[half]), 0.0, cfg)
    want = _three_integrals(d, iv, cfg)
    if isinstance(want, type):
        with pytest.raises(want):
            raw_moments(d, iv, 0.0, cfg)
    elif want is not None:
        got = raw_moments(d, iv, 0.0, cfg)
        if half is not None:
            assert got == raw_moments(recenter(double_slit_density(g), center), iv, 0.0, cfg)
        mass = want[0]
        table = max(1e-9 * mass, 10 * abs_tol) + rel_tol * mass + abs_tol
        reach = max(abs(iv.lo), abs(iv.hi))
        for k, value, oracle in zip((0, 2, 3), got, want):
            assert abs(value - oracle) <= reach**k * table + rel_tol * oracle + abs_tol


@pytest.mark.parametrize("command", ["replicate", "bound"])
def test_golden_command_builds_one_cdf_table(monkeypatch, tmp_path, command):
    # at mu 0 with no moment_interval the centered moment window is the
    # detection interval, so the moments read the table that sampling and the
    # edge CDFs read: one table per command, none for the moments alone
    config = Path(__file__).parent / "data" / "golden_config.json"
    built = []
    init = born_density._CdfTable.__init__
    monkeypatch.setattr(born_density._CdfTable, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "out.json")]) == 0
    assert len(built) == 1
