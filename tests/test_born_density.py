import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import cli
from bornlab.born_density import (
    DensityModel,
    SlitGeometry,
    TabulatedDensity,
    cdf,
    default_support,
    double_slit_density,
    mean_position,
    recenter,
    scaled,
    total_mass,
    uniform_density,
)
from bornlab.errors import InvalidGeometry, OutOfSupport, ZeroMass
from bornlab.quadrature import Interval
from reference import double_slit_intensity, phases


@pytest.fixture(scope="module")
def geometry():
    return SlitGeometry()


@pytest.fixture(scope="module")
def density(geometry):
    return double_slit_density(geometry)


def test_geometry_validation():
    with pytest.raises(InvalidGeometry):
        SlitGeometry(slit_width_w=-1.0)
    with pytest.raises(InvalidGeometry):
        SlitGeometry(wavelength_lambda=0.0)
    with pytest.raises(InvalidGeometry):
        SlitGeometry(slit_width_w=300.0, slit_separation_d=272.0)


def test_envelope_at_center_direct_arithmetic():
    # w=100 nm, L=1e5 nm = 0.1 mm, lambda=0.05 nm = 50 pm: with every length in
    # nm, m(t) t = pi at t = L lambda / sqrt(w^2 - lambda^2), the first
    # envelope null, where the kernel's sinc factor vanishes (n = 3m, so the
    # fringe factor is 1 there)
    g = SlitGeometry(slit_width_w=100.0, slit_separation_d=300.0,
                     screen_distance_L=0.1, wavelength_lambda=50.0)
    t_nm = 1e5 * 0.05 / math.sqrt(100.0**2 - 0.05**2)
    d = double_slit_density(g)
    assert d.evaluate(t_nm * 1e-6) < 1e-20
    assert d.evaluate(1.001 * t_nm * 1e-6) > 1e-7


# the wavenumber tests below read tests/reference.phases, the closed form that
# the kernel matches bit for bit (test_kernel_matches_closed_form_bit_for_bit)
def test_envelope_center_closed_form(geometry):
    expect = math.pi * geometry.w_mm / (geometry.screen_distance_L * geometry.lambda_mm)
    am, _ = phases(geometry, geometry.center_mu + 1e-9)
    assert am / 1e-9 == pytest.approx(expect, rel=1e-14)


def test_envelope_even_in_offset(geometry):
    mu = geometry.center_mu
    for delta in (0.01, 0.3, 0.9):
        assert phases(geometry, mu + delta)[0] == -phases(geometry, mu - delta)[0]


def test_fringe_ratio_exact(geometry):
    for t in (-0.7, -0.05, 0.123, 0.9):
        am, an = phases(geometry, t)
        assert an / am == 272.0 / 62.0


def test_fringe_ratio_value(geometry):
    am, an = phases(geometry, 0.5)
    assert an / am == pytest.approx(4.387096774193548, rel=1e-12)


def test_fringe_center_closed_form(geometry):
    expect = math.pi * geometry.d_mm / (geometry.screen_distance_L * geometry.lambda_mm)
    _, an = phases(geometry, geometry.center_mu + 1e-9)
    assert an / 1e-9 == pytest.approx(expect, rel=5e-15)


def test_peak_value_is_exactly_i0():
    g = SlitGeometry(peak_height_I0=3.5)
    d = double_slit_density(g)
    assert float(d.evaluate(np.array([g.center_mu]))[0]) == 3.5


def test_density_even_about_center(density, geometry):
    mu = geometry.center_mu
    deltas = np.linspace(1e-4, 1.0, 57)
    left = density.evaluate(mu - deltas)
    right = density.evaluate(mu + deltas)
    assert np.array_equal(left, right)


def test_first_fringe_zero(density, geometry):
    zeros = [z for z in density.subdivision_points(density.support) if z > geometry.center_mu]
    t_star = zeros[0]
    # first positive zero satisfies n(t*) (t* - mu) = pi/2
    _, phase = phases(geometry, t_star)
    assert phase == pytest.approx(math.pi / 2.0, rel=1e-12)
    assert float(density.evaluate(np.array([t_star]))[0]) < 1e-12 * geometry.peak_height_I0


def test_all_advertised_zeros_vanish(density, geometry):
    vals = density.evaluate(np.array(density.subdivision_points(density.support)))
    assert np.all(vals < 1e-12 * geometry.peak_height_I0)


def test_nonnegative_on_dense_scan(density):
    ts = np.linspace(density.support.lo, density.support.hi, 100_000)
    assert np.all(density.evaluate(ts) >= 0.0)


def test_default_support_holds_envelope_nulls(density, geometry):
    # at least 4 envelope nulls per side: count zeros where the sinc factor dies
    mu = geometry.center_mu
    lam, w, L = geometry.lambda_mm, geometry.w_mm, geometry.screen_distance_L
    env = [k * lam * L / math.sqrt(w * w - (k * lam) ** 2) for k in range(1, 5)]
    assert all(mu + z < density.support.hi and mu - z > density.support.lo for z in env)


def test_total_mass_uniform():
    assert total_mass(uniform_density(Interval(-1.0, 1.0))) == pytest.approx(2.0, rel=1e-12)


def test_total_mass_scales_linearly(density):
    m1 = total_mass(density)
    m7 = total_mass(scaled(density, 7.0))
    assert m7 == pytest.approx(7.0 * m1, rel=1e-12)


def test_total_mass_against_riemann_grid_oracle(density):
    # oracle: midpoint Riemann sum on a fixed 10^6-cell grid
    lo, hi = density.support.lo, density.support.hi
    cells = 1_000_000
    h = (hi - lo) / cells
    mids = lo + h * (np.arange(cells) + 0.5)
    oracle = density.evaluate(mids).sum() * h
    assert total_mass(density) == pytest.approx(oracle, rel=1e-7)


def test_zero_mass_raises():
    with pytest.raises(ZeroMass):
        total_mass(uniform_density(Interval(0.0, 1.0), height=0.0))


def test_cdf_boundaries(density):
    iv = density.support
    assert cdf(density, iv, iv.lo) == 0.0
    assert cdf(density, iv, iv.hi) == pytest.approx(1.0, abs=1e-12)


def test_cdf_symmetric_center(density, geometry):
    assert cdf(density, density.support, geometry.center_mu) == pytest.approx(0.5, abs=1e-9)


def test_cdf_scale_invariant(density):
    iv = density.support
    xs = np.linspace(iv.lo, iv.hi, 11)
    base = [cdf(density, iv, float(x)) for x in xs]
    for a in (1e-6, 1.0, 1e6):
        d2 = scaled(density, a)
        got = [cdf(d2, iv, float(x)) for x in xs]
        assert got == pytest.approx(base, abs=1e-12)


def test_cdf_monotone_on_scan(density):
    iv = density.support
    xs = np.linspace(iv.lo, iv.hi, 10_000)
    vals = np.array([cdf(density, iv, float(x)) for x in xs])
    assert np.all(np.diff(vals) >= -1e-13)


def test_cdf_step_density_without_breakpoint():
    # a jump that the density does not advertise: the table refines its panels
    # around it, so the CDF meets the exact one also close to the step
    s = 0.33371
    iv = Interval(0.0, 1.0)
    d = DensityModel(lambda t: np.where(np.asarray(t) <= s, 1.0, 2.0), iv)
    xs = np.linspace(0.3, 0.36, 601)
    exact = (np.minimum(xs, s) + 2.0 * np.maximum(xs - s, 0.0)) / (2.0 - s)
    got = np.array([cdf(d, iv, float(x)) for x in xs])
    assert np.max(np.abs(got - exact)) <= 1e-12


def test_cdf_out_of_support(density):
    iv = density.support
    with pytest.raises(OutOfSupport):
        cdf(density, iv, iv.hi + 0.1)


def test_mean_position_at_pattern_center():
    g = SlitGeometry(center_mu=0.25)
    d = double_slit_density(g)
    assert mean_position(d) == pytest.approx(0.25, abs=1e-9)
    centered = recenter(d, 0.25)
    assert centered.support.lo == pytest.approx(d.support.lo - 0.25)
    assert float(centered.evaluate(np.array([0.0]))[0]) == g.peak_height_I0


def test_tabulated_validation():
    with pytest.raises(ValueError):
        TabulatedDensity([0.0], [1.0])
    with pytest.raises(ValueError):
        TabulatedDensity([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        TabulatedDensity([0.0, 1.0], [1.0, -0.5])


def test_tabulated_interpolates_linearly():
    d = TabulatedDensity([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert float(d.evaluate(np.array([0.5]))[0]) == pytest.approx(1.0)
    assert total_mass(d) == pytest.approx(2.0, rel=1e-12)


def test_tabulated_total_mass_is_the_trapezoid_sum():
    # the tent through (0, 0), (1, 2), (3, 0): its mass is 3 over the knots
    # and 0.75 + 1.5 over [0.5, 2], off-knot ends included
    d = TabulatedDensity([0.0, 1.0, 3.0], [0.0, 2.0, 0.0])
    assert total_mass(d) == 3.0
    assert total_mass(d, Interval(0.5, 2.0)) == 2.25
    with pytest.raises(ZeroMass):
        total_mass(TabulatedDensity([0.0, 1.0], [0.0, 0.0]))
    # a Gaussian on 2,048 knots: the adaptive integral of the same
    # piecewise-linear function agrees to rounding
    from bornlab.quadrature import DEFAULT_QUADRATURE, integrate_with_breakpoints

    t = np.linspace(-40.0, 40.0, 2048)
    d = TabulatedDensity(t, np.exp(-t * t / 2.0))
    for iv in (d.support, Interval(-3.3, 0.7)):
        adaptive = integrate_with_breakpoints(d.evaluate, iv, d.subdivision_points(iv),
                                              DEFAULT_QUADRATURE)
        assert total_mass(d, iv) == pytest.approx(adaptive, rel=1e-14, abs=0.0)


def test_explicit_support_override():
    g = SlitGeometry()
    iv = Interval(-0.5, 0.5)
    d = double_slit_density(g, support=iv)
    assert d.support == iv
    zeros = d.subdivision_points(Interval(-10.0, 10.0))  # none kept outside the support
    assert zeros and all(iv.lo < z < iv.hi for z in zeros)


def test_default_support_rejects_subwavelength_slits(tmp_path):
    # lambda >= w (62 nm): not even a first envelope null exists
    for lam in (62_000.0, 100_000.0):
        with pytest.raises(InvalidGeometry):
            default_support(SlitGeometry(wavelength_lambda=lam))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geometry": {"lambda_pm": 62_000.0}}))
    assert cli.main(["bound", "--config", str(path)]) == 2


def test_default_support_with_fewer_than_five_envelope_nulls():
    # lambda = 20,000 pm leaves three envelope nulls per side, so the
    # half-width is 1.05 * 5 * the first null instead of 1.05 * the fifth
    g = SlitGeometry(wavelength_lambda=20_000.0)
    first = 20e-6 * 240.0 / math.sqrt(62e-6**2 - 20e-6**2)
    support = default_support(g)
    assert support.hi == -support.lo == 429.4068512523282
    assert support.hi == pytest.approx(1.05 * 5 * first, rel=1e-14)
    d = double_slit_density(g)
    assert d.support == support
    zeros = d.subdivision_points(Interval(2 * support.lo, 2 * support.hi))
    assert zeros and all(support.lo < z < support.hi for z in zeros)


@settings(max_examples=12, deadline=None)
@given(w=st.floats(20.0, 200.0), d_over_w=st.floats(1.1, 6.0), lam_over_w=st.floats(0.01, 0.9),
       big_l=st.floats(50.0, 1000.0), mu=st.floats(-5.0, 5.0))
# the fifth envelope null at 5 * lambda within 1% of w: slit**2 - s**2 cancels
@example(w=31.0, d_over_w=2.0, lam_over_w=0.1990156939447932, big_l=50.0, mu=0.0)
def test_advertised_zeros_match_mpmath_roots(w, d_over_w, lam_over_w, big_l, mu):
    # oracle: mpmath.findroot at 50 digits on the envelope sin(m(t)(t - mu))
    # or the fringe cos(n(t)(t - mu)), whichever is nearer zero at the
    # advertised zero it starts from; lam_over_w > 0.2 takes the support
    # fallback of fewer than five envelope nulls
    import mpmath

    g = SlitGeometry(slit_width_w=w, slit_separation_d=w * d_over_w, screen_distance_L=big_l,
                     wavelength_lambda=1000.0 * w * lam_over_w, center_mu=mu)
    d = double_slit_density(g)
    half = d.support.hi - mu
    zeros = d.subdivision_points(d.support)
    assert zeros
    with mpmath.workdps(50):
        lam, length, center = (mpmath.mpf(v) for v in (g.lambda_mm, big_l, mu))

        def phase(slit_mm, t):
            return (mpmath.pi * mpmath.mpf(slit_mm) * (t - center)
                    / (lam * mpmath.hypot(length, t - center)))

        def envelope(t):
            return mpmath.sin(phase(g.w_mm, t))

        def fringe(t):
            return mpmath.cos(phase(g.d_mm, t))

        for z in zeros:
            f = min((envelope, fringe), key=lambda f: abs(f(z)))
            root = mpmath.findroot(f, (mpmath.mpf(z), mpmath.mpf(z) + 1e-12 * half))
            assert abs(root - z) <= 1e-14 * half


def _same_bits(got, want):
    """Same type, shape and bits (NaN payloads included)."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(w=st.floats(20.0, 200.0), d_over_w=st.floats(1.1, 6.0), lam_over_w=st.floats(0.01, 0.9),
       big_l=st.floats(50.0, 1000.0), mu=st.floats(-1e3, 1e3), i0=st.floats(1e-3, 1e3),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(w=62.0, d_over_w=272.0 / 62.0, lam_over_w=50.0 / 62000.0, big_l=240.0, mu=0.0, i0=1.0,
         n=21, seed=0)
def test_kernel_matches_closed_form_bit_for_bit(w, d_over_w, lam_over_w, big_l, mu, i0, n, seed):
    # the in-place kernel against the closed form of tests/reference.py: across
    # the support, at mu, within 4e-9 of mu (where the sinc guard takes over
    # and where it lets go), at NaN and +-inf, for every form of input
    g = SlitGeometry(slit_width_w=w, slit_separation_d=w * d_over_w, screen_distance_L=big_l,
                     wavelength_lambda=1000.0 * w * lam_over_w, center_mu=mu, peak_height_I0=i0)
    evaluate = double_slit_density(g).evaluate
    rng = np.random.default_rng(seed)
    half = default_support(g).hi - mu
    # |m (t - mu)| = 4e-9 about this far from mu, where the guard lets go
    guard = 4e-9 * big_l / (math.pi * g.w_mm / g.lambda_mm)
    near = [mu, np.nextafter(mu, math.inf), np.nextafter(mu, -math.inf), mu + guard,
            mu - guard * (1 - 1e-12), mu + guard * (1 + 1e-12), mu + 4e-9, mu - 4e-9,
            *(mu + rng.uniform(-4e-9, 4e-9, 4))]
    specials = [*near, math.nan, math.inf, -math.inf]
    xs = np.concatenate([specials, mu + half * rng.uniform(-1.2, 1.2, n)])
    cube = mu + half * rng.uniform(-1.2, 1.2, (3, n, 21))
    cube[0, 0, :len(specials)] = specials[:21]
    with np.errstate(invalid="ignore"):  # inf / inf at +-inf, on both sides
        for x in specials:
            _same_bits(evaluate(x), double_slit_intensity(g, x))
            _same_bits(evaluate(np.array(x)), double_slit_intensity(g, np.array(x)))
        for t in (xs.tolist(), xs, xs[::-3], cube, cube.transpose(2, 0, 1)):
            _same_bits(evaluate(t), double_slit_intensity(g, t))
