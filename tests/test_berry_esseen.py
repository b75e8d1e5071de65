import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.berry_esseen import (
    BinningScheme,
    BoundConstantVariant,
    BoundReport,
    EmpiricalHistogram,
    Origin,
    REPORT_CSV_COLUMNS,
    bound_rhs,
    empirical_cdf,
    raw_moments,
    report_from_csv_row,
    report_from_json_dict,
    sup_deviation,
    verify_inequality,
    zolotarev_constant,
)
from bornlab.born_density import (
    SlitGeometry,
    cdf,
    double_slit_density,
    recenter,
    scaled,
    total_mass,
    uniform_density,
)
from bornlab.errors import EmptyHistogram
from bornlab.quadrature import DEFAULT_QUADRATURE, Interval, central_moment
from bornlab.sampler import bin_positions, sample_positions

UNIT = Interval(-1.0, 1.0)


def make_hist(counts, origin=Origin.FROM_A, iv=UNIT):
    counts = tuple(counts)
    return EmpiricalHistogram(
        BinningScheme(len(counts), origin, iv), counts, sum(counts)
    )


def test_zolotarev_value():
    c = zolotarev_constant()
    assert c == (3.0 + math.sqrt(10.0)) / (6.0 * math.sqrt(2.0 * math.pi))
    assert 0.4097 < c < 0.4098


def test_variant_ratio_exact():
    lo = BoundConstantVariant.LOWER_BOUND_CONSTANT.constant()
    hi = BoundConstantVariant.PLUS_16_PERCENT.constant()
    assert hi / lo == 1.16


def test_slack_constant_stays_below_ceiling():
    assert 1.16 * zolotarev_constant() < 0.4753


def test_bound_rhs_uniform_closed_form():
    # oracle: closed-form raw moments of a unit-height density on [-1, 1]:
    # rho_raw = 1/2, mass = 2, sigma_raw^2 = 2/3
    d = uniform_density(UNIT)
    expect = zolotarev_constant() * 0.5 * math.sqrt(2.0) / (2.0 / 3.0) ** 1.5
    got = bound_rhs(d, UNIT, BoundConstantVariant.LOWER_BOUND_CONSTANT)
    assert got == pytest.approx(expect, rel=1e-10)
    assert got == pytest.approx(0.40973 * 1.299, abs=1e-3)


def test_bound_rhs_scale_cancels():
    d = uniform_density(UNIT)
    base = bound_rhs(d, UNIT, BoundConstantVariant.LOWER_BOUND_CONSTANT)
    seven = bound_rhs(scaled(d, 7.0), UNIT, BoundConstantVariant.LOWER_BOUND_CONSTANT)
    assert abs(seven - base) <= 1e-12 * base


def test_bound_rhs_equals_normalized_moment_form():
    # dual path: compute C * rho / sigma^3 from independently normalized moments
    g = SlitGeometry()
    d = recenter(double_slit_density(g), g.center_mu)
    miv = Interval(d.support.lo, d.support.hi)
    mass = total_mass(d, miv)
    rho = central_moment(d, 3, absolute=True, iv=miv) / mass
    sigma = math.sqrt(central_moment(d, 2, absolute=False, iv=miv) / mass)
    expect = zolotarev_constant() * rho / sigma**3
    got = bound_rhs(d, miv, BoundConstantVariant.LOWER_BOUND_CONSTANT)
    assert got == pytest.approx(expect, rel=1e-12)


def test_bound_rhs_invariant_over_twelve_orders():
    g = SlitGeometry()
    d = recenter(double_slit_density(g), g.center_mu)
    miv = Interval(d.support.lo, d.support.hi)
    base = bound_rhs(d, miv, BoundConstantVariant.PLUS_16_PERCENT)
    for a in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        got = bound_rhs(scaled(d, a), miv, BoundConstantVariant.PLUS_16_PERCENT)
        assert abs(got - base) <= 1e-9 * base


def test_moment_ratio_at_least_one_for_shipped_densities():
    # power-mean inequality: E|t|^3 >= (E t^2)^(3/2) for centered coordinates
    shipped = [
        recenter(double_slit_density(SlitGeometry()), 0.0),
        uniform_density(UNIT),
        recenter(
            double_slit_density(SlitGeometry(slit_width_w=100.0, slit_separation_d=300.0,
                                             wavelength_lambda=30.0, center_mu=0.0)),
            0.0,
        ),
    ]
    for d in shipped:
        miv = Interval(d.support.lo, d.support.hi)
        ratio = bound_rhs(d, miv, BoundConstantVariant.LOWER_BOUND_CONSTANT) / zolotarev_constant()
        assert ratio >= 1.0


def test_empirical_cdf_all_in_first_bin():
    h = make_hist([8, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    first_edge = h.scheme.edges()[1]
    assert empirical_cdf(h, float(first_edge)) == 1.0


def test_empirical_cdf_at_interval_start():
    h = make_hist([3, 1, 0, 2, 0, 0, 1, 0, 0, 2])
    assert empirical_cdf(h, UNIT.lo) == 0.0


def test_empirical_cdf_orientation_duality():
    counts = [3, 1, 0, 2, 0, 0, 1, 0, 0, 2]
    ha = make_hist(counts, Origin.FROM_A)
    hb = make_hist(counts[::-1], Origin.FROM_B)
    for edge in ha.scheme.edges():
        assert empirical_cdf(ha, float(edge)) + empirical_cdf(hb, float(edge)) == 1.0


@settings(max_examples=150, deadline=None)
@given(data=st.data(), bins=st.integers(1, 40))
def test_orientation_duality_property(data, bins):
    # the two orientations label the same physical bins from opposite ends:
    # the counts reverse exactly, and at every shared edge the two empirical
    # CDFs sum to exactly 1; events on edges and at both ends included
    edges = BinningScheme(bins, Origin.FROM_A, UNIT).edges().tolist()
    position = st.floats(UNIT.lo, UNIT.hi) | st.sampled_from(edges)
    positions = data.draw(st.lists(position, min_size=1, max_size=60))
    ha = bin_positions(positions, BinningScheme(bins, Origin.FROM_A, UNIT))
    hb = bin_positions(positions, BinningScheme(bins, Origin.FROM_B, UNIT))
    assert hb.counts == ha.counts[::-1]
    assert sum(ha.counts) == ha.total_N == hb.total_N == len(positions)
    for edge in edges:
        assert empirical_cdf(ha, edge) + empirical_cdf(hb, edge) == 1.0


def test_empirical_cdf_right_continuous_steps():
    h = make_hist([1, 1, 0, 0])
    edges = h.scheme.edges()
    just_before = float(edges[1]) - 1e-12
    assert empirical_cdf(h, just_before) == 0.0
    assert empirical_cdf(h, float(edges[1])) == 0.5


def test_empty_histogram_raises():
    h = make_hist([0, 0, 0])
    with pytest.raises(EmptyHistogram):
        empirical_cdf(h, 0.0)
    with pytest.raises(EmptyHistogram):
        sup_deviation(h, uniform_density(UNIT))


def test_sup_deviation_proportional_counts_vanish():
    # counts exactly equal to per-bin theoretical masses of the uniform density
    h = make_hist([10] * 10)
    assert sup_deviation(h, uniform_density(UNIT)) == pytest.approx(0.0, abs=1e-12)


def test_sup_deviation_single_event_hand_value():
    h = make_hist([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    assert sup_deviation(h, uniform_density(UNIT)) >= 0.9 - 1e-12


def test_sup_deviation_scale_invariant():
    h = make_hist([2, 0, 1, 4, 9, 8, 2, 1, 0, 3])
    d = uniform_density(UNIT)
    assert sup_deviation(h, scaled(d, 1e6)) == pytest.approx(sup_deviation(h, d), abs=1e-12)


def test_sup_deviation_orientations_agree_at_shared_edges():
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 200, seed=5)
    ha = bin_positions(pos, BinningScheme(10, Origin.FROM_A, d.support))
    hb = bin_positions(pos, BinningScheme(10, Origin.FROM_B, d.support))
    assert sup_deviation(ha, d) == pytest.approx(sup_deviation(hb, d), abs=1e-12)


def test_sup_deviation_matches_bruteforce_scan():
    # brute force: scan 1000 points per bin; the scan sup can exceed the
    # edge sup by at most one bin's theoretical mass
    g = SlitGeometry()
    d = double_slit_density(g)
    iv = d.support
    pos = sample_positions(d, iv, 350, seed=11)
    scheme = BinningScheme(10, Origin.FROM_A, iv)
    h = bin_positions(pos, scheme)
    edge_sup = sup_deviation(h, d)

    edges = scheme.edges()
    masses = np.diff([cdf(d, iv, float(e)) for e in edges])
    xs = np.linspace(iv.lo, iv.hi, 10 * 1000 + 1)
    theo = np.array([cdf(d, iv, float(x)) for x in xs])
    emp = np.array([empirical_cdf(h, float(x)) for x in xs])
    scan_sup = np.abs(emp - theo).max()
    assert edge_sup <= scan_sup + 1e-12
    assert scan_sup - edge_sup <= masses.max() + 1e-12


def test_verify_proportional_counts_all_pass():
    h = make_hist([10] * 10)
    report = verify_inequality(h, uniform_density(UNIT))
    assert report.verdicts.lower_const and report.verdicts.upper_const
    assert report.verdicts.with_sqrtN_lower and report.verdicts.with_sqrtN_upper


def test_verify_adversarial_histogram_fails_literal_form():
    # all 13 events in the first of 10 bins against the uniform density:
    # sup = 0.9 exceeds the literal bound C * 1.299 ~ 0.532
    h = make_hist([13, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    report = verify_inequality(h, uniform_density(UNIT))
    assert report.sup_deviation >= 0.9 - 1e-12
    assert report.rhs_lower_const == pytest.approx(0.5322, abs=1e-3)
    assert not report.verdicts.lower_const
    assert not report.verdicts.upper_const


def test_verdicts_match_definition():
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 54, seed=3)
    h = bin_positions(pos, BinningScheme(12, Origin.FROM_B, d.support))
    r = verify_inequality(h, d)
    assert r.verdicts.lower_const == (r.sup_deviation <= r.rhs_lower_const)
    assert r.verdicts.upper_const == (r.sup_deviation <= r.rhs_upper_const)
    assert r.verdicts.with_sqrtN_lower == (r.sup_deviation <= r.rhs_with_sqrtN_lower)
    assert r.verdicts.with_sqrtN_upper == (r.sup_deviation <= r.rhs_with_sqrtN_upper)
    assert r.rhs_with_sqrtN_lower == pytest.approx(r.rhs_lower_const / math.sqrt(54))
    assert 0.0 <= r.sup_deviation <= 1.0


def test_constant_override_forces_failure():
    h = make_hist([10] * 10, iv=UNIT)
    # proportional counts pass normally; a near-zero constant must fail once
    # any deviation at all is present
    h2 = make_hist([11, 10, 10, 10, 10, 10, 10, 10, 10, 9])
    r = verify_inequality(h2, uniform_density(UNIT), constant_override=1e-9)
    assert not r.verdicts.lower_const
    del h


def test_histogram_validation():
    with pytest.raises(ValueError):
        EmpiricalHistogram(BinningScheme(3, Origin.FROM_A, UNIT), (1, 2), 3)
    with pytest.raises(ValueError):
        EmpiricalHistogram(BinningScheme(2, Origin.FROM_A, UNIT), (1, -1), 0)
    with pytest.raises(ValueError):
        EmpiricalHistogram(BinningScheme(2, Origin.FROM_A, UNIT), (1, 1), 3)
    with pytest.raises(ValueError):
        BinningScheme(0, Origin.FROM_A, UNIT)


def test_median_sup_scales_like_inverse_sqrt_n():
    # doubling N should shrink the median sup-deviation by roughly 1/sqrt(2)
    d = uniform_density(UNIT)
    scheme = BinningScheme(10, Origin.FROM_A, UNIT)

    def median_sup(n):
        sups = []
        for seed in range(100):
            pos = sample_positions(d, UNIT, n, seed)
            sups.append(sup_deviation(bin_positions(pos, scheme), d))
        return float(np.median(sups))

    ratio = median_sup(2000) / median_sup(1000)
    assert 0.6 <= ratio <= 0.85


def test_report_json_roundtrip():
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 101, seed=9)
    h = bin_positions(pos, BinningScheme(10, Origin.FROM_A, d.support))
    r = verify_inequality(h, d)
    blob = json.dumps(r.to_json_dict())
    back = report_from_json_dict(json.loads(blob))
    assert back == r


def test_report_csv_roundtrip():
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 101, seed=9)
    h = bin_positions(pos, BinningScheme(10, Origin.FROM_B, d.support))
    r = verify_inequality(h, d)
    row = r.csv_row()
    assert len(row) == len(REPORT_CSV_COLUMNS)
    assert report_from_csv_row(row) == r


def test_report_is_value_object():
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 13, seed=1)
    h = bin_positions(pos, BinningScheme(10, Origin.FROM_A, d.support))
    assert verify_inequality(h, d) == verify_inequality(h, d)
    assert isinstance(verify_inequality(h, d), BoundReport)


def test_raw_moments_match_mpmath():
    # oracle: mpmath's tanh-sinh quadrature at 30 digits on the closed-form
    # default intensity (centered at 0), split at its closed-form zeros and at
    # the origin, where |t|^3 has a kink; it shares no code with bornlab's
    # density or quadrature
    import mpmath

    g = SlitGeometry()
    density = double_slit_density(g)
    iv = density.support
    with mpmath.workdps(30):
        w = mpmath.mpf(g.slit_width_w) / 10**6
        sep = mpmath.mpf(g.slit_separation_d) / 10**6
        lam = mpmath.mpf(g.wavelength_lambda) / 10**9
        big_l = mpmath.mpf(g.screen_distance_L)

        def intensity(t):
            m = mpmath.pi * w / (lam * mpmath.hypot(big_l, t))
            return mpmath.cos(m * sep / w * t) ** 2 * mpmath.sinc(m * t) ** 2

        # envelope nulls at m(t) t = k pi (k >= 1), fringe nulls at
        # n(t) t = (j + 1/2) pi (j >= 0)
        offsets = []
        for width, order in ((w, mpmath.mpf(1)), (sep, mpmath.mpf(1) / 2)):
            while order * lam < width:
                kl = order * lam
                offsets.append(kl * big_l / mpmath.sqrt(width**2 - kl**2))
                order += 1
        cuts = sorted({s * z for z in offsets for s in (-1, 1)} | {mpmath.mpf(0)})
        pts = [mpmath.mpf(iv.lo), *[z for z in cuts if iv.lo < z < iv.hi], mpmath.mpf(iv.hi)]
        want = [
            mpmath.quad(intensity, pts),
            mpmath.quad(lambda t: t**2 * intensity(t), pts),
            mpmath.quad(lambda t: abs(t) ** 3 * intensity(t), pts),
        ]
    got = raw_moments(density, iv, DEFAULT_QUADRATURE)
    for value, oracle in zip(got, want):
        assert value == pytest.approx(float(oracle), rel=1e-12, abs=0.0)
    mass, var, rho = got
    ratio = float(want[2] * mpmath.sqrt(want[0]) / want[1] ** 1.5)
    assert rho * math.sqrt(mass) / var**1.5 == pytest.approx(ratio, rel=1e-12, abs=0.0)
