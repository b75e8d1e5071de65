import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab.berry_esseen import (
    BinningScheme,
    BoundConstantVariant,
    Origin,
    bound_reports,
    bound_rhs,
    literal_rhs,
    raw_moments,
    sup_deviations,
    zolotarev_constant,
)
from bornlab.born_density import (
    SlitGeometry,
    cdf,
    cdf_at_points,
    double_slit_density,
    recenter,
    scaled,
    uniform_density,
)
from bornlab.errors import EmptyHistogram
from bornlab.harness import ConvergenceReport, ReportRow, _columns, emit_report, load_report
from bornlab.quadrature import DEFAULT_QUADRATURE, Interval, integrate_with_breakpoints
from bornlab.sampler import bin_counts, sample_positions
from reference import EmpiricalHistogram, empirical_cdf

UNIT = Interval(-1.0, 1.0)


def make_hist(counts, origin=Origin.FROM_A, iv=UNIT):
    counts = tuple(counts)
    return EmpiricalHistogram(BinningScheme(len(counts), iv), origin, counts, sum(counts))


def histogram(positions, scheme, origin=Origin.FROM_A):
    """``positions`` binned by ``bin_counts`` as a 1 x N block, counted from ``origin``."""
    counts = bin_counts(np.reshape(positions, (1, -1)), scheme)[0]
    if origin is Origin.FROM_B:
        counts = counts[::-1]
    return EmpiricalHistogram(scheme, origin, tuple(counts.tolist()), int(counts.sum()))


def block_sup(h, d):
    """``sup_deviations`` of one histogram, a 1 x bins count block."""
    theory = cdf_at_points(d, h.scheme.interval, h.scheme.edges())
    return sup_deviations(np.array([h.counts]), h.total_N, theory, h.origin).item()


def block_report(h, d, c, constant_override=None):
    """The report row of one histogram: ``bound_reports`` of its sup, the
    right-hand sides from ``literal_rhs`` over the histogram interval centered
    at ``c``."""
    iv = h.scheme.interval
    rhs = literal_rhs(d, Interval(iv.lo - c, iv.hi - c), c, DEFAULT_QUADRATURE, constant_override)
    r = [column.item() for column in bound_reports(np.array([block_sup(h, d)]), h.total_N, rhs)]
    return ReportRow(None, h.total_N, *r, h.scheme.bin_count, h.origin, iv.lo, iv.hi)


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
    # dual path: compute C * rho / sigma^3 from independently normalized
    # moments, each integrated here rather than through raw_moments
    g = SlitGeometry()
    d = recenter(double_slit_density(g), g.center_mu)
    miv = Interval(d.support.lo, d.support.hi)
    points = d.subdivision_points(miv)

    def moment(weight, extra=()):
        return integrate_with_breakpoints(lambda t: weight(t) * d.evaluate(t), miv,
                                          (*points, *extra))

    mass = moment(np.ones_like)
    rho = moment(lambda t: np.abs(t) ** 3, extra=(0.0,)) / mass
    sigma = math.sqrt(moment(np.square) / mass)
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
    # bin_counts is ascending for both, so the scheme-order counts reverse
    # exactly, and at every shared edge the two empirical CDFs sum to exactly
    # 1; events on edges and at both ends included
    edges = BinningScheme(bins, UNIT).edges().tolist()
    position = st.floats(UNIT.lo, UNIT.hi) | st.sampled_from(edges)
    positions = data.draw(st.lists(position, min_size=1, max_size=60))
    ha = histogram(positions, BinningScheme(bins, UNIT))
    hb = histogram(positions, BinningScheme(bins, UNIT), Origin.FROM_B)
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
        block_sup(h, uniform_density(UNIT))


def test_sup_deviation_proportional_counts_vanish():
    # counts exactly equal to per-bin theoretical masses of the uniform density
    h = make_hist([10] * 10)
    assert block_sup(h, uniform_density(UNIT)) == pytest.approx(0.0, abs=1e-12)


def test_sup_deviation_single_event_hand_value():
    h = make_hist([1, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    assert block_sup(h, uniform_density(UNIT)) >= 0.9 - 1e-12


def test_sup_deviation_scale_invariant():
    h = make_hist([2, 0, 1, 4, 9, 8, 2, 1, 0, 3])
    d = uniform_density(UNIT)
    assert block_sup(h, scaled(d, 1e6)) == pytest.approx(block_sup(h, d), abs=1e-12)


def test_sup_deviation_orientations_agree_at_shared_edges():
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 200, seed=5)
    ha = histogram(pos, BinningScheme(10, d.support))
    hb = histogram(pos, BinningScheme(10, d.support), Origin.FROM_B)
    assert block_sup(ha, d) == pytest.approx(block_sup(hb, d), abs=1e-12)


def test_sup_deviation_matches_bruteforce_scan():
    # brute force: scan 1000 points per bin; the scan sup can exceed the
    # edge sup by at most one bin's theoretical mass
    g = SlitGeometry()
    d = double_slit_density(g)
    iv = d.support
    pos = sample_positions(d, iv, 350, seed=11)
    scheme = BinningScheme(10, iv)
    h = histogram(pos, scheme)
    edge_sup = block_sup(h, d)

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
    report = block_report(h, uniform_density(UNIT), 0.0)
    assert report.verdict_lower_const and report.verdict_upper_const
    assert report.verdict_with_sqrtN_lower and report.verdict_with_sqrtN_upper


def test_verify_adversarial_histogram_fails_literal_form():
    # all 13 events in the first of 10 bins against the uniform density:
    # sup = 0.9 exceeds the literal bound C * 1.299 ~ 0.532
    h = make_hist([13, 0, 0, 0, 0, 0, 0, 0, 0, 0])
    report = block_report(h, uniform_density(UNIT), 0.0)
    assert report.sup_deviation >= 0.9 - 1e-12
    assert report.rhs_lower_const == pytest.approx(0.5322, abs=1e-3)
    assert not report.verdict_lower_const
    assert not report.verdict_upper_const


def test_verdicts_match_definition():
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 54, seed=3)
    h = histogram(pos, BinningScheme(12, d.support), Origin.FROM_B)
    r = block_report(h, d, g.center_mu)
    assert r.verdict_lower_const == (r.sup_deviation <= r.rhs_lower_const)
    assert r.verdict_upper_const == (r.sup_deviation <= r.rhs_upper_const)
    assert r.verdict_with_sqrtN_lower == (r.sup_deviation <= r.rhs_with_sqrtN_lower)
    assert r.verdict_with_sqrtN_upper == (r.sup_deviation <= r.rhs_with_sqrtN_upper)
    assert r.rhs_with_sqrtN_lower == pytest.approx(r.rhs_lower_const / math.sqrt(54))
    assert 0.0 <= r.sup_deviation <= 1.0


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**12), st.tuples(*[st.floats(allow_nan=False)] * 2), st.data())
def test_bound_reports_verdict_rule(n, rhs, data):
    # each verdict is sup <= its right-hand side: a tie passes (-0.0 ties 0.0),
    # a NaN sup fails; the 1/sqrt(N) right-hand sides are rhs / math.sqrt(n) to
    # the bit, and every row carries its sup's bits
    sides = (*rhs, *(x / math.sqrt(n) for x in rhs))
    sups = data.draw(st.lists(st.floats() | st.sampled_from([math.nan, 0.0, -0.0, *sides]),
                              min_size=1, max_size=8))
    columns = bound_reports(np.array(sups), n, rhs)
    assert [column.dtype for column in columns] == [np.float64] * 5 + [np.bool_] * 4
    rows = list(zip(*(column.tolist() for column in columns)))
    assert len(rows) == len(sups)
    for sup, row in zip(sups, rows):
        assert struct.pack("<5d", *row[:5]) == struct.pack("<5d", sup, *sides)
        assert row[5:] == tuple(sup <= side for side in sides)
        assert all(type(verdict) is bool for verdict in row[5:])
        assert not math.isnan(sup) or not any(row[5:])
        assert all(verdict for side, verdict in zip(sides, row[5:]) if sup == side)


def test_constant_override_forces_failure():
    # nearly proportional counts pass normally; a near-zero constant must fail
    # once any deviation at all is present
    h = make_hist([11, 10, 10, 10, 10, 10, 10, 10, 10, 9])
    assert block_report(h, uniform_density(UNIT), 0.0).verdict_lower_const
    r = block_report(h, uniform_density(UNIT), 0.0, constant_override=1e-9)
    assert not r.verdict_lower_const


def test_histogram_validation():
    with pytest.raises(ValueError):
        EmpiricalHistogram(BinningScheme(3, UNIT), Origin.FROM_A, (1, 2), 3)
    with pytest.raises(ValueError):
        EmpiricalHistogram(BinningScheme(2, UNIT), Origin.FROM_A, (1, -1), 0)
    with pytest.raises(ValueError):
        EmpiricalHistogram(BinningScheme(2, UNIT), Origin.FROM_A, (1, 1), 3)
    with pytest.raises(ValueError):
        BinningScheme(0, UNIT)


def test_median_sup_scales_like_inverse_sqrt_n():
    # doubling N should shrink the median sup-deviation by roughly 1/sqrt(2)
    d = uniform_density(UNIT)
    scheme = BinningScheme(10, UNIT)

    def median_sup(n):
        sups = []
        for seed in range(100):
            pos = sample_positions(d, UNIT, n, seed)
            sups.append(block_sup(histogram(pos, scheme), d))
        return float(np.median(sups))

    ratio = median_sup(2000) / median_sup(1000)
    assert 0.6 <= ratio <= 0.85


def _report_round_trip(r, fmt, tmp_path):
    # a report row is written and read by harness; one row of one report
    report = ConvergenceReport.from_columns(*_columns([r]))
    path = tmp_path / f"report.{fmt}"
    emit_report(report, fmt, path)
    return load_report(path)


def test_report_json_roundtrip(tmp_path):
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 101, seed=9)
    h = histogram(pos, BinningScheme(10, d.support))
    r = block_report(h, d, g.center_mu)
    assert _report_round_trip(r, "json", tmp_path).rows[0] == r


def test_report_csv_roundtrip(tmp_path):
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 101, seed=9)
    h = histogram(pos, BinningScheme(10, d.support), Origin.FROM_B)
    r = block_report(h, d, g.center_mu)
    back = _report_round_trip(r, "csv", tmp_path)
    assert back.rows[0] == r
    assert len(back.rows) == 1


def test_report_is_value_object():
    g = SlitGeometry()
    d = double_slit_density(g)
    pos = sample_positions(d, d.support, 13, seed=1)
    h = histogram(pos, BinningScheme(10, d.support))
    assert block_report(h, d, g.center_mu) == block_report(h, d, g.center_mu)
    # plain Python values, so a row equals its copy read back from a report
    r = block_report(h, d, g.center_mu)
    assert [type(value) for value in r[2:11]] == [float] * 5 + [bool] * 4


def test_raw_moments_match_mpmath():
    # oracle: mpmath's tanh-sinh quadrature at 30 digits on the closed-form
    # default intensity (centered at 0), split at its closed-form zeros and at
    # the origin, where |t|^3 has a kink; it shares no code with bornlab's
    # density or quadrature.  At mu 0 the moments are read from the table over
    # the support, which sampling inverts; at mu 0.4 the centered window is
    # no detection interval, so raw_moments builds its own table over [0.1,
    # 0.9] and splits the panel that holds the center
    import mpmath

    for mu, window in ((0.0, None), (0.4, (-0.3, 0.5))):
        g = SlitGeometry(center_mu=mu)
        density = double_slit_density(g)
        iv = density.support if window is None else Interval(*window)
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
        got = raw_moments(density, iv, mu, DEFAULT_QUADRATURE)
        for value, oracle in zip(got, want):
            assert value == pytest.approx(float(oracle), rel=1e-12, abs=0.0)
        mass, var, rho = got
        ratio = float(want[2] * mpmath.sqrt(want[0]) / want[1] ** 1.5)
        assert rho * math.sqrt(mass) / var**1.5 == pytest.approx(ratio, rel=1e-12, abs=0.0)
