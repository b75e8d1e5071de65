import copy
import csv
import io
import math
import os
import sys
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import cli, sampler
from bornlab.berry_esseen import BinningScheme, Origin, sup_deviations
from bornlab.born_density import (
    CDF_TABLE_KNOTS,
    DensityModel,
    SlitGeometry,
    TabulatedDensity,
    _CdfTable,
    _cdf_table,
    _newton_form,
    _read_csv,
    cdf,
    cdf_at_points,
    double_slit_density,
    uniform_density,
)
from bornlab.errors import DegenerateState, EmptyFile, OutOfInterval, ParseError
from bornlab.quadrature import DEFAULT_QUADRATURE, Interval
from bornlab.harness import experiment_density, load_config
from bornlab.madelung import (Grid, PolarField, TrajectoryEnsemble, decompose_polar,
                              gaussian_packet, write_polar_csv, write_trajectories_csv)
from bornlab.sampler import (
    bin_counts,
    discrete_frequencies,
    inverse_cdf_sample,
    read_events_csv,
    rng_from_seed,
    sample_positions,
    write_events_csv,
)
from reference import scipy_cdf

UNIT = Interval(0.0, 1.0)


def test_u_zero_maps_to_left_end():
    d = uniform_density(UNIT)
    assert inverse_cdf_sample(d, UNIT, 0.0) == 0.0


@pytest.mark.parametrize("u", [-0.1, 1.0, math.nan, np.array([0.5, math.nan]),
                               np.array([math.inf])])
def test_u_outside_unit_interval_rejected(u):
    # NaN passes neither end check by comparison, so it must be caught as such
    with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
        inverse_cdf_sample(uniform_density(UNIT), UNIT, u)


def test_uniform_identity_cdf():
    d = uniform_density(UNIT)
    # the interpolation start is already the root, so the first pass returns it
    assert inverse_cdf_sample(d, UNIT, 0.25) == 0.25
    u = 1.0 - 1e-16
    assert inverse_cdf_sample(d, UNIT, u) == pytest.approx(u, abs=2e-10)


def test_symmetric_median_at_center():
    g = SlitGeometry()
    d = double_slit_density(g)
    x = inverse_cdf_sample(d, d.support, 0.5)
    assert x == pytest.approx(g.center_mu, abs=1e-9)


def test_result_hits_cdf_tolerance():
    g = SlitGeometry()
    d = double_slit_density(g)
    us = np.append(rng_from_seed(17).random(200), 1.0 - 1e-16)
    xs = inverse_cdf_sample(d, d.support, us)
    # cdf itself carries ~1e-12 quadrature error, so allow a small cushion
    for u, x in zip(us, xs):
        assert abs(cdf(d, d.support, float(x)) - u) <= 2e-10


def test_draws_match_scipy_quad_cdf():
    # the oracle checks both the draws and the theoretical CDF at the bin
    # edges that verification reads
    d = double_slit_density(SlitGeometry())
    iv = d.support
    f_scipy = scipy_cdf()
    us = rng_from_seed(2024).random(200)
    xs = inverse_cdf_sample(d, iv, us)
    for u, x in zip(us, xs):
        assert abs(f_scipy(x) - u) <= 2e-10
    for bins in (10, 100, 1000):
        bin_edges = BinningScheme(bins, iv).edges()
        theory = cdf_at_points(d, iv, bin_edges)
        want = np.array([f_scipy(x) for x in bin_edges])
        assert np.max(np.abs(theory - want)) <= 1e-12


def test_draws_at_null_knots():
    # fringe and envelope nulls are table knots where the slope f is zero, so
    # Newton has no step to take there; a little above a null the slope is
    # tiny and the Newton step lands far outside the panel
    g = SlitGeometry()
    d = double_slit_density(g)
    iv = d.support
    table = _cdf_table(d, iv, DEFAULT_QUADRATURE)
    zeros = d.subdivision_points(iv)
    nulls = np.flatnonzero(np.isin(table.knots, zeros))
    assert nulls.size == len(zeros)
    for k in nulls:
        z = table.knots[k]
        assert d.evaluate(np.array([z]))[0] < 1e-20
        assert inverse_cdf_sample(d, iv, table.cum[k]) == z
        mass = table.cum[k + 1] - table.cum[k]
        us = [np.nextafter(table.cum[k], 1.0), table.cum[k] + 1e-6 * mass, table.cum[k] + 1e-3 * mass]
        xs = inverse_cdf_sample(d, iv, np.array(us))
        assert np.all((z <= xs) & (xs < table.knots[k + 1]))
        for u, x in zip(us, xs):
            assert abs(cdf(d, iv, x) - u) <= 2e-10


def test_newton_start_where_density_vanishes():
    # ramp density, zero left of 0.5, with no advertised breakpoint: for these
    # u the interpolated start in the panel holding the kink sits where f = 0,
    # so the first step must be the bracket midpoint
    d = DensityModel(lambda t: np.maximum(np.asarray(t) - 0.5, 0.0), UNIT)
    table = _cdf_table(d, UNIT, DEFAULT_QUADRATURE)
    k = int(np.searchsorted(table.knots, 0.5)) - 1
    us = np.array([1e-9, 1e-8])
    start = table.knots[k] + (us - table.cum[k]) / (table.cum[k + 1] - table.cum[k]) \
        * (table.knots[k + 1] - table.knots[k])
    assert np.all(d.evaluate(start) == 0.0)
    xs = inverse_cdf_sample(d, UNIT, us)
    assert np.all(xs > 0.5)
    reached = table.cum[k] + table.partial(np.full(2, table.knots[k]), xs)
    assert np.all(np.abs(reached - us) <= _CdfTable.CDF_VALUE_TOL)


def test_tabulated_zero_runs_never_drawn():
    t = np.arange(11.0)
    d = TabulatedDensity(t, [0, 0, 1, 2, 0, 0, 0, 3, 1, 0, 0])
    table = _cdf_table(d, d.support, DEFAULT_QUADRATURE)
    # u where a zero run starts: several knots share one cum value there
    edge_us = [table.cum[table.knots == 4.0][0], np.nextafter(1.0, 0.0)]
    us = np.concatenate([rng_from_seed(8).random(2000), edge_us])
    xs = inverse_cdf_sample(d, d.support, us)
    assert np.all(((1.0 <= xs) & (xs <= 4.0)) | ((6.0 <= xs) & (xs <= 9.0)))


def test_step_density_without_breakpoint():
    # no fixed rule matches the reference mass here, so the table refines the
    # panels around the step; draws must meet the tolerance on the exact CDF,
    # also within the coarse panel that holds the step
    s = 0.33371
    d = DensityModel(lambda t: np.where(np.asarray(t) <= s, 1.0, 2.0), UNIT)

    def exact_cdf(x):
        return (np.minimum(x, s) + 2.0 * np.maximum(x - s, 0.0)) / (2.0 - s)

    k = int(s * (4096 - 1))
    panel = np.linspace(exact_cdf(k / 4095), exact_cdf((k + 1) / 4095), 51)[1:-1]
    near_step = exact_cdf(s) + np.linspace(-3e-8, 3e-8, 61)
    us = np.concatenate([panel, near_step, rng_from_seed(5).random(300)])
    xs = inverse_cdf_sample(d, UNIT, us)
    assert np.all(np.abs(exact_cdf(xs) - us) <= 2e-10)


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("block", [None, 4], ids=["one_block", "blocks_of_4"])
@pytest.mark.parametrize("make", [
    lambda: double_slit_density(SlitGeometry()),
    lambda: TabulatedDensity(np.arange(11.0), [0, 0, 1, 2, 0, 0, 0, 3, 1, 0, 0]),
], ids=["double_slit", "tabulated_zero_runs"])
def test_batch_inversion_order_invariant(make, block, monkeypatch):
    # the batch is sorted once, inverted _CdfTable._INVERT_BLOCK draws at a
    # time and scattered back; a shuffled batch with ties, both ends and u
    # exactly at table knots must give, bit for bit, what each draw gives
    # inverted alone
    if block is not None:
        monkeypatch.setattr(_CdfTable, "_INVERT_BLOCK", block)
    d = make()
    iv = d.support
    table = _cdf_table(d, iv, DEFAULT_QUADRATURE)
    at_knots = np.unique(table.cum[table.cum < 1.0])
    at_knots = at_knots[:: max(1, at_knots.size // 40)]
    rng = rng_from_seed(31)
    draws = rng.random(120)
    u = np.concatenate([draws, draws[:30], np.repeat(at_knots, 3),
                        [0.0, 0.0, 1.0 - 2.0**-53, 1.0 - 2.0**-53]])
    u = u[rng.permutation(u.size)]
    # in ascending u, ties of draws and of knot values straddle the edges
    # between blocks of 4
    visited = np.sort(u)
    last = np.arange(3, u.size - 1, 4)
    split = last[visited[last] == visited[last + 1]]
    assert split.size and np.isin(visited[split], at_knots[1:]).any()
    assert np.isin(visited[split], draws).any()
    batch = inverse_cdf_sample(d, iv, u)
    solo = [inverse_cdf_sample(d, iv, v) for v in u.tolist()]
    assert np.array_equal(_bits(batch), _bits(solo))
    assert np.array_equal(_bits(inverse_cdf_sample(d, iv, u[::-1])), _bits(solo[::-1]))


@pytest.mark.parametrize("make", [
    lambda: double_slit_density(SlitGeometry()),
    lambda: TabulatedDensity(np.arange(11.0), [0, 0, 1, 2, 0, 0, 0, 3, 1, 0, 0]),
], ids=["double_slit", "tabulated_zero_runs"])
def test_draws_do_not_depend_on_when_a_panel_was_fitted(make, monkeypatch):
    # each panel's polynomial is fitted on its first draw, from that panel
    # alone: a table whose panels earlier calls fitted in another order and
    # grouping must give the same bits as a fresh one, polynomial and Newton
    # panels alike
    u = rng_from_seed(41).random(3000)
    fresh = make()
    want = inverse_cdf_sample(fresh, fresh.support, u)
    d = make()
    earlier = np.sort(rng_from_seed(42).random(2000))[::-1]
    with monkeypatch.context() as m:
        m.setattr(_CdfTable, "_INVERT_BLOCK", 7)
        for part in np.array_split(earlier, 9):
            inverse_cdf_sample(d, d.support, part)
    table = _cdf_table(d, d.support, DEFAULT_QUADRATURE)
    assert table._fitted.any() and not table._fitted.all()
    assert np.array_equal(_bits(inverse_cdf_sample(d, d.support, u)), _bits(want))
    ref = _cdf_table(fresh, fresh.support, DEFAULT_QUADRATURE)
    both = ref._poly & table._poly
    assert both.sum() > 0.5 * ref._poly.sum()
    fitted = ref._fitted & table._fitted
    assert np.array_equal(ref._poly[fitted], table._poly[fitted])
    assert np.array_equal(_bits(ref._coef[:, both]), _bits(table._coef[:, both]))


def test_threads_fitting_one_table_give_sequential_bits():
    # lazy fits write to the shared table: threads that race to fit the same
    # panels must still give every draw the bits of a sequential run
    us = [rng_from_seed(60 + k).random(3000) for k in range(8)]
    ref = double_slit_density(SlitGeometry())
    want = [inverse_cdf_sample(ref, ref.support, u) for u in us]
    d = double_slit_density(SlitGeometry())
    _cdf_table(d, d.support, DEFAULT_QUADRATURE)  # one table; the race is in its fits
    got = [None] * len(us)

    def work(k):
        got[k] = inverse_cdf_sample(d, d.support, us[k])

    threads = [threading.Thread(target=work, args=(k,)) for k in range(len(us))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


def _fitted_table(d):
    """The density's table with every panel that holds mass fitted."""
    table = _cdf_table(d, d.support, DEFAULT_QUADRATURE)
    table._fit(np.flatnonzero(np.diff(table.cum) > 0))
    return table


def test_most_mass_is_inverted_by_polynomials():
    d = double_slit_density(SlitGeometry())
    table = _fitted_table(d)
    mass = np.diff(table.cum)
    assert mass[table._poly].sum() > 0.995
    # near the nulls x(u) grows like u^(1/3), which no polynomial follows
    assert 0 < np.count_nonzero(~table._poly & (mass > 0)) < 0.1 * np.count_nonzero(mass > 0)


def _trajectories_r2():
    """R^2 of the trajectories benchmark's free Gaussian (grid -40..40 on 2,048
    points, sigma 1, k_index 10), the density its particles are drawn from."""
    grid = Grid(x_min=-40.0, x_max=40.0, points=2048, dt=1e-3)
    polar = decompose_polar(gaussian_packet(grid, sigma=1.0, k_index=10))
    return TabulatedDensity(grid.x(), polar.R * polar.R)


_SLIT = double_slit_density(SlitGeometry())
_SLIT_TABLE = _fitted_table(_SLIT)
_R2_TABLE = _fitted_table(_trajectories_r2())


@pytest.mark.parametrize("table, passing, panels", [
    (_SLIT_TABLE, 3863, 4151),
    (_R2_TABLE, 1674, 6141),
], ids=["double_slit", "trajectories_r2"])
def test_every_passing_fit_inverts_into_its_panel(table, passing, panels):
    # a fit is checked only at the midpoints of the gaps between its u-nodes;
    # 16 draws spread across each passing panel land in the panel and meet the
    # 1e-10 contract on the table's CDF
    assert (np.count_nonzero(table._poly), table._poly.size) == (passing, panels)
    cum, knots = table.cum, table.knots
    k = np.repeat(np.flatnonzero(table._poly), 16)
    u = cum[k] + (cum[k + 1] - cum[k]) * np.tile((np.arange(16) + 0.5) / 16, passing)
    own = u < cum[k + 1]  # a u that rounds up to cum[k + 1] is the next panel's
    u, k = u[own], k[own]
    x = table.invert(u)
    assert np.all((knots[k] <= x) & (x <= knots[k + 1]))
    assert np.abs(table.cdf(x) - u).max() <= _CdfTable.CDF_VALUE_TOL


def test_tail_polynomials_are_clamped_into_their_panels():
    # three far-tail panels of the benchmark's R^2 pass the midpoint check with
    # masses of a few ulps of 1, and their polynomials overshoot the top of the
    # panel between the checks.  u = cum[k] + t resolves no t that fine, so a
    # copy of the table with cum shifted to 0 at the panel (exact near it, by
    # Sterbenz) feeds _invert_block t itself
    for k in (3666, 3670, 3679):
        assert _R2_TABLE._poly[k]
        a, b = _R2_TABLE.knots[k], _R2_TABLE.knots[k + 1]
        t = (_R2_TABLE.cum[k + 1] - _R2_TABLE.cum[k]) * np.arange(1, 401) / 401
        assert np.any(a + _newton_form(_R2_TABLE._coef[:, k], t) > b)
        shifted = copy.copy(_R2_TABLE)
        shifted.cum = _R2_TABLE.cum - _R2_TABLE.cum[k]
        x = np.empty(t.size)
        assert shifted._invert_block(t, np.arange(t.size), x)[0].size == 0
        assert np.all((a <= x) & (x <= b))
        assert np.abs(_R2_TABLE.partial(a, x) - t).max() <= _CdfTable.CDF_VALUE_TOL
# the table edges where a polynomial panel meets a Newton panel
_MIXED_EDGES = 1 + np.flatnonzero(_SLIT_TABLE._poly[:-1] != _SLIT_TABLE._poly[1:])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_MIXED_EDGES.tolist()), st.floats(-1.0, 1.0), st.integers(0, 40))
@example(int(_MIXED_EDGES[0]), 0.0, 0)
@example(int(_MIXED_EDGES[-1]), -1.0, 0)
@example(int(_MIXED_EDGES[-1]), 1.0, 40)
@example(int(_MIXED_EDGES[14]), 1.0, 1)  # x lands 1e-8 past a null
@example(int(_MIXED_EDGES[98]), 1.0, 1)
def test_draws_near_polynomial_newton_edges_hit_the_cdf(edge, share, ulps):
    # u within one panel's mass of an edge between a polynomial and a Newton
    # panel, from a whole panel away down to a few ulps: the draw meets the
    # 1e-10 contract on the table's CDF and 2e-10 on scipy's
    cum = _SLIT_TABLE.cum
    u = cum[edge] + share * (cum[edge + 1] - cum[edge] if share >= 0 else cum[edge] - cum[edge - 1])
    for _ in range(ulps):
        u = np.nextafter(u, 1.0 if share >= 0 else 0.0)
    u = float(min(max(u, 0.0), np.nextafter(1.0, 0.0)))
    x = inverse_cdf_sample(_SLIT, _SLIT.support, u)
    assert abs(cdf(_SLIT, _SLIT.support, x) - u) <= _CdfTable.CDF_VALUE_TOL
    assert abs(scipy_cdf()(x) - u) <= 2e-10


class _NullInEveryPanel(DensityModel):
    """cos^2(pi (K - 1) t) on [0, 1], K = CDF_TABLE_KNOTS: a null in the middle
    of every panel of the table's grid, where x(u) grows like u^(1/3), so no
    fit passes and every draw takes Newton passes.  Its mass is in closed form:
    adaptive quadrature would need a panel per period."""

    _C = math.pi * (CDF_TABLE_KNOTS - 1)

    def __init__(self):
        super().__init__(lambda t: np.cos(self._C * np.asarray(t, dtype=float)) ** 2, UNIT)

    def exact_mass(self, iv):
        c = self._C
        return (iv.hi - iv.lo) / 2 + (math.sin(2 * c * iv.hi) - math.sin(2 * c * iv.lo)) / (4 * c)


def _newton_sizes(monkeypatch) -> list:
    """The number of draws of each ``_CdfTable._newton`` call from now on."""
    sizes, real = [], _CdfTable._newton

    def counted(self, u, *rest):
        sizes.append(u.size)
        real(self, u, *rest)

    monkeypatch.setattr(_CdfTable, "_newton", counted)
    return sizes


def test_inversion_memory_does_not_grow_with_the_temporaries(monkeypatch):
    # the polynomial pass holds one block of sorted draws at a time, and the
    # Newton draws of all blocks are pooled into passes of at most one block,
    # so what grows with the batch is u, the sort order and the output; the
    # 3-node density evaluations would take about 300 bytes per draw if they
    # spanned it.  On the double slit few draws take Newton passes; on the
    # second density all of them do
    u = rng_from_seed(12).random(200_000)
    for d, newton_share in ((double_slit_density(SlitGeometry()), (0.0, 0.01)),
                            (_NullInEveryPanel(), (0.99, 1.0))):
        inverse_cdf_sample(d, d.support, 0.5)  # builds the CDF table
        sizes = _newton_sizes(monkeypatch)
        tracemalloc.start()
        try:
            inverse_cdf_sample(d, d.support, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert newton_share[0] <= sum(sizes) / u.size <= newton_share[1]
        assert max(sizes) <= _CdfTable._INVERT_BLOCK
        assert peak < 16 * 2**20
        monkeypatch.undo()


def test_newton_draws_of_all_blocks_share_one_pass(monkeypatch):
    # invert pools the Newton-panel draws of its blocks and passes them to
    # _newton when they would overfill a block, and once at the end: a
    # three-block batch whose Newton draws fill less than one block takes one
    # call, and each of those draws gets the bits it gets inverted alone
    d = double_slit_density(SlitGeometry())
    table = _fitted_table(d)
    block = _CdfTable._INVERT_BLOCK
    u = rng_from_seed(17).random(3 * block)

    def on_newton_panel(v):
        k = np.clip(np.searchsorted(table.cum, v, side="right") - 1, 0, table.knots.size - 2)
        return ~table._poly[k]

    per_block = on_newton_panel(np.sort(u)).reshape(3, block).sum(axis=1)
    assert np.all(per_block > 0) and per_block.sum() < block
    sizes = _newton_sizes(monkeypatch)
    xs = inverse_cdf_sample(d, d.support, u)
    assert sizes == [per_block.sum()]
    newton = on_newton_panel(u)
    solo = [inverse_cdf_sample(d, d.support, v) for v in u[newton].tolist()]
    assert np.array_equal(_bits(xs[newton]), _bits(solo))


_SLIT_PANELS = _SLIT_TABLE.cum.size - 1


def _panels_of(v, block):
    """The panel ``_CdfTable._invert_block`` finds for each draw of ``v``, in
    draw order, visiting ``v`` in sorted blocks of ``block`` draws: on a copy
    of the double-slit table whose panels are all Newton panels, every draw
    comes back with its panel."""
    table = copy.copy(_SLIT_TABLE)
    table._fitted = np.ones_like(table._fitted)
    table._poly = np.zeros_like(table._poly)
    order = np.argsort(v, kind="stable")
    panels = np.empty(v.size, dtype=np.intp)
    for start in range(0, v.size, block):
        _, idx, slot = table._invert_block(v, order[start:start + block], np.empty(v.size))
        panels[slot] = idx
    return panels


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 2 * _SLIT_PANELS), at_knots=st.integers(0, 40),
       seed=st.integers(0, 2**32 - 1))
@example(size=_SLIT_PANELS - 1, at_knots=40, seed=0)  # the largest per-draw block
@example(size=_SLIT_PANELS, at_knots=40, seed=0)  # the smallest runs block
@example(size=1, at_knots=1, seed=0)
def test_small_and_large_blocks_find_the_same_panels(size, at_knots, seed):
    # a block with fewer draws than the table has panels searches cum for each
    # draw, a larger one searches itself for each cum entry: both must give
    # every draw the largest k with cum[k] <= u, clipped to the panels (the
    # first and last take a u below 0 or at 1), also for ties, draws at knots,
    # 0 and the largest u below 1, and a draw must get the same bits in a
    # block of either kind
    cum = _SLIT_TABLE.cum
    rng = np.random.default_rng(seed)
    u = np.concatenate([rng.choice(cum[cum < 1.0], min(at_knots, size)),
                        [0.0, 1.0 - 2.0**-53], rng.random(size)])[:size]
    filler = rng.random(_SLIT_PANELS)
    v = u.copy()
    v[-2:] = [-0.5, 1.0][-size:]
    want = np.clip(np.searchsorted(cum, v, side="right") - 1, 0, _SLIT_PANELS - 1)
    assert np.array_equal(_panels_of(v, size), want)  # one block of either kind
    assert np.array_equal(_panels_of(v, 64), want)  # per-draw blocks
    assert np.array_equal(_panels_of(np.concatenate([v, filler]), 3 * _SLIT_PANELS)[:size],
                          want)  # one runs block
    runs = _bits(inverse_cdf_sample(_SLIT, _SLIT.support, np.concatenate([u, filler])))[:size]
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_CdfTable, "_INVERT_BLOCK", 64)
        per_draw = _bits(inverse_cdf_sample(_SLIT, _SLIT.support, u))
    assert np.array_equal(_bits(inverse_cdf_sample(_SLIT, _SLIT.support, u)), runs)
    assert np.array_equal(per_draw, runs)


def test_batch_keeps_input_shape():
    d = double_slit_density(SlitGeometry())
    iv = d.support
    u = rng_from_seed(3).random((2, 3))
    xs = inverse_cdf_sample(d, iv, u)
    assert xs.shape == (2, 3)
    solo = [[inverse_cdf_sample(d, iv, v) for v in row] for row in u.tolist()]
    assert np.array_equal(_bits(xs), _bits(solo))
    zero_d = inverse_cdf_sample(d, iv, np.array(0.25))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
    assert zero_d == inverse_cdf_sample(d, iv, 0.25)
    assert type(inverse_cdf_sample(d, iv, np.float64(0.25))) is float


def test_monotone_in_u():
    g = SlitGeometry()
    d = double_slit_density(g)
    us = np.sort(rng_from_seed(23).random(1000))
    xs = inverse_cdf_sample(d, d.support, us)
    assert np.all(np.diff(xs) >= 0.0)


def test_sample_zero_events():
    d = uniform_density(UNIT)
    assert sample_positions(d, UNIT, 0, seed=1).shape == (0,)


def test_same_seed_identical_streams():
    g = SlitGeometry()
    d = double_slit_density(g)
    a = sample_positions(d, d.support, 64, seed=99)
    b = sample_positions(d, d.support, 64, seed=99)
    assert a.shape == (64,)
    assert np.array_equal(a, b)


def test_events_match_positions_fast_path(tmp_path):
    # the sample subcommand writes sample_positions' draws in draw order
    config = tmp_path / "config.json"
    config.write_text("{}")
    out = tmp_path / "events.csv"
    assert cli.main(["sample", "--config", str(config), "--n", "32", "--seed", "5",
                     "--out", str(out)]) == 0
    density, interval, _, _ = experiment_density(load_config(config))
    assert np.array_equal(read_events_csv(out), sample_positions(density, interval, 32, 5))


def test_dkw_acceptance_rate():
    # oracle: the distribution-free DKW bound with the exact uniform CDF;
    # at eps = 1.95/sqrt(N) fewer than 0.1% of seeds may exceed it
    d = uniform_density(UNIT)
    n = 100_000
    eps = 1.95 / math.sqrt(n)
    passes_per_block = []
    for block in (range(100, 150), range(500, 550)):
        passed = 0
        for seed in block:
            xs = np.sort(sample_positions(d, UNIT, n, seed))
            grid = np.arange(1, n + 1) / n
            ks = max(np.abs(grid - xs).max(), np.abs(xs - (grid - 1.0 / n)).max())
            passed += ks < eps
        passes_per_block.append(passed)
    assert passes_per_block[0] >= 48  # >= 95% within the block
    assert passes_per_block[1] >= 48
    assert sum(passes_per_block) >= 95


def test_per_bin_counts_within_five_sigma():
    d = uniform_density(UNIT)
    n = 100_000
    pos = sample_positions(d, UNIT, n, seed=7)
    counts = bin_counts(pos.reshape(1, -1), BinningScheme(10, UNIT))[0]
    sigma = math.sqrt(n * 0.1 * 0.9)
    for c in counts:
        assert abs(c - n / 10) <= 5 * sigma


def test_bin_midpoint_goes_to_sixth_bin():
    counts = bin_counts(np.array([[0.5]]), BinningScheme(10, UNIT))
    assert counts[0, 5] == 1 and counts.sum() == 1


def test_bin_endpoint_goes_to_last_bin():
    counts = bin_counts(np.array([[1.0]]), BinningScheme(10, UNIT))
    assert counts[0, 9] == 1


def _searchsorted_counts(block, edges):
    """The oracle of bin_counts: each row binned by searchsorted on the edges."""
    bins = edges.size - 1
    idx = np.clip(np.searchsorted(edges, block, side="right") - 1, 0, bins - 1)
    return np.array([np.bincount(row, minlength=bins) for row in idx]).reshape(-1, bins)


_BIN_INTERVALS = [(0.0, 1.0), (-3.7, 12.1), (1e15, 1e15 + 1), (5e-324, 1e-323),
                  (-1e300, 1e300), (-1e-300, 1e-300)]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_BIN_INTERVALS) | st.tuples(st.floats(-1e9, 1e9), st.floats(-1e9, 1e9))
       .map(sorted).filter(lambda ends: ends[0] < ends[1]),
       st.integers(1, 4097), st.integers(1, 3), st.integers(0, 300), st.integers(0, 2**32 - 1))
@example((1e15, 1e15 + 1), 1000, 2, 300, 0)  # most edges collapse onto a few floats
@example((5e-324, 1e-323), 7, 3, 50, 1)  # a subnormal width: the guess is garbage
@example((0.0, 1.0), 4097, 3, 9000, 2)  # more than one pass, rows cut across passes
def test_bin_counts_match_searchsorted(ends, bins, rows, n, seed):
    # the arithmetic guess with its edge check must bin every event as
    # searchsorted does: events on the edges, one ulp either side, lo and hi,
    # and anywhere in the interval
    iv = Interval(*ends)
    edges = np.linspace(iv.lo, iv.hi, bins + 1)
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    near = near[iv.contains(near)]
    rng = np.random.default_rng(seed)
    anywhere = np.clip(iv.lo + rng.random((rows, n)) * (iv.hi - iv.lo), iv.lo, iv.hi)
    block = np.where(rng.random((rows, n)) < 0.5, rng.choice(near, (rows, n)), anywhere)
    got = bin_counts(block, BinningScheme(bins, iv))
    assert np.array_equal(got, _searchsorted_counts(block, edges))


def test_orientation_flip_reverses_counts():
    # bin_counts is in ascending bin order, and the origin is applied when the
    # sup is taken: from_b labels the same physical bins from the other end, so
    # its counts are these reversed, and its sup equals from_a's
    pos = rng_from_seed(3).random((1, 500))
    counts = bin_counts(pos, BinningScheme(10, UNIT))
    assert np.array_equal(counts[0], np.histogram(pos, np.linspace(UNIT.lo, UNIT.hi, 11))[0])
    theory = np.linspace(0.0, 1.0, 11)
    sup_a = sup_deviations(counts, 500, theory, Origin.FROM_A)
    sup_b = sup_deviations(counts[:, ::-1], 500, theory, Origin.FROM_B)
    assert sup_b == pytest.approx(sup_a, abs=1e-12)


def test_bin_out_of_interval_lists_indices():
    with pytest.raises(OutOfInterval) as err:
        bin_counts(np.array([[0.5, 1.5, -0.2]]), BinningScheme(4, UNIT))
    assert err.value.indices == (1, 2)
    # NaN is outside every interval, not a count in the last bin
    with pytest.raises(OutOfInterval) as err:
        bin_counts(np.array([[0.1, math.nan, 0.2]]), BinningScheme(2, UNIT))
    assert err.value.indices == (1,)
    # indices are flat indices into the whole block
    with pytest.raises(OutOfInterval) as err:
        bin_counts(np.array([[0.1, 0.2], [0.3, 1.5]]), BinningScheme(2, UNIT))
    assert err.value.indices == (3,)


def test_bin_counts_of_read_events(tmp_path):
    p = tmp_path / "events.csv"
    p.write_text("index,t_mm\n0,0.1\n1,0.9\n")
    counts = bin_counts(read_events_csv(p).reshape(1, -1), BinningScheme(2, UNIT))
    assert counts.tolist() == [[1, 1]]


def test_spin_two_thirds_frequency():
    amps = (math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0))
    n = 10_000
    (up_count, up_freq), (down_count, down_freq) = discrete_frequencies(amps, n, seed=12)
    assert up_count + down_count == n
    assert up_freq + down_freq == pytest.approx(1.0)
    p = 2.0 / 3.0
    assert abs(up_freq - p) <= 3.0 * math.sqrt(p * (1 - p) / n) * 1.5


def test_single_outcome_frequency_one():
    assert discrete_frequencies([3.0], 17, seed=0) == [(17, 1.0)]


def test_equal_amplitudes_balanced():
    ok = 0
    for seed in range(100):
        (_, f0), (_, f1) = discrete_frequencies([1.0, 1.0], 10_000, seed)
        if abs(f0 - 0.5) <= 0.015 and abs(f1 - 0.5) <= 0.015:
            ok += 1
    assert ok >= 95


def test_complex_amplitudes_use_squared_modulus():
    (c0, _), (c1, _) = discrete_frequencies([1j, 0.0], 50, seed=4)
    assert (c0, c1) == (50, 0)


def test_degenerate_state():
    with pytest.raises(DegenerateState):
        discrete_frequencies([0.0, 0.0], 10, seed=1)
    with pytest.raises(ValueError):
        discrete_frequencies([1.0], 0, seed=1)


def test_huge_and_tiny_amplitudes():
    # squared first, 1e200 overflowed to inf (a RuntimeWarning, then numpy's
    # pvals error) and 1e-200 underflowed to "all amplitudes are zero"
    assert discrete_frequencies([1e200, 1.0], 10, seed=1) == [(10, 1.0), (0, 0.0)]
    assert discrete_frequencies([1e-200, 1e-200], 1000, seed=3) == \
        discrete_frequencies([1.0, 1.0], 1000, seed=3)
    assert discrete_frequencies([1e-200j, 2e-200], 1000, seed=3) == \
        discrete_frequencies([1.0, 2.0], 1000, seed=3)
    for zero in ([0.0], [0.0, 0j], []):
        with pytest.raises(DegenerateState):
            discrete_frequencies(zero, 10, seed=1)


@pytest.mark.parametrize("amps, index", [([np.nan, 1.0], 0), ([1.0, np.inf], 1),
                                          ([1.0, 2.0, complex(0.0, -np.inf)], 2),
                                          ([0.0, complex(np.nan, 1.0)], 1)])
def test_non_finite_amplitude_named_by_index(amps, index):
    # NaN was read as "all amplitudes are zero"; inf warned, then numpy
    # rejected its own pvals
    with pytest.raises(ValueError, match=rf"^amplitudes\[{index}\] is not a finite number$"):
        discrete_frequencies(amps, 10, seed=1)


def test_events_csv_roundtrip(tmp_path):
    g = SlitGeometry()
    d = double_slit_density(g)
    positions = sample_positions(d, d.support, 25, seed=77)
    p = tmp_path / "events.csv"
    write_events_csv(positions, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "index,t_mm"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(25))
    back = read_events_csv(p)
    assert isinstance(back, np.ndarray)
    assert np.array_equal(back, positions)


def _csv_writer_bytes(values, column):
    """The per-row ``csv.writer`` loop the events and trajectory writers ran
    before they shared one body: the reference for their bytes."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["index", column])
    for i, x in enumerate(values):
        writer.writerow([i, repr(float(x))])
    return buf.getvalue().encode()


def _polar_csv_writer_bytes(p):
    """The per-row ``csv.writer`` loop of ``write_polar_csv`` before it shared
    the events and trajectory writer: the reference for its bytes."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["x", "R", "S", "node_mask"])
    for x, r, s, m in zip(p.grid.x(), p.R, p.S, p.node_mask):
        writer.writerow([repr(float(x)), repr(float(r)), repr(float(s)), int(m)])
    return buf.getvalue().encode()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
@example([])
@example([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
          1.7976931348623157e308, 0.1, 1e16, 123456789.0, -1e-7])
@example(np.linspace(-1e3, 1e3, 9000).tolist())  # rows are joined 4,096 at a time
def test_index_csv_writers_emit_csv_writer_bytes(values):
    with tempfile.TemporaryDirectory() as tmp:
        events = os.path.join(tmp, "events.csv")
        write_events_csv(values, events)
        with open(events, "rb") as fh:
            assert fh.read() == _csv_writer_bytes(values, "t_mm")
        if values:
            back = read_events_csv(events)
            assert back.tobytes() == np.array(values, dtype=float).tobytes()  # -0.0 too
            traj = os.path.join(tmp, "traj.csv")
            write_trajectories_csv(TrajectoryEnsemble(np.array(values)), traj)
            with open(traj, "rb") as fh:
                assert fh.read() == _csv_writer_bytes(values, "x")
            # a grid of the next power of two >= 16 points, the values repeated
            points = max(16, 1 << (len(values) - 1).bit_length())
            vals = np.resize(np.array(values, dtype=float), points)
            polar = PolarField(Grid(-7.3, 11.9, points, dt=1e-3), vals, vals[::-1], vals > 0)
            path = os.path.join(tmp, "polar.csv")
            write_polar_csv(polar, path)
            with open(path, "rb") as fh:
                assert fh.read() == _polar_csv_writer_bytes(polar)


def test_events_csv_parse_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("wrong,header\n0,0.5\n")
    with pytest.raises(ParseError) as err:
        read_events_csv(p)
    assert err.value.line == 1

    p.write_text("index,t_mm\n0,not-a-number\n")
    with pytest.raises(ParseError) as err:
        read_events_csv(p)
    assert err.value.line == 2

    p.write_text("index,t_mm\n0,0.5\n1.5,0.25\n")
    with pytest.raises(ParseError) as err:
        read_events_csv(p)
    assert err.value.line == 3

    p.write_text("index,t_mm\n")
    with pytest.raises(EmptyFile):
        read_events_csv(p)

    # the header is compared as written: padding there is no more a header
    # than padding in a data cell is a number
    for header in ("index, t_mm", " index,t_mm", "index,t_mm ", "index ,t_mm"):
        p.write_text(f"{header}\n0,0.5\n")
        with pytest.raises(ParseError) as err:
            read_events_csv(p)
        assert err.value.line == 1, header

    # files that np.loadtxt would accept: the row parser must still reject them
    for text, line in [("index,t_mm\n0,0.5\x1f\n", 2), ("index,t_mm\n0,0.5,\n", 2),
                       ("index,t_mm\n0,0.5\n \n1,0.25\n", 3)]:
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            read_events_csv(p)
        assert err.value.line == line

    # cells that int() and float() would coerce silently: '_', non-ASCII digits, padding
    for cell in ["1_0.5", "1_0", "\u0661.\u0665", "\uff10.5", " 0.25 ", "0.25\t", "\xa00.25"]:
        for row in (f"0,{cell}", f"{cell},0.5"):
            p.write_text(f"index,t_mm\n0,0.5\n{row}\n", encoding="utf-8")
            with pytest.raises(ParseError) as err:
                read_events_csv(p)
            assert err.value.line == 3 and repr(cell) in str(err.value), row


def _row_parsed_events(path):
    return np.array(_read_csv(path, ("index", "t_mm"), sampler._event))


def _outcome(read, path):
    """The positions' bytes, or the class, message and line of the error."""
    try:
        return read(path).tobytes()
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


# a cell: an integer, a float repr (nan, inf, -0.0 and subnormals too) or a
# mix of the characters where np.loadtxt and int()/float() could disagree
_CELL_PARTS = [*"0123456789+-.eE_", "nan", "inf", '"', "#", " ", "\t", "\x0b", "\x0c",
               "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\u0661"]
_CELL = (st.integers(-2**64, 2**64).map(str) | st.floats().map(repr)
         | st.lists(st.sampled_from(_CELL_PARTS), max_size=6).map("".join))
_PLAIN_ROW = st.builds("{},{!r}".format, st.integers(-2**63, 2**63 - 1),
                       st.floats(allow_nan=False, allow_infinity=False))
_END = st.sampled_from(["\n", "\r\n", "\r"])


def _events_text(header, end, rows, splice=None, edges=False):
    """The header, then the rows; ``splice`` inserts a part at an offset into
    the rows, with ``edges`` only where a cell starts or ends."""
    body = "".join(row + e for row, e in rows)
    if splice:
        at, part = splice
        spots = [i for i in range(len(body) + 1) if not edges or i in (0, len(body))
                 or body[i - 1] in ",\r\n" or body[i] in ",\r\n"]
        at = spots[at % len(spots)]
        body = body[:at] + part + body[at:]
    return header + end + body


_PLAIN_ROWS = st.lists(st.tuples(_PLAIN_ROW | st.just(""), _END), max_size=5)
_EVENTS_TEXT = (
    st.builds(_events_text, st.just("index,t_mm"), _END, _PLAIN_ROWS)
    # one character at a cell edge of a plain file, where whitespace or a
    # stray cell alone could make the two parsers differ
    | st.builds(_events_text, st.just("index,t_mm"), _END, _PLAIN_ROWS,
                st.tuples(st.integers(0, 200), st.sampled_from(
                    [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", '"', "#",
                     "_", ","])), st.just(True))
    # any header, rows of 1-3 cells of any kind, rows run together
    | st.builds(_events_text, st.sampled_from(["index,t_mm", "index, t_mm", "t_mm,index"]),
                _END, st.lists(st.tuples(st.lists(_CELL, min_size=1, max_size=3).map(",".join)
                                         | _PLAIN_ROW | st.just(""), _END | st.just("")),
                               max_size=6),
                st.none() | st.tuples(st.integers(0, 200),
                                      st.sampled_from([*_CELL_PARTS, ",", "\n", "\r"]))))


@settings(max_examples=300, deadline=None)
@given(_EVENTS_TEXT)
@example("index,t_mm\n0,0.5\x1f\n")  # np.loadtxt strips \x1c-\x1f, float() does not
@example("index,t_mm\n0,0.5,\n")  # np.loadtxt with usecols takes the 3-cell row
@example("index,t_mm\n0,0.5\n \n")
@example("index,t_mm\n")  # np.loadtxt warns "input contained no data"
@example("index,t_mm\r\n\r\n\n")
@example("index,t_mm\n0,1_000\n")
@example(f"index,t_mm\n{2**63},0.5\n")
@example("index,t_mm\n0,\u0661.\u0665\n")
@example("index,t_mm\n0,1_0.5\n")  # int() and float() take these; both paths reject them
@example("index,t_mm\n1,\u0661.\u0665\n")
@example("index,t_mm\n 2 , 0.25 \n")
def test_events_fast_path_matches_the_row_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "events.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert _outcome(read_events_csv, path) == _outcome(_row_parsed_events, path)


def test_plain_events_files_skip_the_row_parser(tmp_path, monkeypatch):
    # a fast path that always fell back would pass every other events test
    values = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, 1.7976931348623157e308, 0.1,
              -1e-7, 123456789.0, *rng_from_seed(5).normal(0.0, 3.0, 200).tolist()]
    crlf, lf = tmp_path / "crlf.csv", tmp_path / "lf.csv"
    write_events_csv(values, crlf)
    lf.write_bytes(("index,t_mm\n" + "".join(f"{i},{x!r}\n" for i, x in enumerate(values))).encode())

    def row_parser(*args, **kwargs):
        raise AssertionError("the row parser ran on a plain events file")
    monkeypatch.setattr(sampler, "_read_csv", row_parser)
    for path in (crlf, lf):
        # np.loadtxt takes a str name; a bytes name made it raise TypeError
        for name in (path, str(path), os.fsencode(path)):
            assert read_events_csv(name).tobytes() == np.array(values).tobytes(), name


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_events_named_like_compressed_files(tmp_path, suffix):
    # given such a name, np.loadtxt decompresses the file and raises
    p = tmp_path / f"e.csv{suffix}"
    write_events_csv([0.5, -0.25, 1e-300], p)
    assert _outcome(read_events_csv, p) == np.array([0.5, -0.25, 1e-300]).tobytes()
    assert _outcome(read_events_csv, p) == _outcome(_row_parsed_events, p)


def test_compressed_suffixes_cover_numpys_openers():
    # a numpy that decompresses one more suffix must be sent to the row parser too
    from numpy.lib import _datasource
    assert set(_datasource._file_openers.keys()) - {None} <= set(sampler._COMPRESSED)


def test_url_like_events_name_is_read_as_a_local_file(tmp_path, monkeypatch):
    # numpy's DataSource reads a relative "http://host/..." name as a URL: it
    # makes ./host/ and downloads the file into it
    import urllib.request

    def urlopen(*args, **kwargs):
        raise AssertionError("an events file was fetched as a URL")

    def row_parser(*args, **kwargs):
        raise AssertionError("the row parser ran on a plain events file")
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.setattr(sampler, "_read_csv", row_parser)
    monkeypatch.chdir(tmp_path)
    os.makedirs("http:/example.com")
    write_events_csv([0.5, -0.25], "http:/example.com/e.csv")
    assert read_events_csv("http://example.com/e.csv").tobytes() == np.array([0.5, -0.25]).tobytes()
    assert sorted(os.listdir(tmp_path)) == ["http:"]


@pytest.mark.parametrize("existing", [True, False])
def test_atomic_open_failure_leaves_target_and_no_temp_file(tmp_path, existing):
    # the block raises after writing, so the temporary file exists and the
    # cleanup must remove it
    p = tmp_path / "out.txt"
    if existing:
        p.write_text("before\n")
    with pytest.raises(RuntimeError):
        with sampler.atomic_open(p) as fh:
            fh.write("partial")
            fh.flush()
            assert [f.name for f in tmp_path.iterdir()].count(f"out.txt.tmp.{os.getpid()}") == 1
            raise RuntimeError("write failed")
    assert [f.name for f in tmp_path.iterdir()] == (["out.txt"] if existing else [])
    if existing:
        assert p.read_text() == "before\n"


def test_failed_write_leaves_target_and_no_temp_file(tmp_path):
    p = tmp_path / "events.csv"
    write_events_csv([0.25, 0.5], p)
    before = p.read_bytes()
    with pytest.raises(ValueError):
        write_events_csv([0.1, 0.2, "not-a-position"], p)  # raises on the third row
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["events.csv"]
