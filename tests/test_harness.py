import functools
import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import cli
from bornlab.berry_esseen import (
    BinningScheme,
    BoundConstantVariant,
    Origin,
    bound_rhs,
)
from bornlab.born_density import (SlitGeometry, cdf, cdf_at_points, double_slit_density,
                                  recenter, uniform_density)
from bornlab.errors import ConfigError, EmptyFile, OutOfInterval, ParseError, SlopeUndefined
from bornlab.harness import (
    ConvergenceReport,
    MadelungConfig,
    PAPER_REPLICATION_N_VALUES,
    PATTERN_BUILDUP_N_VALUES,
    ReportRow,
    SweepResult,
    _columns,
    config_from_json_dict,
    emit_report,
    ingest_events,
    load_config,
    load_report,
    pattern_buildup_config,
    replication_config,
    report_text,
    run_convergence_sweep,
    run_paper_replication,
    sweep_text,
    verify_events,
)
from bornlab.madelung import Grid, Potential
from bornlab.quadrature import Interval
from bornlab.sampler import (bin_counts, inverse_cdf_sample, rng_from_seed, sample_positions,
                             write_events_csv)
from reference import field_texts, report_csv, report_json, report_order


def small_config(**overrides):
    return replication_config(
        seeds=(1, 2), n_values=(13, 54), bin_counts=(10,), **overrides
    )


def _report(rows):
    """The report of ``rows`` in the reference order, the order
    ``_verify_blocks`` gives its rows; ties keep their input order."""
    return ConvergenceReport.from_columns(*_columns(sorted(rows, key=report_order)))


def test_default_protocol_values():
    cfg = replication_config()
    assert cfg.n_values == (13, 54, 101, 200, 227, 302, 448, 613, 803)
    assert cfg.bin_counts == (10,)
    assert cfg.orientations == (Origin.FROM_A, Origin.FROM_B)
    assert PAPER_REPLICATION_N_VALUES == cfg.n_values


def test_buildup_preset_counts():
    assert pattern_buildup_config().n_values == (7, 209, 1004, 6235)
    assert PATTERN_BUILDUP_N_VALUES == (7, 209, 1004, 6235)


def test_config_round_trip():
    # small_config with a moment window, written out as its JSON object by hand
    obj = {"seeds": [1, 2], "n_values": [13, 54], "binning": {"bin_counts": [10]},
           "moment_interval": {"a_mm": -0.8, "b_mm": 0.8}}
    assert config_from_json_dict(obj) == small_config(moment_interval=Interval(-0.8, 0.8))


def test_config_defaults_from_empty_object():
    cfg = config_from_json_dict({})
    assert cfg.n_values == PAPER_REPLICATION_N_VALUES
    assert cfg.geometry == SlitGeometry()
    assert cfg.interval is None and cfg.moment_interval is None


def test_config_unknown_key_named():
    with pytest.raises(ConfigError) as err:
        config_from_json_dict({"geomtry": {}})
    assert err.value.key == "geomtry"

    with pytest.raises(ConfigError) as err:
        config_from_json_dict({"geometry": {"w_um": 1.0}})
    assert err.value.key == "geometry.w_um"


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        config_from_json_dict({"n_values": []})
    with pytest.raises(ConfigError):
        config_from_json_dict({"binning": {"bin_counts": [0]}})
    with pytest.raises(ConfigError):
        config_from_json_dict({"interval": {"a_mm": 1.0}})
    with pytest.raises(ConfigError):
        config_from_json_dict({"variants": ["bogus"]})
    for obj, key in [
        # a list entry given twice is named, not dropped or run twice
        ({"n_values": [13, 54, 13]}, "n_values[2]"),
        ({"seeds": [1, 1]}, "seeds[1]"),
        ({"binning": {"bin_counts": [10, 10.0]}}, "binning.bin_counts[1]"),
        ({"binning": {"orientations": ["from_a", "from_a"]}}, "binning.orientations[1]"),
        ({"variants": ["plus_16_percent", "plus_16_percent"]}, "variants[1]"),
        # values out of range fail on load, not in the stage that uses them
        ({"seeds": [3, -1]}, "seeds[1]"),
        ({"madelung": {"state": {"sigma": -1.0}}}, "madelung.state.sigma"),
        ({"madelung": {"preset": "harmonic", "state": {"omega": 0}}}, "madelung.state.omega"),
        ({"madelung": {"trajectories": {"count": 0}}}, "madelung.trajectories.count"),
        ({"madelung": {"trajectories": {"seed": -2}}}, "madelung.trajectories.seed"),
        ({"madelung": {"potential": {"kind": "tabulated", "values": [0.0]}}},
         "madelung.potential.values"),
        # a constructor's error names the entry its message starts with
        ({"madelung": {"potential": {"kind": "harmonic", "omega": -1.0}}},
         "madelung.potential.omega"),
        ({"geometry": {"w_nm": -1}}, "geometry.w_nm"),
        ({"geometry": {"d_nm": 50.0}}, "geometry.d_nm"),
        ({"madelung": {"grid": {"points": 100}}}, "madelung.grid.points"),
        ({"madelung": {"grid": {"x_max": -30.0}}}, "madelung.grid.x_max"),
        ({"madelung": {"grid": {"hbar": 0}}}, "madelung.grid.hbar"),
        ({"quadrature": {"rel_tol": 0}}, "quadrature.rel_tol"),
        # and one that starts with no entry's name names the section
        ({"interval": {"a_mm": 1.0, "b_mm": 1.0}}, "interval"),
    ]:
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(obj)
        assert err.value.key == key
    # every SlitGeometry field in the message goes by its config name, not only the first
    with pytest.raises(ConfigError) as err:
        config_from_json_dict({"geometry": {"d_nm": 50}})
    assert str(err.value) == "geometry.d_nm (50.0 nm) must exceed geometry.w_nm (62.0 nm)"
    with pytest.raises(ConfigError) as err:
        replication_config(seeds=(3, 3))
    assert err.value.key == "seeds[1]"
    # the dataclass owns the constant_override rule, so the Python API meets it too
    for override in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="constant_override must be a finite number > 0") \
                as err:
            replication_config(n_values=(13,), constant_override=override)
        assert err.value.key == "constant_override"
    # a key given twice in one object is named, not overwritten by the last
    path = tmp_path / "cfg.json"
    for text, key in [
        ('{"seeds": [1], "seeds": [2]}', "seeds"),
        ('{"binning": {"bin_counts": [10]}, "binning": {"orientations": ["from_a"]}}',
         "binning"),
        ('{"binning": {"bin_counts": [10], "bin_counts": [20]}}', "binning.bin_counts"),
        ('{"madelung": {"grid": {"points": 64, "points": 128}}}', "madelung.grid.points"),
    ]:
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.key == key and f"repeated config key: {key}" in str(err.value)
        assert cli.main(["bound", "--config", str(path)]) == 2


def test_config_rejects_non_integral_entries(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(
        {"n_values": [13.9, True], "seeds": [1.5], "binning": {"bin_counts": [10.7]}}))
    with pytest.raises(ConfigError):
        load_config(path)
    assert cli.main(["bound", "--config", str(path)]) == 2
    for obj, key in [
        ({"n_values": [13.9]}, "n_values[0]"),
        ({"n_values": [13, True]}, "n_values[1]"),
        ({"seeds": [1.5]}, "seeds[0]"),
        ({"seeds": ["1"]}, "seeds[0]"),
        ({"binning": {"bin_counts": [10.7]}}, "binning.bin_counts[0]"),
        ({"quadrature": {"max_refinement_depth": False}}, "quadrature.max_refinement_depth"),
        ({"quadrature": {"max_refinement_depth": 2.5}}, "quadrature.max_refinement_depth"),
    ]:
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(obj)
        assert err.value.key == key
    # integral floats are integers
    assert config_from_json_dict({"n_values": [13.0], "seeds": [2.0]}).n_values == (13,)


FINITE = st.floats(-1e6, 1e6)
POSITIVE = st.floats(1e-3, 1e3)
# each preset's state entries with their README defaults
STATE_DEFAULTS = {
    "plane_wave": {"k_index": 8},
    "free_gaussian": {"center": 0.0, "sigma": 1.0, "k_index": 0},
    "harmonic": {"omega": 1.0, "center": 0.0},
    "double_slit_screen": {},
}
STATES = {
    "plane_wave": {"k_index": st.integers(-64, 64)},
    "free_gaussian": {"center": FINITE, "sigma": POSITIVE, "k_index": st.integers(-64, 64)},
    "harmonic": {"omega": POSITIVE, "center": FINITE},
    "double_slit_screen": {},
}


@st.composite
def config_objects(draw, preset, kind):
    """A JSON config object with every section; ``kind`` None leaves the
    preset's own potential in place."""
    def ints(least, size):
        return draw(st.lists(st.integers(least, 10**6), min_size=1, max_size=size, unique=True))

    def interval():
        lo = draw(FINITE)
        return draw(st.none() | st.just({"a_mm": lo, "b_mm": lo + draw(POSITIVE)}))

    # lambda_pm from 500 to 1000 keeps every window under the load's cap of
    # nulls (at most 2 * 1e3 * (w + d) / lambda_pm = 4,800), and w_nm >= 2
    # keeps lambda_pm below 1000 * w_nm, so the default window exists; the
    # load's rejections are tested with the hostile configs in test_cli
    w = draw(st.floats(2.0, 100.0))
    points = 2 ** draw(st.integers(4, 8))
    x_min = draw(FINITE)
    names = [name for name in sorted(STATES[preset]) if draw(st.booleans())]
    madelung = {
        "preset": preset,
        "grid": {"x_min": x_min, "x_max": x_min + draw(POSITIVE), "points": points,
                 "dt": draw(POSITIVE), "mass": draw(POSITIVE), "hbar": draw(POSITIVE)},
        "state": {name: draw(STATES[preset][name]) for name in names},
        "trajectories": {"count": draw(st.integers(1, 10**6)),
                         "seed": draw(st.integers(0, 2**64))},
    }
    if kind is not None:
        madelung["potential"] = {"kind": kind, **{
            "free": {},
            "harmonic": {"omega": draw(POSITIVE), "center": draw(FINITE)},
            "tabulated": {"values": draw(st.lists(FINITE, min_size=points, max_size=points))},
        }[kind]}
    obj = {
        "geometry": {"w_nm": w, "d_nm": w + draw(POSITIVE), "L_mm": draw(POSITIVE),
                     "lambda_pm": draw(st.floats(500.0, 1e3)), "mu_mm": draw(FINITE),
                     "I0": draw(POSITIVE)},
        "interval": interval(),
        "moment_interval": interval(),
        "n_values": ints(1, 9),
        "seeds": ints(0, 9),
        "binning": {"bin_counts": ints(1, 4), "orientations": draw(st.lists(
            st.sampled_from(["from_a", "from_b"]), min_size=1, unique=True))},
        "variants": draw(st.lists(st.sampled_from(["lower_bound_constant", "plus_16_percent"]),
                                  min_size=1, unique=True)),
        "quadrature": {"rel_tol": draw(POSITIVE), "abs_tol": draw(st.floats(0.0, 1.0)),
                       "max_refinement_depth": draw(st.integers(1, 100))},
        "madelung": madelung,
    }
    if draw(st.booleans()):
        obj["constant_override"] = draw(POSITIVE)
    return obj


@pytest.mark.parametrize("kind", [None, "free", "harmonic", "tabulated"])
@pytest.mark.parametrize("preset", sorted(STATES))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_config_json_round_trip(preset, kind, data):
    # every entry of the drawn JSON object, as the typed config holds it
    obj = data.draw(config_objects(preset, kind))
    cfg = config_from_json_dict(obj)
    g = cfg.geometry
    assert obj["geometry"] == {"w_nm": g.slit_width_w, "d_nm": g.slit_separation_d,
                               "L_mm": g.screen_distance_L, "lambda_pm": g.wavelength_lambda,
                               "mu_mm": g.center_mu, "I0": g.peak_height_I0}
    for key in ("interval", "moment_interval"):
        iv = getattr(cfg, key)
        assert obj[key] == (None if iv is None else {"a_mm": iv.lo, "b_mm": iv.hi})
    assert (cfg.n_values, cfg.seeds) == (tuple(obj["n_values"]), tuple(obj["seeds"]))
    assert obj["binning"] == {"bin_counts": list(cfg.bin_counts),
                              "orientations": [o.value for o in cfg.orientations]}
    assert obj["variants"] == [v.value for v in cfg.variants]
    assert obj["quadrature"] == {"rel_tol": cfg.quadrature.rel_tol,
                                 "abs_tol": cfg.quadrature.abs_tol,
                                 "max_refinement_depth": cfg.quadrature.max_refinement_depth}
    assert obj.get("constant_override") == cfg.constant_override
    m, want = cfg.madelung, obj["madelung"]
    assert isinstance(m, MadelungConfig) and isinstance(m.grid, Grid)
    assert m.preset == preset
    assert want["grid"] == {"x_min": m.grid.x_min, "x_max": m.grid.x_max,
                            "points": m.grid.points, "dt": m.grid.dt, "mass": m.grid.mass,
                            "hbar": m.grid.hbar}
    assert m.state == {**STATE_DEFAULTS[preset], **want["state"]}
    assert want["trajectories"] == {"count": m.count, "seed": m.seed}
    entries = {name: value for name, value in want.get("potential", {}).items() if name != "kind"}
    assert m.potential == (None if kind is None else getattr(Potential, kind)(**entries))


def test_madelung_section_typed_on_load():
    cfg = load_config(Path(__file__).parent / "data" / "golden_madelung_config.json")
    assert cfg.madelung == MadelungConfig(
        preset="free_gaussian", grid=Grid(x_min=-20.0, x_max=20.0, points=256, dt=0.01),
        state={"center": -1.0, "sigma": 1.0, "k_index": 8}, potential=None, count=500, seed=3)
    assert type(cfg.madelung.state["k_index"]) is int
    harmonic = config_from_json_dict({"madelung": {"preset": "harmonic", "potential": {
        "kind": "harmonic", "omega": 2}}}).madelung
    assert harmonic.state == {"omega": 1.0, "center": 0.0}
    assert harmonic.potential == Potential.harmonic(2.0)
    assert config_from_json_dict({}).madelung is None


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n_values": [13], "seeds": [7]}))
    cfg = load_config(path)
    assert cfg.n_values == (13,) and cfg.seeds == (7,)

    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_replication_row_grid_and_summary():
    cfg = small_config()
    report = run_paper_replication(cfg)
    assert len(report.rows) == 2 * 2 * 1 * 2  # N x seeds x bins x orientations
    assert report.summary["rows"] == len(report.rows)
    assert report.summary["pass_lower_const"] == sum(
        r.verdict_lower_const for r in report.rows
    )
    keys = [(r.N, r.bin_count, r.origin.value, r.seed) for r in report.rows]
    assert keys == sorted(keys)


def test_origins_give_the_same_sup_up_to_rounding():
    """The ``from_b`` sup is the ``from_a`` deviation at the mirrored edge.

    With C_k the cumulative count and F_k the CDF at edge k, ``from_b`` compares
    (N - C_k) / N with 1 - F_k, and (N - C_k) / N - (1 - F_k) = F_k - C_k / N,
    the ``from_a`` deviation e_k, so the two sups are one number up to rounding.
    The cumulative counts are integers (exact), so with u = eps / 2:
    ``from_a`` rounds C_k / N (an error of at most u, as C_k / N <= 1) and the
    difference (at most u |e_k| + u^2); ``from_b`` rounds (N - C_k) / N and
    1 - F_k (at most u each) and the difference (at most u |e_k| + 2u^2).  So
    each edge's two deviations differ by at most 3u + 2u |e_k| + 3u^2, and the
    sups by at most k eps with k = 3/2 + S + (3/4) eps, S the largest |e_k|.  The
    bound is absolute, not a multiple of the sup: the rounding of 1 - F_k does
    not shrink with it.  A computed sup is within u (1 + S + u) <= eps + u^2 of
    S, so k <= 3/2 + sup + 2 eps.  On this report the two differ by at most
    half an eps."""
    report = run_paper_replication(replication_config(seeds=(1, 2), bin_counts=(10, 20, 50, 100)))
    sups = {}
    for r in report.rows:
        sups.setdefault((r.N, r.bin_count, r.seed), {})[r.origin] = r.sup_deviation
    assert len(sups) == 9 * 4 * 2
    eps = np.finfo(float).eps
    for pair in sups.values():
        a, b = pair[Origin.FROM_A], pair[Origin.FROM_B]
        assert abs(a - b) <= (1.5 + max(a, b) + 2 * eps) * eps


def test_replication_is_deterministic():
    cfg = small_config()
    a = run_paper_replication(cfg)
    b = run_paper_replication(cfg)
    assert a == b
    assert report_text(a, "json") == report_text(b, "json")


def test_single_bin_deviation_is_zero():
    # one bin has no interior edge: the only oriented edge is the interval
    # end, where both CDFs are exactly 1
    cfg = replication_config(seeds=(3,), n_values=(1,), bin_counts=(1,))
    report = run_paper_replication(cfg)
    for row in report.rows:
        assert row.sup_deviation == pytest.approx(0.0, abs=1e-12)


def test_two_bin_single_event_hand_value():
    # with two bins and one event the deviation at the single interior edge
    # is |1 - cdf(edge)| or cdf(edge), depending on which side the event hit
    cfg = replication_config(seeds=(3,), n_values=(1,), bin_counts=(2,),
                             orientations=(Origin.FROM_A,))
    report = run_paper_replication(cfg)
    row = report.rows[0]
    density = double_slit_density(cfg.geometry)
    interval = density.support
    edge = BinningScheme(2, interval).edges()[1]
    theory = cdf(density, interval, float(edge))
    pos = sample_positions(density, interval, 1, 3)[0]
    expect = abs(1.0 - theory) if pos <= edge else abs(0.0 - theory)
    assert row.sup_deviation == pytest.approx(expect, abs=1e-12)


def test_sweep_requires_two_points_and_two_decades():
    cfg = small_config()
    with pytest.raises(SlopeUndefined):
        run_convergence_sweep(cfg, [100], seeds=(1,))
    with pytest.raises(ValueError):
        run_convergence_sweep(cfg, [100, 1000], seeds=(1,))


def test_sweep_slope_and_block_stability():
    cfg = replication_config(
        geometry=SlitGeometry(), interval=Interval(-1.0, 1.0),
        n_values=(100,), bin_counts=(10,), orientations=(Origin.FROM_A,),
    )
    grid = (100, 1000, 10000)
    first = run_convergence_sweep(cfg, grid, seeds=range(60))
    second = run_convergence_sweep(cfg, grid, seeds=range(1000, 1060))
    assert -0.8 <= first.fitted_exponent <= -0.2
    assert abs(first.fitted_exponent - second.fitted_exponent) < 0.05
    assert len(first.medians) == 3
    assert first.report.summary["rows"] == 3 * 60


def test_sweep_rejects_n_below_one():
    # before the check, N = 0 failed as an empty histogram and N < 0 inside numpy
    for grid in ([0, 1000], [-5, 1000]):
        with pytest.raises(ValueError, match="n_grid entries must be >= 1"):
            run_convergence_sweep(small_config(), grid, seeds=(1,))


@pytest.mark.parametrize("grid, key", [([100.9, 10000], "n_grid[0]"),
                                       ([100, True, 10000], "n_grid[1]"),
                                       ([100, "1000", 10000], "n_grid[1]"),
                                       ([100, 100.0, 10000], "n_grid[1]"),
                                       ([100, 10000, 100], "n_grid[2]")])
def test_sweep_n_grid_follows_the_n_values_rule(grid, key):
    # strict integers, each >= 1, none repeated; once 100.9 ran as N = 100
    # and True as N = 1, and repeats were merged
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        run_convergence_sweep(small_config(), grid, seeds=(1,))
    assert err.value.key == key


@pytest.mark.parametrize("seeds, key", [((), "seeds"), ((1, -2), "seeds[1]"),
                                        ((4, 2, 4), "seeds[2]")])
def test_sweep_checks_explicit_seeds(seeds, key):
    # explicit seeds follow the config's rule: nonempty, >= 0, none repeated
    with pytest.raises(ConfigError) as err:
        run_convergence_sweep(small_config(), [100, 10000], seeds=seeds)
    assert err.value.key == key


def _per_row_report(setup, cfg, rhs, row, positions):
    # the ReportRow of row's seed, bins and origin, written out from np.histogram,
    # a cumulative sum and the right-hand sides rhs of bound_rhs, with none of
    # the block helpers
    density, interval, _, _ = setup
    scheme = BinningScheme(row.bin_count, interval)
    n = positions.size
    rhs_lo, rhs_hi = rhs
    lo_n, hi_n = rhs_lo / math.sqrt(n), rhs_hi / math.sqrt(n)
    scheme_edges = scheme.edges()
    counts = np.histogram(positions, bins=scheme_edges)[0]
    assert np.array_equal(bin_counts(positions.reshape(1, -1), scheme)[0], counts)
    theory = cdf_at_points(density, interval, scheme_edges, cfg.quadrature)
    if row.origin is Origin.FROM_A:
        theory_at = theory[1:]
    else:
        counts, theory_at = counts[::-1], 1.0 - theory[-2::-1]
    sup = float(np.abs(np.cumsum(counts) / n - theory_at).max())
    return ReportRow(row.seed, n, sup, rhs_lo, rhs_hi, lo_n, hi_n, sup <= rhs_lo, sup <= rhs_hi,
                     sup <= lo_n, sup <= hi_n, scheme.bin_count, row.origin, interval.lo,
                     interval.hi)


def test_block_verify_matches_per_row():
    # _verify_blocks bins, sups and judges a whole run of seeds at once, adding
    # each segment's counts to running counts and judging every row at the end
    # of each segment; every row's counts, sup, right-hand sides and verdicts
    # must equal the per-row arithmetic of _per_row_report on the row's whole
    # prefix, so the running counts meet a non-incremental oracle
    from bornlab.harness import _verify_blocks, experiment_density

    bin_sizes = (1, 3, 7, 20)
    cfg = replication_config(seeds=(1, 2), n_values=(13, 54), bin_counts=bin_sizes,
                             orientations=(Origin.FROM_B, Origin.FROM_A))
    setup = experiment_density(cfg)
    density, interval, center, moment_iv = setup
    edges = np.concatenate([BinningScheme(b, interval).edges()
                            for b in bin_sizes])
    rng = np.random.default_rng(5)
    block = rng.choice(edges, size=(6, 60))  # every event on an edge, ends included
    block[0] = rng.uniform(interval.lo, interval.hi, 60)
    block[1] = interval.hi
    block[2, :40] = block[2, 0]
    block[3] = block[4]
    seeds = [11, 3, 7, 5, 2, 9]  # not in order
    rhs = [bound_rhs(recenter(density, center), moment_iv, v, cfg.quadrature,
                     cfg.constant_override) for v in BoundConstantVariant]
    ends = (13, 30, 60)
    segments = [block[:, a:b] for a, b in zip((0, *ends), ends)]
    rows = _verify_blocks(cfg, setup, [(seeds, segments)]).rows
    assert len(rows) == len(ends) * len(seeds) * len(bin_sizes) * 2
    assert {(r.N, r.seed, r.bin_count, r.origin) for r in rows} == {
        (n, s, b, o) for n in ends for s in seeds for b in bin_sizes for o in Origin}
    for got in rows:
        want = _per_row_report(setup, cfg, rhs, got, block[seeds.index(got.seed), :got.N])
        assert got == want and field_texts(got) == field_texts(want)

    # sampled streams: the row at each N is judged on sample_positions(N, seed)
    cfg = replace(cfg, seeds=(4, 1, 6), n_values=(200, 13, 54))
    rows = run_paper_replication(cfg).rows
    assert len(rows) == 3 * 3 * len(bin_sizes) * 2
    for got in rows:
        positions = sample_positions(density, interval, got.N, got.seed, cfg.quadrature)
        want = _per_row_report(setup, cfg, rhs, got, positions)
        assert got == want and field_texts(got) == field_texts(want)


def test_block_verify_orders_rows_as_the_reference_key():
    # three runs of ascending seeds ([None] first, as verify_events passes it,
    # then chunks of sorted seeds up to 2**64 - 1), with bin counts (20, 10)
    # and orientations (from_b, from_a) out of order; the report holds them
    # as the reference key sorts them, every key once
    from bornlab.harness import _verify_blocks, experiment_density

    cfg = replication_config(bin_counts=(20, 10), orientations=(Origin.FROM_B, Origin.FROM_A))
    setup = experiment_density(cfg)
    interval = setup[1]
    rng = np.random.default_rng(8)
    runs = []
    for seeds in ([None], [0, 4, 7], [9, 2**64 - 1]):
        block = rng.uniform(interval.lo, interval.hi, (len(seeds), 54))
        runs.append((seeds, [block[:, :13], block[:, 13:]]))
    rows = _verify_blocks(cfg, setup, runs).rows
    assert len({report_order(r) for r in rows}) == len(rows) == 2 * 6 * 2 * 2
    assert rows == tuple(sorted(rows, key=report_order))
    assert rows[0].seed is None and rows[0].bin_count == 10 and rows[0].origin is Origin.FROM_A


@settings(max_examples=60, deadline=None)
@given(bins=st.integers(1, 40), lo=st.floats(-1e3, 1e3), width=st.floats(0.1, 1e3))
@example(bins=1, lo=0.0, width=1.0)
def test_event_on_an_edge_goes_to_the_higher_bin(bins, lo, width):
    # an event exactly on edge k < bins is in ascending bin k, and one at iv.hi
    # in the last bin; bin_counts and the block loop, under either origin, bin
    # it the same way
    from bornlab.harness import _verify_blocks

    iv = Interval(lo, lo + width)
    edges = BinningScheme(bins, iv).edges()
    want = np.eye(bins + 1, bins, dtype=int)  # row k: the counts of one event on edge k
    want[bins, bins - 1] = 1
    assert np.array_equal(bin_counts(edges.reshape(-1, 1), BinningScheme(bins, iv)), want)
    # row k of the block is one event on edge k, its seed k
    density = uniform_density(iv)
    setup = (density, iv, lo + width / 2, Interval(-width / 2, width / 2))
    report = _verify_blocks(replication_config(bin_counts=(bins,)), setup,
                            [(list(range(bins + 1)), [edges.reshape(-1, 1)])])
    theory = cdf_at_points(density, iv, edges)
    assert len(report.rows) == 2 * (bins + 1)
    for row in report.rows:
        if row.origin is Origin.FROM_A:
            counts, theory_at = want[row.seed], theory[1:]
        else:
            counts, theory_at = want[row.seed, ::-1], 1.0 - theory[-2::-1]
        assert row.sup_deviation == float(np.abs(np.cumsum(counts) - theory_at).max())


def test_batched_sampling_matches_sequential(monkeypatch):
    # the harness batches per-seed draws into one vectorized inversion per
    # seed block; the Newton inversion is elementwise, so results must be
    # bit-identical, also when the seeds are split over several blocks
    from bornlab import harness

    cfg = small_config()
    density, interval, _, _ = harness.experiment_density(cfg)
    monkeypatch.setattr(harness, "_BATCH_SAMPLE_LIMIT", 400)
    blocks = [(seeds, list(segments)) for seeds, segments in
              harness._seed_blocks(density, interval, [200], [4, 9, 2], cfg.quadrature)]
    assert [seeds for seeds, _ in blocks] == [[4, 9], [2]]
    for seeds, (block,) in blocks:
        assert block.shape == (len(seeds), 200)
        for seed, row in zip(seeds, block):
            solo = sample_positions(density, interval, 200, seed, cfg.quadrature)
            assert np.array_equal(row, solo)


@settings(max_examples=40, deadline=None)
@given(ns=st.lists(st.integers(1, 500), min_size=1, max_size=5, unique=True).map(sorted),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5, unique=True),
       per_chunk=st.integers(0, 3))
@example(ns=[1], seeds=[0], per_chunk=0)
def test_seed_streams_are_drawn_once_and_read_as_prefixes(ns, seeds, per_chunk):
    # each seed's stream is built once and drawn in segments up to the largest
    # N; the concatenated segments of every row are sample_positions at each N
    # bit for bit, however the seeds are chunked (a limit below the largest N
    # still gives one seed per chunk)
    from bornlab import harness

    cfg = small_config()
    density, interval, _, _ = harness.experiment_density(cfg)
    built = []

    def counted(seed):
        built.append(seed)
        return rng_from_seed(seed)

    limit = max(1, per_chunk * ns[-1])
    chunk = max(1, limit // ns[-1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_BATCH_SAMPLE_LIMIT", limit)
        mp.setattr(harness, "rng_from_seed", counted)
        runs = [(run, list(segments)) for run, segments in
                harness._seed_blocks(density, interval, ns, seeds, cfg.quadrature)]
    assert sorted(built) == sorted(seeds)  # one generator per seed
    assert [run for run, _ in runs] == [seeds[i:i + chunk] for i in range(0, len(seeds), chunk)]
    for run, segments in runs:
        assert [s.shape for s in segments] == [(len(run), b - a) for a, b in zip((0, *ns), ns)]
        stream = np.concatenate(segments, axis=1)
        for i, seed in enumerate(run):
            for n in ns:
                want = sample_positions(density, interval, n, seed, cfg.quadrature)
                assert np.array_equal(stream[i, :n], want)


def test_replicate_inverts_and_bins_each_stream_once(tmp_path, monkeypatch):
    # the golden config has N = 13, 101, 448 and 3 seeds: each stream is
    # inverted and binned once, up to N = 448, which is 3 x 448 = 1,344 draws,
    # not the 3 x 562 = 1,686 of a fresh prefix per N
    from bornlab import harness

    inverted, binned = [], {}

    def invert(d, iv, u, cfg):
        inverted.append(u.size)
        return inverse_cdf_sample(d, iv, u, cfg)

    def count(block, scheme):
        binned[scheme.bin_count] = binned.get(scheme.bin_count, 0) + block.size
        return bin_counts(block, scheme)

    monkeypatch.setattr(harness, "inverse_cdf_sample", invert)
    monkeypatch.setattr(harness, "bin_counts", count)
    config = Path(__file__).parent / "data" / "golden_config.json"
    assert cli.main(["replicate", "--config", str(config), "--out",
                     str(tmp_path / "r.json")]) == 0
    assert sum(inverted) == 3 * 448
    assert binned == {10: 3 * 448, 20: 3 * 448}


def test_replicate_text_does_not_depend_on_seed_chunks(tmp_path, monkeypatch):
    # the seeds are drawn in runs of _BATCH_SAMPLE_LIMIT // max(N) seeds; runs
    # of 1, 2 or all 5 seeds, given out of order, write the same JSON and CSV
    from bornlab import harness

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_values": [101, 13, 54], "seeds": [7, 3, 11, 0, 5],
                                  "binning": {"bin_counts": [20, 10],
                                              "orientations": ["from_b", "from_a"]}}))
    texts = []
    for per_run in (1, 2, 5):
        monkeypatch.setattr(harness, "_BATCH_SAMPLE_LIMIT", per_run * 101)
        out = [tmp_path / f"{per_run}.{fmt}" for fmt in ("json", "csv")]
        assert cli.main(["replicate", "--config", str(config), "--out", str(out[0]),
                         "--csv", str(out[1])]) == 0
        texts.append([path.read_text() for path in out])
    assert texts[0] == texts[1] == texts[2]
    assert len(texts[0][1].splitlines()) == 1 + 3 * 5 * 2 * 2


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1) | st.sampled_from([0, 2**63, 2**64 - 1]),
                      min_size=1, max_size=6, unique=True),
       n_values=st.permutations([13, 54]),
       bins=st.lists(st.sampled_from([10, 20, 50]), min_size=1, max_size=3, unique=True),
       orientations=st.permutations(list(Origin)))
@example(seeds=[7, 3, 2**64 - 1, 0, 11], n_values=[54, 13], bins=[20, 10, 50],
         orientations=[Origin.FROM_B, Origin.FROM_A])
def test_replication_rows_come_out_in_reference_order(seeds, n_values, bins, orientations):
    # config seeds, N values, bin counts and orientations out of order, the
    # seeds drawn in runs of 1, 2 or 3: every report holds its rows as the
    # reference key sorts them, every key once, and writes the same JSON and
    # CSV text for every chunking
    from bornlab import harness

    cfg = replication_config(seeds=seeds, n_values=tuple(n_values), bin_counts=tuple(bins),
                             orientations=tuple(orientations))
    texts = set()
    for per_run in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "_BATCH_SAMPLE_LIMIT", per_run * 54)
            report = run_paper_replication(cfg)
        assert report.rows == tuple(sorted(report.rows, key=report_order))
        assert len({report_order(r) for r in report.rows}) == len(report.rows) == (
            2 * len(seeds) * len(bins) * 2)
        texts.add((report_text(report, "json"), report_text(report, "csv")))
    assert len(texts) == 1


def test_replicate_command_builds_no_report_row(tmp_path, monkeypatch):
    # a report is its columns: replicate writes both files without making a
    # ReportRow, and its exit code reads the summary; rows are made only when
    # the row view is read
    from bornlab import harness

    built = []

    class Counted(harness.ReportRow):
        __slots__ = ()

        def __new__(cls, *values):
            built.append(1)
            return super().__new__(cls, *values)

        @classmethod
        def _make(cls, values):
            built.append(1)
            return super()._make(values)

    monkeypatch.setattr(harness, "ReportRow", Counted)
    config = Path(__file__).parent / "data" / "golden_config.json"
    assert cli.main(["replicate", "--config", str(config), "--out", str(tmp_path / "r.json"),
                     "--csv", str(tmp_path / "r.csv")]) == 0
    assert built == []
    report = harness.run_paper_replication(load_config(config))
    assert built == [] and len(report.rows) == len(built) == 36
    assert all(type(r) is Counted for r in report.rows)


def test_all_literal_pass_reads_the_summary(tmp_path):
    # forced failures: at override 0.0094 some rows pass and some fail each
    # literal verdict, at 0.03 every row passes the +16% constant and some fail
    # the lower one.  For every variant subset the summary's answer is the row
    # scan's, on the report and on its copies read back from JSON and CSV
    lower, upper = BoundConstantVariant.LOWER_BOUND_CONSTANT, BoundConstantVariant.PLUS_16_PERCENT
    answers = set()
    for override, upper_all in ((0.0094, False), (0.03, True)):
        cfg = replication_config(seeds=(1, 2), n_values=(13, 54, 200), constant_override=override)
        report = run_paper_replication(cfg)
        rows = report.summary["rows"]
        assert 0 < report.summary["pass_lower_const"] < rows
        assert (report.summary["pass_upper_const"] == rows) == upper_all
        copies = [report]
        for fmt in ("json", "csv"):
            emit_report(report, fmt, tmp_path / f"r.{fmt}")
            copies.append(load_report(tmp_path / f"r.{fmt}"))
        for variants in ((), (lower,), (upper,), (lower, upper), (upper, lower)):
            for copy in copies:
                scan = all((r.verdict_lower_const or lower not in variants)
                           and (r.verdict_upper_const or upper not in variants)
                           for r in copy.rows)
                assert copy.all_literal_pass(variants) == scan
                answers.add((override, variants, scan))
    assert {(0.03, (upper,), True), (0.03, (lower,), False), (0.0094, (upper,), False)} <= answers
    passing = replication_config(seeds=(1, 2), n_values=(13, 54, 200))
    assert run_paper_replication(passing).all_literal_pass(passing.variants)


def test_report_columns_hold_python_scalars_of_their_types():
    # == between reports compares values: every column holds Python scalars
    # of its field's type, the seeds ints, in both pipelines
    cfg = small_config()
    d = double_slit_density(cfg.geometry)
    positions = sample_positions(d, d.support, 101, seed=5)
    for report in (run_paper_replication(cfg), verify_events(cfg, positions)):
        kinds = [int, float, float, float, float, float, bool, bool, bool, bool, int, Origin,
                 float, float]
        assert [{type(v) for v in column} for column in report.columns] == [{k} for k in kinds]
        assert {type(s) for s in report.seeds} <= {int, type(None)}


def test_ingest_events_round_trip(tmp_path):
    g = SlitGeometry()
    d = double_slit_density(g)
    positions = sample_positions(d, d.support, 3, seed=11)
    path = tmp_path / "events.csv"
    write_events_csv(positions, path)
    back = ingest_events(path, d.support)
    assert np.array_equal(back, positions)


def test_ingest_rejects_out_of_interval(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("index,t_mm\n0,0.1\n1,99.0\n2,0.2\n")
    with pytest.raises(OutOfInterval) as err:
        ingest_events(path, Interval(-1.0, 1.0))
    assert err.value.indices == (1,)
    assert "row 2" in str(err.value)

    path.write_text("index,t_mm\n0,nan\n1,0.2\n")
    with pytest.raises(OutOfInterval) as err:
        ingest_events(path, Interval(-1.0, 1.0))
    assert err.value.indices == (0,)
    assert "1 event(s) not a finite number (first at data row 1)" in str(err.value)
    assert "outside" not in str(err.value)

    path.write_text("index,t_mm\n0,0.1\n1,-5.0\n2,-inf\n3,nan\n4,2.0\n")
    with pytest.raises(OutOfInterval) as err:
        ingest_events(path, Interval(-1.0, 1.0))
    assert err.value.indices == (1, 2, 3, 4)
    assert str(err.value) == (f"{path}: 2 event(s) not a finite number (first at data row 3); "
                              "2 event(s) outside [-1.0, 1.0] (first at data row 2)")


def test_ingest_empty_and_malformed(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("index,t_mm\n")
    with pytest.raises(EmptyFile):
        ingest_events(path, Interval(-1.0, 1.0))
    path.write_text("index,t_mm\n0,0.1,extra\n")
    with pytest.raises(ParseError) as err:
        ingest_events(path, Interval(-1.0, 1.0))
    assert err.value.line == 2


def test_verify_events_rows(tmp_path):
    cfg = small_config()
    g = cfg.geometry
    d = double_slit_density(g)
    positions = sample_positions(d, d.support, 101, seed=5)
    report = verify_events(cfg, positions)
    assert len(report.rows) == 2  # one bin count, two orientations
    assert all(r.seed is None for r in report.rows)
    assert all(r.N == 101 for r in report.rows)


def test_emit_and_load_json_round_trip(tmp_path):
    report = run_paper_replication(small_config())
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    assert load_report(path) == report


def test_emit_and_load_csv_round_trip(tmp_path):
    report = run_paper_replication(small_config())
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    assert load_report(path) == report
    lines = path.read_text().splitlines()
    assert len(lines) == len(report.rows) + 1


def test_emit_empty_report(tmp_path):
    empty = _report([])
    jpath = tmp_path / "empty.json"
    cpath = tmp_path / "empty.csv"
    emit_report(empty, "json", jpath)
    emit_report(empty, "csv", cpath)
    assert json.loads(jpath.read_text())["rows"] == []
    assert cpath.read_text().splitlines()[0].startswith("seed,N,")
    assert len(cpath.read_text().splitlines()) == 1
    assert load_report(jpath) == empty
    assert load_report(cpath) == empty


_ODD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
               1.7976931348623157e308, 1e-5, 1e16]
_REPORT_FLOAT = st.floats() | st.sampled_from(_ODD_FLOATS)
_REPORT_ROW = st.builds(
    lambda seed, n, floats, verdicts, bins, origin, ends: ReportRow(
        seed, n, *floats, *verdicts, bins, origin, *ends),
    st.none() | st.integers(0, 2**64 - 1),
    st.integers(1, 10**12),
    st.tuples(*[_REPORT_FLOAT] * 5),
    st.tuples(*[st.booleans()] * 4),
    st.integers(1, 10**6),
    st.sampled_from(Origin),
    # the ends of an Interval, which load_report builds to check them
    st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2).map(sorted).filter(
        lambda ends: ends[0] < ends[1] and math.isfinite(ends[1] - ends[0])),
)


def _report_object(rows):
    """The JSON object of a report of ``rows``, written out from the README's
    key paths and the definition of its summary."""
    verdicts = ("lower_const", "upper_const", "with_sqrtN_lower", "with_sqrtN_upper")
    return {"rows": [{"seed": r.seed, "N": r.N, "sup_deviation": r.sup_deviation,
                      "rhs_lower_const": r.rhs_lower_const, "rhs_upper_const": r.rhs_upper_const,
                      "rhs_with_sqrtN_lower": r.rhs_with_sqrtN_lower,
                      "rhs_with_sqrtN_upper": r.rhs_with_sqrtN_upper,
                      "verdicts": {v: getattr(r, f"verdict_{v}") for v in verdicts},
                      "scheme": {"bin_count": r.bin_count, "origin": r.origin.value,
                                 "interval": {"a_mm": r.a_mm, "b_mm": r.b_mm}}} for r in rows],
            "summary": {"rows": len(rows), **{f"pass_{v}": sum(getattr(r, f"verdict_{v}")
                                                              for r in rows) for v in verdicts}}}


@settings(max_examples=200, deadline=None)
@given(st.lists(_REPORT_ROW, max_size=5))
@example([])
@example([ReportRow(None, 1, math.nan, math.inf, -math.inf, -0.0, 5e-324,
                    False, True, False, True, 3, Origin.FROM_B, -0.0, 1e-300)])
# -0.0 == 0.0 with one hash: each keeps its own text
@example([ReportRow(2, 5, 0.0, -0.0, 0.0, -0.0, 0.0, True, True, True, True,
                    2, Origin.FROM_A, -0.0, 0.25)])
# one nonzero float in several columns of several rows
@example([ReportRow(seed, n, 0.1, 0.1, 0.2, 0.1, 0.1, True, False, True, True,
                    10, origin, 0.1, 0.2)
          for seed, n, origin in [(1, 10, Origin.FROM_A), (2, 10, Origin.FROM_B),
                                  (1, 20, Origin.FROM_A)]])
@example([ReportRow(7, 3, math.nan, math.inf, -math.inf, math.nan, -math.inf,
                    False, False, False, False, 4, Origin.FROM_A, -1.5, 1.5)])
def test_report_text_matches_json_dumps_and_csv_writer(rows):
    # the JSON text must be laid out as json.dumps(indent=2) lays out the
    # object it holds, NaN and Infinity spelled the json way, and hold the
    # rows and summary; the CSV must be what a csv.writer loop writes; both
    # texts must read back through load_report to the same text
    report = _report(rows)
    text = {"json": report_text(report, "json"), "csv": report_text(report, "csv")}
    assert text["json"] == json.dumps(json.loads(text["json"]), indent=2) + "\n"
    assert text["json"] == json.dumps(_report_object(report.rows), indent=2) + "\n"
    assert text["csv"] == report_csv(report)
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("json", "csv"):
            path = Path(tmp) / f"report.{fmt}"
            emit_report(report, fmt, path)
            assert path.read_text() == text[fmt]
            assert report_text(load_report(path), fmt) == text[fmt]


def test_report_text_spells_equal_values_of_other_types_apart():
    # 1 == 1.0 == True and np.float64(0.5) == 0.5 hash alike; a value that is
    # not a float keeps its own repr beside an equal float in the same report
    rows = [ReportRow(1, 4, 1.0, 0.5, np.float64(0.5), 1.0, True, True, True, True, True,
                      2, Origin.FROM_A, -1, 1)]
    report = _report(rows)
    assert report_text(report, "csv") == report_csv(report)
    assert report_text(report, "json") == report_json(report)
    assert report_text(report, "csv").splitlines()[1].split(",")[2:7] == [
        "1.0", "0.5", "np.float64(0.5)", "1.0", "True"]


# values that hash alike but spell apart (-0.0 and 0.0; 0, 0.0 and False; 1,
# 1.0 and True), non-finite floats, None and ints past 2**64
_SPELLER_VALUE = (st.sampled_from([-0.0, 0.0, 0, False, True, 1, 1.0, math.nan, math.inf,
                                   -math.inf, None, 2**64 - 1, 2**70, -2**63])
                  | st.integers() | st.floats())


@settings(max_examples=200, deadline=None)
@given(st.lists(_SPELLER_VALUE, max_size=12)
       | st.builds(lambda value, k: [value] * k, _SPELLER_VALUE, st.integers(0, 5)))
@example([-0.0, 0.0])
@example([0.0, -0.0, 2.5, 2.5])
@example([1, True, 1.0])
@example([None, 3, None])
def test_spelled_column_equals_spelling_each_value(column):
    # the one speller of report cells: a column of one value, a column looked
    # up per distinct value and a column spelled value by value all give the
    # spelling of each value
    from bornlab.harness import _spelled

    for spell in (str, repr, lambda seed: "" if seed is None else str(seed)):
        assert _spelled(column, spell) == list(map(spell, column))


@st.composite
def _rows_sharing_floats(draw):
    """Report rows whose float fields come from a few drawn values, so that
    one value repeats across columns and rows.  The values include nan, +-inf
    and +-0.0, and values of other types equal to a float (1, True and
    np.float64(0.5) beside 1.0 and 0.5)."""
    pool = st.sampled_from(draw(st.lists(
        _REPORT_FLOAT | st.sampled_from([1.0, 0.5, 1, True, np.float64(0.5)]),
        min_size=1, max_size=4)))
    return draw(st.lists(st.builds(
        lambda seed, n, floats, verdicts, bins, origin: ReportRow(
            seed, n, *floats[:5], *verdicts, bins, origin, *floats[5:]),
        st.none() | st.integers(0, 2**64 - 1), st.integers(1, 10**12),
        st.tuples(*[pool] * 7), st.tuples(*[st.booleans()] * 4), st.integers(1, 10**6),
        st.sampled_from(Origin)), max_size=8))


@settings(max_examples=150, deadline=None)
@given(_rows_sharing_floats())
@example([ReportRow(None, 1, math.nan, -0.0, 0.0, math.inf, -math.inf, True, False, True, False,
                    3, Origin.FROM_B, math.nan, -0.0),
          ReportRow(4, 1, 0.0, math.nan, -math.inf, -0.0, math.inf, False, True, False, True,
                    3, Origin.FROM_A, 0.0, math.inf)])
def test_report_text_matches_row_by_row_reference(rows):
    # the column-wise writer writes what the reference writes row by row, and
    # one report's cells serve both formats in either order
    want = {"json": report_json(_report(rows)),
            "csv": report_csv(_report(rows))}
    for fmt in want:
        assert report_text(_report(rows), fmt) == want[fmt]
    for order in (("csv", "json"), ("json", "csv")):
        report = _report(rows)
        for fmt in order:
            assert report_text(report, fmt) == want[fmt], order


def test_paper_size_report_matches_row_by_row_reference():
    # the goldens hold 36 rows; the paper's nine N values x 40 seeds x bins
    # 10/20/50/100 x two orientations hold 2,880
    report = run_paper_replication(replication_config(
        seeds=tuple(range(1, 41)), bin_counts=(10, 20, 50, 100)))
    assert len(report.rows) == 9 * 40 * 4 * 2
    assert report_text(report, "json") == report_json(report)
    assert report_text(report, "csv") == report_csv(report)


@settings(max_examples=50, deadline=None)
@given(st.lists(_REPORT_ROW, max_size=3), _REPORT_FLOAT,
       st.lists(st.tuples(st.integers(1, 10**12), _REPORT_FLOAT), max_size=3))
def test_sweep_text_matches_json_dumps(rows, exponent, medians):
    # sweep writes its rows with the report writer, the fit and medians first
    report = _report(rows)
    want = {"fitted_exponent": exponent,
            "medians": [{"N": n, "median_sup_deviation": m} for n, m in medians],
            **_report_object(report.rows)}
    text = sweep_text(SweepResult(report, exponent, tuple(medians)))
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert text == json.dumps(want, indent=2) + "\n"


def _edit_cells(text, line, edit):
    """``text`` with the cells of its 1-based ``line`` replaced by ``edit(cells)``."""
    lines = text.split("\n")
    lines[line - 1] = ",".join(edit(lines[line - 1].split(",")))
    return "\n".join(lines)


# a good report text edited into a bad one, the line (CSV) that ParseError
# must name, and what its message must hold: the row or line and the column
_BAD_REPORTS = {
    "json_bool_as_string": (
        "json", lambda t: t.replace('"lower_const": true', '"lower_const": "false"', 1),
        None, "rows[0]: verdicts.lower_const: "),
    "json_fractional_int": (
        "json", lambda t: t.replace('"N": 13,', '"N": 13.9,', 1), None, "rows[0]: N: "),
    "json_bool_as_int": (
        "json", lambda t: t.replace('"bin_count": 10', '"bin_count": true', 1),
        None, "rows[0]: scheme.bin_count: "),
    "json_int_as_float": (
        "json", lambda t: t.replace('"a_mm": -1.0', '"a_mm": -1', 1),
        None, "rows[0]: scheme.interval.a_mm: "),
    "json_missing_key": (
        "json", lambda t: t.replace('"b_mm": 1.0', '"b": 1.0', 1),
        None, "rows[0]: scheme.interval.b_mm: missing"),
    "json_extra_key": (
        "json", lambda t: t.replace('"seed": 2,', '"seed": 2, "x": 0,'),
        None, "rows[1]: x: unknown key"),
    "json_seed_as_string": (
        "json", lambda t: t.replace('"seed": 2,', '"seed": "2",'), None, "rows[1]: seed: "),
    "json_bad_origin": (
        "json", lambda t: t.replace('"from_a"', '"from_c"', 1), None, "rows[0]: scheme.origin: "),
    "json_summary": (
        "json", lambda t: t.replace('"pass_lower_const": 2', '"pass_lower_const": 1'),
        None, "summary"),
    "json_not_json": ("json", lambda t: t[:-3], None, "invalid JSON"),
    # json.load keeps the last of a repeated key
    "json_repeated_key": (
        "json", lambda t: t.replace('"sup_deviation": 0.25,', '"sup_deviation": 0.25,\n'
                                    '      "sup_deviation": 0.5,', 1),
        None, "rows[0]: repeated key: sup_deviation"),
    "json_repeated_scheme": (
        "json", lambda t: t.replace('"scheme": {', '"scheme": {}, "scheme": {', 1),
        None, "rows[0]: repeated key: scheme"),
    "json_repeated_nested_key": (
        "json", lambda t: t.replace('"bin_count": 10', '"bin_count": 10, "bin_count": 10', 1),
        None, "rows[0]: repeated key: scheme.bin_count"),
    "json_repeated_summary_key": (
        "json", lambda t: t.replace('"rows": 2', '"rows": 2, "rows": 2'),
        None, ": repeated key: summary.rows"),
    # load_report builds each row's BinningScheme and Interval for these checks;
    # their errors once named no key or column
    "json_zero_bins": (
        "json", lambda t: t.replace('"bin_count": 10', '"bin_count": 0', 1),
        None, "rows[0]: scheme.bin_count: bin_count must be >= 1, got 0"),
    "json_swapped_ends": (
        "json", lambda t: t.replace('"a_mm": -1.0', '"a_mm": 1.0', 1).replace(
            '"b_mm": 1.0', '"b_mm": -1.0', 1), None,
        "rows[0]: scheme.interval.a_mm, scheme.interval.b_mm: interval requires lo < hi"),
    "json_nan_end": (
        "json", lambda t: t.replace('"a_mm": -1.0', '"a_mm": NaN', 1), None,
        "rows[0]: scheme.interval.a_mm, scheme.interval.b_mm: interval endpoints must be finite"),
    "json_overflowing_width": (
        "json", lambda t: t.replace('"a_mm": -1.0', '"a_mm": -1e+308', 1).replace(
            '"b_mm": 1.0', '"b_mm": 1e+308', 1), None,
        "rows[0]: scheme.interval.a_mm, scheme.interval.b_mm: interval width must be finite"),
    "csv_zero_bins": (
        "csv", lambda t: _edit_cells(t, 2, lambda c: c[:11] + ["0"] + c[12:]), 2,
        "bin_count: bin_count must be >= 1, got 0"),
    "csv_swapped_ends": (
        "csv", lambda t: _edit_cells(t, 3, lambda c: c[:13] + ["1.0", "-1.0"]), 3,
        "a_mm, b_mm: interval requires lo < hi"),
    "csv_inf_end": (
        "csv", lambda t: _edit_cells(t, 2, lambda c: c[:14] + ["inf"]), 2,
        "a_mm, b_mm: interval endpoints must be finite"),
    "csv_bool_spelled_python": (
        "csv", lambda t: _edit_cells(t, 2, lambda c: c[:7] + ["True"] + c[8:]),
        2, "verdict_lower_const: "),
    "csv_fractional_int": (
        "csv", lambda t: _edit_cells(t, 3, lambda c: c[:1] + ["13.9"] + c[2:]), 3, "N: "),
    "csv_empty_file": ("csv", lambda t: "", 1, "empty file"),
    "csv_short_row": (
        "csv", lambda t: _edit_cells(t, 3, lambda c: c[:-1]), 3, "column b_mm missing"),
    "csv_long_row": (
        "csv", lambda t: _edit_cells(t, 2, lambda c: c + ["1.0"]), 2, "expected 15 columns"),
    "csv_header": ("csv", lambda t: t.replace("verdict_", "v_", 1), 1, "expected header"),
    # json.loads read the padded cell as N = 13, and the row wrote it back as 13
    "csv_padded_cell": (
        "csv", lambda t: _edit_cells(t, 2, lambda c: c[:1] + [" 13"] + c[2:]), 2,
        "' 13': a cell may not hold non-ASCII text or padding"),
    "csv_non_ascii_cell": (
        "csv", lambda t: _edit_cells(t, 3, lambda c: c[:1] + ["\u0661\u0663"] + c[2:]), 3,
        "a cell may not hold non-ASCII text or padding"),
}


@pytest.mark.parametrize("case", list(_BAD_REPORTS))
def test_load_report_names_row_and_column(tmp_path, case):
    # every one of these loaded (a string "false" as True, 13.9 as 13, a CSV
    # True as False) or failed without a line before the strict parser
    fmt, edit, line, words = _BAD_REPORTS[case]
    rows = [ReportRow(seed, 13, 0.25, 0.5, 0.58, 0.125, 0.145, True, True, False, False,
                      10, Origin.FROM_A, -1.0, 1.0) for seed in (1, 2)]
    good = report_text(_report(rows), fmt)
    path = tmp_path / f"report.{fmt}"
    path.write_text(good)
    assert load_report(path).rows == tuple(rows)
    bad = edit(good)
    assert bad != good
    path.write_text(bad)
    with pytest.raises(ParseError) as err:
        load_report(path)
    assert words in str(err.value)
    if line is not None:
        assert err.value.line == line


@functools.cache
def _replication_at(i0: float):
    """The 3 N x 3 seeds x bins 1/10/20 replication at peak height ``i0``."""
    return run_paper_replication(replication_config(
        seeds=(1, 2, 3), n_values=(13, 101, 803), bin_counts=(1, 10, 20),
        geometry=replace(SlitGeometry(), peak_height_I0=i0)))


def test_report_unchanged_when_i0_scales_by_a_power_of_two():
    # scaling by 2^j is exact in every density value, in the CDF table and in
    # the normalized moments that bound_rhs takes, so no byte may move
    want = report_text(_replication_at(1.0), "json")
    for j in range(-15, 21):
        assert report_text(_replication_at(2.0**j), "json") == want, j


@settings(max_examples=6, deadline=None)
@given(st.floats(1e-3, 1e3))
@example(1e-3)
@example(1e3)
@example(2.0)
def test_report_floats_scale_free_in_i0(i0):
    base, scaled_rows = _replication_at(1.0).rows, _replication_at(i0).rows
    assert len(scaled_rows) == len(base)
    floats = ("sup_deviation", "rhs_lower_const", "rhs_upper_const",
              "rhs_with_sqrtN_lower", "rhs_with_sqrtN_upper")
    for a, b in zip(base, scaled_rows):
        assert a._replace(**dict.fromkeys(floats)) == b._replace(**dict.fromkeys(floats))
        for name in floats:
            assert getattr(b, name) == pytest.approx(getattr(a, name), rel=1e-12, abs=0.0)


def test_emit_rejects_unknown_format(tmp_path):
    report = _report([])
    with pytest.raises(ValueError):
        emit_report(report, "yaml", tmp_path / "x.yaml")


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "x.yaml"
    emit_report(_report([]), "json", path)
    with pytest.raises(ValueError, match="^format must be 'json' or 'csv', got 'yaml'$"):
        load_report(path, "yaml")


@pytest.mark.parametrize("text", ['[]', '"rows"', '{"summary": {"rows": 0}}',
                                  '{"rows": {}, "summary": {}}'])
def test_load_report_json_without_a_rows_list(tmp_path, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    with pytest.raises(ParseError, match="expected an object holding a list of rows$"):
        load_report(path)


def test_summary_matches_recount():
    report = run_paper_replication(small_config())
    recount = {
        "rows": len(report.rows),
        "pass_lower_const": sum(r.verdict_lower_const for r in report.rows),
        "pass_upper_const": sum(r.verdict_upper_const for r in report.rows),
        "pass_with_sqrtN_lower": sum(r.verdict_with_sqrtN_lower for r in report.rows),
        "pass_with_sqrtN_upper": sum(r.verdict_with_sqrtN_upper for r in report.rows),
    }
    assert report.summary == recount


def test_constant_override_propagates():
    cfg = small_config(constant_override=1e-3)
    report = run_paper_replication(cfg)
    assert not report.all_literal_pass(cfg.variants)
    assert all(r.rhs_lower_const == pytest.approx(1e-3 * r.rhs_lower_const / 1e-3)
               for r in report.rows)
    assert report.rows[0].rhs_upper_const == pytest.approx(
        1.16 * report.rows[0].rhs_lower_const
    )


def test_moment_interval_override():
    # probing the moment-window ambiguity: narrowing the window changes the
    # bound, the pipeline itself stays intact
    narrow = small_config(moment_interval=Interval(-0.2, 0.2))
    wide = small_config()
    r_narrow = run_paper_replication(narrow)
    r_wide = run_paper_replication(wide)
    assert r_narrow.rows[0].rhs_lower_const != pytest.approx(
        r_wide.rows[0].rhs_lower_const
    )
