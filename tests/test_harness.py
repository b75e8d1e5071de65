import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import cli
from bornlab.berry_esseen import (
    REPORT_CSV_COLUMNS,
    BinningScheme,
    BoundReport,
    Origin,
    Verdicts,
    verify_inequality,
)
from bornlab.born_density import cdf, cdf_at_points, double_slit_density, SlitGeometry
from bornlab.errors import ConfigError, EmptyFile, OutOfInterval, ParseError, SlopeUndefined
from bornlab.harness import (
    ConvergenceReport,
    MadelungConfig,
    PAPER_REPLICATION_N_VALUES,
    PATTERN_BUILDUP_N_VALUES,
    ReportRow,
    config_from_json_dict,
    config_to_json_dict,
    emit_report,
    ingest_events,
    load_config,
    load_report,
    pattern_buildup_config,
    replication_config,
    report_text,
    run_convergence_sweep,
    run_paper_replication,
    verify_events,
)
from bornlab.madelung import Grid, Potential
from bornlab.quadrature import Interval
from bornlab.sampler import bin_positions, sample_positions, write_events_csv


def small_config(**overrides):
    return replication_config(
        seeds=(1, 2), n_values=(13, 54), bin_counts=(10,), **overrides
    )


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
    cfg = small_config(moment_interval=Interval(-0.8, 0.8))
    back = config_from_json_dict(config_to_json_dict(cfg))
    assert back == cfg


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


def test_config_validation_errors():
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
        ({"madelung": {"potential": {"kind": "harmonic", "omega": -1.0}}}, "madelung.potential"),
    ]:
        with pytest.raises(ConfigError) as err:
            config_from_json_dict(obj)
        assert err.value.key == key
    with pytest.raises(ConfigError) as err:
        replication_config(seeds=(3, 3))
    assert err.value.key == "seeds[1]"


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

    w = draw(st.floats(1.0, 100.0))
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
                     "lambda_pm": draw(POSITIVE), "mu_mm": draw(FINITE), "I0": draw(POSITIVE)},
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
    cfg = config_from_json_dict(data.draw(config_objects(preset, kind)))
    assert isinstance(cfg.madelung, MadelungConfig)
    assert isinstance(cfg.madelung.grid, Grid)
    assert config_from_json_dict(config_to_json_dict(cfg)) == cfg
    assert config_from_json_dict(json.loads(json.dumps(config_to_json_dict(cfg)))) == cfg


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
        r.report.verdicts.lower_const for r in report.rows
    )
    keys = [(r.report.N, r.report.scheme.bin_count, r.report.scheme.origin.value, r.seed)
            for r in report.rows]
    assert keys == sorted(keys)


def test_replication_is_deterministic():
    cfg = small_config()
    a = run_paper_replication(cfg)
    b = run_paper_replication(cfg)
    assert a == b
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_single_bin_deviation_is_zero():
    # one bin has no interior edge: the only oriented edge is the interval
    # end, where both CDFs are exactly 1
    cfg = replication_config(seeds=(3,), n_values=(1,), bin_counts=(1,))
    report = run_paper_replication(cfg)
    for row in report.rows:
        assert row.report.sup_deviation == pytest.approx(0.0, abs=1e-12)


def test_two_bin_single_event_hand_value():
    # with two bins and one event the deviation at the single interior edge
    # is |1 - cdf(edge)| or cdf(edge), depending on which side the event hit
    cfg = replication_config(seeds=(3,), n_values=(1,), bin_counts=(2,),
                             orientations=(Origin.FROM_A,))
    report = run_paper_replication(cfg)
    row = report.rows[0]
    density = double_slit_density(cfg.geometry)
    interval = density.support
    edge = BinningScheme(2, Origin.FROM_A, interval).edges()[1]
    theory = cdf(density, interval, float(edge))
    pos = sample_positions(density, interval, 1, 3)[0]
    expect = abs(1.0 - theory) if pos <= edge else abs(0.0 - theory)
    assert row.report.sup_deviation == pytest.approx(expect, abs=1e-12)


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


@pytest.mark.parametrize("seeds, key", [((), "seeds"), ((1, -2), "seeds[1]"),
                                        ((4, 2, 4), "seeds[2]")])
def test_sweep_checks_explicit_seeds(seeds, key):
    # explicit seeds follow the config's rule: nonempty, >= 0, none repeated
    with pytest.raises(ConfigError) as err:
        run_convergence_sweep(small_config(), [100, 10000], seeds=seeds)
    assert err.value.key == key


def test_block_verify_matches_per_row():
    # _verify_positions bins, sups and judges a whole seeds x N block at once;
    # every row must equal the one-row public path bit for bit, and its counts
    # and sup the per-row arithmetic written out here
    from bornlab.harness import _verify_positions, experiment_density

    cfg = small_config(orientations=(Origin.FROM_B, Origin.FROM_A))
    setup = experiment_density(cfg)
    density, interval, center, moment_iv = setup
    bin_counts = (1, 3, 7, 20)
    edges = np.concatenate([BinningScheme(b, Origin.FROM_A, interval).edges()
                            for b in bin_counts])
    rng = np.random.default_rng(5)
    block = rng.choice(edges, size=(6, 60))  # every event on an edge, ends included
    block[0] = rng.uniform(interval.lo, interval.hi, 60)
    block[1] = interval.hi
    block[2, :40] = block[2, 0]
    block[3] = block[4]
    seeds = [11, 3, 7, 5, 2, 9]  # not in order
    rows = _verify_positions(cfg, setup, block, seeds, bin_counts)
    assert len(rows) == len(seeds) * len(bin_counts) * 2
    assert {(r.seed, r.report.scheme.bin_count, r.report.scheme.origin) for r in rows} == {
        (s, b, o) for s in seeds for b in bin_counts for o in Origin}
    for row in rows:
        got = row.report
        positions = block[seeds.index(row.seed)]
        hist = bin_positions(positions, got.scheme)
        want = verify_inequality(hist, density, moment_iv, center, cfg.quadrature,
                                 cfg.constant_override)
        assert got == want and got.csv_row() == want.csv_row()
        scheme_edges = got.scheme.edges()
        counts = np.histogram(positions, bins=scheme_edges)[0]
        theory = cdf_at_points(density, interval, scheme_edges, cfg.quadrature)
        if got.scheme.origin is Origin.FROM_A:
            theory_at = theory[1:]
        else:
            counts, theory_at = counts[::-1], 1.0 - theory[-2::-1]
        assert hist.counts == tuple(counts.tolist())
        assert got.sup_deviation == float(np.abs(np.cumsum(counts) / 60 - theory_at).max())


def test_batched_sampling_matches_sequential(monkeypatch):
    # the harness batches per-seed draws into one vectorized inversion per
    # seed block; the Newton inversion is elementwise, so results must be
    # bit-identical, also when the seeds are split over several blocks
    from bornlab import harness

    cfg = small_config()
    density, interval, _, _ = harness.experiment_density(cfg)
    monkeypatch.setattr(harness, "_BATCH_SAMPLE_LIMIT", 400)
    blocks = list(harness._seed_blocks(density, interval, 200, [4, 9, 2], cfg.quadrature))
    assert [seeds for seeds, _ in blocks] == [[4, 9], [2]]
    for seeds, block in blocks:
        assert block.shape == (len(seeds), 200)
        for seed, row in zip(seeds, block):
            solo = sample_positions(density, interval, 200, seed, cfg.quadrature)
            assert np.array_equal(row, solo)


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
    assert all(r.report.N == 101 for r in report.rows)


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
    empty = ConvergenceReport.from_rows([])
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
    lambda seed, n, floats, verdicts, bins, origin, ends: ReportRow(seed, BoundReport(
        n, *floats, Verdicts(*verdicts), BinningScheme(bins, origin, Interval(*ends)))),
    st.none() | st.integers(0, 2**64 - 1),
    st.integers(1, 10**12),
    st.tuples(*[_REPORT_FLOAT] * 5),
    st.tuples(*[st.booleans()] * 4),
    st.integers(1, 10**6),
    st.sampled_from(Origin),
    st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2).map(sorted).filter(
        lambda ends: ends[0] < ends[1]),
)


def _csv_writer_text(report):
    """The report CSV as the csv.writer loop that report_text replaced wrote it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["seed", *REPORT_CSV_COLUMNS])
    for row in report.rows:
        writer.writerow(["" if row.seed is None else str(row.seed), *row.report.csv_row()])
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(st.lists(_REPORT_ROW, max_size=5))
@example([])
@example([ReportRow(None, BoundReport(1, math.nan, math.inf, -math.inf, -0.0, 5e-324,
                                      Verdicts(False, True, False, True),
                                      BinningScheme(3, Origin.FROM_B, Interval(-0.0, 1e-300))))])
def test_report_text_matches_json_dumps_and_csv_writer(rows):
    # the templates must write exactly what json.dumps(indent=2) and a
    # csv.writer loop write, NaN and Infinity spelled the json way, and both
    # texts must read back through load_report to the same text
    report = ConvergenceReport.from_rows(rows)
    text = {"json": report_text(report, "json"), "csv": report_text(report, "csv")}
    assert text["json"] == json.dumps(report.to_json_dict(), indent=2) + "\n"
    assert text["csv"] == _csv_writer_text(report)
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("json", "csv"):
            path = Path(tmp) / f"report.{fmt}"
            emit_report(report, fmt, path)
            assert path.read_text() == text[fmt]
            assert report_text(load_report(path), fmt) == text[fmt]


def test_emit_rejects_unknown_format(tmp_path):
    report = ConvergenceReport.from_rows([])
    with pytest.raises(ValueError):
        emit_report(report, "yaml", tmp_path / "x.yaml")


def test_summary_matches_recount():
    report = run_paper_replication(small_config())
    recount = {
        "rows": len(report.rows),
        "pass_lower_const": sum(r.report.verdicts.lower_const for r in report.rows),
        "pass_upper_const": sum(r.report.verdicts.upper_const for r in report.rows),
        "pass_with_sqrtN_lower": sum(r.report.verdicts.with_sqrtN_lower for r in report.rows),
        "pass_with_sqrtN_upper": sum(r.report.verdicts.with_sqrtN_upper for r in report.rows),
    }
    assert report.summary == recount


def test_constant_override_propagates():
    cfg = small_config(constant_override=1e-3)
    report = run_paper_replication(cfg)
    assert not report.all_literal_pass(cfg.variants)
    assert all(r.report.rhs_lower_const == pytest.approx(1e-3 * r.report.rhs_lower_const / 1e-3)
               for r in report.rows)
    assert report.rows[0].report.rhs_upper_const == pytest.approx(
        1.16 * report.rows[0].report.rhs_lower_const
    )


def test_moment_interval_override():
    # probing the moment-window ambiguity: narrowing the window changes the
    # bound, the pipeline itself stays intact
    narrow = small_config(moment_interval=Interval(-0.2, 0.2))
    wide = small_config()
    r_narrow = run_paper_replication(narrow)
    r_wide = run_paper_replication(wide)
    assert r_narrow.rows[0].report.rhs_lower_const != pytest.approx(
        r_wide.rows[0].report.rhs_lower_const
    )
