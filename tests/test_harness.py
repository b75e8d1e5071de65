import json

import numpy as np
import pytest

from bornlab import cli
from bornlab.berry_esseen import BinningScheme, Origin
from bornlab.born_density import cdf, double_slit_density, SlitGeometry
from bornlab.errors import ConfigError, EmptyFile, OutOfInterval, ParseError, SlopeUndefined
from bornlab.harness import (
    ConvergenceReport,
    PAPER_REPLICATION_N_VALUES,
    PATTERN_BUILDUP_N_VALUES,
    config_from_json_dict,
    config_to_json_dict,
    emit_report,
    ingest_events,
    load_config,
    load_report,
    pattern_buildup_config,
    replication_config,
    run_convergence_sweep,
    run_paper_replication,
    verify_events,
)
from bornlab.quadrature import Interval
from bornlab.sampler import sample_positions, write_events_csv


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


def test_batched_sampling_matches_sequential():
    # the harness batches per-seed draws into one vectorized inversion; the
    # Newton inversion is elementwise, so results must be bit-identical
    from bornlab.harness import experiment_density, _positions_by_seed

    cfg = small_config()
    density, interval, _, _ = experiment_density(cfg)
    batched = _positions_by_seed(density, interval, 200, [4, 9, 2], cfg.quadrature)
    for seed in (4, 9, 2):
        solo = sample_positions(density, interval, 200, seed, cfg.quadrature)
        assert np.array_equal(batched[seed], solo)


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
