import json
import time

import numpy as np
import pytest

from bornlab import cli, madelung
from bornlab.errors import UnstableStep
from bornlab.harness import load_report


@pytest.fixture()
def config_path(tmp_path):
    cfg = {
        "geometry": {"w_nm": 62.0, "d_nm": 272.0, "L_mm": 240.0,
                     "lambda_pm": 50.0, "mu_mm": 0.0, "I0": 1.0},
        "n_values": [13, 54],
        "seeds": [1, 2],
        "binning": {"bin_counts": [10], "orientations": ["from_a", "from_b"]},
        "madelung": {
            "preset": "plane_wave",
            "grid": {"x_min": -20.0, "x_max": 20.0, "points": 256, "dt": 1e-3},
            "state": {"k_index": 8},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_density_three_points(config_path, tmp_path):
    out = tmp_path / "density.csv"
    rc = cli.main(["density", "--config", str(config_path), "--out", str(out),
                   "--points", "3"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t_mm,intensity"
    assert len(lines) == 4
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts[0] < ts[1] < ts[2]
    assert ts[1] == pytest.approx(0.5 * (ts[0] + ts[2]), abs=1e-15)
    center_value = float(lines[2].split(",")[1])
    assert center_value == 1.0  # I0 at the pattern center


def test_density_default_run_fast(config_path, tmp_path):
    out = tmp_path / "density.csv"
    start = time.perf_counter()
    rc = cli.main(["density", "--config", str(config_path), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 1.0
    assert len(out.read_text().splitlines()) == 10_001


def test_density_svg_output(config_path, tmp_path):
    out = tmp_path / "density.csv"
    svg = tmp_path / "density.svg"
    rc = cli.main(["density", "--config", str(config_path), "--out", str(out),
                   "--points", "200", "--svg", str(svg)])
    assert rc == 0
    import xml.etree.ElementTree as ET

    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")


def test_replicate_default_passes(config_path, tmp_path):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "report.csv"
    rc = cli.main(["replicate", "--config", str(config_path), "--out", str(out),
                   "--csv", str(csv_out)])
    assert rc == 0
    report = load_report(out)
    assert report.summary["rows"] == 2 * 2 * 2
    assert load_report(csv_out) == report


def test_replicate_forced_failure_exits_one(tmp_path):
    cfg = {"n_values": [13], "seeds": [1], "constant_override": 0.001}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["replicate", "--config", str(path), "--out",
                   str(tmp_path / "r.json")])
    assert rc == 1


def test_missing_config_exits_two(tmp_path):
    rc = cli.main(["replicate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "r.json")])
    assert rc == 2


def test_bad_config_key_named_on_stderr(tmp_path, capsys):
    # each malformed config exits 2 (not 1, the verdict-failure code, nor a
    # traceback) and names the offending key
    cases = [
        ("replicate", {"n_valuess": [1]}, "n_valuess"),
        ("madelung", {"madelung": 3}, "madelung must be"),
        ("madelung", {"madelung": [["preset", "harmonic"]]}, "madelung must be"),
        ("madelung", {"madelung": {"grid": 3}}, "madelung.grid"),
        ("madelung", {"madelung": {"state": [1.0]}}, "madelung.state"),
        ("madelung", {"madelung": {"potential": 3}}, "madelung.potential"),
        ("trajectories", {"madelung": {"trajectories": 5}}, "madelung.trajectories"),
        # bad values inside the sections: no TypeError, no silent truncation
        ("madelung", {"madelung": {"state": {"sigma": [1]}}}, "madelung.state.sigma"),
        ("madelung", {"madelung": {"potential": {"kind": "harmonic", "omega": "x"}}},
         "madelung.potential.omega"),
        ("madelung", {"madelung": {"state": {"k_index": 2.5}}}, "madelung.state.k_index"),
        ("trajectories", {"madelung": {"trajectories": {"count": True}}},
         "madelung.trajectories.count"),
        ("madelung", {"madelung": {"grid": {"dt": True}}}, "madelung.grid.dt"),
        ("madelung", {"madelung": {"potential": {"kind": "tabulated", "values": 3}}},
         "madelung.potential.values"),
    ]
    # values that were coerced or let through, and keys that were ignored: the
    # config is checked whole on load, so every subcommand rejects each one
    nan = float("nan")
    cases += [
        (command, cfg, key)
        for cfg, key in [
            ({"geometry": {"w_nm": True}}, "geometry.w_nm"),
            ({"geometry": {"I0": "3"}}, "geometry.I0"),
            ({"quadrature": {"rel_tol": "1e-9"}}, "quadrature.rel_tol"),
            ({"interval": {"a_mm": "-1", "b_mm": False}}, "interval.a_mm"),
            ({"interval": {"a_mm": -1.0, "b_mm": False}}, "interval.b_mm"),
            ({"quadrature": {"abs_tol": nan}}, "quadrature.abs_tol"),
            ({"constant_override": nan}, "constant_override"),
            ({"madelung": {"preset": "bogus"}}, "madelung.preset"),
            ({"madelung": {"state": {"sigmaa": 2.0}}}, "madelung.state.sigmaa"),
            ({"madelung": {"trajectories": {"seedd": 2}}}, "madelung.trajectories.seedd"),
            ({"madelung": {"potential": {"kind": "free", "omega": 2.0}}},
             "madelung.potential.omega"),
            ({"madelung": {"preset": "plane_wave", "state": {"sigma": 1.0}}},
             "madelung.state.sigma"),
            ({"madelung": {"grid": {"points": 100}}}, "madelung.grid"),
        ]
        for command in ("bound", "replicate", "madelung", "trajectories")
    ]
    path = tmp_path / "cfg.json"
    for command, cfg, key in cases:
        path.write_text(json.dumps(cfg))
        out = {"bound": [], "madelung": ["--out-dir", str(tmp_path / "out")]}.get(
            command, ["--out", str(tmp_path / "out")])
        rc = cli.main([command, "--config", str(path), *out])
        assert rc == 2, (command, cfg)
        assert key in capsys.readouterr().err, (command, cfg)


@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--seed-count", "0"], "--seed-count"),
    (["madelung", "--steps", "-3", "--out-dir", "run"], "--steps"),
    (["trajectories", "--steps", "-4", "--out", "t.csv"], "--steps"),
    (["density", "--points", "0", "--out", "d.csv"], "--points"),
    (["density", "--points", "1", "--out", "d.csv"], "--points"),
    (["trajectories", "--count", "-5", "--out", "t.csv"], "--count"),
])
def test_count_flag_below_its_least_exits_two(config_path, tmp_path, monkeypatch, capsys,
                                              argv, flag):
    monkeypatch.chdir(tmp_path)
    rc = cli.main([argv[0], "--config", str(config_path), *argv[1:]])
    assert rc == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert captured.out == ""
    assert not (tmp_path / argv[-1]).exists()


def test_moments_and_bound_stdout(config_path, capsys):
    assert cli.main(["moments", "--config", str(config_path)]) == 0
    moments = json.loads(capsys.readouterr().out)
    assert moments["normalized"]["ratio_rho_over_sigma3"] >= 1.0

    assert cli.main(["bound", "--config", str(config_path)]) == 0
    bound = json.loads(capsys.readouterr().out)
    assert bound["zolotarev_constant"] == pytest.approx(0.4097, abs=1e-4)
    assert "lower_bound_constant" in bound["rhs_literal"]
    assert "13" in bound["rhs_with_sqrtN"]


def test_sample_then_verify_roundtrip(config_path, tmp_path):
    events = tmp_path / "events.csv"
    rc = cli.main(["sample", "--config", str(config_path), "--n", "101",
                   "--seed", "9", "--out", str(events)])
    assert rc == 0
    assert len(events.read_text().splitlines()) == 102

    report_path = tmp_path / "verify.json"
    rc = cli.main(["verify", "--config", str(config_path), "--events", str(events),
                   "--out", str(report_path)])
    assert rc == 0
    report = load_report(report_path)
    assert all(r.report.N == 101 for r in report.rows)


def test_verify_rejects_foreign_events(config_path, tmp_path):
    events = tmp_path / "events.csv"
    events.write_text("index,t_mm\n0,45.0\n")
    rc = cli.main(["verify", "--config", str(config_path), "--events", str(events)])
    assert rc == 2


def test_sweep_smoke(config_path, tmp_path, capsys):
    rc = cli.main(["sweep", "--config", str(config_path), "--n-grid", "100,10000",
                   "--seed-base", "0", "--seed-count", "3"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "fitted_exponent" in payload
    assert len(payload["medians"]) == 2


def test_sweep_bad_grid_exits_two(config_path):
    assert cli.main(["sweep", "--config", str(config_path), "--n-grid", "100"]) == 2
    assert cli.main(["sweep", "--config", str(config_path), "--n-grid", "100,200"]) == 2


@pytest.mark.parametrize("grid", ["-5,1000", "0,1000"])
def test_sweep_grid_below_one_names_the_flag(config_path, capsys, grid):
    assert cli.main(["sweep", "--config", str(config_path), f"--n-grid={grid}"]) == 2
    captured = capsys.readouterr()
    assert "--n-grid" in captured.err
    assert captured.out == ""


def test_verify_stdout_equals_out_file(config_path, tmp_path, capsys):
    # both destinations write the one report text, byte for byte
    events = tmp_path / "events.csv"
    assert cli.main(["sample", "--config", str(config_path), "--n", "57", "--seed", "4",
                     "--out", str(events)]) == 0
    out = tmp_path / "verify.json"
    argv = ["verify", "--config", str(config_path), "--events", str(events)]
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_madelung_plane_wave_residuals(config_path, tmp_path):
    out_dir = tmp_path / "run"
    rc = cli.main(["madelung", "--config", str(config_path), "--steps", "10",
                   "--snapshot-every", "5", "--out-dir", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    rows = summary["snapshots"]
    assert [r["step"] for r in rows] == [0, 5, 10]
    for row in rows[1:]:
        assert row["hj_max"] < 1e-8
        assert row["continuity_max"] < 1e-8
        assert row["classical"] is True
    assert (out_dir / "snapshot_000000.csv").exists()
    assert (out_dir / "snapshot_000010.csv").exists()


def test_madelung_zero_steps(config_path, tmp_path):
    out_dir = tmp_path / "run0"
    rc = cli.main(["madelung", "--config", str(config_path), "--steps", "0",
                   "--out-dir", str(out_dir)])
    assert rc == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert [r["step"] for r in summary["snapshots"]] == [0]
    snaps = sorted(p.name for p in out_dir.glob("snapshot_*.csv"))
    assert snaps == ["snapshot_000000.csv"]


def test_madelung_decomposes_only_the_fields_snapshots_read(config_path, tmp_path,
                                                           monkeypatch):
    # each snapshot's residuals read it and the step before it: 1 + 2 + 2
    calls = []
    decompose = madelung.decompose_polar
    monkeypatch.setattr(madelung, "decompose_polar",
                        lambda w: calls.append(w.time) or decompose(w))
    rc = cli.main(["madelung", "--config", str(config_path), "--steps", "20",
                   "--snapshot-every", "10", "--out-dir", str(tmp_path / "run")])
    assert rc == 0
    assert calls == pytest.approx([0.0, 9e-3, 10e-3, 19e-3, 20e-3])


def test_madelung_zero_snapshot_stride_exits_two(config_path, tmp_path, capsys):
    rc = cli.main(["madelung", "--config", str(config_path), "--steps", "5",
                   "--snapshot-every", "0", "--out-dir", str(tmp_path / "run")])
    assert rc == 2
    assert "--snapshot-every" in capsys.readouterr().err


def test_madelung_two_resolutions_show_documented_order(tmp_path):
    def run(dt, steps):
        cfg = {
            "madelung": {
                "preset": "free_gaussian",
                "grid": {"x_min": -16.0, "x_max": 16.0, "points": 2048, "dt": dt},
                "state": {"sigma": 1.0},
            }
        }
        path = tmp_path / f"cfg_{steps}.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / f"run_{steps}"
        rc = cli.main(["madelung", "--config", str(path), "--steps", str(steps),
                       "--snapshot-every", str(steps), "--out-dir", str(out_dir)])
        assert rc == 0
        rows = json.loads((out_dir / "summary.json").read_text())["snapshots"]
        return rows[-1]["hj_l2"]

    coarse = run(0.05, 11)
    fine = run(0.025, 22)
    assert 2.0**1.5 <= coarse / fine <= 2.0**2.5


def test_madelung_double_slit_screen_preset(tmp_path):
    cfg = {
        "geometry": {"w_nm": 62.0, "d_nm": 272.0, "L_mm": 240.0, "lambda_pm": 50.0},
        "madelung": {
            "preset": "double_slit_screen",
            "grid": {"x_min": -1.0, "x_max": 1.0, "points": 1024, "dt": 1e-5},
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "screen"
    rc = cli.main(["madelung", "--config", str(path), "--steps", "0",
                   "--out-dir", str(out_dir)])
    assert rc == 0
    lines = (out_dir / "snapshot_000000.csv").read_text().splitlines()
    assert lines[0] == "x,R,S,node_mask"
    # zero-phase screen state: R peaks at the pattern center, S identically 0
    rows = [line.split(",") for line in lines[1:]]
    rs = np.array([float(r[1]) for r in rows])
    ss = np.array([float(r[2]) for r in rows])
    assert rs.max() == pytest.approx(1.0, abs=1e-6)
    assert np.abs(ss).max() == 0.0


def test_no_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main([])
    assert err.value.code == 2


def test_madelung_unstable_exits_three(config_path, tmp_path, monkeypatch):
    def boom(self, n=1):
        raise UnstableStep("forced")

    monkeypatch.setattr(madelung.Evolution, "step", boom)
    rc = cli.main(["madelung", "--config", str(config_path), "--steps", "5",
                   "--out-dir", str(tmp_path / "run")])
    assert rc == 3


def test_trajectories_smoke(tmp_path):
    cfg = {
        "madelung": {
            "preset": "free_gaussian",
            "grid": {"x_min": -24.0, "x_max": 24.0, "points": 512, "dt": 0.02},
            "state": {"sigma": 1.0},
            "trajectories": {"count": 2000, "seed": 3},
        }
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "traj.csv"
    summary = tmp_path / "traj.json"
    rc = cli.main(["trajectories", "--config", str(path), "--steps", "20",
                   "--out", str(out), "--summary", str(summary)])
    assert rc == 0
    assert len(out.read_text().splitlines()) == 2001
    diag = json.loads(summary.read_text())
    assert diag["count"] == 2000
    assert diag["ks_distance_to_R2"] < 0.1


def test_out_dir_env_override(config_path, tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    monkeypatch.setenv("BORNLAB_OUT_DIR", str(target))
    rc = cli.main(["density", "--config", str(config_path), "--out", "d.csv",
                   "--points", "11"])
    assert rc == 0
    assert (target / "d.csv").exists()


EXPECTED_FLAGS = {
    "density": {"-h", "--help", "--config", "--out", "--points", "--svg"},
    "moments": {"-h", "--help", "--config", "--out"},
    "bound": {"-h", "--help", "--config", "--out"},
    "sample": {"-h", "--help", "--config", "--n", "--seed", "--out"},
    "verify": {"-h", "--help", "--config", "--events", "--out"},
    "replicate": {"-h", "--help", "--config", "--out", "--csv"},
    "sweep": {"-h", "--help", "--config", "--n-grid", "--seed-base",
              "--seed-count", "--out"},
    "madelung": {"-h", "--help", "--config", "--steps", "--snapshot-every",
                 "--out-dir", "--classical-tol"},
    "trajectories": {"-h", "--help", "--config", "--count", "--steps", "--seed",
                     "--out", "--summary"},
}


def test_every_flag_documented_in_help():
    import argparse

    parser = cli.build_parser()
    sub_action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(sub_action.choices) == set(EXPECTED_FLAGS)
    for name, sub in sub_action.choices.items():
        flags = {opt for action in sub._actions for opt in action.option_strings}
        assert flags == EXPECTED_FLAGS[name], name
        help_text = sub.format_help()
        for flag in flags:
            assert flag in help_text


def test_unknown_flag_rejected(config_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["density", "--config", str(config_path), "--out", "x.csv",
                  "--bogus"])
    assert err.value.code == 2
