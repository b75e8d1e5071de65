import json
import math
import signal
import time
import warnings

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
    # the default moment window, the interval shifted by mu, overflows: once
    # "interval endpoints must be finite, got [-inf, -8e+307]" with no key.
    # The interval's own end is that far from mu, which the load rejects first
    cases += [(command, {"interval": {"a_mm": -1e308, "b_mm": 0.0},
                         "geometry": {"mu_mm": 8e307}}, "interval: L_mm**2 + (t - mu_mm)**2")
              for command in ("bound", "moments", "replicate")]
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
            # finite ends whose width overflows: once exit 3, "refinement depth
            # exhausted on [-1e+308, -inf]"
            ({"interval": {"a_mm": -1e308, "b_mm": 1e308}}, "interval: interval width"),
            ({"moment_interval": {"a_mm": -1e308, "b_mm": 1e308}},
             "moment_interval: interval width"),
            ({"quadrature": {"abs_tol": nan}}, "quadrature.abs_tol"),
            ({"quadrature": {"abs_tol": -1e-12}}, "quadrature.abs_tol"),
            ({"quadrature": {"rel_tol": 0}}, "quadrature.rel_tol"),
            # once a RecursionError traceback, exit 1
            ({"quadrature": {"max_refinement_depth": 201}}, "quadrature.max_refinement_depth"),
            # L**2 + (t - mu)**2 overflows: once an OverflowError traceback,
            # or overflow warnings and then exit 3 with "error estimate nan"
            ({"geometry": {"L_mm": 1e200}}, "geometry.L_mm"),
            ({"interval": {"a_mm": -1e300, "b_mm": 1e300}}, "interval: L_mm**2"),
            ({"interval": {"a_mm": 0.0, "b_mm": 2e154}}, "interval: L_mm**2"),
            ({"moment_interval": {"a_mm": -1e200, "b_mm": 1e200}}, "moment_interval: L_mm**2"),
            ({"moment_interval": {"a_mm": -1.0, "b_mm": 1e308},
              "geometry": {"mu_mm": 1e308}}, "moment_interval: L_mm**2"),
            ({"constant_override": nan}, "constant_override"),
            ({"constant_override": 0}, "constant_override"),
            ({"constant_override": -1}, "constant_override"),
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
    # int() reads "1_0" as 10 and the Arabic-Indic digit one as 1
    (["sample", "--n", "1_0", "--seed", "1", "--out", "e.csv"], "--n"),
    (["sample", "--n", "10", "--seed", "\u0661", "--out", "e.csv"], "--seed"),
    (["density", "--points", "1_000", "--out", "d.csv"], "--points"),
    (["sweep", "--seed-base", "1_000", "--out", "s.json"], "--seed-base"),
    (["sweep", "--seed-count", "\u0662", "--out", "s.json"], "--seed-count"),
    (["madelung", "--steps", "1_0", "--out-dir", "run"], "--steps"),
    (["madelung", "--snapshot-every", "\u0665", "--out-dir", "run"], "--snapshot-every"),
    (["madelung", "--classical-tol", "1_0.5", "--out-dir", "run"], "--classical-tol"),
    (["madelung", "--classical-tol", "\u0661e-6", "--out-dir", "run"], "--classical-tol"),
    (["trajectories", "--count", "2_00", "--out", "t.csv"], "--count"),
    (["trajectories", "--seed", "\u0663", "--out", "t.csv"], "--seed"),
    (["trajectories", "--steps", "\uff15", "--out", "t.csv"], "--steps"),
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
    assert all(r.N == 101 for r in report.rows)


def test_verify_rejects_foreign_events(config_path, tmp_path):
    events = tmp_path / "events.csv"
    events.write_text("index,t_mm\n0,45.0\n")
    rc = cli.main(["verify", "--config", str(config_path), "--events", str(events)])
    assert rc == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_verify_names_a_non_finite_event(config_path, tmp_path, capsys, value):
    events = tmp_path / "events.csv"
    events.write_text(f"index,t_mm\n0,0.1\n1,{value}\n2,0.2\n")
    rc = cli.main(["verify", "--config", str(config_path), "--events", str(events)])
    assert rc == 2
    assert capsys.readouterr().err == (f"bornlab: error: {events}: 1 event(s) not a finite "
                                       "number (first at data row 2)\n")


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


def test_bound_on_a_zero_width_moment_interval_exits_two(config_path, tmp_path, capsys):
    # the second moment over +-1e-7 mm is about 7e-22, below the quadrature's
    # absolute tolerance: ZeroVariance, reported as a usage error
    cfg = json.loads(config_path.read_text())
    cfg["moment_interval"] = {"a_mm": -1e-7, "b_mm": 1e-7}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["bound", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("bornlab: error: second moment over [-1e-07, 1e-07] is ")
    assert captured.out == ""


def test_bound_at_the_depth_cap_exits_three(tmp_path, capsys, monkeypatch):
    # an unreachable tolerance at the largest depth a config may ask for
    # exhausts the refinement budget: numerical instability, not a traceback.
    # Bisection reaches a panel one ulp wide, whose midpoint is one of its ends,
    # and stops there naming it (53 panel evaluations), not after repeating
    # that panel down to the depth cap (359)
    from bornlab import quadrature

    panels = []
    panel = quadrature._panel
    monkeypatch.setattr(quadrature, "_panel", lambda f, a, b: panels.append(1) or panel(f, a, b))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"quadrature": {
        "rel_tol": 1e-300, "abs_tol": 0, "max_refinement_depth": 200}}))
    assert cli.main(["bound", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    a, b = -1.015400599716235, -1.0154005997162348
    assert math.nextafter(a, b) == b
    assert f"refinement depth exhausted on [{a}, {b}]" in captured.err
    assert captured.out == ""
    assert len(panels) < 100


def test_overflowing_default_support_names_the_distance(tmp_path, capsys):
    # L**2 alone fits a double, the default support's ends do not
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"geometry": {"L_mm": 1.3e154, "lambda_pm": 1.2e4}}))
    assert cli.main(["bound", "--config", str(path)]) == 2
    assert "geometry.L_mm: L_mm**2 + (t - mu_mm)**2" in capsys.readouterr().err


class _Overtime(BaseException):
    """Raised by the timer of test_hostile_config_ends_in_time.  Not an
    Exception: cli.main reports a TimeoutError, an OSError, as exit 2."""


_UNIT = {"a_mm": -1.0, "b_mm": 1.0}
# a hostile config, its subcommand, its exit code, the key an exit 2 names on
# stderr, and what it did before the config load judged it
_HOSTILE = {
    "d_nm_1e200": ("bound", {"geometry": {"d_nm": 1e200}}, 2, "geometry.d_nm"),  # OverflowError
    "d_nm_1e200_narrow": ("bound", {"geometry": {"d_nm": 1e200},  # the same, one null in view
                                    "interval": {"a_mm": 0.0, "b_mm": 1e-300}}, 2, "geometry.d_nm"),
    "d_nm_1e5": ("bound", {"geometry": {"d_nm": 1e5}}, 2, "geometry.d_nm"),  # 17,000 nulls, 2 s
    "d_nm_1e6": ("bound", {"geometry": {"d_nm": 1e6}}, 2, "geometry.d_nm"),  # 21 s
    # no envelope null: exit 2 naming no key from bound, exit 0 from trajectories
    "lambda_1000w": ("bound", {"geometry": {"lambda_pm": 62e3}}, 2, "geometry.lambda_pm"),
    "lambda_1000w_trajectories": ("trajectories", {"geometry": {"lambda_pm": 62e3}}, 2,
                                  "geometry.lambda_pm"),
    # L_mm**2 underflows: a divide-by-zero warning, then exit 3
    "L_mm_1e-300": ("bound", {"geometry": {"L_mm": 1e-300}}, 2, "geometry.L_mm"),
    # lambda_mm rounds to 0: a ZeroDivisionError; d / w is inf: a warning from cos
    "lambda_underflow": ("bound", {"geometry": {"lambda_pm": 1e-320}, "interval": _UNIT}, 2,
                         "geometry.lambda_pm"),
    "d_over_w_overflow": ("bound", {"geometry": {"w_nm": 1e-310}, "interval": _UNIT}, 2,
                          "geometry.w_nm"),
    # mu_mm swallows the default window's half-width: exit 2 naming no key
    "mu_mm_1e154": ("bound", {"geometry": {"mu_mm": 1e154}}, 2, "geometry.mu_mm"),
    # the density is a nonzero constant far outside its support, so every
    # panel out there failed on both halves: no end after 60 s
    "moment_window_1e12": ("bound", {"moment_interval": {"a_mm": -1e12, "b_mm": 1e12}}, 3, None),
    "moment_window_1e120": ("bound", {"moment_interval": {"a_mm": -1e120, "b_mm": 1e120}}, 3,
                            None),
    "mu_mm_1e12": ("bound", {"geometry": {"mu_mm": 1e12}}, 3, None),
    # the moments are taken over the window shifted by mu_mm, here one float
    "moment_window_under_ulp_mu": ("bound", {"geometry": {"mu_mm": 1.0},
                                             "moment_interval": {"a_mm": 1e-20, "b_mm": 2e-20}},
                                   2, "moment_interval"),
    # an overflow RuntimeWarning in the CDF table's panel sums, then exit 3
    "I0_1.7e308": ("replicate", {"geometry": {"I0": 1.7e308}}, 2, "geometry.I0"),
    # a pattern 800 mm wide: a narrow moment window leaves the table's total to overflow
    "I0_1e306_wide_pattern": ("replicate", {"geometry": {"I0": 1e306, "L_mm": 1e6},
                                            "moment_interval": _UNIT}, 2, "geometry.I0"),
}


@pytest.mark.parametrize("case", list(_HOSTILE))
def test_hostile_config_ends_in_time(tmp_path, capsys, case):
    # a documented exit code within the time limit, with no traceback and no
    # warning, and the key named for a config error
    command, cfg, code, key = _HOSTILE[case]
    limit = 1.0 if code == 2 else 2.0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = {"trajectories": ["--out", str(tmp_path / "out.csv")],
           "replicate": ["--out", str(tmp_path / "out.json")]}.get(command, [])

    def overtime(*_):
        raise _Overtime(f"{case} still running after {limit} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    signal.setitimer(signal.ITIMER_REAL, 5 * limit)  # ends a run that would not end
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", str(path), *out])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == code, err
    assert elapsed < limit, f"{case} took {elapsed:.2f} s"
    assert "Traceback" not in err
    if code == 2:
        assert f"bornlab: error: {key}" in err
    else:
        assert err.startswith("bornlab: numerical instability: panel budget exhausted on [")


def _far_pattern_rhs(tmp_path, command, mu):
    """The literal right-hand sides that ``command`` writes at ``geometry.mu_mm``
    ``mu`` (``moments``: the ratio rho / sigma^3 they share)."""
    path = tmp_path / f"mu_{mu}.json"
    path.write_text(json.dumps({"geometry": {"mu_mm": mu}, "n_values": [13], "seeds": [1]}))
    out = tmp_path / f"{command}_{mu}.json"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    if command == "bound":
        return list(report["rhs_literal"].values())
    if command == "moments":
        return [report["normalized"]["ratio_rho_over_sigma3"]]
    return [report["rows"][0]["rhs_lower_const"], report["rows"][0]["rhs_upper_const"]]


@pytest.mark.parametrize("mu", [524288.0, 1e6])
@pytest.mark.parametrize("command", ["bound", "moments", "replicate"])
def test_far_pattern_center_gives_the_centered_rhs(tmp_path, command, mu):
    # the moments are rule sums of the uncentered density about mu, so no
    # integral evaluates (t + mu) - mu, a step function on panels narrower
    # than ulp(mu) that exhausted the panel budget from mu_mm 2**19 on
    far = _far_pattern_rhs(tmp_path, command, mu)
    assert far == pytest.approx(_far_pattern_rhs(tmp_path, command, 0.0), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("grid", ["-5,1000", "0,1000", "100,ten", "100,1e4",
                                  # int() reads "1_00" as 100 and non-ASCII digits
                                  "1_00,10_000", "100,\u0661\u0660\u0660\u0660\u0660",
                                  "100, 1000,\u00a010000"])
def test_sweep_grid_below_one_names_the_flag(config_path, capsys, grid):
    assert cli.main(["sweep", "--config", str(config_path), f"--n-grid={grid}"]) == 2
    captured = capsys.readouterr()
    assert "--n-grid" in captured.err
    assert captured.out == ""


def test_sweep_grid_tokens_may_hold_spaces(config_path, tmp_path):
    # spaces around a token are allowed, and an empty token is skipped
    texts = []
    for grid in ("100,10000", " 100 , 10000 ,"):
        out = tmp_path / "sweep.json"
        assert cli.main(["sweep", "--config", str(config_path), f"--n-grid={grid}",
                         "--seed-count", "2", "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6"])
def test_madelung_classical_tol_not_positive_and_finite_exits_two(config_path, tmp_path,
                                                                  capsys, tol):
    # a NaN tolerance reported every snapshot as not classical; inf or <= 0
    # made the diagnostic constant
    out_dir = tmp_path / "run"
    rc = cli.main(["madelung", "--config", str(config_path), "--steps", "2",
                   f"--classical-tol={tol}", "--out-dir", str(out_dir)])
    assert rc == 2
    assert "--classical-tol" in capsys.readouterr().err
    assert not out_dir.exists()


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


_GRID_64 = {"x_min": -8.0, "x_max": 8.0, "points": 64, "dt": 1e-3}
_POTENTIALS = {
    "none": None,
    "free": {"kind": "free"},
    "harmonic": {"kind": "harmonic", "omega": 1.5, "center": 0.25},
    "tabulated": {"kind": "tabulated", "values": madelung.Potential.harmonic(1.5, 0.25).on_grid(
        madelung.Grid(**_GRID_64)).tolist()},
}


def _madelung_outputs(out, section) -> dict:
    """The bytes of each file that ``madelung`` and ``trajectories`` write
    into ``out`` for the config section ``section``."""
    out.mkdir()
    path = out / "cfg.json"
    path.write_text(json.dumps({"madelung": section}))
    assert cli.main(["madelung", "--config", str(path), "--steps", "4", "--snapshot-every", "2",
                     "--out-dir", str(out / "run")]) == 0
    assert cli.main(["trajectories", "--config", str(path), "--steps", "4",
                     "--out", str(out / "run" / "traj.csv"),
                     "--summary", str(out / "run" / "traj.json")]) == 0
    return {f.name: f.read_bytes() for f in (out / "run").iterdir()}


@pytest.mark.parametrize("potential", list(_POTENTIALS))
@pytest.mark.parametrize("preset", ["plane_wave", "free_gaussian", "harmonic",
                                    "double_slit_screen"])
def test_every_madelung_preset_and_potential_runs(tmp_path, preset, potential):
    section = {"preset": preset, "grid": _GRID_64, "trajectories": {"count": 200}}
    if _POTENTIALS[potential] is not None:
        section["potential"] = _POTENTIALS[potential]
    files = _madelung_outputs(tmp_path / potential, section)
    assert sorted(files) == ["snapshot_000000.csv", "snapshot_000002.csv", "snapshot_000004.csv",
                             "summary.json", "traj.csv", "traj.json"]
    if potential == "tabulated":  # the harmonic potential's values on the grid
        section["potential"] = _POTENTIALS["harmonic"]
        assert files == _madelung_outputs(tmp_path / "harmonic", section)


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
    # every relative output path is rebased exactly once, onto an absolute or
    # a relative base, madelung's summary.json inside the rebased --out-dir too
    monkeypatch.chdir(tmp_path)
    cfg = ["--config", str(config_path)]
    for base in (tmp_path / "absolute", "relative"):
        monkeypatch.setenv("BORNLAB_OUT_DIR", str(base))
        for argv in (["density", "--out", "d.csv", "--points", "11", "--svg", "d.svg"],
                     ["moments", "--out", "m.json"],
                     ["bound", "--out", "b.json"],
                     ["sample", "--n", "50", "--seed", "1", "--out", "e.csv"],
                     ["verify", "--events", f"{base}/e.csv", "--out", "v.json"],
                     ["replicate", "--out", "r.json", "--csv", "r.csv"],
                     ["sweep", "--n-grid", "10,1000", "--seed-count", "2", "--out", "s.json"],
                     ["madelung", "--steps", "2", "--snapshot-every", "1", "--out-dir", "run"],
                     ["trajectories", "--count", "50", "--steps", "2", "--out", "t.csv",
                      "--summary", "t.json"]):
            assert cli.main([argv[0], *cfg, *argv[1:]]) == 0, (base, argv[0])
        written = {str(p.relative_to(tmp_path / base)) for p in (tmp_path / base).rglob("*")}
        assert written == {"d.csv", "d.svg", "m.json", "b.json", "e.csv", "v.json", "r.json",
                           "r.csv", "s.json", "run", "run/summary.json", "t.csv", "t.json",
                           *(f"run/snapshot_{step:06d}.csv" for step in range(3))}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["absolute", "config.json", "relative"]


def test_verify_parse_error_names_the_line(config_path, tmp_path, capsys):
    events = tmp_path / "bad.csv"
    events.write_text("index,t_mm\n0,0.1\n1,x\n")
    rc = cli.main(["verify", "--config", str(config_path), "--events", str(events)])
    assert rc == 2
    assert capsys.readouterr().err == (f"bornlab: error: {events}: could not convert string "
                                       "to float: 'x' (line 3)\n")


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
