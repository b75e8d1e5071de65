"""The oracles accept genuine bornlab output and reject perturbed output."""

import copy
import json

import numpy as np
import pytest

import oracles
import workloads
from bornlab import cli

GEOMETRY = oracles.DEFAULT_GEOMETRY
INTERVAL = oracles.default_interval(GEOMETRY)
N_VALUES, SEEDS, BINS = [13, 54], [1, 2], [10, 20]


@pytest.fixture(scope="module")
def ref():
    return oracles.BornReference.build(GEOMETRY, INTERVAL)


def _config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"geometry": GEOMETRY, "interval": {
        "a_mm": INTERVAL[0], "b_mm": INTERVAL[1]}, **extra}))
    return str(path)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("replicate")
    cfg = _config(tmp, n_values=N_VALUES, seeds=SEEDS, binning={"bin_counts": BINS})
    assert cli.main(["replicate", "--config", cfg, "--out", str(tmp / "r.json")]) == 0
    return json.loads((tmp / "r.json").read_text())


def test_genuine_report_passes(report, ref):
    assert oracles.check_born_report(report, ref, N_VALUES, SEEDS, BINS) == []


def test_flipped_verdict_is_rejected(report, ref):
    bad = copy.deepcopy(report)
    verdicts = bad["rows"][3]["verdicts"]
    verdicts["with_sqrtN_upper"] = not verdicts["with_sqrtN_upper"]
    problems = oracles.check_born_report(bad, ref, N_VALUES, SEEDS, BINS)
    assert any("verdict with_sqrtN_upper inconsistent" in p for p in problems)


def test_rhs_off_by_1e_6_is_rejected(report, ref):
    bad = copy.deepcopy(report)
    bad["rows"][5]["rhs_upper_const"] += 1e-6
    problems = oracles.check_born_report(bad, ref, N_VALUES, SEEDS, BINS)
    assert any("rhs_upper_const" in p and "reference" in p for p in problems)


def test_rhs_matches_bornlab_bound_to_1e_9(tmp_path, ref, capsys):
    assert cli.main(["bound", "--config", _config(tmp_path)]) == 0
    literal = json.loads(capsys.readouterr().out)["rhs_literal"]
    lower, upper = ref.rhs()
    assert literal["lower_bound_constant"] == pytest.approx(lower, rel=1e-9)
    assert literal["plus_16_percent"] == pytest.approx(upper, rel=1e-9)


def test_ingest_sups_match_and_reject_a_shift(tmp_path, ref):
    positions = workloads.sample_closed_form(GEOMETRY, INTERVAL, 3000, seed=7)
    events = tmp_path / "events.csv"
    events.write_text("index,t_mm\n" + "".join(
        f"{i},{x!r}\n" for i, x in enumerate(positions.tolist())))
    cfg = _config(tmp_path, binning={"bin_counts": [10, 100]})
    out = tmp_path / "v.json"
    assert cli.main(["verify", "--config", cfg, "--events", str(events), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    expected = oracles.ingest_sups(ref, positions, [10, 100])
    assert oracles.check_born_report(report, ref, [3000], [None], [10, 100]) == []
    assert oracles.check_ingest_sups(report, expected) == []
    report["rows"][0]["sup_deviation"] += 1e-6
    assert oracles.check_ingest_sups(report, expected)


def test_trajectories_pass_and_reject_a_collision(tmp_path):
    grid = dict(workloads.TRAJ_GRID, points=512)
    state = workloads.TRAJ_STATE
    cfg = _config(tmp_path, madelung={"preset": "free_gaussian", "grid": grid, "state": state})
    traj, summary = tmp_path / "t.csv", tmp_path / "s.json"
    argv = ["trajectories", "--config", cfg, "--steps", "20", "--count", "4000", "--seed", "3",
            "--out", str(traj), "--summary", str(summary)]
    assert cli.main(argv) == 0
    table = np.loadtxt(traj, delimiter=",", skiprows=1)
    got = json.loads(summary.read_text())
    args = (table[:, 1], table[:, 0], grid, state, 20, 4000, 3)
    assert oracles.check_trajectories(got, *args) == []
    assert oracles.check_trajectories({**got, "collisions": 1}, *args)
    shifted = (table[:, 1] + 0.5, *args[1:])
    assert oracles.check_trajectories(got, *shifted)
