"""Golden fingerprints: CLI outputs on a small fixed config, recorded once.

``tests/data/golden_*`` hold the outputs of ``density`` (101 points),
``replicate`` (JSON and CSV), ``sweep``, ``sample``, ``verify`` (on the sampled
events file), ``bound`` and ``moments`` for ``golden_config.json``: 3 N x 3 seeds x bins 10/20, both
orientations.  ``golden_madelung_config.json`` (a free Gaussian on 256 points,
500 particles) pins the Madelung side: ``madelung`` (three polar snapshots
and ``summary.json``) and ``trajectories`` (positions CSV and summary), both
over 20 steps.  A file ``<dir>/<name>`` of the output is recorded as
``golden_<dir>_<name>``.  Every output must equal its golden byte for byte.
A parsed comparison runs first (floats to a relative 1e-12, every other value
exactly), so that a failure names the first JSON path or CSV cell that
differs; the byte comparison then catches a float that moved in its last
bits.  Unlike the in-process rerun of acceptance criterion 9, these catch
drift between versions.

``GOLDEN_RUNS`` is the one table of commands and outputs.  Run this file,
``PYTHONPATH=src python tests/test_golden.py``, to rewrite every golden from
it, and do so only together with a version bump.  For each golden it prints
"unchanged" or the largest relative move of any float, and names each other
value that changed, so that the version's note can be pasted from it.  It also
prints the digest of ``MULTI_BLOCK_SAMPLE``, a 200,000-event sample kept as a
sha256 only, and those of ``MULTI_BLOCK_TRAJECTORIES``, 50,000 particles over
100 steps on the benchmark's grid, to copy into those constants.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from bornlab import cli
from bornlab.harness import load_report, report_text

DATA = Path(__file__).parent / "data"
CONFIG = str(DATA / "golden_config.json")
MADELUNG_CONFIG = str(DATA / "golden_madelung_config.json")
SNAPSHOTS = [f"madelung/snapshot_{step:06d}.csv" for step in (0, 10, 20)]
REL = 1e-12


def _assert_matches(got, want, where="$"):
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert got == pytest.approx(want, rel=REL, abs=0.0), where
    elif isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            _assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


def _cell(text):
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _moves(got, want, where="$"):
    """(the largest relative move of a float, the paths of the other values that
    changed) from ``want`` to ``got``, walked as :func:`_assert_matches` walks."""
    if isinstance(want, float) and isinstance(got, float):
        if got == want:
            return 0.0, []
        return (abs(got - want) / abs(want) if want else math.inf), []
    if isinstance(want, dict) and isinstance(got, dict) and list(got) == list(want):
        parts = [_moves(got[key], want[key], f"{where}.{key}") for key in want]
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        parts = [_moves(g, w, f"{where}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    else:
        return 0.0, [] if type(got) is type(want) and got == want else [where]
    return max((m for m, _ in parts), default=0.0), [p for _, paths in parts for p in paths]


def _load(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


# (id, config, argv, outputs) of each golden command, in an order where
# ``verify`` reads the events that ``sample`` wrote
GOLDEN_RUNS = [
    ("density", CONFIG, ["density", "--points", "101", "--out", "{density.csv}"], ["density.csv"]),
    ("replicate", CONFIG, ["replicate", "--out", "{replicate.json}", "--csv", "{replicate.csv}"],
     ["replicate.json", "replicate.csv"]),
    ("sweep", CONFIG, ["sweep", "--n-grid", "100,1000,10000", "--seed-base", "1000",
                       "--seed-count", "3", "--out", "{sweep.json}"], ["sweep.json"]),
    ("sample", CONFIG, ["sample", "--n", "500", "--seed", "7", "--out", "{events.csv}"],
     ["events.csv"]),
    ("verify", CONFIG, ["verify", "--events", str(DATA / "golden_events.csv"),
                        "--out", "{verify.json}"], ["verify.json"]),
    ("bound", CONFIG, ["bound", "--out", "{bound.json}"], ["bound.json"]),
    ("moments", CONFIG, ["moments", "--out", "{moments.json}"], ["moments.json"]),
    ("madelung", MADELUNG_CONFIG, ["madelung", "--steps", "20", "--snapshot-every", "10",
                                   "--out-dir", "{madelung}"],
     [*SNAPSHOTS, "madelung/summary.json"]),
    ("trajectories", MADELUNG_CONFIG, ["trajectories", "--steps", "20", "--out",
                                       "{trajectories.csv}", "--summary",
                                       "{trajectories_summary.json}"],
     ["trajectories.csv", "trajectories_summary.json"]),
]


# sha256 of the events CSV of ``sample --n 200000 --seed 7`` on the golden
# config: 13 inversion blocks and a few hundred draws on Newton panels, where
# the goldens' 500 events fill one block.  Rewrite it with the goldens
MULTI_BLOCK_SAMPLE = (["sample", "--n", "200000", "--seed", "7", "--out", "{events.csv}"],
                      "8f75d48c2ec94130be155bc127008ebf70452538991640a386657951898de88f")

# sha256 of the positions CSV and summary of ``trajectories`` at the
# benchmark's grid and free Gaussian (2,048 points, dt 1e-3), 100 steps and
# 50,000 particles: 7 advection blocks, where the golden's 500 particles fill
# one.  Rewrite it with the goldens
MULTI_BLOCK_CONFIG = {"madelung": {
    "preset": "free_gaussian",
    "grid": {"x_min": -40.0, "x_max": 40.0, "points": 2048, "dt": 1e-3},
    "state": {"center": 0.0, "sigma": 1.0, "k_index": 10}}}
MULTI_BLOCK_TRAJECTORIES = (
    ["trajectories", "--steps", "100", "--count", "50000", "--seed", "11",
     "--out", "{trajectories.csv}", "--summary", "{summary.json}"],
    {"trajectories.csv": "6d3901e505567d82a0931493cd6e910a4eede2dd73b68edaa1b9bd1be1267b05",
     "summary.json": "d4c6159a371b715f0f7ae590d8c0c77ae5a4937f04a4aab3ce839a8998c22f14"})


def _golden(name):
    return DATA / ("golden_" + name.replace("/", "_"))


def _run(out_dir, config, argv):
    args = [str(out_dir / a[1:-1]) if a.startswith("{") else a for a in argv]
    assert cli.main([args[0], "--config", config, *args[1:]]) == 0


@pytest.mark.parametrize("config, argv, outputs", [run[1:] for run in GOLDEN_RUNS],
                         ids=[run[0] for run in GOLDEN_RUNS])
def test_cli_output_matches_golden(tmp_path, config, argv, outputs):
    _run(tmp_path, config, argv)
    for name in outputs:
        _assert_matches(_load(tmp_path / name), _load(_golden(name)), name)
        assert (tmp_path / name).read_bytes() == _golden(name).read_bytes(), name


def test_multi_block_sample_matches_recorded_digest(tmp_path):
    argv, digest = MULTI_BLOCK_SAMPLE
    _run(tmp_path, CONFIG, argv)
    assert hashlib.sha256((tmp_path / "events.csv").read_bytes()).hexdigest() == digest


def _multi_block_trajectory_digests(out_dir):
    config = out_dir / "config.json"
    config.write_text(json.dumps(MULTI_BLOCK_CONFIG))
    _run(out_dir, str(config), MULTI_BLOCK_TRAJECTORIES[0])
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in MULTI_BLOCK_TRAJECTORIES[1]}


def test_multi_block_trajectories_match_recorded_digests(tmp_path):
    assert _multi_block_trajectory_digests(tmp_path) == MULTI_BLOCK_TRAJECTORIES[1]


def test_golden_commands_do_not_import_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma (about 12 ms of each command's
    # start-up); every golden command runs in one fresh interpreter without it
    runs = [(config, [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv])
            for _, config, argv, _ in GOLDEN_RUNS]
    code = ("import contextlib, io, json, sys\n"
            "from bornlab import cli\n"
            "seen = []\n"
            "for config, argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        rc = cli.main([argv[0], '--config', config, *argv[1:]])\n"
            "    seen.append([argv[0], rc, 'numpy.ma' in sys.modules])\n"
            "print(json.dumps(seen))\n")
    src = str(Path(cli.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], capture_output=True,
                         text=True, check=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert json.loads(out) == [[run[0], 0, False] for run in GOLDEN_RUNS]


@pytest.mark.parametrize("name", ["golden_replicate.json", "golden_replicate.csv",
                                  "golden_verify.json"])
def test_golden_reports_survive_load_and_write(name):
    # the goldens hold the bytes that json.dumps and a csv.writer loop wrote;
    # reading a report and writing it again must give them back
    path = DATA / name
    assert report_text(load_report(path), path.suffix[1:]).encode() == path.read_bytes()


if __name__ == "__main__":
    for _, config, argv, outputs in GOLDEN_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            _run(Path(tmp), config, argv)
            for name in outputs:
                new, old = Path(tmp) / name, _golden(name)
                if new.read_bytes() == old.read_bytes():
                    print(f"{old.name}: unchanged")
                    continue
                move, changed = _moves(_load(new), _load(old), name)
                others = f"; other values changed: {', '.join(changed)}" if changed else ""
                print(f"{old.name}: largest relative float move {move:.2e}{others}")
                shutil.copyfile(new, old)
    with tempfile.TemporaryDirectory() as tmp:
        _run(Path(tmp), CONFIG, MULTI_BLOCK_SAMPLE[0])
        digest = hashlib.sha256((Path(tmp) / "events.csv").read_bytes()).hexdigest()
        print(f"MULTI_BLOCK_SAMPLE digest: "
              f"{'unchanged' if digest == MULTI_BLOCK_SAMPLE[1] else digest}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in _multi_block_trajectory_digests(Path(tmp)).items():
            print(f"MULTI_BLOCK_TRAJECTORIES {name} digest: "
                  f"{'unchanged' if digest == MULTI_BLOCK_TRAJECTORIES[1][name] else digest}")
