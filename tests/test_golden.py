"""Golden fingerprints: CLI outputs on a small fixed config, recorded once.

``tests/data/golden_*`` hold the outputs of ``replicate`` (JSON and CSV),
``sweep``, ``sample``, ``verify`` (on the sampled events file), ``bound`` and
``moments`` for ``golden_config.json``: 3 N x 3 seeds x bins 10/20, both
orientations.  Counts, verdicts and every other non-float value must match
exactly; floats must match to a relative 1e-12.  Unlike the in-process rerun
of acceptance criterion 9, these catch drift between versions; regenerate
them only together with a version bump.
"""

import csv
import json
from pathlib import Path

import pytest

from bornlab import cli

DATA = Path(__file__).parent / "data"
CONFIG = str(DATA / "golden_config.json")
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


def _load(path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


@pytest.mark.parametrize("argv, outputs", [
    (["replicate", "--out", "{replicate.json}", "--csv", "{replicate.csv}"],
     ["replicate.json", "replicate.csv"]),
    (["sweep", "--n-grid", "100,1000,10000", "--seed-base", "1000", "--seed-count", "3",
      "--out", "{sweep.json}"], ["sweep.json"]),
    (["sample", "--n", "500", "--seed", "7", "--out", "{events.csv}"], ["events.csv"]),
    (["verify", "--events", str(DATA / "golden_events.csv"), "--out", "{verify.json}"],
     ["verify.json"]),
    (["bound", "--out", "{bound.json}"], ["bound.json"]),
    (["moments", "--out", "{moments.json}"], ["moments.json"]),
], ids=["replicate", "sweep", "sample", "verify", "bound", "moments"])
def test_cli_output_matches_golden(tmp_path, argv, outputs):
    paths = {name: tmp_path / name for name in outputs}
    args = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in argv]
    assert cli.main([args[0], "--config", CONFIG, *args[1:]]) == 0
    for name in outputs:
        _assert_matches(_load(paths[name]), _load(DATA / f"golden_{name}"), name)
