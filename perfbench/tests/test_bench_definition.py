"""BENCHMARK.json agrees with the code and the benchmark's contract."""

import json
import os
import re
import shutil
import subprocess
import sys

import run
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def _definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_definition_matches_the_code():
    d = _definition()
    assert set(d) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert d["command"] == ["python3", "perfbench/run.py"] and d["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in d["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in d["end_to_end"]] == [
        (k, *v) for k, v in run.END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in d["per_layer"]] == [
        (k, unit, better) for k, (unit, better, _) in tracing.PER_LAYER.items()]


def test_definition_within_contract_limits():
    d = _definition()
    names = [m["name"] for m in d["workloads"] + d["end_to_end"] + d["per_layer"]]
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in d["end_to_end"] + d["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in d["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in d["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in d["end_to_end"])} in d["end_to_end"]
    assert isinstance(d["run_seconds"], int) and 1 <= d["run_seconds"] <= 60


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
