"""Self-time arithmetic on synthetic span trees, and a traced command end to end."""

import json
import os
import subprocess
import sys

import pytest

import tracing
import workloads


def test_self_time_subtracts_direct_children():
    spans = [["cli.main", 0, 100, -1],
             ["harness.run", 10, 40, 0],
             ["sampler.bin", 15, 25, 1],
             ["berry_esseen.verify", 50, 90, 0]]
    assert tracing.self_times(spans) == [30, 20, 10, 40]
    assert sum(tracing.self_times(spans)) == 100


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [["a.x", 0, 100, -1],
             ["b.y", 10, 60, 0],
             ["b.z", 50, 80, 0],
             ["b.w", 90, 120, 0]]
    assert tracing.self_times(spans)[0] == 100 - 70 - 10


def test_layer_metrics_on_a_synthetic_trace():
    s = 1_000_000_000
    spans = [["cli.main", 0, 10 * s, -1],
             ["sampler.inverse_cdf_sample", 1 * s, 7 * s, 0],
             ["born_density.evaluate", 2 * s, 5 * s, 1],
             ["quadrature.integrate_with_breakpoints", 7 * s, 9 * s, 0],
             ["quadrature.integrate", 7 * s, 8 * s, 3],
             ["sampler.inverse_cdf_sample", 9 * s, 9 * s + s // 2, 0]]
    counts = {"sampler.events_inverted": 10, "sampler.inverse_eval_points": 750}
    m = tracing.layer_metrics({"run_id": "t", "spans": spans, "counts": counts}, 10.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["sampler.self_s"] == pytest.approx(3.5)
    assert m["born_density.self_s"] == pytest.approx(3.0)
    assert m["quadrature.self_s"] == pytest.approx(2.0)
    assert m["quadrature.calls"] == 1  # the nested integrate is not an entry
    assert m["sampler.inverse_cdf_sample_s"] == pytest.approx(6.5)
    assert m["sampler.evals_per_event"] == 75
    assert m["trace.span_share"] == pytest.approx(1.0)
    assert set(m) == set(tracing.PER_LAYER)


def test_traced_loop_covers_the_command(tmp_path):
    bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    inputs = workloads.prepare("sweep", 1, str(tmp_path))
    argv = inputs.argv("{out}")
    argv[argv.index("--n-grid") + 1] = "100,1000,10000"
    out_root = tmp_path / "out"
    out_root.mkdir()
    spec = {"mode": "loop", "src": os.path.join(os.path.dirname(bench), "src"),
            "argv": argv, "out_root": str(out_root), "seconds": 0, "min_commands": 2,
            "run_id": "t", "trace": str(tmp_path / "trace.json"),
            "result": str(tmp_path / "result.json")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, os.path.join(bench, "worker.py"),
                    str(tmp_path / "spec.json")], check=True, timeout=120)
    result = json.loads((tmp_path / "result.json").read_text())
    traces = json.loads((tmp_path / "trace.json").read_text())
    assert [c["rc"] for c in result["commands"]] == [0, 0]
    assert [t["run_id"] for t in traces] == ["t-0", "t-1"]
    m = tracing.layer_metrics(traces[1], result["commands"][1]["wall_s"])
    assert m["trace.span_share"] > 0.95
    assert m["sampler.self_s"] + m["born_density.self_s"] > 0.5 * m["trace.span_share"] * \
        result["commands"][1]["wall_s"]
    assert m["sampler.events_inverted"] == 2 * (100 + 1000 + 10000)
    assert 20 < m["sampler.evals_per_event"] < 200
