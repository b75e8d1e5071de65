"""bornlab benchmark: one workload, one seed, measured for a fixed time.

Usage, from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Steps of a run:

1. Write the workload's inputs from the seed and compute the oracle's
   reference values (``workloads``, ``oracles``); untimed.
2. Time ``SETUP_PROBES`` fresh interpreters that import bornlab and do the
   fixed per-command work (``worker.fixed_work``).
3. For ``--seconds`` seconds, run the workload's command through
   ``bornlab.cli.main`` in a child process (``worker.loop``), one command at
   a time, and check every command's exit code and outputs against the
   oracles.
4. Print a report line (sample counts, quartiles, raw times, context), then,
   as the last line, the result ``{"correct", "attempted", "failed",
   "metrics"}``.

Timings are calibrated. On shared 2-vCPU Xeon virtual machines the speed
drifts by up to ~35% within seconds, and a pure-Python loop drifts with it. Each time is scaled
by a reference over the mean of two calibration times measured just before
and just after it:

* a command's wall time by ``worker.calibrate``, a fixed kernel of
  interpreter loops, numpy passes and CSV parsing run in the same process
  (reference ``CALIBRATION_REF_S``);
* a set-up probe by a bare interpreter that imports numpy, started by the
  same parent (reference ``START_REF_S``), since process start-up varies
  in ways a compute kernel does not follow.

So ``wall_s`` and ``setup_s`` are seconds at the speed where those take their
reference times. The raw times and the calibration times are in the report
line.

With ``--trace 0`` the metrics are the end-to-end ones in ``END_TO_END``,
medians over the run's commands (``setup_s``: over its probes). With
``--trace 1`` half of the time runs untraced and half traced; the metrics
are the per-layer ones in ``tracing.PER_LAYER``, medians over the traced
commands, and ``trace.overhead_s`` is the traced minus the untraced
``wall_s``.

``attempted`` counts the set-up probes and commands; ``failed`` counts those
that crashed or whose output failed a check. ``failed / attempted`` is the
``fail_rate`` in the report line. Its complement, ``pass_rate``, is the
end-to-end metric, because a metric must never read 0.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
MIN_COMMANDS = 3
CALIBRATION_REF_S = 0.17
START_REF_S = 0.15
CHILD_TIMEOUT_S = 120

# name -> (unit, better, bound); the order of BENCHMARK.json's end_to_end
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "events_per_s": ("1/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "pass_rate": ("ratio", "higher", 0.01),
}


def _child(spec: dict, run_dir: str, tag: str) -> tuple[dict | None, float, str]:
    """Run one worker process; returns (result or None, elapsed seconds, error)."""
    spec_path = os.path.join(run_dir, f"{tag}.spec.json")
    spec = {**spec, "src": SRC, "result": os.path.join(run_dir, f"{tag}.result.json")}
    timeout = CHILD_TIMEOUT_S + spec.get("seconds", 0)
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    env = {k: v for k, v in os.environ.items() if k != "BORNLAB_OUT_DIR"}
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              cwd=run_dir, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"{tag}: timed out after {timeout} s"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return None, elapsed, f"{tag}: worker exit {proc.returncode}: {proc.stderr[-1500:]}"
    with open(spec["result"]) as fh:
        return json.load(fh), elapsed, ""


def _bare_start() -> float:
    """Seconds for a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def _spread(values: list[float]) -> dict:
    if not values:
        return {"n": 0}
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def context() -> dict:
    """Where the numbers were measured; recorded, never gated on."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    package = os.path.join(SRC, "bornlab")
    src_lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as fh:
                src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "src_lines": src_lines}


def _report_bytes(inputs: workloads.Inputs, out_dir: str) -> int:
    if inputs.workload.kind != "born":
        return 0
    paths = (os.path.join(out_dir, f) for f in ("report.json", "report.csv"))
    return sum(os.path.getsize(p) for p in paths if os.path.exists(p))


def measure(name: str, seed: int, seconds: int, trace: bool, run_dir: str) -> tuple[dict, dict]:
    """One benchmark run; returns (report line, result line)."""
    inputs = workloads.prepare(name, seed, run_dir)
    ref = workloads.reference(inputs)
    kind = inputs.workload.kind
    problems: list[str] = []
    attempted = failed = 0

    starts = [_bare_start()]
    setup, raw_setup, breakdowns = [], [], []
    for i in range(SETUP_PROBES):
        result, elapsed, error = _child({"mode": "setup", "kind": kind,
                                         "config": inputs.config}, run_dir, f"setup{i}")
        starts.append(_bare_start())
        attempted += 1
        if result is None:
            failed += 1
            problems.append(error)
            continue
        raw_setup.append(elapsed)
        setup.append(elapsed * 2.0 * START_REF_S / (starts[-2] + starts[-1]))
        breakdowns.append(result)

    kernels = []
    halves = [("plain", False), ("traced", True)] if trace else [("plain", False)]
    done: dict[str, list[dict]] = {"plain": [], "traced": []}
    peak_rss_mb = float("nan")
    for label, traced in halves:
        out_root = os.path.join(run_dir, label)
        os.mkdir(out_root)
        trace_path = os.path.join(run_dir, f"{label}.trace.json") if traced else None
        spec = {"mode": "loop", "argv": inputs.argv("{out}"), "out_root": out_root,
                "seconds": seconds / len(halves), "min_commands": MIN_COMMANDS,
                "run_id": f"{name}-{seed}-{label}", "trace": trace_path}
        result, _, error = _child(spec, run_dir, label)
        if result is None:
            attempted += 1
            failed += 1
            problems.append(error)
            continue
        if not traced:
            peak_rss_mb = result["peak_rss_mb"]
        traces = []
        if traced:
            with open(trace_path) as fh:
                traces = json.load(fh)
        for k, cmd in enumerate(result["commands"]):
            attempted += 1
            faults = [cmd["error"]] if cmd["error"] else workloads.check(
                inputs, ref, cmd["out_dir"], cmd["rc"])
            if faults:
                failed += 1
                problems.extend(f"{label} command {k}: {p}" for p in faults)
            else:
                cmd["calibrated_wall_s"] = cmd["wall_s"] * CALIBRATION_REF_S / cmd["kernel_s"]
                cmd["report_bytes"] = _report_bytes(inputs, cmd["out_dir"])
                if traced:
                    cmd["trace"] = traces[k]
                done[label].append(cmd)
            kernels.append(cmd["kernel_s"])
            shutil.rmtree(cmd["out_dir"])

    walls = [c["calibrated_wall_s"] for c in done["plain"]]
    report = {
        "workload": name, "why": inputs.workload.why, "seed": seed, "trace": int(trace),
        "seconds": seconds, "fail_rate": failed / max(attempted, 1),
        "wall_s": _spread(walls),
        "raw_wall_s": _spread([c["wall_s"] for c in done["plain"]]),
        "setup_s": _spread(setup),
        "raw_setup_s": _spread(raw_setup),
        "calibration_kernel_s": _spread(kernels),
        "bare_start_s": _spread(starts),
        "setup_breakdown_s": {key: statistics.median(b[key] for b in breakdowns)
                              for key in (breakdowns[0] if breakdowns else {})},
        "events_per_command": inputs.events,
        "context": context(),
        "problems": problems[:10],
    }
    nan = float("nan")
    if kind == "madelung" and walls:
        report["particle_steps_per_s"] = statistics.median(
            workloads.particle_steps(inputs) / w for w in walls)
    if trace:
        traced_walls = [c["calibrated_wall_s"] for c in done["traced"]]
        report["traced_wall_s"] = _spread(traced_walls)
        per_command = [tracing.layer_metrics(c["trace"], c["wall_s"])
                       | {"harness.report_bytes": float(c["report_bytes"])}
                       for c in done["traced"]]
        metrics = {key: statistics.median(m[key] for m in per_command) if per_command
                   else nan for key in tracing.PER_LAYER}
        metrics["sampler.table_build_s"] = report["setup_breakdown_s"].get("table_build_s", 0.0)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(walls)
                                       if traced_walls and walls else nan)
        units = {key: unit for key, (unit, _, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": statistics.median(walls) if walls else nan,
            "events_per_s": statistics.median(inputs.events / w for w in walls) if walls
            else nan,
            "setup_s": statistics.median(setup) if setup else nan,
            "peak_rss_mb": peak_rss_mb,
            "pass_rate": (attempted - failed) / max(attempted, 1),
        }
        units = {key: unit for key, (unit, _, _) in END_TO_END.items()}
    line = {"correct": not problems and failed == 0, "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units}}
    return report, line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "bornlab", "__init__.py")):
        print(f"perfbench: no bornlab source tree under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(SRC, "bornlab"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(WORK_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    try:
        report, line = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(report))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
