"""The measured child processes: set-up probes and command loops.

Usage: ``python3 worker.py SPEC.json``. The spec names the source tree, the
mode and the result path.

* ``setup``: import bornlab and do the fixed per-command work of the
  workload kind (``fixed_work``) once; the caller times the whole process.
* ``loop``: call ``bornlab.cli.main`` with the workload's argv again and
  again for ``seconds`` seconds (at least ``min_commands`` times), each
  command writing into a fresh directory, with the calibration kernel run
  between consecutive commands. Every command builds its own densities, so
  no memo carries over; the peak RSS is read right after the first command,
  so it is the high-water mark of a process that ran one command. With
  ``trace`` set, the layers are wrapped (see ``tracing``) and the spans of
  all commands are written once, at the end.
"""

from __future__ import annotations

import csv
import io
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

_CAL_X = np.linspace(0.0, 1.0, 200_000)
_CAL_CSV = "index,t_mm\n" + "".join(
    f"{i},{x!r}\n" for i, x in enumerate(np.random.default_rng(0).uniform(-1, 1, 20_000).tolist()))


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work bornlab does: interpreter
    loops, numpy array passes, and CSV parsing into small objects (the last
    follows the slow phases of CSV-heavy commands that the others miss)."""
    start = time.perf_counter()
    total = 0
    for i in range(700_000):
        total += i * i
    y = _CAL_X
    for _ in range(6):
        y = np.where(y > 0.5, np.sin(y), y * 1.5)
        np.searchsorted(_CAL_X, y)
    for _ in range(2):
        rows = [(float(t), int(i)) for i, t in csv.reader(io.StringIO(_CAL_CSV)) if i != "index"]
    del rows
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """High-water resident memory of this process image, in MiB.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss``, the fallback off Linux,
    also counts the parent's resident memory at fork.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fixed_work(kind: str, config: str) -> dict[str, float]:
    """Config load plus the work every command of ``kind`` repeats on start.

    Born workloads: the density, the CDF table (a one-draw inverse-CDF
    sample on the fresh density) and the moment integrals (``bound_rhs``).
    Madelung workloads: the grid, the initial field, the split-step factors
    and the first polar decomposition.
    """
    from bornlab import berry_esseen, born_density, harness, madelung, sampler

    clock = time.perf_counter
    t0 = clock()
    cfg = harness.load_config(config)
    out = {"config_s": clock() - t0}
    if kind == "born":
        t = clock()
        density, interval, center, moment_iv = harness.experiment_density(cfg)
        sampler.inverse_cdf_sample(density, interval, 0.5, cfg.quadrature)
        out["table_build_s"] = clock() - t
        t = clock()
        centered = born_density.recenter(density, center)
        for variant in cfg.variants:
            berry_esseen.bound_rhs(centered, moment_iv, variant, cfg.quadrature,
                                   cfg.constant_override)
        out["moments_s"] = clock() - t
    else:
        with open(config) as fh:
            section = json.load(fh)["madelung"]  # the benchmark's own keys
        t = clock()
        grid = madelung.Grid(**section["grid"])
        field = madelung.gaussian_packet(grid, **section["state"])
        evolution = madelung.Evolution(field, madelung.Potential.free())
        madelung.decompose_polar(evolution.field)
        out["evolution_s"] = clock() - t
    return out


def loop(spec: dict, entry) -> dict:
    """Run the command until the time is up; one record per command."""
    tracer = None
    if spec.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        entry = tracer.wrap("cli.main", entry)
    records = []
    peak = None
    kernel = calibrate()
    deadline = time.perf_counter() + spec["seconds"]
    while len(records) < spec["min_commands"] or time.perf_counter() < deadline:
        k = len(records)
        out_dir = os.path.join(spec["out_root"], f"cmd{k}")
        os.mkdir(out_dir)
        argv = [a.replace("{out}", out_dir) for a in spec["argv"]]
        if tracer is not None:
            tracer.begin(f"{spec['run_id']}-{k}")
        rc, error = None, ""
        start = time.perf_counter()
        try:
            rc = entry(argv)
        except Exception:  # a crashing command is a failed attempt, not the end of the run
            error = traceback.format_exc(limit=5)
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        if peak is None:
            peak = peak_rss_mb()
        after = calibrate()
        records.append({"out_dir": out_dir, "rc": rc, "error": error, "wall_s": wall_s,
                        "kernel_s": 0.5 * (kernel + after)})
        kernel = after
    if tracer is not None:
        tracer.write(spec["trace"])
    return {"commands": records, "peak_rss_mb": peak}


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = spec["src"]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import bornlab.cli

    import_s = time.perf_counter() - t0
    if not os.path.abspath(bornlab.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"bornlab imported from {bornlab.__file__}, not {src}", file=sys.stderr)
        return 2
    if spec["mode"] == "setup":
        result = {"import_s": import_s, **fixed_work(spec["kind"], spec["config"])}
    else:
        result = loop(spec, bornlab.cli.main)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
