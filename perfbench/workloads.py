"""The benchmark's four workloads and the seeded generator of their inputs.

Each workload is one ``bornlab`` subcommand at a fixed size. The seed picks
the PCG64 seed block (or, for ``ingest``, the events themselves); sizes do
not depend on it, so every seed does the same amount of work.

Why each workload exists (the reason is also the ``why`` in BENCHMARK.json):

* ``sweep`` - nearly all of its time is inverse-CDF bisection in
  ``sampler``, which evaluates the ``born_density`` closed form about 66
  times per drawn event (three Gauss nodes per bisection pass), while only
  8 report rows per seed are verified. It shows changes to inversion and is
  blind to report and per-row costs.
* ``replicate`` - the paper protocol. Per-row binning, ``verify_inequality``
  and report serialization take about half of the time, small-N inversion
  the other half. It is the only workload that spends real time in
  ``berry_esseen`` and ``harness``.
* ``ingest`` - the real-data path: ``verify`` on an ``index,t_mm`` CSV.
  CSV parsing and per-event validation dominate and no inversion runs, so
  it uses ``sampler`` for I/O where ``sweep`` uses it for inversion. The
  1,000-bin scheme makes CDF quadrature at 1,001 edges visible, and its peak
  memory grows with the per-event Python objects.
* ``trajectories`` - the only ``madelung`` workload: split-step evolution,
  polar decomposition and ``np.interp``-based advection, plus sampling on a
  ``TabulatedDensity``. None of the Born pipeline runs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

import oracles

PAPER_N_VALUES = (13, 54, 101, 200, 227, 302, 448, 613, 803)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "born" (Born-rule pipeline) or "madelung"


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep", "inverse-CDF bisection is ~99% of the time and few rows are "
                 "verified: shows inversion changes, bypasses per-row verify and reports",
                 "born"),
        Workload("replicate", "the paper protocol: per-row binning, verify_inequality and "
                 "report serialization rival small-N inversion; the berry_esseen and "
                 "harness workload", "born"),
        Workload("ingest", "verify on an external events CSV: CSV reading and per-event "
                 "validation dominate, no inversion runs, and 1,001 CDF edges load "
                 "quadrature", "born"),
        Workload("trajectories", "the only madelung workload: split-step evolution, polar "
                 "decomposition, np.interp advection and tabulated sampling; no Born "
                 "pipeline", "madelung"),
    )
}

SWEEP_N_GRID = (100, 1_000, 10_000, 100_000)
SWEEP_SEED_COUNT = 2
REPLICATE_SEED_COUNT = 40
REPLICATE_BIN_COUNTS = (10, 20, 50, 100)
INGEST_EVENTS = 100_000
INGEST_BIN_COUNTS = (10, 100, 1000)
TRAJ_GRID = {"x_min": -40.0, "x_max": 40.0, "points": 2048, "dt": 1e-3,
             "mass": 1.0, "hbar": 1.0}
TRAJ_STATE = {"center": 0.0, "sigma": 1.0, "k_index": 10}
TRAJ_STEPS = 100
TRAJ_COUNT = 50_000


@dataclass(frozen=True)
class Inputs:
    """Everything one run needs: the config file, the events file (``ingest``),
    what the outputs must contain, and the events drawn or ingested (for
    ``trajectories``, particles drawn) per command."""

    workload: Workload
    config: str
    events_path: str | None
    expect: dict
    events: int

    def argv(self, out_dir: str) -> list[str]:
        """The ``bornlab`` argv for one command writing into ``out_dir``."""
        out = os.path.join(out_dir, "report.json")
        name = self.workload.name
        e = self.expect
        if name == "sweep":
            return ["sweep", "--config", self.config,
                    "--n-grid", ",".join(str(n) for n in e["n_values"]),
                    "--seed-base", str(e["seeds"][0]), "--seed-count", str(len(e["seeds"])),
                    "--out", out]
        if name == "replicate":
            return ["replicate", "--config", self.config, "--out", out,
                    "--csv", os.path.join(out_dir, "report.csv")]
        if name == "ingest":
            return ["verify", "--config", self.config, "--events", self.events_path,
                    "--out", out]
        return ["trajectories", "--config", self.config, "--steps", str(e["steps"]),
                "--count", str(e["count"]), "--seed", str(e["seed"]),
                "--out", os.path.join(out_dir, "trajectories.csv"),
                "--summary", os.path.join(out_dir, "summary.json")]


def _seed_block(seed: int, salt: int, count: int) -> list[int]:
    """``count`` distinct PCG64 seeds derived from the benchmark seed."""
    rng = np.random.default_rng([seed, salt])
    return sorted(int(s) for s in rng.choice(2**31, size=count, replace=False))


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)


def sample_closed_form(geometry: dict, interval: tuple[float, float], n: int,
                       seed: int) -> np.ndarray:
    """``n`` detections by rejection sampling of the closed-form intensity.

    Independent of bornlab's sampler: uniform proposals on the interval,
    accepted with probability I(t) / I0 (the intensity never exceeds I0).
    """
    rng = np.random.default_rng(seed)
    lo, hi = interval
    peak = geometry["I0"]
    chunks, have = [], 0
    while have < n:
        t = rng.uniform(lo, hi, 1 << 21)
        keep = t[rng.random(t.size) * peak < oracles.intensity(t, geometry)]
        chunks.append(keep)
        have += keep.size
    return np.concatenate(chunks)[:n]


def prepare(name: str, seed: int, work_dir: str) -> Inputs:
    """Write the config (and for ``ingest`` the events CSV) for one run."""
    workload = WORKLOADS[name]
    config = os.path.join(work_dir, "config.json")
    geometry = dict(oracles.DEFAULT_GEOMETRY)
    interval = oracles.default_interval(geometry)
    born_cfg = {"geometry": geometry, "interval": {"a_mm": interval[0], "b_mm": interval[1]}}
    events_path = None
    if name == "sweep":
        base = _seed_block(seed, 1, 1)[0]
        seeds = list(range(base, base + SWEEP_SEED_COUNT))
        _write_json(config, {**born_cfg, "binning": {"bin_counts": [10]}})
        expect = {"n_values": list(SWEEP_N_GRID), "seeds": seeds, "bin_counts": [10],
                  "interval": interval}
        events = sum(SWEEP_N_GRID) * len(seeds)
    elif name == "replicate":
        seeds = _seed_block(seed, 2, REPLICATE_SEED_COUNT)
        _write_json(config, {**born_cfg, "n_values": list(PAPER_N_VALUES), "seeds": seeds,
                             "binning": {"bin_counts": list(REPLICATE_BIN_COUNTS)}})
        expect = {"n_values": list(PAPER_N_VALUES), "seeds": seeds,
                  "bin_counts": list(REPLICATE_BIN_COUNTS), "interval": interval}
        events = sum(PAPER_N_VALUES) * len(seeds)
    elif name == "ingest":
        positions = sample_closed_form(geometry, interval, INGEST_EVENTS, seed)
        events_path = os.path.join(work_dir, "events.csv")
        with open(events_path, "w") as fh:
            fh.write("index,t_mm\n")
            fh.write("\n".join(f"{i},{x!r}" for i, x in enumerate(positions.tolist())))
            fh.write("\n")
        _write_json(config, {**born_cfg, "binning": {"bin_counts": list(INGEST_BIN_COUNTS)}})
        expect = {"n_values": [INGEST_EVENTS], "seeds": [None],
                  "bin_counts": list(INGEST_BIN_COUNTS), "interval": interval,
                  "positions": positions}
        events = INGEST_EVENTS
    elif name == "trajectories":
        _write_json(config, {"madelung": {"preset": "free_gaussian", "grid": TRAJ_GRID,
                                          "state": TRAJ_STATE}})
        expect = {"steps": TRAJ_STEPS, "count": TRAJ_COUNT,
                  "seed": _seed_block(seed, 4, 1)[0], "grid": TRAJ_GRID, "state": TRAJ_STATE}
        events = TRAJ_COUNT
    else:
        raise KeyError(name)
    if workload.kind == "born":
        expect["geometry"] = geometry
    return Inputs(workload, config, events_path, expect, events)


def reference(inputs: Inputs) -> dict:
    """Oracle values for one run, computed once and outside the timed region."""
    e = inputs.expect
    if inputs.workload.kind != "born":
        return {}
    ref = oracles.BornReference.build(e["geometry"], e["interval"])
    out = {"born": ref}
    if inputs.workload.name == "ingest":
        out["ingest_sups"] = oracles.ingest_sups(ref, e["positions"], e["bin_counts"])
    return out


def check(inputs: Inputs, ref: dict, out_dir: str, rc: int) -> list[str]:
    """Problems with one command's exit code and outputs (empty when correct)."""
    if rc != 0:
        return [f"exit code {rc}"]
    e = inputs.expect
    name = inputs.workload.name
    try:
        if inputs.workload.kind == "madelung":
            with open(os.path.join(out_dir, "summary.json")) as fh:
                summary = json.load(fh)
            path = os.path.join(out_dir, "trajectories.csv")
            with open(path) as fh:
                if fh.readline().strip() != "index,x":
                    return ["trajectory CSV header is not 'index,x'"]
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            return oracles.check_trajectories(
                summary, table[:, 1], table[:, 0], e["grid"], e["state"], e["steps"],
                e["count"], e["seed"])
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
        problems = oracles.check_born_report(report, ref["born"], e["n_values"], e["seeds"],
                                             e["bin_counts"])
        if name == "sweep":
            problems += oracles.check_sweep_fit(report, e["n_values"])
        elif name == "replicate":
            with open(os.path.join(out_dir, "report.csv"), newline="") as fh:
                problems += oracles.check_report_csv(list(csv.reader(fh)), report)
        elif name == "ingest":
            problems += oracles.check_ingest_sups(report, ref["ingest_sups"])
        return problems
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def particle_steps(inputs: Inputs) -> int:
    """Particles times steps of one ``trajectories`` command (0 otherwise)."""
    e = inputs.expect
    return e["count"] * e["steps"] if inputs.workload.kind == "madelung" else 0
