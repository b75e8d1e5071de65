"""Command-line front end: every pipeline stage as a subcommand.

Exit codes: 0 success / all verdicts pass, 1 at least one literal-form
verdict failed, 2 usage or configuration error, 3 numerical instability.
The only environment variable honored is BORNLAB_OUT_DIR, which rebases
relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import berry_esseen, born_density, harness, madelung, sampler
from .errors import BornLabError, ConfigError, NonConvergence, UnstableStep
from .sampler import atomic_open
from .svg import line_chart_svg

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

# the least value of each integer flag; a smaller one exits 2
_FLAG_MINIMA = {"points": 2, "n": 1, "seed": 0, "seed_base": 0, "seed_count": 1, "steps": 0,
                "snapshot_every": 1, "count": 1}


def _out_path(path: str) -> str:
    base = os.environ.get("BORNLAB_OUT_DIR")
    if base and not os.path.isabs(path):
        os.makedirs(base, exist_ok=True)
        return os.path.join(base, path)
    return path


def _write_text(path: str, text: str) -> None:
    with atomic_open(_out_path(path)) as fh:
        fh.write(text)


def _write_json(path: str | None, obj) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        _write_text(path, text)


def _load(args) -> harness.ExperimentConfig:
    return harness.load_config(args.config)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_density(args) -> int:
    cfg = _load(args)
    density, interval, _, _ = harness.experiment_density(cfg)
    ts = np.linspace(interval.lo, interval.hi, args.points)
    vals = density.evaluate(ts)
    lines = ["t_mm,intensity"]
    lines += [f"{repr(float(t))},{repr(float(v))}" for t, v in zip(ts, vals)]
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.svg:
        _write_text(args.svg, line_chart_svg(ts, vals, title="detector intensity"))
    return EXIT_OK


def _cmd_moments(args) -> int:
    cfg = _load(args)
    density, interval, center, moment_iv = harness.experiment_density(cfg)
    centered = born_density.recenter(density, center)
    mass, var_raw, rho_raw = berry_esseen.raw_moments(centered, moment_iv, cfg.quadrature)
    sigma = math.sqrt(var_raw / mass)
    rho = rho_raw / mass
    _write_json(args.out, {
        "center_mm": center,
        "interval": {"a_mm": interval.lo, "b_mm": interval.hi},
        "moment_interval": {"a_mm": moment_iv.lo, "b_mm": moment_iv.hi},
        "mass": mass,
        "raw": {"second": var_raw, "third_absolute": rho_raw},
        "normalized": {"sigma": sigma, "third_absolute": rho,
                       "ratio_rho_over_sigma3": rho / sigma**3},
    })
    return EXIT_OK


def _cmd_bound(args) -> int:
    cfg = _load(args)
    density, _, center, moment_iv = harness.experiment_density(cfg)
    centered = born_density.recenter(density, center)
    rhs = {
        v.value: berry_esseen.bound_rhs(centered, moment_iv, v, cfg.quadrature,
                                        cfg.constant_override)
        for v in cfg.variants
    }
    _write_json(args.out, {
        "zolotarev_constant": berry_esseen.zolotarev_constant(),
        "constant_override": cfg.constant_override,
        "moment_interval": {"a_mm": moment_iv.lo, "b_mm": moment_iv.hi},
        "rhs_literal": rhs,
        "rhs_with_sqrtN": {
            str(n): {k: v / math.sqrt(n) for k, v in rhs.items()} for n in cfg.n_values
        },
    })
    return EXIT_OK


def _cmd_sample(args) -> int:
    cfg = _load(args)
    density, interval, _, _ = harness.experiment_density(cfg)
    positions = sampler.sample_positions(density, interval, args.n, args.seed, cfg.quadrature)
    sampler.write_events_csv(positions, _out_path(args.out))
    return EXIT_OK


def _cmd_verify(args) -> int:
    cfg = _load(args)
    _, interval, _, _ = harness.experiment_density(cfg)
    positions = harness.ingest_events(args.events, interval)
    report = harness.verify_events(cfg, positions)
    if args.out:
        harness.emit_report(report, "json", _out_path(args.out))
    else:
        sys.stdout.write(harness.report_text(report, "json"))
    return EXIT_OK if report.all_literal_pass(cfg.variants) else EXIT_VERDICT_FAIL


def _cmd_replicate(args) -> int:
    cfg = _load(args)
    report = harness.run_paper_replication(cfg)
    harness.emit_report(report, "json", _out_path(args.out))
    if args.csv:
        harness.emit_report(report, "csv", _out_path(args.csv))
    return EXIT_OK if report.all_literal_pass(cfg.variants) else EXIT_VERDICT_FAIL


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        n_grid = [int(tok) for tok in args.n_grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--n-grid: {exc}", key="--n-grid") from exc
    if min(n_grid, default=1) < 1:
        raise ConfigError(f"--n-grid entries must be >= 1, got {min(n_grid)}", key="--n-grid")
    seeds = range(args.seed_base, args.seed_base + args.seed_count)
    result = harness.run_convergence_sweep(cfg, n_grid, seeds)
    payload = {
        "fitted_exponent": result.fitted_exponent,
        "medians": [{"N": n, "median_sup_deviation": m} for n, m in result.medians],
        **result.report.to_json_dict(),
    }
    _write_json(args.out, payload)
    return EXIT_OK


def _madelung_setup(cfg: harness.ExperimentConfig):
    """The Madelung section with the initial field and the potential of its
    preset (or its own potential, when it gives one)."""
    m = cfg.madelung if cfg.madelung is not None else harness.MadelungConfig()
    potential = madelung.Potential.free()
    if m.preset == "plane_wave":
        field = madelung.plane_wave(m.grid, **m.state)
    elif m.preset == "free_gaussian":
        field = madelung.gaussian_packet(m.grid, **m.state)
    elif m.preset == "harmonic":
        field = madelung.harmonic_ground_state(m.grid, **m.state)
        potential = madelung.Potential.harmonic(**m.state)
    else:  # double_slit_screen
        density, _, _, _ = harness.experiment_density(cfg)
        field = madelung.screen_state_from_density(m.grid, density)
    return m, field, m.potential if m.potential is not None else potential


def _cmd_madelung(args) -> int:
    _, field, potential = _madelung_setup(_load(args))
    out_dir = _out_path(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    evo = madelung.Evolution(field, potential)
    records = []

    def record(step: int, prev_polar=None) -> madelung.PolarField:
        polar = madelung.decompose_polar(evo.field)
        madelung.write_polar_csv(polar, os.path.join(out_dir, f"snapshot_{step:06d}.csv"))
        row: dict = {"step": step, "time": polar.time, "norm": evo.field.norm()}
        if prev_polar is not None:
            hj = madelung.hj_residual(prev_polar, polar, potential)
            cont = madelung.continuity_residual(prev_polar, polar)
            classical, _ = madelung.classicality_check(polar, args.classical_tol)
            row.update({
                "hj_max": hj.max_norm(), "hj_l2": hj.l2_norm(),
                "continuity_max": cont.max_norm(), "continuity_l2": cont.l2_norm(),
                "classical": classical,
            })
        records.append(row)
        return polar

    # the residuals of a snapshot read it and the field one step before it,
    # so only those fields are decomposed
    polar = record(0)
    done = 0
    for step in range(1, args.steps + 1):
        if step % args.snapshot_every and step != args.steps:
            continue
        if step - 1 > done:
            evo.step(step - 1 - done)
            polar = madelung.decompose_polar(evo.field)
        evo.step()
        polar = record(step, polar)
        done = step
    _write_json(os.path.join(out_dir, "summary.json"), {"snapshots": records})
    return EXIT_OK


def _cmd_trajectories(args) -> int:
    m, field, potential = _madelung_setup(_load(args))
    count = args.count if args.count is not None else m.count
    seed = args.seed if args.seed is not None else m.seed
    evo = madelung.Evolution(field, potential)
    polar = madelung.decompose_polar(evo.field)
    ensemble = madelung.sample_ensemble_from_field(polar, count, seed)
    for _ in range(args.steps):
        prev = polar
        evo.step()
        polar = madelung.decompose_polar(evo.field)
        ensemble = madelung.advect_trajectories(ensemble, prev, polar)
    madelung.write_trajectories_csv(ensemble, _out_path(args.out))
    if args.summary:
        _write_json(args.summary, {
            "count": count, "seed": seed, "steps": args.steps, "time": ensemble.time,
            "collisions": ensemble.collisions,
            "ks_distance_to_R2": madelung.ks_distance(ensemble, polar),
        })
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornlab",
        description="Born-frequency convergence and Madelung trajectory laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.set_defaults(func=func)
        return p

    p = add("density", _cmd_density, "tabulate the detector intensity to CSV")
    p.add_argument("--out", required=True, help="output CSV path (t_mm,intensity)")
    p.add_argument("--points", type=int, default=10000,
                   help="number of evenly spaced samples, endpoints included")
    p.add_argument("--svg", help="optional SVG line-chart path")

    p = add("moments", _cmd_moments, "raw and normalized central moments")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")

    p = add("bound", _cmd_bound, "right-hand-side bound values for all variants")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")

    p = add("sample", _cmd_sample, "draw synthetic detection events to CSV")
    p.add_argument("--n", type=int, required=True, help="number of events")
    p.add_argument("--seed", type=int, required=True, help="PCG64 stream seed")
    p.add_argument("--out", required=True, help="output CSV path (index,t_mm)")

    p = add("verify", _cmd_verify, "verify the inequality on ingested events")
    p.add_argument("--events", required=True, help="events CSV path (index,t_mm)")
    p.add_argument("--out", help="report JSON path (stdout when omitted)")

    p = add("replicate", _cmd_replicate, "run the full replication protocol")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", help="optional report CSV path")

    p = add("sweep", _cmd_sweep, "median sup-deviation decay over an N grid")
    p.add_argument("--n-grid", default="100,1000,10000,100000",
                   help="comma-separated N values (>= two decades)")
    p.add_argument("--seed-base", type=int, default=1000, help="first seed of the block")
    p.add_argument("--seed-count", type=int, default=30, help="number of seeds")
    p.add_argument("--out", help="result JSON path (stdout when omitted)")

    p = add("madelung", _cmd_madelung, "evolve a preset and write polar snapshots")
    p.add_argument("--steps", type=int, default=100, help="number of evolution steps")
    p.add_argument("--snapshot-every", type=int, default=10, help="snapshot stride in steps")
    p.add_argument("--out-dir", required=True, help="directory for snapshots and summary.json")
    p.add_argument("--classical-tol", type=float, default=1e-6,
                   help="threshold for the classicality diagnostic")

    p = add("trajectories", _cmd_trajectories, "advect an ensemble along grad(S)/m")
    p.add_argument("--count", type=int, help="ensemble size (default from config)")
    p.add_argument("--steps", type=int, default=50, help="number of evolution steps")
    p.add_argument("--seed", type=int, help="sampling seed (default from config)")
    p.add_argument("--out", required=True, help="final positions CSV path (index,x)")
    p.add_argument("--summary", help="optional KS-diagnostic JSON path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, least in _FLAG_MINIMA.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                flag = "--" + name.replace("_", "-")
                raise ConfigError(f"{flag} must be >= {least}, got {value}", key=flag)
        return args.func(args)
    except (UnstableStep, NonConvergence) as exc:
        print(f"bornlab: numerical instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (BornLabError, OSError, ValueError) as exc:
        print(f"bornlab: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
