"""Command-line front end: every pipeline stage as a subcommand.

Exit codes: 0 success / all verdicts pass, 1 at least one literal-form
verdict failed, 2 usage or configuration error, 3 numerical instability.
The only environment variable honored is BORNLAB_OUT_DIR, which rebases
relative output paths.  :func:`main` rebases every output flag, then loads the
config, once each, and passes it to the subcommand.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import berry_esseen, harness, madelung, sampler
from .born_density import _number
from .errors import BornLabError, ConfigError, NonConvergence, UnstableStep
from .sampler import atomic_open
from .svg import line_chart_svg

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_UNSTABLE = 3

# the least value of each integer flag, given as text and read by
# _flag_number; a smaller one exits 2
_FLAG_MINIMA = {"points": 2, "n": 1, "seed": 0, "seed_base": 0, "seed_count": 1, "steps": 0,
                "snapshot_every": 1, "count": 1}
# the flags that name an output file or directory
_OUTPUT_FLAGS = ("out", "out_dir", "csv", "svg", "summary")


def _rebase_outputs(args) -> None:
    """Rebase each relative output path of ``args`` onto BORNLAB_OUT_DIR, when set."""
    base = os.environ.get("BORNLAB_OUT_DIR")
    for name in _OUTPUT_FLAGS:
        path = getattr(args, name, None)
        if base and path and not os.path.isabs(path):
            os.makedirs(base, exist_ok=True)
            setattr(args, name, os.path.join(base, path))


def _flag_number(text: str, kind, flag: str):
    """``kind(text)`` of a flag's text by the rule of CSV number cells
    (``born_density._number``); a ConfigError names the flag."""
    try:
        return _number(text, kind)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}", key=flag) from exc


def _write_text(path: str | None, text: str) -> None:
    """``text`` to ``path`` atomically, or to stdout when ``path`` is None."""
    if path is None:
        sys.stdout.write(text)
        return
    with atomic_open(path) as fh:
        fh.write(text)


def _write_json(path: str | None, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_density(args, cfg: harness.ExperimentConfig) -> int:
    density, interval, _, _ = harness.experiment_density(cfg)
    ts = np.linspace(interval.lo, interval.hi, args.points)
    vals = density.evaluate(ts)
    lines = ["t_mm,intensity"]
    lines += [f"{repr(float(t))},{repr(float(v))}" for t, v in zip(ts, vals)]
    _write_text(args.out, "\n".join(lines) + "\n")
    if args.svg:
        _write_text(args.svg, line_chart_svg(ts, vals, title="detector intensity"))
    return EXIT_OK


def _cmd_moments(args, cfg: harness.ExperimentConfig) -> int:
    density, interval, center, moment_iv = harness.experiment_density(cfg)
    mass, var_raw, rho_raw = berry_esseen.raw_moments(density, moment_iv, center, cfg.quadrature)
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


def _cmd_bound(args, cfg: harness.ExperimentConfig) -> int:
    density, _, center, moment_iv = harness.experiment_density(cfg)
    both = dict(zip(berry_esseen.BoundConstantVariant, berry_esseen.literal_rhs(
        density, moment_iv, center, cfg.quadrature, cfg.constant_override)))
    rhs = {v.value: both[v] for v in cfg.variants}
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


def _cmd_sample(args, cfg: harness.ExperimentConfig) -> int:
    density, interval, _, _ = harness.experiment_density(cfg)
    positions = sampler.sample_positions(density, interval, args.n, args.seed, cfg.quadrature)
    sampler.write_events_csv(positions, args.out)
    return EXIT_OK


def _cmd_verify(args, cfg: harness.ExperimentConfig) -> int:
    _, interval, _, _ = harness.experiment_density(cfg)
    positions = harness.ingest_events(args.events, interval)
    report = harness.verify_events(cfg, positions)
    _write_text(args.out, harness.report_text(report, "json"))
    return EXIT_OK if report.all_literal_pass(cfg.variants) else EXIT_VERDICT_FAIL


def _cmd_replicate(args, cfg: harness.ExperimentConfig) -> int:
    report = harness.run_paper_replication(cfg)
    harness.emit_report(report, "json", args.out)
    if args.csv:
        harness.emit_report(report, "csv", args.csv)
    return EXIT_OK if report.all_literal_pass(cfg.variants) else EXIT_VERDICT_FAIL


def _cmd_sweep(args, cfg: harness.ExperimentConfig) -> int:
    n_grid = [_flag_number(tok, int, "--n-grid") for tok in args.n_grid.split(",") if tok.strip()]
    if min(n_grid, default=1) < 1:
        raise ConfigError(f"--n-grid entries must be >= 1, got {min(n_grid)}", key="--n-grid")
    seeds = range(args.seed_base, args.seed_base + args.seed_count)
    result = harness.run_convergence_sweep(cfg, n_grid, seeds)
    _write_text(args.out, harness.sweep_text(result))
    return EXIT_OK


def _cmd_madelung(args, cfg: harness.ExperimentConfig) -> int:
    tol = _flag_number(args.classical_tol, float, "--classical-tol")
    if not 0 < tol < math.inf:  # NaN fails both
        raise ConfigError(f"--classical-tol must be a finite number > 0, got {tol}",
                          key="--classical-tol")
    _, field, potential = harness.madelung_setup(cfg)
    os.makedirs(args.out_dir, exist_ok=True)
    evo = madelung.Evolution(field, potential)
    records = []

    def record(step: int, prev_polar=None) -> madelung.PolarField:
        polar = madelung.decompose_polar(evo.field)
        madelung.write_polar_csv(polar, os.path.join(args.out_dir, f"snapshot_{step:06d}.csv"))
        row: dict = {"step": step, "time": polar.time, "norm": evo.field.norm()}
        if prev_polar is not None:
            hj = madelung.hj_residual(prev_polar, polar, potential)
            cont = madelung.continuity_residual(prev_polar, polar)
            classical, _ = madelung.classicality_check(polar, tol)
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
    _write_json(os.path.join(args.out_dir, "summary.json"), {"snapshots": records})
    return EXIT_OK


def _cmd_trajectories(args, cfg: harness.ExperimentConfig) -> int:
    m, field, potential = harness.madelung_setup(cfg)
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
    madelung.write_trajectories_csv(ensemble, args.out)
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
    p.add_argument("--points", default="10000",
                   help="number of evenly spaced samples, endpoints included")
    p.add_argument("--svg", help="optional SVG line-chart path")

    p = add("moments", _cmd_moments, "raw and normalized central moments")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")

    p = add("bound", _cmd_bound, "right-hand-side bound values for all variants")
    p.add_argument("--out", help="output JSON path (stdout when omitted)")

    p = add("sample", _cmd_sample, "draw synthetic detection events to CSV")
    p.add_argument("--n", required=True, help="number of events")
    p.add_argument("--seed", required=True, help="PCG64 stream seed")
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
    p.add_argument("--seed-base", default="1000", help="first seed of the block")
    p.add_argument("--seed-count", default="30", help="number of seeds")
    p.add_argument("--out", help="result JSON path (stdout when omitted)")

    p = add("madelung", _cmd_madelung, "evolve a preset and write polar snapshots")
    p.add_argument("--steps", default="100", help="number of evolution steps")
    p.add_argument("--snapshot-every", default="10", help="snapshot stride in steps")
    p.add_argument("--out-dir", required=True, help="directory for snapshots and summary.json")
    p.add_argument("--classical-tol", default="1e-6",
                   help="threshold for the classicality diagnostic")

    p = add("trajectories", _cmd_trajectories, "advect an ensemble along grad(S)/m")
    p.add_argument("--count", help="ensemble size (default from config)")
    p.add_argument("--steps", default="50", help="number of evolution steps")
    p.add_argument("--seed", help="sampling seed (default from config)")
    p.add_argument("--out", required=True, help="final positions CSV path (index,x)")
    p.add_argument("--summary", help="optional KS-diagnostic JSON path")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name, least in _FLAG_MINIMA.items():
            text = getattr(args, name, None)
            if text is None:
                continue
            flag = "--" + name.replace("_", "-")
            value = _flag_number(text, int, flag)
            if value < least:
                raise ConfigError(f"{flag} must be >= {least}, got {value}", key=flag)
            setattr(args, name, value)
        _rebase_outputs(args)
        return args.func(args, harness.load_config(args.config))
    except (UnstableStep, NonConvergence) as exc:
        print(f"bornlab: numerical instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (BornLabError, OSError, ValueError) as exc:
        line = getattr(exc, "line", None)  # a ParseError's line in its file
        print(f"bornlab: error: {exc}" + ("" if line is None else f" (line {line})"),
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
