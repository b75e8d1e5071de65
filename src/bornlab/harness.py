"""Replication protocol, convergence sweeps, event ingestion, reports.

The whole pipeline is a pure function of (config, seeds): sampling uses the
fixed PCG64 streams, binning and verification are deterministic, and report
rows are canonically sorted before serialization, so two runs with the same
config produce byte-identical report files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .berry_esseen import (
    REPORT_CSV_COLUMNS,
    BinningScheme,
    BoundConstantVariant,
    BoundReport,
    Origin,
    report_from_csv_row,
    report_from_json_dict,
    verify_inequality,
)
from .born_density import SlitGeometry, default_support, double_slit_density
from .errors import ConfigError, OutOfInterval, SlopeUndefined
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig
from .sampler import atomic_open, bin_positions, inverse_cdf_sample, read_events_csv, rng_from_seed

__all__ = [
    "ExperimentConfig",
    "ReportRow",
    "ConvergenceReport",
    "SweepResult",
    "PAPER_REPLICATION_N_VALUES",
    "PATTERN_BUILDUP_N_VALUES",
    "replication_config",
    "pattern_buildup_config",
    "config_from_json_dict",
    "config_to_json_dict",
    "load_config",
    "experiment_density",
    "run_paper_replication",
    "run_convergence_sweep",
    "verify_events",
    "ingest_events",
    "emit_report",
    "load_report",
]

# the nine detection counts of the replication protocol, and the four
# pattern-buildup frame counts shipped as a demo preset
PAPER_REPLICATION_N_VALUES = (13, 54, 101, 200, 227, 302, 448, 613, 803)
PATTERN_BUILDUP_N_VALUES = (7, 209, 1004, 6235)

_ALL_VARIANTS = (
    BoundConstantVariant.LOWER_BOUND_CONSTANT,
    BoundConstantVariant.PLUS_16_PERCENT,
)


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: SlitGeometry
    interval: Interval | None = None
    n_values: tuple[int, ...] = PAPER_REPLICATION_N_VALUES
    bin_counts: tuple[int, ...] = (10,)
    orientations: tuple[Origin, ...] = (Origin.FROM_A, Origin.FROM_B)
    seeds: tuple[int, ...] = (1,)
    variants: tuple[BoundConstantVariant, ...] = _ALL_VARIANTS
    moment_interval: Interval | None = None
    quadrature: QuadratureConfig = DEFAULT_QUADRATURE
    constant_override: float | None = None
    madelung: Mapping | None = None

    def __post_init__(self):
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError("n_values must be nonempty with every entry >= 1", key="n_values")
        if not self.bin_counts or any(b < 1 for b in self.bin_counts):
            raise ConfigError("bin_counts must be nonempty with every entry >= 1",
                              key="binning.bin_counts")
        if not self.orientations:
            raise ConfigError("at least one orientation is required", key="binning.orientations")
        if not self.seeds:
            raise ConfigError("at least one seed is required", key="seeds")
        if not self.variants:
            raise ConfigError("at least one constant variant is required", key="variants")


def replication_config(seeds: Sequence[int] = (1,), **overrides) -> ExperimentConfig:
    """The replication protocol: nine detection counts, >= 10 bins, both origins."""
    return replace(ExperimentConfig(geometry=SlitGeometry(), seeds=tuple(seeds)), **overrides)


def pattern_buildup_config(seeds: Sequence[int] = (1,), **overrides) -> ExperimentConfig:
    """Qualitative pattern-buildup demo at the published frame counts."""
    return replace(
        ExperimentConfig(geometry=SlitGeometry(), seeds=tuple(seeds),
                         n_values=PATTERN_BUILDUP_N_VALUES),
        **overrides,
    )


# ---------------------------------------------------------------------------
# config file schema

_TOP_KEYS = {
    "geometry", "interval", "binning", "n_values", "seeds",
    "quadrature", "moment_interval", "variants", "constant_override", "madelung",
}
_GEOMETRY_KEYS = {"w_nm", "d_nm", "L_mm", "lambda_pm", "mu_mm", "I0"}


def _interval_from(obj, key: str) -> Interval | None:
    if obj is None:
        return None
    if not isinstance(obj, Mapping) or set(obj) != {"a_mm", "b_mm"}:
        raise ConfigError(f"{key} must be an object with keys a_mm, b_mm", key=key)
    try:
        return Interval(float(obj["a_mm"]), float(obj["b_mm"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}", key=key) from exc


def _integer(value, key: str) -> int:
    """A JSON integer; an integral float such as 10.0 passes, booleans and
    fractions do not."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ConfigError(f"{key} must be an integer, got {value!r}", key=key)
    return value


def _integers(values, key: str) -> tuple[int, ...]:
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{key} must be a list of integers", key=key)
    return tuple(_integer(v, f"{key}[{i}]") for i, v in enumerate(values))


def config_from_json_dict(obj: Mapping) -> ExperimentConfig:
    if not isinstance(obj, Mapping):
        raise ConfigError("config root must be a JSON object", key="<root>")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config key: {sorted(unknown)[0]}", key=sorted(unknown)[0])

    geo = obj.get("geometry", {})
    if not isinstance(geo, Mapping):
        raise ConfigError("geometry must be an object", key="geometry")
    bad = set(geo) - _GEOMETRY_KEYS
    if bad:
        raise ConfigError(f"unknown geometry key: {sorted(bad)[0]}",
                          key=f"geometry.{sorted(bad)[0]}")
    try:
        geometry = SlitGeometry(
            slit_width_w=float(geo.get("w_nm", 62.0)),
            slit_separation_d=float(geo.get("d_nm", 272.0)),
            screen_distance_L=float(geo.get("L_mm", 240.0)),
            wavelength_lambda=float(geo.get("lambda_pm", 50.0)),
            center_mu=float(geo.get("mu_mm", 0.0)),
            peak_height_I0=float(geo.get("I0", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"geometry: {exc}", key="geometry") from exc

    binning = obj.get("binning", {})
    if not isinstance(binning, Mapping) or set(binning) - {"bin_counts", "orientations"}:
        raise ConfigError("binning accepts keys bin_counts, orientations", key="binning")
    bin_counts = _integers(binning.get("bin_counts", (10,)), "binning.bin_counts")
    try:
        orientations = tuple(Origin(o) for o in binning.get("orientations",
                                                            ("from_a", "from_b")))
    except ValueError as exc:
        raise ConfigError(f"binning.orientations: {exc}", key="binning.orientations") from exc

    try:
        variants = tuple(BoundConstantVariant(v) for v in obj.get(
            "variants", ("lower_bound_constant", "plus_16_percent")))
    except ValueError as exc:
        raise ConfigError(f"variants: {exc}", key="variants") from exc

    quad = obj.get("quadrature", {})
    if not isinstance(quad, Mapping) or set(quad) - {"rel_tol", "abs_tol", "max_refinement_depth"}:
        raise ConfigError("quadrature accepts rel_tol, abs_tol, max_refinement_depth",
                          key="quadrature")
    depth = _integer(quad.get("max_refinement_depth", 60), "quadrature.max_refinement_depth")
    try:
        quadrature = QuadratureConfig(
            rel_tol=float(quad.get("rel_tol", 1e-9)),
            abs_tol=float(quad.get("abs_tol", 1e-12)),
            max_refinement_depth=depth,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"quadrature: {exc}", key="quadrature") from exc

    override = obj.get("constant_override")
    try:
        return ExperimentConfig(
            geometry=geometry,
            interval=_interval_from(obj.get("interval"), "interval"),
            n_values=_integers(obj.get("n_values", PAPER_REPLICATION_N_VALUES), "n_values"),
            bin_counts=bin_counts,
            orientations=orientations,
            seeds=_integers(obj.get("seeds", (1,)), "seeds"),
            variants=variants,
            moment_interval=_interval_from(obj.get("moment_interval"), "moment_interval"),
            quadrature=quadrature,
            constant_override=None if override is None else float(override),
            madelung=obj.get("madelung"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    g = cfg.geometry
    out: dict = {
        "geometry": {
            "w_nm": g.slit_width_w, "d_nm": g.slit_separation_d,
            "L_mm": g.screen_distance_L, "lambda_pm": g.wavelength_lambda,
            "mu_mm": g.center_mu, "I0": g.peak_height_I0,
        },
        "interval": None if cfg.interval is None else
            {"a_mm": cfg.interval.lo, "b_mm": cfg.interval.hi},
        "binning": {
            "bin_counts": list(cfg.bin_counts),
            "orientations": [o.value for o in cfg.orientations],
        },
        "n_values": list(cfg.n_values),
        "seeds": list(cfg.seeds),
        "quadrature": {
            "rel_tol": cfg.quadrature.rel_tol,
            "abs_tol": cfg.quadrature.abs_tol,
            "max_refinement_depth": cfg.quadrature.max_refinement_depth,
        },
        "moment_interval": None if cfg.moment_interval is None else
            {"a_mm": cfg.moment_interval.lo, "b_mm": cfg.moment_interval.hi},
        "variants": [v.value for v in cfg.variants],
    }
    if cfg.constant_override is not None:
        out["constant_override"] = cfg.constant_override
    if cfg.madelung is not None:
        out["madelung"] = cfg.madelung
    return out


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_json_dict(raw)


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ReportRow:
    """One verification keyed by (N, bins, orientation, seed); seed is None
    for ingested (real) event data."""

    seed: int | None
    report: BoundReport


def _sort_key(row: ReportRow):
    r = row.report
    return (r.N, r.scheme.bin_count, r.scheme.origin.value,
            -1 if row.seed is None else row.seed)


def _summarize(rows: Sequence[ReportRow]) -> dict:
    return {
        "rows": len(rows),
        "pass_lower_const": sum(r.report.verdicts.lower_const for r in rows),
        "pass_upper_const": sum(r.report.verdicts.upper_const for r in rows),
        "pass_with_sqrtN_lower": sum(r.report.verdicts.with_sqrtN_lower for r in rows),
        "pass_with_sqrtN_upper": sum(r.report.verdicts.with_sqrtN_upper for r in rows),
    }


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[ReportRow, ...]
    summary: dict

    @classmethod
    def from_rows(cls, rows: Sequence[ReportRow]) -> "ConvergenceReport":
        ordered = tuple(sorted(rows, key=_sort_key))
        return cls(ordered, _summarize(ordered))

    def all_literal_pass(self, variants: Sequence[BoundConstantVariant] = _ALL_VARIANTS) -> bool:
        """True when every row passes the literal (N-free) form for the
        requested constant variants."""
        for row in self.rows:
            v = row.report.verdicts
            if BoundConstantVariant.LOWER_BOUND_CONSTANT in variants and not v.lower_const:
                return False
            if BoundConstantVariant.PLUS_16_PERCENT in variants and not v.upper_const:
                return False
        return True

    def to_json_dict(self) -> dict:
        return {
            "rows": [{"seed": r.seed, **r.report.to_json_dict()} for r in self.rows],
            "summary": self.summary,
        }


@dataclass(frozen=True)
class SweepResult:
    report: ConvergenceReport
    fitted_exponent: float
    medians: tuple[tuple[int, float], ...]


# ---------------------------------------------------------------------------
# pipelines

_BATCH_SAMPLE_LIMIT = 1_000_000


def _positions_by_seed(density, interval, n, seeds, cfg) -> dict[int, np.ndarray]:
    """Per-seed draws, inverted in one vectorized pass per seed chunk.

    The Newton inversion is elementwise, so batching the uniform draws of
    several seeds changes nothing in any individual result; it only cuts the
    Python overhead of many small calls."""
    seeds = list(seeds)
    out: dict[int, np.ndarray] = {}
    chunk = max(1, _BATCH_SAMPLE_LIMIT // max(n, 1))
    for start in range(0, len(seeds), chunk):
        block = seeds[start:start + chunk]
        flat = np.concatenate([rng_from_seed(s).random(n) for s in block])
        xs = np.asarray(inverse_cdf_sample(density, interval, flat, cfg))
        for i, s in enumerate(block):
            out[s] = xs[i * n:(i + 1) * n]
    return out


def experiment_density(cfg: ExperimentConfig):
    interval = cfg.interval if cfg.interval is not None else default_support(cfg.geometry)
    density = double_slit_density(cfg.geometry, support=interval)
    center = cfg.geometry.center_mu
    moment_iv = cfg.moment_interval
    if moment_iv is None:
        moment_iv = Interval(interval.lo - center, interval.hi - center)
    return density, interval, center, moment_iv


def _verify_positions(cfg: ExperimentConfig, setup, positions, seed: int | None,
                      bin_counts: Sequence[int]) -> list[ReportRow]:
    """bin -> verify one position set for every (bins, orientation) pair.
    ``setup`` is the tuple returned by :func:`experiment_density`."""
    density, interval, center, moment_iv = setup
    rows = []
    for bins in bin_counts:
        for orientation in cfg.orientations:
            hist = bin_positions(positions, BinningScheme(bins, orientation, interval))
            report = verify_inequality(hist, density, moment_iv, center,
                                       cfg.quadrature, cfg.constant_override)
            rows.append(ReportRow(seed, report))
    return rows


def run_paper_replication(cfg: ExperimentConfig) -> ConvergenceReport:
    """sample -> bin -> verify over the configured (N, bins, orientation, seed)
    grid.  A failing verdict is recorded, never raised."""
    setup = experiment_density(cfg)
    density, interval, _, _ = setup
    seeds = sorted(set(cfg.seeds))
    bin_counts = sorted(set(cfg.bin_counts))
    rows: list[ReportRow] = []
    for n in sorted(set(cfg.n_values)):
        positions_by_seed = _positions_by_seed(density, interval, n, seeds, cfg.quadrature)
        for seed in seeds:
            rows += _verify_positions(cfg, setup, positions_by_seed[seed], seed, bin_counts)
    return ConvergenceReport.from_rows(rows)


def run_convergence_sweep(cfg: ExperimentConfig, n_grid: Sequence[int],
                          seeds: Sequence[int] | None = None) -> SweepResult:
    """Replication rows over a geometric N grid (first bin count only) plus the
    fitted decay exponent of the per-N median sup-deviation of the first
    orientation (least squares in log-log)."""
    ns = sorted(set(int(n) for n in n_grid))
    if len(ns) < 2:
        raise SlopeUndefined(f"need at least two N values to fit a slope, got {ns}")
    if ns[-1] < 100 * ns[0]:
        raise ValueError("n_grid must span at least two decades")
    seed_list = sorted(set(seeds)) if seeds is not None else sorted(set(cfg.seeds))
    setup = experiment_density(cfg)
    density, interval, _, _ = setup
    lead_orientation = cfg.orientations[0]
    rows: list[ReportRow] = []
    medians: list[tuple[int, float]] = []
    for n in ns:
        positions_by_seed = _positions_by_seed(density, interval, n, seed_list, cfg.quadrature)
        n_rows: list[ReportRow] = []
        for seed in seed_list:
            n_rows += _verify_positions(cfg, setup, positions_by_seed[seed], seed,
                                        cfg.bin_counts[:1])
        sups = [r.report.sup_deviation for r in n_rows
                if r.report.scheme.origin is lead_orientation]
        medians.append((n, float(np.median(sups))))
        rows += n_rows
    slope = float(np.polyfit(
        np.log([n for n, _ in medians]), np.log([m for _, m in medians]), 1
    )[0])
    return SweepResult(ConvergenceReport.from_rows(rows), slope, tuple(medians))


def verify_events(cfg: ExperimentConfig, positions: Sequence[float]) -> ConvergenceReport:
    """Run the verification stage alone on externally supplied event positions."""
    rows = _verify_positions(cfg, experiment_density(cfg), positions, None,
                             sorted(set(cfg.bin_counts)))
    return ConvergenceReport.from_rows(rows)


def ingest_events(path, interval: Interval) -> np.ndarray:
    """Load an ``index,t_mm`` CSV as positions in row order and validate every
    position against the interval."""
    positions = read_events_csv(path)
    bad = np.flatnonzero(~interval.contains(positions))
    if bad.size:
        raise OutOfInterval(
            f"{path}: {bad.size} event(s) outside [{interval.lo}, {interval.hi}] "
            f"(first at data row {bad[0] + 1})",
            indices=bad.tolist(),
        )
    return positions


# ---------------------------------------------------------------------------
# serialization

def emit_report(report: ConvergenceReport, fmt: str, path) -> None:
    """Serialize to ``json`` or ``csv`` with stable key order; atomic write."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    with atomic_open(path) as fh:
        if fmt == "json":
            fh.write(json.dumps(report.to_json_dict(), indent=2) + "\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["seed", *REPORT_CSV_COLUMNS])
            for row in report.rows:
                writer.writerow(["" if row.seed is None else str(row.seed),
                                 *row.report.csv_row()])


def load_report(path, fmt: str | None = None) -> ConvergenceReport:
    """Parse a report emitted by :func:`emit_report` (format inferred from
    the extension when not given)."""
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "json"
    if fmt == "json":
        with open(path) as fh:
            obj = json.load(fh)
        rows = tuple(
            ReportRow(None if r["seed"] is None else int(r["seed"]), report_from_json_dict(r))
            for r in obj["rows"]
        )
        return ConvergenceReport(rows, obj["summary"])
    if fmt == "csv":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["seed", *REPORT_CSV_COLUMNS]:
                raise ValueError(f"{path}: unexpected report CSV header")
            rows = tuple(
                ReportRow(None if row[0] == "" else int(row[0]), report_from_csv_row(row[1:]))
                for row in reader
            )
        return ConvergenceReport(rows, _summarize(rows))
    raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
