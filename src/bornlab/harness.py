"""Config schema, replication protocol, convergence sweeps, event ingestion, reports.

:func:`config_from_json_dict` alone reads config JSON: every section, ``madelung``
included, into frozen dataclasses at load.  Integers are strict, every other value
is a finite number, unknown keys and repeated list entries are errors naming the key.

The whole pipeline is a pure function of (config, seeds): sampling uses the
fixed PCG64 streams, binning and verification are deterministic, and report
rows are canonically sorted before serialization, so two runs with the same
config produce byte-identical report files.

One loop, ``_verify_positions``, bins and judges: per bin count it reads the
CDF at the edges once, bins a seeds x N position block with one
``searchsorted`` and one ``bincount``, and takes each seed's sup-deviation as
a row maximum (``from_b`` reverses the columns).  Replication, sweeps and
``verify_events`` (a block of one row) all run it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .berry_esseen import (
    REPORT_CSV_COLUMNS,
    BinningScheme,
    BoundConstantVariant,
    BoundReport,
    Origin,
    _bound_reports,
    _literal_rhs,
    _sup_deviations,
    report_from_csv_row,
    report_from_json_dict,
)
from .born_density import SlitGeometry, cdf_at_points, default_support, double_slit_density
from .errors import ConfigError, OutOfInterval, SlopeUndefined
from .madelung import Grid, Potential, PotentialKind
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig
from .sampler import _bin_counts, atomic_open, inverse_cdf_sample, read_events_csv, rng_from_seed

__all__ = [
    "ExperimentConfig",
    "MadelungConfig",
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
    "report_text",
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


# the config file's name of each SlitGeometry field
_GEOMETRY = {"w_nm": "slit_width_w", "d_nm": "slit_separation_d", "L_mm": "screen_distance_L",
             "lambda_pm": "wavelength_lambda", "mu_mm": "center_mu", "I0": "peak_height_I0"}
# the state entries of each Madelung preset and the entries of each potential
# kind, with their defaults
_PRESETS = {
    "plane_wave": {"k_index": 8},
    "free_gaussian": {"center": 0.0, "sigma": 1.0, "k_index": 0},
    "harmonic": {"omega": 1.0, "center": 0.0},
    "double_slit_screen": {},
}
_POTENTIALS = {
    PotentialKind.FREE: {},
    PotentialKind.HARMONIC: {"omega": 1.0, "center": 0.0},
    PotentialKind.TABULATED: {"values": ()},
}


@dataclass(frozen=True)
class MadelungConfig:
    """The ``madelung`` section: a preset with its grid and state entries, a
    potential that replaces the preset's own when given, and the size and
    seed of the trajectory ensemble."""

    preset: str = "free_gaussian"
    grid: Grid = Grid(x_min=-20.0, x_max=20.0, points=512, dt=1e-3)
    state: Mapping = field(default_factory=lambda: dict(_PRESETS["free_gaussian"]))
    potential: Potential | None = None
    count: int = 10000
    seed: int = 1

    def __post_init__(self):
        for name, least in (("count", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"madelung.trajectories.{name} must be >= {least}",
                                  key=f"madelung.trajectories.{name}")
        for name in ("sigma", "omega"):
            if not self.state.get(name, 1.0) > 0:
                raise ConfigError(f"madelung.state.{name} must be > 0",
                                  key=f"madelung.state.{name}")
        values = None if self.potential is None else self.potential.values
        if values is not None and len(values) != self.grid.points:
            raise ConfigError(f"madelung.potential.values must hold {self.grid.points} entries, "
                              f"one per grid point", key="madelung.potential.values")


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
    madelung: MadelungConfig | None = None

    def __post_init__(self):
        # each list is nonempty and holds no entry twice
        for key, values, least in (
            ("n_values", self.n_values, 1), ("seeds", self.seeds, 0),
            ("binning.bin_counts", self.bin_counts, 1),
            ("binning.orientations", self.orientations, None), ("variants", self.variants, None),
        ):
            if not values:
                raise ConfigError(f"{key} must not be empty", key=key)
            seen = set()
            for i, value in enumerate(values):
                if least is not None and value < least:
                    raise ConfigError(f"{key}[{i}] must be >= {least}, got {value}",
                                      key=f"{key}[{i}]")
                if value in seen:
                    raise ConfigError(f"{key}[{i}] repeats an earlier entry", key=f"{key}[{i}]")
                seen.add(value)


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

def _join(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _section(value, key: str, allowed=None) -> Mapping:
    """``value`` as a JSON object, every key of which is in ``allowed`` (any
    key when ``allowed`` is None)."""
    if not isinstance(value, Mapping):
        raise ConfigError(f"{key or 'config root'} must be a JSON object", key=key or "<root>")
    unknown = sorted(set(value) - set(value if allowed is None else allowed))
    if unknown:
        raise ConfigError(f"unknown config key: {_join(key, unknown[0])}",
                          key=_join(key, unknown[0]))
    return value


def _value(value, key: str, default):
    """``value`` parsed to the type of ``default``: a list parsed entry by
    entry like the first entry of ``default`` (like a number when it is
    empty), an enum member named by its value, an integer (an integral float
    such as 10.0 passes, a boolean or a fraction does not), or a finite
    number."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}", key=key)
        like = default[0] if default else 0.0
        return tuple(_value(v, f"{key}[{i}]", like) for i, v in enumerate(value))
    if isinstance(default, Enum):
        try:
            return type(default)(value)
        except ValueError:
            raise ConfigError(f"{key} must be one of {[e.value for e in type(default)]}, "
                              f"got {value!r}", key=key) from None
    if type(default) is int:
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int:
            raise ConfigError(f"{key} must be an integer, got {value!r}", key=key)
        return value
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}", key=key)
    return float(value)


def _entries(value, key: str, defaults: Mapping, others=()) -> dict:
    """The entries of the object ``value`` named in ``defaults``, each parsed
    to the type of its default and taking it when absent.  A key in neither
    ``defaults`` nor ``others`` is an error."""
    section = _section(value, key, [*defaults, *others])
    return {name: _value(section.get(name, default), _join(key, name), default)
            for name, default in defaults.items()}


def _build(make, key: str, *args, **kwargs):
    """``make(*args, **kwargs)``, a ValueError from it raised as a ConfigError
    naming ``key``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}", key=key) from exc


def _interval(value, key: str) -> Interval | None:
    if value is None:
        return None
    ends = _section(value, key, ("a_mm", "b_mm"))
    return _build(Interval, key, *(_value(ends.get(end), _join(key, end), 0.0)
                                   for end in ("a_mm", "b_mm")))


def _madelung(value) -> MadelungConfig:
    section = _section(value, "madelung", ("preset", "grid", "state", "potential", "trajectories"))
    preset = section.get("preset", MadelungConfig.preset)
    if not isinstance(preset, str) or preset not in _PRESETS:
        raise ConfigError(f"madelung.preset must be one of {list(_PRESETS)}, got {preset!r}",
                          key="madelung.preset")
    potential = section.get("potential")
    if potential is not None:
        key = "madelung.potential"
        kind = _value(_section(potential, key).get("kind", PotentialKind.FREE), f"{key}.kind",
                      PotentialKind.FREE)
        entries = _entries(potential, key, _POTENTIALS[kind], others=("kind",))
        potential = _build(getattr(Potential, kind.value), key, **entries)
    return MadelungConfig(
        preset=preset,
        grid=_build(Grid, "madelung.grid", **_entries(
            section.get("grid", {}), "madelung.grid", asdict(MadelungConfig.grid))),
        state=_entries(section.get("state", {}), "madelung.state", _PRESETS[preset]),
        potential=potential,
        **_entries(section.get("trajectories", {}), "madelung.trajectories",
                   {"count": MadelungConfig.count, "seed": MadelungConfig.seed}),
    )


def config_from_json_dict(obj: Mapping) -> ExperimentConfig:
    """The typed config of a parsed JSON object; every entry of every section
    is checked here, and a bad one raises a ConfigError naming it."""
    # the defaults are those of the dataclass fields
    top = _entries(obj, "", {k: getattr(ExperimentConfig, k)
                             for k in ("n_values", "seeds", "variants")},
                   others=("geometry", "interval", "binning", "quadrature", "moment_interval",
                           "constant_override", "madelung"))
    binning = _entries(obj.get("binning", {}), "binning",
                       {k: getattr(ExperimentConfig, k) for k in ("bin_counts", "orientations")})
    geometry = _entries(obj.get("geometry", {}), "geometry",
                        {name: getattr(SlitGeometry, f) for name, f in _GEOMETRY.items()})
    override = obj.get("constant_override")
    if override is not None:
        override = _value(override, "constant_override", 1.0)
    return ExperimentConfig(
        geometry=_build(SlitGeometry, "geometry",
                        **{_GEOMETRY[name]: v for name, v in geometry.items()}),
        interval=_interval(obj.get("interval"), "interval"),
        moment_interval=_interval(obj.get("moment_interval"), "moment_interval"),
        quadrature=_build(QuadratureConfig, "quadrature", **_entries(
            obj.get("quadrature", {}), "quadrature", asdict(DEFAULT_QUADRATURE))),
        constant_override=override,
        madelung=None if obj.get("madelung") is None else _madelung(obj["madelung"]),
        **top, **binning,
    )


def config_to_json_dict(cfg: ExperimentConfig) -> dict:
    out: dict = {
        "geometry": {name: getattr(cfg.geometry, f) for name, f in _GEOMETRY.items()},
        "interval": None if cfg.interval is None else
            {"a_mm": cfg.interval.lo, "b_mm": cfg.interval.hi},
        "binning": {
            "bin_counts": list(cfg.bin_counts),
            "orientations": [o.value for o in cfg.orientations],
        },
        "n_values": list(cfg.n_values),
        "seeds": list(cfg.seeds),
        "quadrature": asdict(cfg.quadrature),
        "moment_interval": None if cfg.moment_interval is None else
            {"a_mm": cfg.moment_interval.lo, "b_mm": cfg.moment_interval.hi},
        "variants": [v.value for v in cfg.variants],
    }
    if cfg.constant_override is not None:
        out["constant_override"] = cfg.constant_override
    m = cfg.madelung
    if m is not None:
        out["madelung"] = {"preset": m.preset, "grid": asdict(m.grid), "state": dict(m.state),
                           "trajectories": {"count": m.count, "seed": m.seed}}
        if m.potential is not None:
            kind = m.potential.kind
            out["madelung"]["potential"] = {"kind": kind.value, **{
                name: getattr(m.potential, name) for name in _POTENTIALS[kind]}}
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
    names = ("lower_const", "upper_const", "with_sqrtN_lower", "with_sqrtN_upper")
    return {"rows": len(rows), **{f"pass_{name}": sum(getattr(r.report.verdicts, name)
                                                      for r in rows) for name in names}}


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
        lower = BoundConstantVariant.LOWER_BOUND_CONSTANT in variants
        upper = BoundConstantVariant.PLUS_16_PERCENT in variants
        return all((v.lower_const or not lower) and (v.upper_const or not upper)
                   for v in (row.report.verdicts for row in self.rows))

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


def _seed_blocks(density, interval, n, seeds, cfg):
    """Yield (seeds, block): each seed's draws as one row of a seeds x n block
    of at most ``_BATCH_SAMPLE_LIMIT`` events (one seed at least), inverted in
    one vectorized pass.  The Newton inversion is elementwise, so batching
    changes no individual result; it only cuts the overhead of small calls."""
    chunk = max(1, _BATCH_SAMPLE_LIMIT // n)
    for start in range(0, len(seeds), chunk):
        block = seeds[start:start + chunk]
        flat = np.concatenate([rng_from_seed(s).random(n) for s in block])
        yield block, np.asarray(inverse_cdf_sample(density, interval, flat, cfg)).reshape(-1, n)


def experiment_density(cfg: ExperimentConfig):
    interval = cfg.interval if cfg.interval is not None else default_support(cfg.geometry)
    density = double_slit_density(cfg.geometry, support=interval)
    center = cfg.geometry.center_mu
    moment_iv = cfg.moment_interval
    if moment_iv is None:
        moment_iv = Interval(interval.lo - center, interval.hi - center)
    return density, interval, center, moment_iv


def _verify_positions(cfg: ExperimentConfig, setup, block: np.ndarray,
                      seeds: Sequence[int | None], bin_counts: Sequence[int]) -> list[ReportRow]:
    """bin -> sup -> verdict for a seeds x N position block, row i drawn with
    ``seeds[i]``, for every (bins, orientation) pair.  ``setup`` is the tuple
    returned by :func:`experiment_density`."""
    density, interval, center, moment_iv = setup
    n = block.shape[1]
    rhs = _literal_rhs(density, interval, moment_iv, center, cfg.quadrature, cfg.constant_override)
    rows = []
    for bins in bin_counts:
        ascending = BinningScheme(bins, Origin.FROM_A, interval)
        theory = cdf_at_points(density, interval, ascending.edges(), cfg.quadrature)
        counts = _bin_counts(block, ascending)
        for origin in cfg.orientations:
            oriented = counts if origin is Origin.FROM_A else counts[:, ::-1]
            sups = _sup_deviations(oriented, n, theory, origin)
            rows += map(ReportRow, seeds,
                        _bound_reports(sups, n, BinningScheme(bins, origin, interval), rhs))
    return rows


def run_paper_replication(cfg: ExperimentConfig) -> ConvergenceReport:
    """sample -> bin -> verify over the configured (N, bins, orientation, seed)
    grid.  A failing verdict is recorded, never raised."""
    setup = experiment_density(cfg)
    density, interval, _, _ = setup
    seeds = sorted(cfg.seeds)
    bin_counts = sorted(cfg.bin_counts)
    rows: list[ReportRow] = []
    for n in sorted(cfg.n_values):
        for block_seeds, block in _seed_blocks(density, interval, n, seeds, cfg.quadrature):
            rows += _verify_positions(cfg, setup, block, block_seeds, bin_counts)
    return ConvergenceReport.from_rows(rows)


def run_convergence_sweep(cfg: ExperimentConfig, n_grid: Sequence[int],
                          seeds: Sequence[int] | None = None) -> SweepResult:
    """Replication rows over a geometric N grid (first bin count only) plus the
    fitted decay exponent of the per-N median sup-deviation of the first
    orientation (least squares in log-log).  ``seeds`` replaces the config's
    seeds and is checked by the same rule."""
    ns = sorted(set(int(n) for n in n_grid))
    if len(ns) < 2:
        raise SlopeUndefined(f"need at least two N values to fit a slope, got {ns}")
    if ns[0] < 1:
        raise ValueError(f"n_grid entries must be >= 1, got {ns[0]}")
    if ns[-1] < 100 * ns[0]:
        raise ValueError("n_grid must span at least two decades")
    if seeds is not None:
        cfg = replace(cfg, seeds=tuple(seeds))
    seed_list = sorted(cfg.seeds)
    setup = experiment_density(cfg)
    density, interval, _, _ = setup
    lead_orientation = cfg.orientations[0]
    rows: list[ReportRow] = []
    medians: list[tuple[int, float]] = []
    for n in ns:
        n_rows: list[ReportRow] = []
        for block_seeds, block in _seed_blocks(density, interval, n, seed_list, cfg.quadrature):
            n_rows += _verify_positions(cfg, setup, block, block_seeds, cfg.bin_counts[:1])
        sups = [r.report.sup_deviation for r in n_rows
                if r.report.scheme.origin is lead_orientation]
        medians.append((n, float(np.median(sups))))
        rows += n_rows
    slope = float(np.polyfit(
        np.log([n for n, _ in medians]), np.log([m for _, m in medians]), 1
    )[0])
    return SweepResult(ConvergenceReport.from_rows(rows), slope, tuple(medians))


def verify_events(cfg: ExperimentConfig, positions: Sequence[float]) -> ConvergenceReport:
    """Run the verification stage alone on externally supplied event positions:
    a block of one row, whose seed is None."""
    block = np.asarray(positions, dtype=float).reshape(1, -1)
    rows = _verify_positions(cfg, experiment_density(cfg), block, [None],
                             sorted(cfg.bin_counts))
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

def _json_row_template(row: ReportRow) -> str:
    """``row`` as json.dumps(indent=2) lays it out in "rows", with ``%s`` in
    place of each value: the seed, then the texts of BoundReport.csv_row."""
    def holes(obj):  # a string value keeps its quotes
        if isinstance(obj, dict):
            return {key: holes(value) for key, value in obj.items()}
        return "\1" if isinstance(obj, str) else "\0"
    text = json.dumps(holes({"seed": row.seed, **row.report.to_json_dict()}), indent=2)
    return ("    " + text.replace("\n", "\n    ")).replace('"\\u0000"', "%s").replace(
        "\\u0001", "%s")


def report_text(report: ConvergenceReport, fmt: str) -> str:
    """The text :func:`emit_report` writes.  ``json``: the bytes of
    ``json.dumps(report.to_json_dict(), indent=2)`` and a newline, filled in
    row by row from a template, since ``indent`` runs json's pure-Python
    encoder.  ``csv``: the bytes of a ``csv.writer`` loop (no field needs
    quotes), the header and then one ``seed,csv_row`` line per row."""
    if fmt == "csv":
        lines = [["seed", *REPORT_CSV_COLUMNS]]
        lines += [["" if r.seed is None else str(r.seed), *r.report.csv_row()]
                  for r in report.rows]
        return "".join([",".join(line) + "\n" for line in lines])
    if fmt != "json":
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    template = _json_row_template(report.rows[0]) if report.rows else ""
    rows = ",\n".join([template % ("null" if r.seed is None else r.seed, *r.report.csv_row())
                       for r in report.rows])
    # json's spelling of the non-finite floats that repr writes; after ": "
    # only numbers, true, false and null stand unquoted
    rows = rows.replace(": nan", ": NaN").replace(": inf", ": Infinity").replace(
        ": -inf", ": -Infinity")
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    summary = json.dumps(report.summary, indent=2).replace("\n", "\n  ")
    return f'{{\n  "rows": {rows},\n  "summary": {summary}\n}}\n'


def emit_report(report: ConvergenceReport, fmt: str, path) -> None:
    """Write :func:`report_text` (``json`` or ``csv``) to ``path`` atomically."""
    text = report_text(report, fmt)
    with atomic_open(path) as fh:
        fh.write(text)


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
