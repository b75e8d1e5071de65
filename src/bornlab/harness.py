"""Config schema, replication protocol, convergence sweeps, event ingestion, reports.

:func:`config_from_json_dict` alone reads config JSON: every section, ``madelung``
included, into frozen dataclasses at load.  Integers are strict, every other value
is a finite number, unknown keys and repeated list entries are errors naming the key.

The whole pipeline is a pure function of (config, seeds): sampling uses the
fixed PCG64 streams, binning and verification are deterministic, and report
rows are put in canonical order (N, bin count, origin, seed) before
serialization, so two runs with the same config produce byte-identical report
files.  One table, ``_FIELDS``, gives each row field's CSV column, JSON key path
and type.  A report is its columns: the seeds, then one list of Python scalars
per field, and a summary counted from the verdict columns.  ``ReportRow``, one
flat named tuple of the seed and then the fields, is its row view, built on
first use; every report writer and the strict reader :func:`load_report` follow
the table.

One loop, ``_verify_blocks``, bins and judges every run with the block API: per
run of seeds it adds each segment's counts to running seeds x bins counts
(``bin_counts``), takes each seed's sup as a row maximum (``sup_deviations``;
``from_b`` reverses the columns) and reports the block's columns
(``bound_reports``) against right-hand sides and edge CDFs read once per call
(``literal_rhs``) and once per bin count.  It keeps each judged block with its
keys and puts the report in canonical order by one stable sort of the blocks
by (N, bin count, origin): its runs' seeds ascend, so blocks of equal keys stay
in seed order.  Replication feeds it each seed's one sampled stream, segment by
segment up to the largest N, so the row at a smaller N is a prefix; a sweep is
a replication at its N grid and first bin count, whose per-N medians are read
from the report's rows; ``verify_events`` feeds it one segment of one row,
whose seed is None.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .berry_esseen import (
    BinningScheme,
    BoundConstantVariant,
    Origin,
    bound_reports,
    literal_rhs,
    sup_deviations,
)
from .born_density import (SlitGeometry, _null_count, _read_csv, cdf_at_points, default_support,
                           double_slit_density)
from .errors import ConfigError, InvalidInterval, OutOfInterval, ParseError, SlopeUndefined
from .madelung import (Grid, Potential, PotentialKind, gaussian_packet, harmonic_ground_state,
                       plane_wave, screen_state_from_density)
from .quadrature import DEFAULT_QUADRATURE, Interval, QuadratureConfig
from .sampler import atomic_open, bin_counts, inverse_cdf_sample, read_events_csv, rng_from_seed

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
    "load_config",
    "experiment_density",
    "madelung_setup",
    "run_paper_replication",
    "run_convergence_sweep",
    "verify_events",
    "ingest_events",
    "REPORT_CSV_COLUMNS",
    "report_text",
    "sweep_text",
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


# the most nulls (both sides) a detection window may hold within its half-width
# about mu_mm, each a quadrature segment and a CDF-table knot: the default window
# holds 56, and `bound` takes 0.4 s at 1,700 (d_nm 1e4) and 1 s at 9,800 (5.8e4)
_MAX_NULLS = 10_000
# the config file's name of each SlitGeometry field
_GEOMETRY = {"w_nm": "slit_width_w", "d_nm": "slit_separation_d", "L_mm": "screen_distance_L",
             "lambda_pm": "wavelength_lambda", "mu_mm": "center_mu", "I0": "peak_height_I0"}
# each Madelung preset: its state entries with their defaults, its initial
# field from (grid, state, config) and the potential it sets from its state
_PRESETS = {
    "plane_wave": ({"k_index": 8}, lambda grid, state, _: plane_wave(grid, **state),
                   lambda _: Potential.free()),
    "free_gaussian": ({"center": 0.0, "sigma": 1.0, "k_index": 0},
                      lambda grid, state, _: gaussian_packet(grid, **state),
                      lambda _: Potential.free()),
    "harmonic": ({"omega": 1.0, "center": 0.0},
                 lambda grid, state, _: harmonic_ground_state(grid, **state),
                 lambda state: Potential.harmonic(**state)),
    "double_slit_screen": ({}, lambda grid, _, cfg: screen_state_from_density(
        grid, experiment_density(cfg)[0]), lambda _: Potential.free()),
}
# the entries of each potential kind, with their defaults
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
    state: Mapping = field(default_factory=lambda: dict(_PRESETS["free_gaussian"][0]))
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
        for key, least in (("n_values", 1), ("seeds", 0), ("binning.bin_counts", 1),
                           ("binning.orientations", None), ("variants", None)):
            _check_entries(key, getattr(self, key.split(".")[-1]), least)
        override = self.constant_override
        if override is not None and not 0 < override < math.inf:  # NaN fails too
            raise ConfigError(f"constant_override must be a finite number > 0, got {override!r}",
                              key="constant_override")
        g, window, m = self.geometry, self.interval, self.moment_interval
        mu = g.center_mu
        _check_reach(g, "geometry.L_mm", (mu,))
        for bad, key, what in (  # what the density forms from the geometry alone
                (g.screen_distance_L ** 2 < sys.float_info.min, "L_mm", "L_mm**2 underflows"),
                (not g.lambda_mm > 0 or math.pi * g.w_mm / g.lambda_mm == math.inf, "lambda_pm",
                 "pi * w / lambda overflows"),
                (g.slit_separation_d / g.slit_width_w == math.inf, "w_nm", "d / w overflows"),
                (g.d_mm * g.d_mm == math.inf, "d_nm", "d_mm**2 overflows")):
            if bad:
                raise ConfigError(f"geometry.{key}: {what}", key=f"geometry.{key}")
        if window is not None:
            _check_reach(g, "interval", (window.lo, window.hi))
        if m is not None:  # centered: the moments are taken over [lo + mu, hi + mu]
            _check_reach(g, "moment_interval", (m.lo + mu, m.hi + mu))
            if not m.lo + mu < m.hi + mu:
                raise ConfigError(f"moment_interval: both ends shifted by mu_mm round to "
                                  f"{m.lo + mu}", key="moment_interval")
        if window is None:
            try:
                window = default_support(g)
            except ValueError as exc:  # no envelope null, or mu_mm too large for its width
                key = "geometry.mu_mm" if isinstance(exc, InvalidInterval) else "geometry.lambda_pm"
                raise ConfigError(f"{key}: {exc}", key=key) from exc
            _check_reach(g, "geometry.L_mm", (window.lo, window.hi))
        nulls = _null_count(g, max(abs(window.lo - mu), abs(window.hi - mu)))
        if not nulls <= _MAX_NULLS:
            raise ConfigError(f"geometry.d_nm: the detection window holds about {nulls:.4g} "
                              f"nulls, more than {_MAX_NULLS:,}", key="geometry.d_nm")
        # density values are at most I0, and a moment integrand |t|**k (k <= 3)
        # times them at most I0 * max(1, |t|)**3 over the centered moment window.
        # A panel's 31-node sum is at most 2 times its largest value, and an
        # integral (a CDF table's total, a moment) at most the window's width
        # times it.  A factor that overflows at I0 = 1 is the windows' own, and
        # their integrals fail on their own
        if m is None:
            m = Interval(window.lo - mu, window.hi - mu)
        reach = max(1.0, -m.lo, m.hi)
        factor = max(2.0, window.hi - window.lo,
                     reach * reach * reach * max(2.0, m.hi - m.lo))
        if factor < math.inf and not g.peak_height_I0 * factor < math.inf:
            raise ConfigError(f"geometry.I0: the quadrature sums, up to I0 * {factor:.4g}, "
                              f"overflow", key="geometry.I0")


def _check_reach(g: SlitGeometry, key: str, ends: Sequence[float]) -> None:
    """Raise a ConfigError naming ``key`` unless the double-slit density's
    ``sqrt(L**2 + (t - mu)**2)`` has a finite argument at the window's ``ends``."""
    for t in ends:
        delta = t - g.center_mu
        if not math.isfinite(g.screen_distance_L * g.screen_distance_L + delta * delta):
            raise ConfigError(f"{key}: L_mm**2 + (t - mu_mm)**2 overflows at t = {t}", key=key)


def _check_entries(key: str, values: Sequence, least) -> None:
    """Raise a ConfigError naming ``key`` or ``key[i]`` unless ``values`` is
    nonempty, holds no entry twice and none below ``least`` (when not None)."""
    if not values:
        raise ConfigError(f"{key} must not be empty", key=key)
    seen = set()
    for i, value in enumerate(values):
        if least is not None and value < least:
            raise ConfigError(f"{key} entries must be >= {least}, got {key}[{i}] = {value}",
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
    """``make(*args, **kwargs)``, a ValueError from it raised as a ConfigError.
    A message that starts with the name of one of ``kwargs`` names that entry,
    ``key.name``, with every SlitGeometry field in it by its config name
    (``_GEOMETRY``); any other names ``key``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        word, _, rest = str(exc).partition(" ")
        if word not in kwargs:
            raise ConfigError(f"{key}: {exc}", key=key) from exc
        for name, f in _GEOMETRY.items():  # each SlitGeometry field by its config name
            word, rest = word.replace(f, name), rest.replace(f, _join(key, name))
        entry = _join(key, word)
        raise ConfigError(f"{entry} {rest}", key=entry) from exc


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
        state=_entries(section.get("state", {}), "madelung.state", _PRESETS[preset][0]),
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


def _unique_keys(pairs: list) -> dict:
    """The ``object_pairs_hook`` of both JSON readers.  Plain ``json.load``
    keeps the last of a repeated key; this object also holds the first
    repeated key under ``None``, a key no JSON text can give."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        obj[None] = next(key for i, (key, _) in enumerate(pairs) if key in dict(pairs[:i]))
    return obj


def _repeated_keys(node, path: str = ""):
    """Yield the path (``binning.bin_counts``, ``rows[0].scheme``) of each
    key given twice in a value read with :func:`_unique_keys`."""
    if isinstance(node, dict):
        if None in node:
            yield _join(path, node[None])
        for key, value in node.items():
            yield from _repeated_keys(value, _join(path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _repeated_keys(value, f"{path}[{i}]")


def _read_json(path, invalid, repeated):
    """The JSON value in ``path``, read with :func:`_unique_keys`.  Invalid JSON
    raises ``invalid(message, line)``, and a key given twice raises
    ``repeated(key)`` with the key's path."""
    try:
        with open(path) as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise invalid(f"{path}: invalid JSON ({exc})", exc.lineno) from exc
    key = next(_repeated_keys(obj), None)
    if key is not None:
        raise repeated(key)
    return obj


def load_config(path) -> ExperimentConfig:
    return config_from_json_dict(_read_json(
        path, lambda message, _: ConfigError(message),
        lambda key: ConfigError(f"{path}: repeated config key: {key}", key=key)))


# ---------------------------------------------------------------------------
# reports

def _columns(rows: Sequence[ReportRow]) -> tuple[list, list[list]]:
    """The seed column and the field columns of ``rows``."""
    seeds, *columns = map(list, zip(*rows)) if rows else ([] for _ in ReportRow._fields)
    return seeds, columns


@dataclass(frozen=True)
class ConvergenceReport:
    """A report as its columns: ``seeds``, then one list per ``_FIELDS`` entry
    in ``columns`` (row i is entry i of each), every value a Python scalar of
    its field's type, so that ``==`` compares values; and ``summary``, the row
    count and each verdict column's passes."""

    seeds: list
    columns: tuple[list, ...]
    summary: dict

    @classmethod
    def from_columns(cls, seeds: list, columns: Sequence[list]) -> "ConvergenceReport":
        """The report of these columns, with its summary counted from them."""
        return cls(seeds, tuple(columns), {
            "rows": len(seeds), **{f"pass_{name.removeprefix('verdict_')}": sum(column)
                                   for (name, _, kind), column in zip(_FIELDS, columns)
                                   if kind is bool}})

    @cached_property
    def rows(self) -> tuple[ReportRow, ...]:
        """The report's rows, built from its columns on first use."""
        return tuple(map(ReportRow._make, zip(self.seeds, *self.columns)))

    @cached_property
    def cells(self) -> tuple[list[str], ...]:
        """The CSV text of every cell, one list per column: the seed's (empty
        for None), then each field's in ``_FIELDS`` order.  Spelled once per
        report; both formats of :func:`report_text` join these lists."""
        return (_spelled(self.seeds, lambda seed: "" if seed is None else str(seed)),
                *(_COLUMN_CELLS[kind](column)
                  for (_, _, kind), column in zip(_FIELDS, self.columns)))

    def all_literal_pass(self, variants: Sequence[BoundConstantVariant] = _ALL_VARIANTS) -> bool:
        """True when every row passes the literal (N-free) form for the
        requested constant variants: when their summary pass counts are the
        row count."""
        passes = {BoundConstantVariant.LOWER_BOUND_CONSTANT: "pass_lower_const",
                  BoundConstantVariant.PLUS_16_PERCENT: "pass_upper_const"}
        return all(self.summary[passes[v]] == self.summary["rows"] for v in variants)


@dataclass(frozen=True)
class SweepResult:
    report: ConvergenceReport
    fitted_exponent: float
    medians: tuple[tuple[int, float], ...]


# ---------------------------------------------------------------------------
# pipelines

_BATCH_SAMPLE_LIMIT = 1_000_000  # events in a chunk of seeds at the largest N


def _seed_blocks(density, interval, ns, seeds, cfg):
    """Yield one run (seeds, segments) per chunk of at most
    ``_BATCH_SAMPLE_LIMIT // max(ns)`` seeds (one at least).  Each seed's PCG64
    stream is built once; per N of the ascending ``ns``, ``segments`` yields the
    seeds x (N - previous N) block of its next draws, each seed's written into
    its own row of one array, inverted by one call.  A
    row's first N draws are ``sample_positions(..., N, seed)`` bit for bit: a
    stream drawn in parts gives the doubles drawn at once, and the inversion is
    elementwise.  Its temporaries hold one ``_CdfTable._INVERT_BLOCK``, so the
    limit bounds a segment's u, sort order and positions: about 32 bytes per draw."""
    def segments(streams):
        for done, n in zip((0, *ns), ns):
            u = np.empty((len(streams), n - done))
            for r, row in zip(streams, u):
                r.random(out=row)
            yield inverse_cdf_sample(density, interval, u, cfg)

    chunk = max(1, _BATCH_SAMPLE_LIMIT // ns[-1])
    for start in range(0, len(seeds), chunk):
        block = seeds[start:start + chunk]
        yield block, segments([rng_from_seed(s) for s in block])


def experiment_density(cfg: ExperimentConfig):
    interval = cfg.interval if cfg.interval is not None else default_support(cfg.geometry)
    density = double_slit_density(cfg.geometry, support=interval)
    center = cfg.geometry.center_mu
    moment_iv = cfg.moment_interval
    if moment_iv is None:
        moment_iv = Interval(interval.lo - center, interval.hi - center)
    return density, interval, center, moment_iv


def madelung_setup(cfg: ExperimentConfig):
    """The Madelung section (the defaults when the config has none), its
    preset's initial field, and its potential (its own, else the preset's)."""
    m = cfg.madelung if cfg.madelung is not None else MadelungConfig()
    _, make_field, preset_potential = _PRESETS[m.preset]
    potential = preset_potential(m.state) if m.potential is None else m.potential
    return m, make_field(m.grid, m.state, cfg), potential


def _verify_blocks(cfg: ExperimentConfig, setup, runs) -> ConvergenceReport:
    """The one bin -> sup -> verdict loop over every (seeds, segments) run of
    ``runs``: each segment is a seeds x width position block whose row i
    continues the events of ``seeds[i]``.  Per bin count a running count matrix
    adds each segment's counts (integers, so exactly the prefix's counts), and
    at the end of each segment every row is judged at N = its events so far
    under every configured (bins, orientation) pair.  The right-hand sides are
    computed once and the CDF at the edges once per bin count.  Each judged
    block is kept as its keys (N, bin count, origin), its seeds and the columns
    of ``bound_reports``; one stable sort of the blocks by (N, bin count, origin
    value) leaves blocks of equal keys in run order.  The runs' seeds must
    ascend, within each run and from run to run (``run_paper_replication``
    passes chunks of the sorted seeds, ``verify_events`` the one run
    ``[None]``), so the rows come out in canonical order, by N, bin count,
    origin and seed.  ``setup`` is the tuple returned by
    :func:`experiment_density`."""
    density, interval, center, moment_iv = setup
    rhs = literal_rhs(density, moment_iv, center, cfg.quadrature, cfg.constant_override)
    ascending = [BinningScheme(bins, interval) for bins in cfg.bin_counts]
    theories = [cdf_at_points(density, interval, s.edges(), cfg.quadrature) for s in ascending]
    blocks = []
    for run, segments in runs:
        totals = [np.zeros((len(run), s.bin_count), dtype=np.intp) for s in ascending]
        n = 0
        for segment in segments:
            n += segment.shape[1]
            for scheme, theory, counts in zip(ascending, theories, totals):
                counts += bin_counts(segment, scheme)
                for origin in cfg.orientations:
                    oriented = counts if origin is Origin.FROM_A else counts[:, ::-1]
                    sups = sup_deviations(oriented, n, theory, origin)
                    blocks.append((n, scheme.bin_count, origin, run,
                                   bound_reports(sups, n, rhs)))
    blocks.sort(key=lambda block: (block[0], block[1], _ORIGIN_VALUE(block[2])))
    ns, bins, origins, block_seeds, bound = zip(*blocks)
    sizes = list(map(len, block_seeds))
    seeds = list(chain.from_iterable(block_seeds))
    n_column, bins_column, origin_column = (
        list(chain.from_iterable(map(repeat, keys, sizes))) for keys in (ns, bins, origins))
    # bound_reports gives the columns of the fields between N and bin_count
    columns = [n_column, *(np.concatenate(column).tolist() for column in zip(*bound)),
               bins_column, origin_column, [interval.lo] * len(seeds), [interval.hi] * len(seeds)]
    return ConvergenceReport.from_columns(seeds, columns)


def run_paper_replication(cfg: ExperimentConfig) -> ConvergenceReport:
    """sample -> bin -> verify over the configured (N, bins, orientation, seed)
    grid.  A failing verdict is recorded, never raised.  Each seed's stream is
    drawn, inverted and binned once, and its row at N is the stream's first N."""
    setup = experiment_density(cfg)
    density, interval, _, _ = setup
    return _verify_blocks(cfg, setup, _seed_blocks(
        density, interval, sorted(cfg.n_values), sorted(cfg.seeds), cfg.quadrature))


def _median(xs: list[float]) -> float:
    """``np.median``'s value (NaN if any entry is NaN) without its numpy.ma import."""
    if any(math.isnan(x) for x in xs):
        return math.nan
    s, h = sorted(xs), len(xs) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def run_convergence_sweep(cfg: ExperimentConfig, n_grid: Sequence[int],
                          seeds: Sequence[int] | None = None) -> SweepResult:
    """Replication rows over a geometric N grid (first bin count only) plus the
    fitted decay exponent of the per-N median sup-deviation of the first
    orientation (least squares in log-log).  ``seeds`` replaces the config's
    seeds and is checked by the same rule; ``n_grid`` follows the rule of
    ``n_values``."""
    ns = _value(list(n_grid), "n_grid", (1,))
    _check_entries("n_grid", ns, 1)
    ns = sorted(ns)
    if len(ns) < 2:
        raise SlopeUndefined(f"need at least two N values to fit a slope, got {ns}")
    if ns[-1] < 100 * ns[0]:
        raise ValueError("n_grid must span at least two decades")
    if seeds is not None:
        cfg = replace(cfg, seeds=tuple(seeds))
    report = run_paper_replication(replace(cfg, n_values=tuple(ns), bin_counts=cfg.bin_counts[:1]))
    lead = [r for r in report.rows if r.origin is cfg.orientations[0]]
    medians = tuple((n, _median([r.sup_deviation for r in lead if r.N == n])) for n in ns)
    slope = float(np.polyfit(np.log(ns), np.log([m for _, m in medians]), 1)[0])
    return SweepResult(report, slope, medians)


def verify_events(cfg: ExperimentConfig, positions: Sequence[float]) -> ConvergenceReport:
    """Run the verification stage alone on externally supplied event positions:
    a run of one row and one segment, whose seed is None."""
    block = np.asarray(positions, dtype=float).reshape(1, -1)
    return _verify_blocks(cfg, experiment_density(cfg), [([None], [block])])


def ingest_events(path, interval: Interval) -> np.ndarray:
    """Load an ``index,t_mm`` CSV as positions in row order and validate every
    position against the interval; NaN and +-inf are named as not finite."""
    positions = read_events_csv(path)
    bad = np.flatnonzero(~interval.contains(positions))
    if bad.size:  # only a rejected file pays for telling NaN and +-inf apart
        finite = np.isfinite(positions[bad])
        parts = [f"{rows.size} event(s) {what} (first at data row {rows[0] + 1})"
                 for rows, what in ((bad[~finite], "not a finite number"),
                                    (bad[finite], f"outside [{interval.lo}, {interval.hi}]"))
                 if rows.size]
        raise OutOfInterval(f"{path}: " + "; ".join(parts), indices=bad.tolist())
    return positions


# ---------------------------------------------------------------------------
# report format

# the fields of a report row in column order, each with its CSV column, its key
# path in the row's JSON object and its type; a ReportRow is its seed, then these
_FIELDS = (
    ("N", "N", int),
    ("sup_deviation", "sup_deviation", float),
    ("rhs_lower_const", "rhs_lower_const", float),
    ("rhs_upper_const", "rhs_upper_const", float),
    ("rhs_with_sqrtN_lower", "rhs_with_sqrtN_lower", float),
    ("rhs_with_sqrtN_upper", "rhs_with_sqrtN_upper", float),
    ("verdict_lower_const", "verdicts.lower_const", bool),
    ("verdict_upper_const", "verdicts.upper_const", bool),
    ("verdict_with_sqrtN_lower", "verdicts.with_sqrtN_lower", bool),
    ("verdict_with_sqrtN_upper", "verdicts.with_sqrtN_upper", bool),
    ("bin_count", "scheme.bin_count", int),
    ("origin", "scheme.origin", Origin),
    ("a_mm", "scheme.interval.a_mm", float),
    ("b_mm", "scheme.interval.b_mm", float),
)
REPORT_CSV_COLUMNS = [column for column, _, _ in _FIELDS]
# one verification keyed by (N, bins, origin, seed); seed is None for ingested events
ReportRow = namedtuple("ReportRow", ["seed", *REPORT_CSV_COLUMNS])
_ORIGINS = {origin.value: origin for origin in Origin}
# an origin's value, read from the member itself (Enum.value runs a Python getter)
_ORIGIN_VALUE = attrgetter("_value_")
# the JSON text of the values that a CSV cell spells as Python does: a seed of
# None is empty, and repr writes the non-finite floats nan, inf and -inf
_JSON_SPELLING = {"": "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _spelled(column: Sequence, spell) -> list[str]:
    """``spell`` of each value of a column.  A column of nonzero values of one
    type spells each distinct value once, looked up through C-level maps; any
    other column is spelled value by value, since -0.0 == 0.0 and
    1 == 1.0 == True share a key."""
    distinct = set(column)
    if 0 in distinct or len(set(map(type, column))) > 1:
        return list(map(spell, column))
    if len(distinct) == 1:  # equal values of one type, none zero, spell alike
        return [spell(*distinct)] * len(column)
    return list(map(dict(zip(distinct, map(spell, distinct))).__getitem__, column))


# the cells of a column of each field type, its CSV text
_COLUMN_CELLS = {
    int: lambda column: _spelled(column, str),
    float: lambda column: _spelled(column, repr),
    bool: lambda column: ["true" if v else "false" for v in column],
    Origin: lambda column: list(map(_ORIGIN_VALUE, column)),
}
# the columns, seed first, whose JSON text may differ from their CSV text
_JSON_SPELLED = [0, *(i for i, (_, _, kind) in enumerate(_FIELDS, 1) if kind is float)]


def _text_value(text: str):
    """The JSON value of a CSV cell: its JSON text, or the cell as a string."""
    try:
        return json.loads(_JSON_SPELLING.get(text, text))
    except ValueError:
        return text


def _json_row(values: Sequence) -> dict:
    """A row's JSON object from its seed and field values in column order."""
    obj = {"seed": values[0]}
    for (_, path, _), value in zip(_FIELDS, values[1:]):
        *parents, key = path.split(".")
        node = obj
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = value
    return obj


def _json_leaves(obj: Mapping, prefix: str = ""):
    """(key path, value) of each value in a JSON object that is no object."""
    for key, value in obj.items():
        if isinstance(value, Mapping):
            yield from _json_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _json_row_pieces() -> list[str]:
    """A row as json.dumps(indent=2) lays it out in "rows", cut where each
    value's text goes: the text before the seed, then the text after each
    value; an origin keeps its quotes."""
    holes = ["\0", *("\1" if kind is Origin else "\0" for _, _, kind in _FIELDS)]
    text = "    " + json.dumps(_json_row(holes), indent=2).replace("\n", "\n    ")
    return re.split(r'"\\u0000"|\\u0001', text)


_JSON_ROW_PIECES = _json_row_pieces()


def _report_row(values: list, names: Sequence[str]) -> ReportRow:
    """The row of a seed (an integer or null) and field values in column order,
    each a JSON value of its field's type; a ValueError names it in ``names``.
    Its binning scheme is built for the checks: at least one bin, finite
    ends and ``a_mm < b_mm``, a failure naming the bin count or both ends."""
    for i, (kind, value) in enumerate(zip((int, *(kind for _, _, kind in _FIELDS)), values)):
        if kind is Origin and type(value) is str and value in _ORIGINS:
            values[i] = _ORIGINS[value]
        elif type(value) is not kind and (i or value is not None):
            raise ValueError(f"{names[i]}: expected {kind.__name__}, got {value!r}")
    row = ReportRow(*values)
    try:
        BinningScheme(row.bin_count, Interval(row.a_mm, row.b_mm))
    except ValueError as exc:
        key = dict(zip(ReportRow._fields, names))
        at = ("a_mm", "b_mm") if isinstance(exc, InvalidInterval) else ("bin_count",)
        raise ValueError(f"{', '.join(key[field] for field in at)}: {exc}") from None
    return row


def report_text(report: ConvergenceReport, fmt: str) -> str:
    """The text :func:`emit_report` writes, joined from the report's cells
    (:attr:`ConvergenceReport.cells`).  ``json``: rows filled in from the
    template, laid out as ``json.dumps(..., indent=2)`` lays out the object the
    text holds, and a newline (``indent`` runs json's Python encoder).
    ``csv``: the bytes of a ``csv.writer`` loop (no cell needs quotes)."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")
    cells = list(report.cells)
    if fmt == "csv":
        return "\n".join([",".join(["seed", *REPORT_CSV_COLUMNS]),
                          *map(",".join, zip(*cells))]) + "\n"
    for i in _JSON_SPELLED:
        if not _JSON_SPELLING.keys().isdisjoint(cells[i]):
            cells[i] = [_JSON_SPELLING.get(text, text) for text in cells[i]]
    # one join over the rows: the template's pieces between the cells, and
    # before each row after the first the separator ",\n", each column and
    # piece written into its stride of one list
    head, *tails = _JSON_ROW_PIECES
    width = 2 * len(cells) + 1
    pieces = [",\n" + head] * (width * len(cells[0]))
    if pieces:
        pieces[0] = head
    for i, (column, tail) in enumerate(zip(cells, tails)):
        pieces[2 * i + 1::width] = column
        pieces[2 * i + 2::width] = [tail] * len(column)
    rows = "".join(pieces)
    rows = f"[\n{rows}\n  ]" if rows else "[]"
    summary = json.dumps(report.summary, indent=2).replace("\n", "\n  ")
    return f'{{\n  "rows": {rows},\n  "summary": {summary}\n}}\n'


def sweep_text(result: SweepResult) -> str:
    """The ``sweep`` JSON: one object of the fitted exponent, the per-N medians
    and then the members of :func:`report_text`'s object."""
    head = json.dumps({"fitted_exponent": result.fitted_exponent, "medians": [
        {"N": n, "median_sup_deviation": m} for n, m in result.medians]}, indent=2)
    return f"{head[:-2]},\n{report_text(result.report, 'json')[2:]}"  # cut "\n}" and "{\n"


def emit_report(report: ConvergenceReport, fmt: str, path) -> None:
    """Write :func:`report_text` (``json`` or ``csv``) to ``path`` atomically."""
    text = report_text(report, fmt)
    with atomic_open(path) as fh:
        fh.write(text)


def load_report(path, fmt: str | None = None) -> ConvergenceReport:
    """Parse a report emitted by :func:`emit_report` (format inferred from the
    extension when not given), strictly: a ParseError names the row (JSON
    ``rows[i]``) or line (CSV, also in ``line``) and the key or column."""
    if fmt is None:
        fmt = "csv" if str(path).endswith(".csv") else "json"
    if fmt == "csv":
        names = ["seed", *REPORT_CSV_COLUMNS]
        rows = _read_csv(path, names, lambda cells: _report_row(
            [_text_value(cell) for cell in cells], names), least=0)
        return ConvergenceReport.from_columns(*_columns(rows))
    if fmt != "json":
        raise ValueError(f"format must be 'json' or 'csv', got {fmt!r}")

    def repeated(path_in_file):
        row, _, key = path_in_file.rpartition("].")  # rows[i] and the path inside it
        return ParseError(f"{path}: {row + ']: ' if row else ''}repeated key: {key}")

    obj = _read_json(path, lambda message, line: ParseError(message, line=line), repeated)
    if not isinstance(obj, dict) or not isinstance(obj.get("rows"), list):
        raise ParseError(f"{path}: expected an object holding a list of rows")
    keys, rows = ["seed", *(key for _, key, _ in _FIELDS)], []
    for i, row in enumerate(obj["rows"]):
        leaves = dict(_json_leaves(row)) if isinstance(row, dict) else {}
        odd = [key for key in keys if key not in leaves] + sorted(set(leaves) - set(keys))
        try:
            if odd:
                raise ValueError(f"{odd[0]}: {'unknown key' if odd[0] in leaves else 'missing'}")
            rows.append(_report_row([leaves[key] for key in keys], keys))
        except ValueError as exc:
            raise ParseError(f"{path}: rows[{i}]: {exc}") from exc
    report = ConvergenceReport.from_columns(*_columns(rows))
    if obj.get("summary") != report.summary:
        raise ParseError(f"{path}: summary does not count the rows: {obj.get('summary')!r}")
    return replace(report, summary=obj["summary"])
