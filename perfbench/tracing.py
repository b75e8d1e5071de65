"""Span tracing of bornlab's layers from outside the package.

``install`` replaces every public function of each layer module (its
``__all__``) with a timing wrapper, in the defining module and in every
bornlab module that imported the name, so calls between layers and within
a layer are both seen. Class methods are left alone (``Interval.contains``
runs once per event), except ``madelung.Evolution.step``, which a metric
needs. Density evaluations are spans of ``born_density`` as well: every
``DensityModel`` gets a counting wrapper around its ``evaluate``, and only
the outermost of nested evaluations (a recentered view calling the
original) is recorded.

A span is ``[name, start_ns, end_ns, parent_index]``; a trace is the list of
spans of one command, its counters and its run id, which all its spans
share. Traces are kept in memory and written once, after the last command.

``PER_LAYER`` lists the per-layer metrics with the end-to-end metric, and
the workloads, that each one should move.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("quadrature", "born_density", "berry_esseen", "sampler", "madelung",
          "harness", "cli")
INVERSION = "sampler.inverse_cdf_sample"
EVALUATE = "born_density.evaluate"

# name -> (unit, better, what it should move); the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "sampler.inverse_cdf_sample_s": ("s", "lower",
        "wall_s, events_per_s on sweep and replicate"),
    "sampler.events_inverted": ("count", "lower",
        "(work count) sweep, replicate, trajectories"),
    "sampler.evals_per_event": ("points/event", "lower",
        "wall_s on sweep and replicate (waste ratio)"),
    "sampler.table_build_s": ("s", "lower",
        "setup_s on the Born workloads"),
    "quadrature.self_s": ("s", "lower",
        "setup_s on Born workloads; wall_s on ingest"),
    "quadrature.calls": ("count", "lower",
        "setup_s on Born workloads; wall_s on ingest"),
    "quadrature.integrand_points": ("count", "lower",
        "setup_s on Born workloads; wall_s on ingest"),
    "born_density.cdf_at_points_s": ("s", "lower",
        "setup_s on Born workloads; wall_s on ingest"),
    "berry_esseen.bound_rhs_s": ("s", "lower",
        "setup_s on the Born workloads"),
    "born_density.self_s": ("s", "lower",
        "wall_s on sweep and replicate"),
    "born_density.eval_points": ("count", "lower",
        "wall_s on sweep and replicate"),
    "sampler.bin_positions_s": ("s", "lower",
        "wall_s on replicate"),
    "sampler.bin_calls": ("count", "lower",
        "wall_s on replicate"),
    "berry_esseen.verify_inequality_s": ("s", "lower",
        "wall_s on replicate"),
    "berry_esseen.verify_calls": ("count", "lower",
        "wall_s on replicate"),
    "berry_esseen.sup_deviation_s": ("s", "lower",
        "wall_s on replicate"),
    "harness.self_s": ("s", "lower",
        "wall_s on replicate"),
    "harness.emit_report_s": ("s", "lower",
        "wall_s on replicate"),
    "harness.report_rows": ("count", "lower",
        "wall_s on replicate"),
    "harness.report_bytes": ("bytes", "lower",
        "wall_s on replicate"),
    "sampler.read_events_csv_s": ("s", "lower",
        "wall_s, peak_rss_mb on ingest"),
    "sampler.csv_rows_read": ("count", "lower",
        "wall_s, peak_rss_mb on ingest"),
    "harness.ingest_events_s": ("s", "lower",
        "wall_s, peak_rss_mb on ingest"),
    "harness.load_config_s": ("s", "lower",
        "wall_s on ingest (and every workload)"),
    "madelung.step_s": ("s", "lower",
        "wall_s on trajectories"),
    "madelung.steps": ("count", "lower",
        "wall_s on trajectories"),
    "madelung.decompose_polar_s": ("s", "lower",
        "wall_s on trajectories"),
    "madelung.decompose_calls": ("count", "lower",
        "wall_s on trajectories"),
    "madelung.advect_s": ("s", "lower",
        "wall_s on trajectories"),
    "madelung.particle_steps": ("count", "lower",
        "wall_s on trajectories"),
    "madelung.sample_ensemble_s": ("s", "lower",
        "wall_s on trajectories"),
    "madelung.write_csv_s": ("s", "lower",
        "wall_s on trajectories"),
    "madelung.ks_distance_s": ("s", "lower",
        "wall_s on trajectories"),
    "madelung.frozen": ("count", "lower",
        "pass_rate on trajectories (waste count)"),
    "madelung.node_mask_frac": ("ratio", "lower",
        "pass_rate on trajectories"),
    "madelung.norm_drift_max": ("ratio", "lower",
        "pass_rate on trajectories"),
    "cli.self_s": ("s", "lower",
        "wall_s on every workload"),
    "sampler.self_s": ("s", "lower",
        "wall_s on sweep and replicate"),
    "berry_esseen.self_s": ("s", "lower",
        "wall_s on replicate"),
    "madelung.self_s": ("s", "lower",
        "wall_s on trajectories"),
    "trace.span_share": ("ratio", "higher",
        "(check) share of traced wall_s covered by layer spans"),
    "trace.overhead_s": ("s", "lower",
        "(check) traced minus untraced wall_s"),
    "trace.spans": ("count", "lower",
        "(check) spans recorded per command"),
}

# inclusive time of the outermost span of a name, reported as a metric
_INCLUSIVE = {
    "sampler.inverse_cdf_sample_s": INVERSION,
    "born_density.cdf_at_points_s": "born_density.cdf_at_points",
    "berry_esseen.bound_rhs_s": "berry_esseen.bound_rhs",
    "sampler.bin_positions_s": "sampler.bin_positions",
    "berry_esseen.verify_inequality_s": "berry_esseen.verify_inequality",
    "berry_esseen.sup_deviation_s": "berry_esseen.sup_deviation",
    "harness.emit_report_s": "harness.emit_report",
    "sampler.read_events_csv_s": "sampler.read_events_csv",
    "harness.ingest_events_s": "harness.ingest_events",
    "harness.load_config_s": "harness.load_config",
    "madelung.step_s": "madelung.Evolution.step",
    "madelung.decompose_polar_s": "madelung.decompose_polar",
    "madelung.advect_s": "madelung.advect_trajectories",
    "madelung.sample_ensemble_s": "madelung.sample_ensemble_from_field",
    "madelung.write_csv_s": "madelung.write_trajectories_csv",
    "madelung.ks_distance_s": "madelung.ks_distance",
}
_CALLS = {
    "sampler.bin_calls": "sampler.bin_positions",
    "berry_esseen.verify_calls": "berry_esseen.verify_inequality",
    "madelung.decompose_calls": "madelung.decompose_polar",
}


class Tracer:
    """Span and counter recorder; one trace per command, all kept in memory."""

    def __init__(self):
        self.traces: list[dict] = []
        self.begin("")

    def begin(self, run_id: str) -> None:
        """Start the trace of one command."""
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.masks: list[float] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def end(self) -> None:
        self.traces.append({"run_id": self.run_id, "spans": self.spans,
                            "counts": dict(self.counts)})

    def wrap(self, name: str, fn: Callable, before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """``fn`` recorded as span ``name``. ``before(args, kwargs)`` returns a
        token that ``after(token, result)`` receives; both run outside the span."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before else None
            rec = [name, 0, 0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            self._open[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                self._stack.pop()
                self._open[name] -= 1
            if after:
                after(token, result)
            return result

        return traced

    def count_points(self, args, kwargs):
        """``before`` hook of density evaluations."""
        n = getattr(args[0], "size", 1) if args else 1
        self.counts["born_density.eval_points"] += n
        if self._open[INVERSION]:
            self.counts["sampler.inverse_eval_points"] += n
        if any(self._open[s] for s in _QUADRATURE_SPANS):
            self.counts["quadrature.integrand_points"] += n

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.traces, fh)


_QUADRATURE_SPANS = ("quadrature.integrate", "quadrature.integrate_with_breakpoints",
                     "quadrature.central_moment")


def _hooks(tracer: Tracer) -> dict[str, tuple[Callable | None, Callable | None]]:
    """Counters and diagnostics read from the arguments and returned objects."""

    def events(args, kwargs):
        u = kwargs.get("u", args[2] if len(args) > 2 else None)
        tracer.counts["sampler.events_inverted"] += getattr(u, "size", 1)

    def rows(_, result):
        tracer.counts["harness.report_rows"] += len(getattr(result, "report", result).rows)

    def csv_rows(_, result):
        tracer.counts["sampler.csv_rows_read"] += len(result)

    def norm_before(args, kwargs):
        tracer.counts["madelung.steps"] += kwargs.get("n", args[1] if len(args) > 1 else 1)
        return args[0].field.norm()

    def norm_after(before, result):
        drift = abs(result.norm() - before) / before
        tracer.counts["madelung.norm_drift_max"] = max(
            tracer.counts["madelung.norm_drift_max"], drift)

    def node_mask(_, result):
        tracer.masks.append(float(result.node_mask.mean()))
        tracer.counts["madelung.node_mask_frac"] = sum(tracer.masks) / len(tracer.masks)

    def particles(args, kwargs):
        tracer.counts["madelung.particle_steps"] += int((~args[0].frozen).sum())

    def frozen(_, result):
        tracer.counts["madelung.frozen"] = int(result.collisions)

    return {
        INVERSION: (events, None),
        "harness.run_paper_replication": (None, rows),
        "harness.run_convergence_sweep": (None, rows),
        "harness.verify_events": (None, rows),
        "sampler.read_events_csv": (None, csv_rows),
        "madelung.Evolution.step": (norm_before, norm_after),
        "madelung.decompose_polar": (None, node_mask),
        "madelung.advect_trajectories": (particles, frozen),
    }


def install(tracer: Tracer) -> None:
    """Wrap bornlab's layer functions, density evaluations and ``Evolution.step``."""
    import importlib
    import inspect

    modules = {layer: importlib.import_module(f"bornlab.{layer}") for layer in LAYERS}
    hooks = _hooks(tracer)
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            traced = tracer.wrap(name, fn, *hooks.get(name, (None, None)))
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, key, traced)

    evolution = getattr(modules["madelung"], "Evolution", None)
    if evolution is not None and hasattr(evolution, "step"):
        evolution.step = tracer.wrap("madelung.Evolution.step", evolution.step,
                                     *hooks["madelung.Evolution.step"])

    density_model = modules["born_density"].DensityModel
    original_init = density_model.__init__

    def init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        inner = self.evaluate
        traced = tracer.wrap(EVALUATE, inner, tracer.count_points)

        def evaluate(t):
            # nested evaluations (views of a density) belong to the outer span
            return inner(t) if tracer._open[EVALUATE] else traced(t)

        self.evaluate = evaluate

    density_model.__init__ = init


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cursor = 0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


def _outermost(spans: list[list]) -> list[bool]:
    """True for spans with no ancestor of the same name."""
    out = []
    for name, _, _, parent in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        out.append(parent < 0)
    return out


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command whose traced time was ``wall_s``.

    The caller fills in what spans cannot give: ``trace.overhead_s`` (it needs
    the untraced commands), ``sampler.table_build_s`` (timed in the set-up
    probes, on a fresh interpreter) and ``harness.report_bytes`` (file sizes).
    """
    spans = trace["spans"]
    counts = trace["counts"]
    own = self_times(spans)
    outer = _outermost(spans)
    by_layer: Counter = Counter()
    inclusive: Counter = Counter()
    calls: Counter = Counter()
    quadrature_entries = 0  # calls into quadrature from another layer
    for (name, start, end, parent), self_ns, top in zip(spans, own, outer):
        layer = name.split(".", 1)[0]
        by_layer[layer] += self_ns
        calls[name] += 1
        if top:
            inclusive[name] += end - start
        if layer == "quadrature" and (parent < 0 or not spans[parent][0].startswith(
                "quadrature.")):
            quadrature_entries += 1
    metrics = {name: 0.0 for name in PER_LAYER}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = by_layer[layer] / 1e9
    for metric, name in _INCLUSIVE.items():
        metrics[metric] = inclusive[name] / 1e9
    for metric, name in _CALLS.items():
        metrics[metric] = float(calls[name])
    metrics["quadrature.calls"] = float(quadrature_entries)
    for key in ("sampler.events_inverted", "quadrature.integrand_points",
                "born_density.eval_points", "harness.report_rows", "sampler.csv_rows_read",
                "madelung.steps", "madelung.particle_steps", "madelung.frozen",
                "madelung.node_mask_frac", "madelung.norm_drift_max"):
        metrics[key] = float(counts.get(key, 0))
    inverted = counts.get("sampler.events_inverted", 0)
    if inverted:
        metrics["sampler.evals_per_event"] = counts.get("sampler.inverse_eval_points", 0) \
            / inverted
    metrics["trace.span_share"] = sum(by_layer.values()) / 1e9 / wall_s
    metrics["trace.spans"] = float(len(spans))
    return metrics
