"""Output checks that do not depend on bornlab's quadrature or sampler.

The reference values come from the closed-form two-slit intensity,
integrated with scipy between its closed-form zeros. The checks accept any
positions within the sampler's documented 1e-10 CDF tolerance, so a faster
but correct inverter still passes; they reject a flipped verdict, a wrong
summary count or a right-hand side that is off by more than a relative 1e-9.
Every check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate

DEFAULT_GEOMETRY = {"w_nm": 62.0, "d_nm": 272.0, "L_mm": 240.0, "lambda_pm": 50.0,
                    "mu_mm": 0.0, "I0": 1.0}
ALPHA = 1e-6          # DKW false-alarm level per sup-deviation
RHS_REL_TOL = 1e-9    # right-hand sides against the scipy moments
SUP_ABS_TOL = 1e-8    # recomputed sup-deviations (bornlab's CDF is good to ~1e-9)
ORIENTATION_TOL = 1e-12
STANDARD_ERRORS = 5.0  # trajectory ensemble statistics
PLUS_16 = 1.16
VERDICT_KEYS = (("lower_const", "rhs_lower_const"), ("upper_const", "rhs_upper_const"),
                ("with_sqrtN_lower", "rhs_with_sqrtN_lower"),
                ("with_sqrtN_upper", "rhs_with_sqrtN_upper"))


def zolotarev_constant() -> float:
    return (3.0 + math.sqrt(10.0)) / (6.0 * math.sqrt(2.0 * math.pi))


def _lengths(geo: dict) -> tuple[float, ...]:
    """w, d, lambda, L, mu in mm and the peak height."""
    return (geo["w_nm"] * 1e-6, geo["d_nm"] * 1e-6, geo["lambda_pm"] * 1e-9,
            geo["L_mm"], geo["mu_mm"], geo["I0"])


def intensity(t, geo: dict) -> np.ndarray:
    """I0 cos^2(n(t)(t-mu)) sinc^2(m(t)(t-mu)), m = pi w / (lambda hypot(L, t-mu))."""
    w, d, lam, big_l, mu, i0 = _lengths(geo)
    delta = np.asarray(t, dtype=float) - mu
    m = math.pi * w / (lam * np.hypot(big_l, delta))
    return i0 * np.cos(m * (d / w) * delta) ** 2 * np.sinc(m * delta / math.pi) ** 2


def _null_offset(order: float, slit: float, lam: float, big_l: float) -> float | None:
    """Offset from the center where slit * sin(angle) = order * lambda."""
    s = order * lam
    return None if s >= slit else s * big_l / math.sqrt(slit * slit - s * s)


def zeros(geo: dict, half: float) -> list[float]:
    """Every envelope and fringe null within ``half`` of the center."""
    w, d, lam, big_l, mu, _ = _lengths(geo)
    offsets = []
    for slit, first in ((w, 1.0), (d, 0.5)):
        k = first
        while (z := _null_offset(k, slit, lam, big_l)) is not None and z <= half:
            offsets.append(z)
            k += 1.0
    return sorted({mu + s * z for z in offsets for s in (-1.0, 1.0)})


def default_interval(geo: dict) -> tuple[float, float]:
    """Symmetric window 5% past the fifth envelope null."""
    w, _, lam, big_l, mu, _ = _lengths(geo)
    half = 1.05 * _null_offset(5.0, w, lam, big_l)
    return mu - half, mu + half


def dkw_epsilon(n: int, alpha: float = ALPHA) -> float:
    """P(sup |F_n - F| > eps) <= alpha for n i.i.d. draws (Massart's constant)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


@dataclass(frozen=True)
class BornReference:
    """Moments and CDF of the closed-form intensity on one interval."""

    geometry: dict
    interval: tuple[float, float]
    points: np.ndarray       # interval ends, interior zeros and the center
    cum_mass: np.ndarray     # integral from the left end to each point
    ratio: float             # rho_raw * sqrt(mass) / var_raw^(3/2)

    @classmethod
    def build(cls, geometry: dict, interval: tuple[float, float]) -> "BornReference":
        lo, hi = interval
        mu = geometry["mu_mm"]
        inner = [z for z in zeros(geometry, max(hi - mu, mu - lo)) if lo < z < hi]
        pts = np.array(sorted({lo, hi, *inner, *([mu] if lo < mu < hi else [])}))

        def quad(f, a, b):
            return integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        def dens(t):
            return float(intensity(t, geometry))

        segs = [(a, b) for a, b in zip(pts[:-1], pts[1:])]
        mass = np.array([quad(dens, a, b) for a, b in segs])
        second = sum(quad(lambda t: (t - mu) ** 2 * dens(t), a, b) for a, b in segs)
        third = sum(quad(lambda t: abs(t - mu) ** 3 * dens(t), a, b) for a, b in segs)
        ratio = third * math.sqrt(mass.sum()) / second ** 1.5
        return cls(dict(geometry), (lo, hi), pts, np.concatenate([[0.0], np.cumsum(mass)]),
                   ratio)

    def rhs(self) -> tuple[float, float]:
        """Literal right-hand sides for the lower-bound constant and +16%."""
        c = zolotarev_constant() * self.ratio
        return c, PLUS_16 * c

    def cdf(self, xs: Sequence[float]) -> np.ndarray:
        """Normalized CDF on the interval at each point."""
        out = np.empty(len(xs))
        for i, x in enumerate(xs):
            j = min(max(int(np.searchsorted(self.points, x, side="right")) - 1, 0),
                    len(self.points) - 2)
            part = 0.0
            if x > self.points[j]:
                part = integrate.quad(lambda t: float(intensity(t, self.geometry)),
                                      self.points[j], x, epsabs=0.0, epsrel=1e-13)[0]
            out[i] = (self.cum_mass[j] + part) / self.cum_mass[-1]
        return out


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * abs(b)


def check_born_report(report: dict, ref: BornReference, n_values: Sequence[int],
                      seeds: Sequence, bin_counts: Sequence[int]) -> list[str]:
    """Rows complete, right-hand sides, verdicts, DKW, orientations, summary."""
    problems: list[str] = []
    rows = report.get("rows", [])
    want = {(n, s, b, o) for n in n_values for s in seeds for b in bin_counts
            for o in ("from_a", "from_b")}
    got = {}
    for r in rows:
        key = (r["N"], r["seed"], r["scheme"]["bin_count"], r["scheme"]["origin"])
        got[key] = r
    if set(got) != want or len(rows) != len(want):
        problems.append(f"rows: expected {len(want)} distinct (N, seed, bins, origin) rows, "
                        f"got {len(rows)} rows covering {len(set(got) & want)}")
    lo_rhs, hi_rhs = ref.rhs()
    for key, r in got.items():
        n = r["N"]
        iv = r["scheme"]["interval"]
        if not (_close(iv["a_mm"], ref.interval[0], 1e-12)
                and _close(iv["b_mm"], ref.interval[1], 1e-12)):
            problems.append(f"{key}: interval {iv} differs from {ref.interval}")
        expected = {"rhs_lower_const": lo_rhs, "rhs_upper_const": hi_rhs,
                    "rhs_with_sqrtN_lower": lo_rhs / math.sqrt(n),
                    "rhs_with_sqrtN_upper": hi_rhs / math.sqrt(n)}
        for name, value in expected.items():
            if not _close(r[name], value, RHS_REL_TOL):
                problems.append(f"{key}: {name} {r[name]!r} != reference {value!r}")
        sup = r["sup_deviation"]
        for verdict, rhs_name in VERDICT_KEYS:
            if r["verdicts"][verdict] != (sup <= r[rhs_name]):
                problems.append(f"{key}: verdict {verdict} inconsistent with "
                                f"sup {sup!r} and {rhs_name} {r[rhs_name]!r}")
        if not 0.0 <= sup <= dkw_epsilon(n) + 1e-9:
            problems.append(f"{key}: sup deviation {sup!r} outside the DKW bound "
                            f"{dkw_epsilon(n):.6g} at alpha={ALPHA}")
        other = got.get((*key[:3], "from_b" if key[3] == "from_a" else "from_a"))
        if other is not None and abs(other["sup_deviation"] - sup) > ORIENTATION_TOL:
            problems.append(f"{key}: from_a and from_b sup deviations differ "
                            f"({sup!r} vs {other['sup_deviation']!r})")
    summary = report.get("summary", {})
    want_summary = {"rows": len(rows), **{
        f"pass_{v}": sum(bool(r["verdicts"][v]) for r in rows) for v, _ in VERDICT_KEYS}}
    if summary != want_summary:
        problems.append(f"summary {summary} != counts from rows {want_summary}")
    return problems


def check_sweep_fit(result: dict, n_values: Sequence[int]) -> list[str]:
    """Per-N medians of the from_a sup deviations and their log-log slope."""
    problems = []
    medians = []
    for n in n_values:
        sups = [r["sup_deviation"] for r in result["rows"]
                if r["N"] == n and r["scheme"]["origin"] == "from_a"]
        medians.append(float(np.median(sups)) if sups else float("nan"))
    reported = [(m["N"], m["median_sup_deviation"]) for m in result.get("medians", [])]
    if [n for n, _ in reported] != list(n_values) or not all(
            _close(m, want, 1e-12) for (_, m), want in zip(reported, medians)):
        problems.append(f"medians {reported} != per-N medians of the rows {medians}")
    slope = float(np.polyfit(np.log(n_values), np.log(medians), 1)[0])
    if not _close(result.get("fitted_exponent", float("nan")), slope, 1e-9):
        problems.append(f"fitted_exponent {result.get('fitted_exponent')!r} != "
                        f"least-squares slope {slope!r}")
    return problems


def check_report_csv(rows_csv: list[list[str]], report: dict) -> list[str]:
    """The CSV report carries the same rows, in the same order, as the JSON."""
    header = ["seed", "N", "sup_deviation", "rhs_lower_const", "rhs_upper_const",
              "rhs_with_sqrtN_lower", "rhs_with_sqrtN_upper", "verdict_lower_const",
              "verdict_upper_const", "verdict_with_sqrtN_lower", "verdict_with_sqrtN_upper",
              "bin_count", "origin", "a_mm", "b_mm"]
    if not rows_csv or rows_csv[0] != header:
        return ["report CSV header differs"]
    body = rows_csv[1:]
    if len(body) != len(report["rows"]):
        return [f"report CSV has {len(body)} rows, JSON has {len(report['rows'])}"]
    for i, (c, r) in enumerate(zip(body, report["rows"])):
        want = ["" if r["seed"] is None else str(r["seed"]), str(r["N"]), *(repr(float(r[k])) for k in (
            "sup_deviation", "rhs_lower_const", "rhs_upper_const", "rhs_with_sqrtN_lower",
            "rhs_with_sqrtN_upper")), *("true" if r["verdicts"][v] else "false"
                                        for v, _ in VERDICT_KEYS),
            str(r["scheme"]["bin_count"]), r["scheme"]["origin"],
            repr(float(r["scheme"]["interval"]["a_mm"])),
            repr(float(r["scheme"]["interval"]["b_mm"]))]
        if c != want:
            return [f"report CSV row {i + 1} differs from JSON row: {c} vs {want}"]
    return []


def ingest_sups(ref: BornReference, positions: np.ndarray,
                bin_counts: Sequence[int]) -> dict[tuple[int, str], float]:
    """Sup deviations of the benchmark's own events, binned with numpy."""
    lo, hi = ref.interval
    out = {}
    for bins in bin_counts:
        edges = np.linspace(lo, hi, bins + 1)
        counts, _ = np.histogram(positions, bins=edges)
        theory = ref.cdf(edges)
        dev_a = np.cumsum(counts) / positions.size - theory[1:]
        dev_b = np.cumsum(counts[::-1]) / positions.size - (1.0 - theory[-2::-1])
        out[bins, "from_a"] = float(np.abs(dev_a).max())
        out[bins, "from_b"] = float(np.abs(dev_b).max())
    return out


def check_ingest_sups(report: dict, expected: dict[tuple[int, str], float]) -> list[str]:
    """Each row's sup deviation matches the numpy-histogram recomputation."""
    problems = []
    for r in report["rows"]:
        key = (r["scheme"]["bin_count"], r["scheme"]["origin"])
        if key not in expected or abs(r["sup_deviation"] - expected[key]) > SUP_ABS_TOL:
            problems.append(f"ingest {key}: sup {r['sup_deviation']!r} != recomputed "
                            f"{expected.get(key)!r}")
    return problems


def free_gaussian_moments(grid: dict, state: dict, time: float) -> tuple[float, float]:
    """Mean and spread of |psi|^2 for a free Gaussian packet at ``time``."""
    hbar, mass, sigma = grid["hbar"], grid["mass"], state["sigma"]
    k = 2.0 * math.pi * state["k_index"] / (grid["x_max"] - grid["x_min"])
    spread = sigma * math.sqrt(1.0 + (hbar * time / (2.0 * mass * sigma * sigma)) ** 2)
    return state["center"] + hbar * k * time / mass, spread


def check_trajectories(summary: dict, positions: np.ndarray, indices: np.ndarray,
                       grid: dict, state: dict, steps: int, count: int,
                       seed: int) -> list[str]:
    """No collisions, KS within DKW, and moments of the free-Gaussian closed form."""
    problems = []
    want = {"count": count, "seed": seed, "steps": steps, "collisions": 0}
    got = {k: summary.get(k) for k in want}
    if got != want:
        problems.append(f"summary {got} != {want}")
    time = summary.get("time", float("nan"))
    if not _close(time, steps * grid["dt"], 1e-9):
        problems.append(f"summary time {time!r} != {steps} * dt")
    ks = summary.get("ks_distance_to_R2", float("nan"))
    if not 0.0 <= ks <= dkw_epsilon(count):
        problems.append(f"KS distance {ks!r} outside the DKW bound {dkw_epsilon(count):.6g}")
    if positions.size != count or not np.array_equal(indices, np.arange(count)):
        return problems + [f"trajectory CSV has {positions.size} rows, expected {count} "
                           "indexed 0..count-1"]
    if not (np.all(np.isfinite(positions)) and positions.min() >= grid["x_min"]
            and positions.max() <= grid["x_max"]):
        problems.append("trajectory positions not finite or outside the grid")
    mean, spread = free_gaussian_moments(grid, state, steps * grid["dt"])
    se_mean = spread / math.sqrt(count)
    se_spread = spread / math.sqrt(2.0 * count)
    if abs(positions.mean() - mean) > STANDARD_ERRORS * se_mean:
        problems.append(f"ensemble mean {positions.mean():.6g} vs closed form {mean:.6g} "
                        f"(standard error {se_mean:.2g})")
    if abs(positions.std() - spread) > STANDARD_ERRORS * se_spread:
        problems.append(f"ensemble spread {positions.std():.6g} vs closed form "
                        f"{spread:.6g} (standard error {se_spread:.2g})")
    return problems
