"""Acceptance suite: every headline requirement at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and then asserts, so the suite both documents and enforces the contract.
"""

import json
import math
import time

import numpy as np

from bornlab import cli
from bornlab.berry_esseen import (
    BoundConstantVariant,
    bound_rhs,
    zolotarev_constant,
)
from bornlab.born_density import (
    SlitGeometry,
    TabulatedDensity,
    double_slit_density,
    mean_position,
    recenter,
    scaled,
    uniform_density,
)
from bornlab.harness import replication_config, run_convergence_sweep, run_paper_replication
from bornlab.madelung import (
    Evolution,
    Grid,
    PolarField,
    Potential,
    advect_trajectories,
    continuity_residual,
    decompose_polar,
    gaussian_packet,
    hj_residual,
    ks_distance,
    plane_wave,
    quantum_potential,
    sample_ensemble_from_field,
)
from bornlab.quadrature import Interval
from bornlab.sampler import discrete_frequencies

FREE = Potential.free()


def report_line(index: int, ok: bool, label: str) -> bool:
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} - {label}")
    return ok


def test_criterion_1_replication_headline():
    cfg = replication_config(seeds=tuple(range(100)))
    start = time.perf_counter()
    report = run_paper_replication(cfg)
    elapsed = time.perf_counter() - start

    rows = report.summary["rows"]
    expected_rows = 9 * 100 * 1 * 2  # N values x seeds x bin counts x origins
    all_lower = report.summary["pass_lower_const"] == rows
    all_upper = report.summary["pass_upper_const"] == rows
    ok = rows == expected_rows and all_lower and all_upper and elapsed < 30.0
    assert report_line(
        1, ok,
        f"literal inequality holds for all {rows} tuples "
        f"(9 N x 100 seeds x 2 origins) in {elapsed:.1f}s < 30s",
    )


def test_criterion_2_bound_rhs_correctness():
    uniform = uniform_density(Interval(-1.0, 1.0))
    rhs = bound_rhs(uniform, Interval(-1.0, 1.0), BoundConstantVariant.LOWER_BOUND_CONSTANT)
    value_ok = abs(rhs - 0.40973 * 1.299) <= 1e-3

    g = SlitGeometry()
    slit = recenter(double_slit_density(g), g.center_mu)
    miv = Interval(slit.support.lo, slit.support.hi)
    base = bound_rhs(slit, miv, BoundConstantVariant.LOWER_BOUND_CONSTANT)
    scale_ok = all(
        abs(bound_rhs(scaled(slit, a), miv, BoundConstantVariant.LOWER_BOUND_CONSTANT) - base)
        <= 1e-9 * base
        for a in (1e-6, 1e-3, 1.0, 1e3, 1e6)
    )
    ok = value_ok and scale_ok
    assert report_line(
        2, ok,
        f"uniform RHS {rhs:.6f} within 1e-3 of 0.532; scale-invariant to 1e-9 "
        f"over 12 orders of magnitude",
    )


def shipped_densities():
    default = SlitGeometry()
    wide = SlitGeometry(slit_width_w=100.0, slit_separation_d=300.0,
                        wavelength_lambda=30.0)
    shifted = SlitGeometry(center_mu=0.4)
    yield "double_slit_default", double_slit_density(default)
    yield "double_slit_alternate", double_slit_density(wide)
    yield "double_slit_shifted", double_slit_density(shifted)
    yield "uniform", uniform_density(Interval(-1.0, 1.0))
    yield "triangle", TabulatedDensity([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    yield "asymmetric_table", TabulatedDensity([-1.0, -0.2, 0.1, 2.0],
                                               [0.1, 1.0, 0.8, 0.0])


def test_criterion_3_moment_ratio_at_least_one():
    worst = math.inf
    for name, d in shipped_densities():
        center = mean_position(d)
        centered = recenter(d, center)
        miv = Interval(centered.support.lo, centered.support.hi)
        ratio = bound_rhs(centered, miv, BoundConstantVariant.LOWER_BOUND_CONSTANT)
        ratio /= zolotarev_constant()
        worst = min(worst, ratio)
        assert ratio >= 1.0, name
    assert report_line(3, worst >= 1.0,
                       f"rho/sigma^3 >= 1 for every shipped density (min {worst:.4f})")


def test_criterion_4_convergence_rate_law():
    cfg = replication_config(bin_counts=(10,))
    result = run_convergence_sweep(cfg, (100, 1000, 10000, 100000), seeds=range(30))
    slope = result.fitted_exponent
    ok = -0.65 <= slope <= -0.35
    assert report_line(
        4, ok,
        f"median sup-deviation decays with exponent {slope:.3f} in [-0.65, -0.35]",
    )


def test_criterion_5_madelung_residuals():
    grid = Grid(-20.0, 20.0, 512, dt=1e-3)
    w0 = plane_wave(grid, k_index=8)
    w1 = Evolution(w0, FREE).step()
    p0, p1 = decompose_polar(w0), decompose_polar(w1)
    hj_plane = hj_residual(p0, p1, FREE).max_norm()
    cont_plane = continuity_residual(p0, p1).max_norm()
    plane_ok = hj_plane < 1e-8 and cont_plane < 1e-8

    def residuals(dt, steps):
        g = Grid(-16.0, 16.0, 2048, dt=dt)
        evo = Evolution(gaussian_packet(g, sigma=1.0), FREE)
        evo.step(steps)
        a = decompose_polar(evo.field)
        evo.step()
        b = decompose_polar(evo.field)
        return (hj_residual(a, b, FREE).l2_norm(),
                continuity_residual(a, b, normalized=True).l2_norm())

    h1, c1 = residuals(0.05, 10)
    h2, c2 = residuals(0.025, 20)
    hj_order = math.log2(h1 / h2)
    cont_order = math.log2(c1 / c2)
    order_ok = abs(hj_order - 2.0) <= 0.5 and abs(cont_order - 2.0) <= 0.5

    g = Grid(-20.0, 20.0, 256, dt=1e-3)
    evo = Evolution(gaussian_packet(g, sigma=1.0), FREE)
    n0 = evo.field.norm()
    evo.step(10_000)
    drift = abs(evo.field.norm() - n0) / n0
    norm_ok = drift < 1e-8

    ok = plane_ok and order_ok and norm_ok
    assert report_line(
        5, ok,
        f"plane-wave residuals {max(hj_plane, cont_plane):.2e} < 1e-8; "
        f"observed orders hj {hj_order:.2f}, continuity {cont_order:.2f} in 2 +/- 0.5; "
        f"norm drift {drift:.2e} over 1e4 steps",
    )


def test_criterion_6_quantum_potential():
    def q_error(points, s=1.0):
        g = Grid(-8.0, 8.0, points, dt=1e-3)
        x = g.x()
        r = np.exp(-(x * x) / (4.0 * s * s))
        p = PolarField(g, r, np.zeros(points), r < 1e-6 * r.max(), 0.0)
        q = quantum_potential(p)
        oracle = (g.hbar**2 / (2.0 * g.mass)) * (1.0 / (2.0 * s * s) - x * x / (4.0 * s**4))
        return np.abs(q.values - oracle)[q.valid].max()

    e1, e2, e3 = q_error(128), q_error(256), q_error(512)
    ratios = (e1 / e2, e2 / e3)
    conv_ok = all(2.0**3.5 <= r <= 2.0**4.5 for r in ratios)

    g = Grid(-8.0, 8.0, 128, dt=1e-3)
    flat = PolarField(g, np.full(128, 2.5), np.zeros(128), np.zeros(128, bool), 0.0)
    q_flat = quantum_potential(flat)
    flat_ok = bool(np.all(q_flat.values == 0.0) and q_flat.valid.all())

    ok = conv_ok and flat_ok
    assert report_line(
        6, ok,
        f"Gaussian-R oracle matched at 4th order (refinement ratios "
        f"{ratios[0]:.1f}, {ratios[1]:.1f} ~ 16); constant R gives Q == 0 exactly",
    )


def advected_ks(m, seed, steps=50):
    grid = Grid(-24.0, 24.0, 1024, dt=0.02)
    evo = Evolution(gaussian_packet(grid, sigma=1.0), FREE)
    polar = decompose_polar(evo.field)
    ens = sample_ensemble_from_field(polar, m, seed)
    for _ in range(steps):
        prev = polar
        evo.step()
        polar = decompose_polar(evo.field)
        ens = advect_trajectories(ens, prev, polar)
    return ks_distance(ens, polar)


def test_criterion_7_trajectory_density_duality():
    ks = advected_ks(10_000, seed=42)
    single_ok = ks < 2.0 / math.sqrt(10_000)

    sizes = (1000, 10_000, 100_000)
    medians = [
        float(np.median([advected_ks(m, seed) for seed in range(200, 206)]))
        for m in sizes
    ]
    slope = float(np.polyfit(np.log(sizes), np.log(medians), 1)[0])
    slope_ok = -1.0 <= slope <= -0.25  # within [0.5, 2] x the -1/2 law

    ok = single_ok and slope_ok
    assert report_line(
        7, ok,
        f"KS(M=1e4) = {ks:.4f} < 0.02; KS-vs-M exponent {slope:.3f} within "
        f"[0.5, 2] x (-1/2)",
    )


def test_criterion_8_spin_observer_frequencies():
    amps = (math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0))
    n = 10_000
    p = 2.0 / 3.0
    band = 3.0 * math.sqrt(p * (1.0 - p) / n)
    hits = 0
    for seed in range(100):
        (_, up_freq), _ = discrete_frequencies(amps, n, seed)
        if abs(up_freq - p) <= band:
            hits += 1
    ok = hits >= 95
    assert report_line(
        8, ok,
        f"up-frequency within 3*sqrt(p(1-p)/N) of 2/3 in {hits}/100 seeds (>= 95)",
    )


def test_criterion_9_byte_identical_reports(tmp_path):
    cfg = {
        "n_values": [13, 54, 101, 200, 227, 302, 448, 613, 803],
        "seeds": [1, 2, 3],
        "binning": {"bin_counts": [10], "orientations": ["from_a", "from_b"]},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    paths = []
    for run in ("first", "second"):
        json_path = tmp_path / f"{run}.json"
        csv_path = tmp_path / f"{run}.csv"
        rc = cli.main(["replicate", "--config", str(cfg_path),
                       "--out", str(json_path), "--csv", str(csv_path)])
        assert rc == 0
        paths.append((json_path.read_bytes(), csv_path.read_bytes()))

    ok = paths[0] == paths[1] and len(paths[0][0]) > 0
    assert report_line(9, ok, "two replicate runs produced byte-identical JSON and CSV")
