"""The double slit's binned ``from_a`` sups against their exact finite law.

Fix N and the bin edges, and let F_k be the Born CDF at the interior edges
(k = 1 .. B - 1; at the last edge both CDFs are 1).  The cumulative counts
C_k form a Markov chain: given C_{k-1}, C_k - C_{k-1} is
Binomial(N - C_{k-1}, (F_k - F_{k-1}) / (1 - F_{k-1})).  So the sup
S = max_k |C_k / N - F_k| has P(S <= s) equal to the mass that survives the
chain's (N + 1)-square transition matrices when the states outside the band
|C_k - N F_k| <= N s are zeroed after each step: Noé's recursion (Ann. Math.
Statist. 43, 1972) on a finite set of edges.  F_k comes from
``reference.scipy_cdf`` (QUADPACK on the closed form), not from bornlab.

S is discrete, so each report sup s becomes a randomized PIT,
u = P(S < s) + V P(S = s) with V uniform from a fixed seed, which is exactly
uniform on [0, 1] under the law.  The report's s was computed from bornlab's
edge CDFs (within 1e-12 of scipy's) in floating point, and the symmetric
geometry makes the edges k and B - k attain the same deviation up to
rounding.  So the strict band drops, and the inclusive band keeps, every
state within ``_BAND_TOL`` N of the band's edge: 1e-9 is far above those
errors and far below the gap between distinct values of N S (0.0138 at
least at these N; the values closer than 1e-10 are those exact ties).

Rows at different N share each seed's stream, so their PITs are dependent;
each N is tested on its own, over 100 independent seeds.  Each KS test
alarms at p < 1e-3, so a correct sampler fails this file with probability at
most 3e-3 over the choice of seeds (a union bound over the three N); with
the seeds fixed, the outcome is deterministic.  Run at all of the paper's
nine N, the p-values are 0.21-0.98.  Power is modest: with the harness's
draws inverted at u + 0.02 sin(pi u), only N = 302 alarms (p = 9.4e-4); at
u + 0.05 sin(pi u), N = 101 and 302 alarm (p = 3.5e-8 and 3.3e-20).  So this
checks the law, not small biases; the deterministic scipy inversion checks
in ``tests/test_sampler.py`` stay the sensitive ones.
"""

import numpy as np
import pytest
from scipy.stats import binom, kstest

from bornlab.berry_esseen import BinningScheme, Origin
from bornlab.born_density import SlitGeometry, double_slit_density
from bornlab.harness import replication_config, run_paper_replication
from reference import scipy_cdf

_N = (13, 101, 302)  # a subset of the paper's nine
_SEEDS = range(1, 101)
_ALARM = 1e-3
_BAND_TOL = 1e-9


def _band_mass(n, edge_cdf, sups, tol):
    """P(|C_k - n F_k| <= n s + n tol at every edge k), one entry per sup s."""
    c = np.arange(n + 1)
    alive = np.zeros((sups.size, n + 1))
    alive[:, 0] = 1.0
    below = 0.0
    for fk in edge_cdf:
        step = binom.pmf(c[None, :] - c[:, None], n - c[:, None], (fk - below) / (1.0 - below))
        alive = alive @ step
        alive[np.abs(c[None, :] - n * fk) > n * (sups[:, None] + tol)] = 0.0
        below = fk
    return alive.sum(axis=1)


@pytest.fixture(scope="module")
def report_sups():
    report = run_paper_replication(replication_config(
        seeds=_SEEDS, n_values=_N, bin_counts=(10,), orientations=(Origin.FROM_A,)))
    sups = {}
    for r in report.rows:
        sups.setdefault(r.N, {})[r.seed] = r.sup_deviation
    return {n: np.array([by_seed[s] for s in _SEEDS]) for n, by_seed in sups.items()}


@pytest.mark.parametrize("n", _N)
def test_binned_sups_follow_their_exact_law(report_sups, n):
    support = double_slit_density(SlitGeometry()).support
    edge_cdf = [scipy_cdf()(x) for x in BinningScheme(10, support).edges()[1:-1]]
    sups = report_sups[n]
    strict = _band_mass(n, edge_cdf, sups, -_BAND_TOL)
    inclusive = _band_mass(n, edge_cdf, sups, _BAND_TOL)
    # every observed sup is an atom of the law
    assert np.all(inclusive - strict > 1e-6)
    u = strict + np.random.default_rng(2024).random(sups.size) * (inclusive - strict)
    assert kstest(u, "uniform").pvalue >= _ALARM
