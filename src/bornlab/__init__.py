"""bornlab: numerical laboratory for Born-frequency convergence.

Subpackages cover adaptive quadrature, the double-slit Born density, the
empirical-CDF convergence bound with verdicts, deterministic event sampling,
the hydrodynamic (Madelung) form of 1D Schrodinger evolution with trajectory
ensembles, and an experiment harness with a CLI front end.
"""

from . import berry_esseen, born_density, harness, madelung, quadrature, sampler
from .errors import BornLabError

__version__ = "0.6.0"

__all__ = [
    "BornLabError",
    "berry_esseen",
    "born_density",
    "harness",
    "madelung",
    "quadrature",
    "sampler",
    "__version__",
]
