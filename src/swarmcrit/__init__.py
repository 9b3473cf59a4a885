"""Particle swarm optimisation and its stability analysis as a random
dynamical system.

The package couples a plain PSO optimiser with the analysis of its
single-particle dynamics as a product of random matrices: Lyapunov
exponent estimation, the stationary angular measure, the critical
(omega, alpha) curve separating convergent from divergent parameter
regions, and a sweep harness reproducing the benchmark protocol that
shows the optimiser performing best near that margin of instability.
"""

from .io import __version__
from .dynamics import *
from .stability import *
from .pso import *
from .benchmarks import *
from .harness import *
from . import benchmarks, dynamics, harness, pso, stability

# the package exports each layer's public names, in layer order
__all__ = [
    "__version__",
    *dynamics.__all__,
    *stability.__all__,
    *pso.__all__,
    *benchmarks.__all__,
    *harness.__all__,
]
