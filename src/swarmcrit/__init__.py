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
from .dynamics import (
    MixtureWeight,
    PhasePoint,
    Regime,
    RegimeLabel,
    StepMatrix,
    SwarmParams,
    build_step_matrix,
    deterministic_regime,
    mixture_pdf,
    sample_mixture,
    step_affine,
    step_homogeneous,
)
from .stability import (
    AngularHistogram,
    CriticalCurve,
    CriticalPoint,
    EscapeStats,
    LyapunovEstimate,
    NumericOverflowError,
    RATIO_EQUAL,
    RATIO_SOCIAL_ONLY,
    ScalingConfig,
    critical_alpha,
    critical_curve,
    escape_probability,
    finite_time_lyapunov,
    lyapunov_exponent,
    lyapunov_pair,
    neutral_alpha,
    neutral_stability_curve,
    pushforward,
    split_alpha,
    stationary_distribution,
)
from .pso import RunResult, SwarmState, init_swarm, optimize, pso_step
from .benchmarks import (
    BenchmarkFunction,
    evaluate,
    make_function,
    save_manifest,
    suite,
    suite_manifest,
)
from .harness import (
    DistanceStats,
    SweepConfig,
    SweepGrid,
    aggregate_heatmap,
    best_region,
    distance_to_curve,
    run_sweep,
)

__all__ = [
    "__version__",
    # dynamics
    "SwarmParams",
    "PhasePoint",
    "MixtureWeight",
    "StepMatrix",
    "Regime",
    "RegimeLabel",
    "mixture_pdf",
    "sample_mixture",
    "build_step_matrix",
    "step_homogeneous",
    "step_affine",
    "deterministic_regime",
    # stability
    "NumericOverflowError",
    "LyapunovEstimate",
    "AngularHistogram",
    "CriticalPoint",
    "CriticalCurve",
    "EscapeStats",
    "ScalingConfig",
    "RATIO_EQUAL",
    "RATIO_SOCIAL_ONLY",
    "split_alpha",
    "lyapunov_exponent",
    "lyapunov_pair",
    "stationary_distribution",
    "pushforward",
    "escape_probability",
    "critical_alpha",
    "critical_curve",
    "finite_time_lyapunov",
    "neutral_alpha",
    "neutral_stability_curve",
    # pso
    "SwarmState",
    "RunResult",
    "init_swarm",
    "pso_step",
    "optimize",
    # benchmarks
    "BenchmarkFunction",
    "evaluate",
    "make_function",
    "save_manifest",
    "suite",
    "suite_manifest",
    # harness
    "SweepConfig",
    "SweepGrid",
    "DistanceStats",
    "run_sweep",
    "aggregate_heatmap",
    "best_region",
    "distance_to_curve",
]
