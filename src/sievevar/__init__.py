"""Sieve and finite-order VAR impulse-response inference."""

import numpy as _np

from .bootstrap_infer import (
    bootstrap_interval_sets,
    percentile_ci,
    residual_bootstrap_sample,
)
from .delta_infer import (
    IntervalSet,
    horizon_gate,
    irf_covariances,
    irf_jacobian,
)
from .dgp_sim import (
    SamplePath,
    VarmaSpec,
    counterexample_ar,
    default_desk_spec,
    simulate_varma,
    varma_true_ar,
    varma_true_irf,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EigenvalueError,
    ExperimentError,
    NonFiniteError,
    SieveVarError,
    SingularMatrixError,
    UnstableProcessError,
)
from .estimate import (
    VarModel,
    fit_var_ls,
    sample_gamma_p,
)
from .mc_harness import (
    ExperimentConfig,
    McSummary,
    aggregate,
    coverage_flags,
    interval_sets_for_sample,
    run_experiment,
)
from .sieve_diag import assumption_ratios, sample_growth, tail_norm
from .var_core import (
    MatrixSeq,
    coeff_seq,
    companion_form,
    ma_from_ar,
    spectral_radius,
    stability_class,
    var_recursion,
)

# glibc's malloc serves blocks above its mmap threshold (128 KB at start) by
# mmap and returns a heap top above twice that to the system, so a long
# Monte Carlo run whose temporaries are about that size re-faults their
# pages on every call. Freeing one mmapped block raises both thresholds to
# its size; importing scipy used to do so in passing. Without it, a
# counterex-desk-p30 run read about 1,000 page faults and 20% more time per
# ten replications after its first seconds (2-vCPU VM). Other allocators
# just allocate and free the 8 MB.
_np.empty(1 << 20)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DimensionMismatchError",
    "EigenvalueError",
    "ExperimentError",
    "ExperimentConfig",
    "IntervalSet",
    "MatrixSeq",
    "McSummary",
    "NonFiniteError",
    "SamplePath",
    "SieveVarError",
    "SingularMatrixError",
    "UnstableProcessError",
    "VarModel",
    "VarmaSpec",
    "aggregate",
    "assumption_ratios",
    "bootstrap_interval_sets",
    "coeff_seq",
    "companion_form",
    "counterexample_ar",
    "coverage_flags",
    "default_desk_spec",
    "fit_var_ls",
    "horizon_gate",
    "interval_sets_for_sample",
    "irf_covariances",
    "irf_jacobian",
    "ma_from_ar",
    "percentile_ci",
    "residual_bootstrap_sample",
    "run_experiment",
    "sample_gamma_p",
    "sample_growth",
    "simulate_varma",
    "spectral_radius",
    "stability_class",
    "tail_norm",
    "var_recursion",
    "varma_true_ar",
    "varma_true_irf",
]
