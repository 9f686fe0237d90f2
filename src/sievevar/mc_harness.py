"""Monte Carlo coverage and length experiments.

Each replication simulates a path, fits a VAR(p), builds intervals for the
requested methods, and scores every response entry against the true
impulse responses of the generating process. Replication r derives all of
its randomness from the child stream (master seed, r), so summaries are
identical no matter how replications are scheduled across workers.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .bootstrap_infer import bootstrap_interval_sets
from .delta_infer import IntervalSet, delta_ci, irf_covariances
from .dgp_sim import (
    SamplePath,
    VarmaSpec,
    default_burn_in,
    simulate_varma,
    varma_true_irf,
)
from .errors import ConfigError, ExperimentError, SieveVarError
from .estimate import build_gamma_p, fit_var_ls, sample_autocov
from .streams import SeedLike, substream

VALID_METHODS = ("LS", "S-LS", "BOOT", "BOOT-db")

# fraction of replications allowed to fail (after one retry each)
FAILURE_BUDGET = 0.01


def check_design(
    p: int, horizon: int, level: float, methods: Sequence[str], bootstrap_replications: int
) -> None:
    """Raise ConfigError for a design that no sample could be fitted under."""
    if p < 1:
        raise ConfigError("p must be >= 1")
    if horizon < 0:
        raise ConfigError("horizon must be >= 0")
    if not 0.0 < level < 1.0:
        raise ConfigError("level must be in (0, 1)")
    if not methods:
        raise ConfigError("at least one method is required")
    bad = [m for m in methods if m not in VALID_METHODS]
    if bad:
        raise ConfigError(f"unknown methods {bad}; valid: {list(VALID_METHODS)}")
    if bootstrap_replications < 2 and any(m.startswith("BOOT") for m in methods):
        raise ConfigError("bootstrap replications must be >= 2 for BOOT and BOOT-db")


@dataclass(frozen=True)
class ExperimentConfig:
    """Design of one coverage/length experiment."""

    dgp: VarmaSpec
    t: int
    p: int
    horizon: int
    level: float
    methods: tuple[str, ...]
    replications: int
    bootstrap_replications: int = 300
    seed: int = 0
    workers: int = 1
    burn_in: int | None = None
    intercept: bool = False
    label: str = ""

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.replications < 1:
            raise ConfigError("horizon and replications must be >= 1")
        check_design(self.p, self.horizon, self.level, self.methods, self.bootstrap_replications)

    @property
    def effective_burn_in(self) -> int:
        return self.burn_in if self.burn_in is not None else default_burn_in(self.dgp)


@dataclass(frozen=True)
class McSummary:
    """Coverage and average interval length per (method, horizon)."""

    methods: tuple[str, ...]
    level: float
    coverage: np.ndarray = field(repr=False)  # (n_methods, H+1)
    avg_length: np.ndarray = field(repr=False)
    entry_coverage: np.ndarray = field(repr=False)  # (n_methods, H+1, K, K)
    entry_length: np.ndarray = field(repr=False)
    replications: int = 0
    failures: int = 0

    @property
    def horizon(self) -> int:
        return self.coverage.shape[1] - 1

    @property
    def k(self) -> int:
        return self.entry_coverage.shape[2]

    def by_method(self, method: str) -> tuple[np.ndarray, np.ndarray]:
        i = self.methods.index(method)
        return self.coverage[i], self.avg_length[i]


def interval_sets_for_sample(
    y: SamplePath | np.ndarray,
    p: int,
    horizon: int,
    level: float,
    methods: Sequence[str],
    bootstrap_replications: int,
    seed: SeedLike,
    intercept: bool = False,
) -> dict[str, IntervalSet]:
    """Confidence intervals for every requested method on one sample.

    The sample is fitted and its IRFs expanded once, here; every method
    reads that fit. Each method draws from its own child stream, so adding
    or removing methods never changes another method's output, although
    BOOT's draws and BOOT-db's first stage share one bootstrap pass.
    """
    check_design(p, horizon, level, methods, bootstrap_replications)
    model, resid = fit_var_ls(y, p, intercept=intercept)
    seeds = {
        method: substream(seed, stream)
        for method, stream in (("BOOT", 10), ("BOOT-db", 11))
        if method in methods
    }
    phi_hat, out = bootstrap_interval_sets(
        model, resid, y, horizon, bootstrap_replications, level, seeds
    )
    t = y.t if isinstance(y, SamplePath) else len(np.asarray(y))
    if "LS" in methods:
        covs = irf_covariances(phi_hat, model.moment_matrix, model.sigma_u_hat)
        out["LS"] = delta_ci(phi_hat, covs, level, t, method="LS")
    if "S-LS" in methods:
        gamma_p = build_gamma_p(sample_autocov(y, p - 1), p)
        covs = irf_covariances(phi_hat, gamma_p, model.sigma_u("ml"))
        out["S-LS"] = delta_ci(phi_hat, covs, level, t, method="S-LS")
    return {method: out[method] for method in methods}


def _run_replication(
    cfg: ExperimentConfig, truth: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Hit and length arrays for replication r, or None after a failed retry."""
    n_methods = len(cfg.methods)
    shape = (n_methods, cfg.horizon + 1, cfg.dgp.k, cfg.dgp.k)
    for attempt in range(2):
        rep_seed = substream(cfg.seed, r) if attempt == 0 else substream(cfg.seed, r, 1)
        try:
            y = simulate_varma(
                cfg.dgp, cfg.t, cfg.effective_burn_in, substream(rep_seed, 0)
            )
            sets = interval_sets_for_sample(
                y,
                cfg.p,
                cfg.horizon,
                cfg.level,
                cfg.methods,
                cfg.bootstrap_replications,
                rep_seed,
                cfg.intercept,
            )
        except SieveVarError:
            continue
        hits = np.empty(shape, dtype=bool)
        lengths = np.empty(shape)
        for j, method in enumerate(cfg.methods):
            iv = sets[method]
            hits[j] = iv.contains(truth)
            lengths[j] = iv.lengths()
        return hits, lengths
    return None


def aggregate(
    records: Sequence[tuple[np.ndarray, np.ndarray]],
    methods: Sequence[str],
    level: float,
    failures: int = 0,
) -> McSummary:
    """Average hit indicators and lengths over replications and K^2 entries."""
    if not records:
        raise ExperimentError("no successful replications to aggregate")
    hits = np.stack([h for h, _ in records]).astype(float)
    lengths = np.stack([le for _, le in records])
    return McSummary(
        methods=tuple(methods),
        level=level,
        coverage=hits.mean(axis=(0, 3, 4)),
        avg_length=lengths.mean(axis=(0, 3, 4)),
        entry_coverage=hits.mean(axis=0),
        entry_length=lengths.mean(axis=0),
        replications=len(records),
        failures=failures,
    )


def run_experiment(cfg: ExperimentConfig) -> McSummary:
    """Execute the full experiment, optionally across worker processes."""
    cfg.dgp.validate()
    truth = varma_true_irf(cfg.dgp, cfg.horizon)
    replicate = partial(_run_replication, cfg, truth)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            chunk = max(1, cfg.replications // (cfg.workers * 8))
            results = list(pool.map(replicate, range(cfg.replications), chunksize=chunk))
    else:
        results = list(map(replicate, range(cfg.replications)))

    records = [rec for rec in results if rec is not None]
    failures = len(results) - len(records)
    if failures > FAILURE_BUDGET * cfg.replications:
        raise ExperimentError(
            f"{failures} of {cfg.replications} replications failed "
            f"(budget {FAILURE_BUDGET:.0%})"
        )
    return aggregate(records, cfg.methods, cfg.level, failures=failures)


def coverage_flags(
    summary: McSummary,
    under_threshold: float | None = None,
    over_threshold: float | None = None,
) -> list[tuple[str, int, str]]:
    """(method, horizon, 'under'|'over') records for miscovered horizons.

    Defaults: under-coverage below level - 0.1, over-coverage above
    min(1, level + 0.04).
    """
    if under_threshold is None:
        under_threshold = summary.level - 0.1
    if over_threshold is None:
        over_threshold = min(1.0, summary.level + 0.04)
    flags = []
    for j, method in enumerate(summary.methods):
        for i in range(summary.horizon + 1):
            cov = summary.coverage[j, i]
            if cov < under_threshold:
                flags.append((method, i, "under"))
            elif cov > over_threshold:
                flags.append((method, i, "over"))
    return flags
