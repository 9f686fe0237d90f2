"""Monte Carlo coverage and length experiments.

Each replication simulates a path, fits a VAR(p), builds intervals for the
requested methods, and scores every response entry against the true
impulse responses of the generating process. Replication r derives all of
its randomness from the child stream (master seed, r), and a failed one is
retried once on (master seed, r, 1). Replications run in chunks of
consecutive indices, bounded by the bytes of the chunk's shock stack: each
path of a chunk is drawn from its own replication's stream and all of them
step one recursion, so a path does not depend on the paths beside it.
Summaries are therefore identical for any worker count and any chunking.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .bootstrap_infer import bootstrap_interval_sets
from .delta_infer import IntervalSet, delta_ci, irf_covariances
from .dgp_sim import SamplePath, VarmaSpec, default_burn_in, simulate_varma_stack, varma_true_irf
from .errors import ConfigError, ExperimentError, SieveVarError
from .estimate import _as_values, _short_sample, fit_var_ls, sample_gamma_p
from .streams import SeedLike, substream
from .var_core import ma_from_ar

# Each method, written down once: a delta method's builder of its (H, K^2, K^2) covariance
# stack from (fit, (T, K) sample, Phi-hat), or None for a bootstrap method, which
# bootstrap_interval_sets builds from the sample's seed.
METHODS: dict[str, Callable | None] = {
    "LS": lambda fit, y, phi: irf_covariances(phi, fit.moment_matrix, fit.sigma_u_hat),
    "S-LS": lambda fit, y, phi: irf_covariances(phi, sample_gamma_p(y, fit.p), fit.sigma_u_ml),
    "BOOT": None,
    "BOOT-db": None,
}

# fraction of replications allowed to fail (after one retry each)
FAILURE_BUDGET = 0.01

# Shock values in one chunk's (n, p + burn_in + T, K) stack, 2 MB: bounds how
# many replications are simulated in one recursion.
_CHUNK_FLOATS = 256 * 1024


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
    bad = [m for m in methods if m not in METHODS]
    if bad:
        raise ConfigError(f"unknown methods {bad}; valid: {list(METHODS)}")
    if len(set(methods)) < len(methods):
        raise ConfigError(f"methods must not repeat, got {list(methods)}")
    if bootstrap_replications < 2 and any(METHODS[m] is None for m in methods):
        raise ConfigError("bootstrap replications must be >= 2 for a bootstrap method")


def check_sizes(t: int, burn_in: int | None, workers: int = 1) -> None:
    """Raise ConfigError for a sample length, burn-in or worker count no run can use."""
    if t < 1:
        raise ConfigError("t must be >= 1")
    if burn_in is not None and burn_in < 0:
        raise ConfigError("burn_in must be >= 0")
    if workers < 1:
        raise ConfigError("workers must be >= 1")


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
        check_sizes(self.t, self.burn_in, self.workers)
        short = _short_sample(self.t, self.dgp.k, self.p, self.intercept)
        if short:
            raise ConfigError(f"{short}, so no sample could be fitted")

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

    ``y`` is a (T, K) array or ``SamplePath``; a 1-D array is one variable.
    The sample is fitted once, here, and each method reads that fit as its
    ``METHODS`` entry says. The bootstrap methods draw on child streams of
    ``seed`` that do not depend on which of them are requested, so adding
    or removing methods never changes another method's output.
    """
    check_design(p, horizon, level, methods, bootstrap_replications)
    y = _as_values(y)
    model, resid = fit_var_ls(y, p, intercept=intercept)
    boot = [m for m in methods if METHODS[m] is None]
    out = {}
    if boot:
        out = bootstrap_interval_sets(
            model, resid, y, horizon, bootstrap_replications, level, boot, seed
        )
    phi_hat = ma_from_ar(model.ar_hat.mats, horizon)
    for method in (m for m in methods if m not in boot):
        out[method] = delta_ci(phi_hat, METHODS[method](model, y, phi_hat), level, len(y), method)
    return {method: out[method] for method in methods}


def _chunk_size(cfg: ExperimentConfig) -> int:
    """Replications per chunk: at most ``_CHUNK_FLOATS`` shock values, at least one chunk per worker."""
    per_path = (cfg.dgp.p + cfg.effective_burn_in + cfg.t) * cfg.dgp.k
    return max(1, min(_CHUNK_FLOATS // per_path, -(-cfg.replications // cfg.workers)))


def _run_chunk(
    cfg: ExperimentConfig, truth: np.ndarray, reps: range
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Hit and length arrays of each replication in ``reps``, None where both attempts failed.

    Pass 0 scores every replication r under its run seed (master seed, r);
    pass 1 scores again, under (master seed, r, 1), those whose pass 0 raised
    ``SieveVarError``. Each pass simulates its samples from child 0 of its
    run seeds in one ``simulate_varma_stack`` call.
    """
    out: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(reps)
    pending = list(reps)
    for retry in ((), (1,)):
        if not pending:
            break
        run_seeds = [substream(cfg.seed, r, *retry) for r in pending]
        samples = simulate_varma_stack(
            cfg.dgp, cfg.t, cfg.effective_burn_in, [substream(s, 0) for s in run_seeds]
        )
        failed = []
        for r, y, run_seed in zip(pending, samples, run_seeds):
            try:
                out[r - reps.start] = _run_replication(cfg, truth, y, run_seed)
            except SieveVarError:
                failed.append(r)
        pending = failed
    return out


def _run_replication(
    cfg: ExperimentConfig, truth: np.ndarray, y: np.ndarray, run_seed: SeedLike
) -> tuple[np.ndarray, np.ndarray]:
    """Hit and length arrays, (n_methods, H+1, K, K), of the (T, K) sample ``y``.

    Raises ``SieveVarError`` when the sample cannot be scored, as on a
    singular fit or a non-finite sample.
    """
    sets = interval_sets_for_sample(
        y,
        cfg.p,
        cfg.horizon,
        cfg.level,
        cfg.methods,
        cfg.bootstrap_replications,
        run_seed,
        cfg.intercept,
    )
    hits = np.stack([sets[method].contains(truth) for method in cfg.methods])
    return hits, np.stack([sets[method].lengths() for method in cfg.methods])


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
    truth = varma_true_irf(cfg.dgp, cfg.horizon)
    size = _chunk_size(cfg)
    chunks = [range(r, min(r + size, cfg.replications)) for r in range(0, cfg.replications, size)]
    run_chunk = partial(_run_chunk, cfg, truth)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = [rec for chunk in pool.map(run_chunk, chunks) for rec in chunk]
    else:
        results = [rec for chunk in map(run_chunk, chunks) for rec in chunk]

    records = [rec for rec in results if rec is not None]
    failures = len(results) - len(records)
    if failures > FAILURE_BUDGET * cfg.replications:
        raise ExperimentError(
            f"{failures} of {cfg.replications} replications failed "
            f"(budget {FAILURE_BUDGET:.0%})"
        )
    return aggregate(records, cfg.methods, cfg.level, failures=failures)


def coverage_flags(summary: McSummary) -> list[tuple[str, int, str]]:
    """(method, horizon, 'under'|'over') records for miscovered horizons.

    Under-coverage is below level - 0.1, over-coverage above
    min(1, level + 0.04); records come in (method, horizon) order.
    """
    under = summary.coverage < summary.level - 0.1
    over = summary.coverage > min(1.0, summary.level + 0.04)
    return [
        (summary.methods[j], i, "under" if under[j, i] else "over")
        for j, i in np.argwhere(under | over).tolist()
    ]
