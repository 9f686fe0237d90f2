"""Monte Carlo coverage and length experiments.

Each replication simulates a path, fits a VAR(p), builds intervals for the
requested methods, and scores every response entry against the true
impulse responses of the generating process. Replication r derives all of
its randomness from the child stream (master seed, r), and a failed one is
retried once on (master seed, r, 1). Replications run in chunks of
consecutive indices, bounded by the bytes of the chunk's shock stack: each
path of a chunk is drawn from its own replication's stream and all of them
step one recursion, so a path does not depend on the paths beside it.

A chunk scores its samples in stacks, each bounded by ``_STACK_FLOATS``:
one ``fit_var_fits`` call fits a stack, and the MA expansion, each delta
method's covariances and its bounds run once over it; only the bootstrap
methods run one sample at a time. Every stacked kernel gives each member
the bits of its own one-sample call, the kernels ``interval_sets_for_sample``
runs. Summaries are therefore identical for any worker count, any chunking
and any stack size. A failure has one route: a stack whose scoring raises,
its fit included (``fit_var_fits`` refuses a sample it cannot fit), is
scored again one sample at a time, and a sample that still raises goes to
the retry pass.

Chunks of a run with ``workers > 1`` run on the process's one worker pool.
The first such ``run_experiment`` call starts it, every later call with the
same count and the same ``METHODS`` table reuses it, a call with another
count or table replaces it, and it ends with the process; a forked child
starts without it. Each chunk task carries the config, the true responses
and the stack size, all computed by the parent, so a reused worker gets
the inputs a fresh fork would. Any other module state is what the process
held when the pool forked: a patch made after that does not reach it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .bootstrap_infer import bootstrap_interval_sets
from .delta_infer import IntervalSet, delta_bounds, irf_covariances
from .dgp_sim import SamplePath, VarmaSpec, default_burn_in, simulate_varma_stack, varma_true_irf
from .errors import ConfigError, ExperimentError, SieveVarError
from .estimate import VarFits, _as_values, _short_sample, fit_var_fits, sample_gamma_p_stack
from .streams import SeedLike, substream
from .var_core import ma_from_ar

# Each method, written down once: a delta method maps (the VarFits of n samples, the
# (n, T, K) samples, their Phi-hat stack) to its (n, H, K^2, K^2) covariance stack; a
# bootstrap method maps to None, and bootstrap_interval_sets draws it from a sample's seed.
METHODS: dict[str, Callable | None] = {
    "LS": lambda fits, ys, phi: irf_covariances(phi, fits.moment_matrix, fits.sigma_u_hat),
    "S-LS": lambda fits, ys, phi: irf_covariances(
        phi, sample_gamma_p_stack(ys, fits.p), fits.sigma_u_ml
    ),
    "BOOT": None,
    "BOOT-db": None,
}

# fraction of replications allowed to fail (after one retry each)
FAILURE_BUDGET = 0.01

# Shock values in one chunk's (n, p + burn_in + T, K) stack, 2 MB: bounds how
# many replications are simulated in one recursion.
_CHUNK_FLOATS = 256 * 1024

# Floats of the largest arrays of one stack's scoring, 1 MB (``_stack_size``):
# bounds how many samples of a pass are fitted and scored together.
_STACK_FLOATS = 128 * 1024

# The process's worker pool with its key, (worker count, ``METHODS`` items)
# when it forked (``_pool_map``), and the lock that a call holds while it
# uses them.
_pool: tuple[tuple, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Leave a forked child no pool and a free lock: the pool's threads do not run in it."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


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
    ``METHODS`` entry says: ``_interval_stacks`` of a one-sample stack. The
    bootstrap methods draw on child streams of ``seed`` that do not depend
    on which of them are requested, so adding or removing methods never
    changes another method's output.
    """
    check_design(p, horizon, level, methods, bootstrap_replications)
    y = _as_values(y)[np.newaxis]
    fits = fit_var_fits(y, p, intercept)
    arrays = _interval_stacks(fits, y, horizon, level, methods, bootstrap_replications, [seed])
    return {
        method: IntervalSet(method, points[0], lowers[0], uppers[0], clamped=int(clamped[0]))
        for method, (points, lowers, uppers, clamped) in arrays.items()
    }


def _interval_stacks(
    fits: VarFits,
    samples: np.ndarray,
    horizon: int,
    level: float,
    methods: Sequence[str],
    bootstrap_replications: int,
    seeds: Sequence[SeedLike],
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Points, lower and upper bounds, (n, H+1, K, K) each, and clamped counts, (n,), per method.

    ``fits`` are the fits of the (n, T, K) ``samples`` and ``seeds`` their
    seeds. The fitted coefficients are expanded and each delta method's
    covariances and bounds built once for the whole stack; each bootstrap
    method runs sample by sample.
    """
    boot = [m for m in methods if METHODS[m] is None]
    out = {}
    if boot:
        sets = [
            bootstrap_interval_sets(
                fits.model(i), fits.residuals[i], y, horizon, bootstrap_replications, level, boot,
                seed,
            )
            for i, (y, seed) in enumerate(zip(samples, seeds))
        ]
        for method in boot:
            ivs = [s[method] for s in sets]
            out[method] = (
                np.stack([iv.points for iv in ivs]),
                np.stack([iv.lowers for iv in ivs]),
                np.stack([iv.uppers for iv in ivs]),
                np.zeros(len(ivs), dtype=int),
            )
    phi_hat = ma_from_ar(fits.coefs, horizon)
    for method in (m for m in methods if m not in boot):
        covs = METHODS[method](fits, samples, phi_hat)
        out[method] = (phi_hat, *delta_bounds(phi_hat, covs, level, samples.shape[1]))
    return {method: out[method] for method in methods}


def _chunk_size(cfg: ExperimentConfig) -> int:
    """Replications per chunk: at most ``_CHUNK_FLOATS`` shock values, at least one chunk per worker."""
    per_path = (cfg.dgp.p + cfg.effective_burn_in + cfg.t) * cfg.dgp.k
    return max(1, min(_CHUNK_FLOATS // per_path, -(-cfg.replications // cfg.workers)))


def _stack_size(cfg: ExperimentConfig) -> int:
    """Samples scored in one stack: at most ``_STACK_FLOATS`` floats of its largest arrays.

    Per sample those are the (T - p, K (p + 1)) lag windows of the residual
    step or, later, the two (H, K^2, K^2 p) products alive at once in a
    covariance; a counterex-desk-p30 stack holds 4 samples.
    """
    k, p = cfg.dgp.k, cfg.p
    per_sample = max((cfg.t - p) * k * (p + 1), 2 * cfg.horizon * k**4 * p)
    return max(1, _STACK_FLOATS // per_sample)


def _run_chunk(
    cfg: ExperimentConfig, truth: np.ndarray, size: int, reps: range
) -> list[tuple[np.ndarray, np.ndarray] | None]:
    """Hit and length arrays of each replication in ``reps``, None where both attempts failed.

    Pass 0 scores every replication r under its run seed (master seed, r);
    pass 1 scores again, under (master seed, r, 1), those whose pass 0
    failed. Each pass simulates its samples from child 0 of its run seeds
    in one ``simulate_varma_stack`` call and scores them in stacks of
    ``size`` samples, ``_stack_size(cfg)``. A stack whose scoring raises
    ``SieveVarError``, its fit included, is scored again one sample at a
    time, and a sample fails when its own scoring raises.
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
        scored = []
        for lo in range(0, len(pending), size):
            stack = slice(lo, lo + size)
            try:
                scored += _run_replication(cfg, truth, samples[stack], run_seeds[stack])
            except SieveVarError:
                for i in range(lo, min(lo + size, len(pending))):
                    try:
                        one = slice(i, i + 1)
                        scored += _run_replication(cfg, truth, samples[one], run_seeds[one])
                    except SieveVarError:
                        scored.append(None)
        for r, record in zip(pending, scored):
            out[r - reps.start] = record
        pending = [r for r, record in zip(pending, scored) if record is None]
    return out


def _run_replication(
    cfg: ExperimentConfig, truth: np.ndarray, samples: np.ndarray, run_seeds: Sequence[SeedLike]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hit and length arrays, (n_methods, H+1, K, K), of each sample of an (n, T, K) stack.

    Raises ``SieveVarError`` when a stacked step fails for any sample, as
    on a singular fit, a non-finite expansion or a singular Gamma_p. The
    name is the replication boundary that bench/layers.py times; one call
    scores a stack of replications.
    """
    fits = fit_var_fits(samples, cfg.p, cfg.intercept)
    arrays = _interval_stacks(
        fits,
        samples,
        cfg.horizon,
        cfg.level,
        cfg.methods,
        cfg.bootstrap_replications,
        run_seeds,
    )
    lowers = np.stack([arrays[m][1] for m in cfg.methods], axis=1)
    uppers = np.stack([arrays[m][2] for m in cfg.methods], axis=1)
    hits = (lowers <= truth) & (truth <= uppers)
    lengths = uppers - lowers
    return list(zip(hits, lengths))


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


def _pool_map(workers: int, fn: Callable, items: Sequence) -> list:
    """``fn`` of each of ``items``, in order, on the process's pool of ``workers`` processes.

    The first call starts the pool and later calls with the same count and
    ``METHODS`` table reuse it. A call with another count or table shuts
    the pool down first, its threads joined, so that no pool thread is
    alive when the new pool forks its workers. A reused pool that raises
    ``BrokenProcessPool``, as when a worker died between calls, is dropped
    and the items run once more on a fresh pool; each item's result is
    deterministic, so the list is the same. A fresh pool that breaks is
    dropped and its error raised. The last pool ends through
    ``concurrent.futures``' exit handler. Calls from several threads take
    turns.
    """
    global _pool
    key = (workers, tuple(METHODS.items()))
    with _pool_lock:
        if _pool is not None and _pool[0] != key:
            _pool[1].shutdown(wait=True)
            _pool = None
        while True:
            reused = _pool is not None
            if not reused:
                _pool = (key, ProcessPoolExecutor(max_workers=workers))
            pool = _pool[1]
            try:
                return list(pool.map(fn, items))
            except BrokenProcessPool:
                _pool = None
                pool.shutdown(wait=True)
                if not reused:
                    raise


def run_experiment(cfg: ExperimentConfig) -> McSummary:
    """Execute the full experiment, on the process's worker pool when ``cfg.workers > 1``."""
    truth = varma_true_irf(cfg.dgp, cfg.horizon)
    size = _chunk_size(cfg)
    chunks = [range(r, min(r + size, cfg.replications)) for r in range(0, cfg.replications, size)]
    run_chunk = partial(_run_chunk, cfg, truth, _stack_size(cfg))
    if cfg.workers > 1:
        scored = _pool_map(cfg.workers, run_chunk, chunks)
    else:
        scored = map(run_chunk, chunks)
    results = [rec for chunk in scored for rec in chunk]

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
