"""Residual-bootstrap percentile intervals and bias-corrected variants.

The recursive-design scheme resamples the centered residuals of the model
fitted to the sample with replacement, seeds the recursion with a random
contiguous block of the observed sample, and refits the VAR on each
pseudo-sample in one refit loop; the sample itself is never refitted. The
bias-corrected interval runs one bootstrap to estimate the coefficient
bias, corrects the point estimates under a stationarity guard, then reuses
that same bias estimate on every second-stage draw instead of nesting a
second bootstrap loop.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .dgp_sim import SamplePath
from .errors import DimensionMismatchError, SingularMatrixError
from .estimate import VarModel, fit_var_ls
from .delta_infer import IntervalSet
from .streams import SeedLike, generator, substream
from .var_core import MatrixSeq, coeff_seq, companion_form, ma_from_ar, spectral_radius

_MAX_REFIT_ATTEMPTS = 10

# draws resampled together; all 300 draws of a K=4, T=600 call at once
# took about 9 MB more peak memory than blocks of 64 and ran about 15% faster
_DRAW_BLOCK = 64

# delta grid for the stationarity guard: 1.00, 0.99, ..., 0.00
_GUARD_STEP = 0.01


def residual_bootstrap_sample(
    model: VarModel,
    residuals: np.ndarray,
    source: SamplePath | np.ndarray,
    seeds: Sequence[SeedLike],
) -> np.ndarray:
    """Recursive-design pseudo-samples, one per seed, shape (n, T, K).

    Residuals are centered before resampling; the first p values of each
    pseudo-sample are a random contiguous block of the source sample. Each
    seed's stream is consumed in a fixed order (block start, then T
    residual indices), so pseudo-sample j depends on ``seeds[j]`` alone and
    is bit-identical given the same seed.
    """
    resid = np.asarray(residuals, dtype=float)
    if resid.ndim == 1:
        resid = resid[:, np.newaxis]
    if resid.shape[0] < 2:
        raise ValueError("need at least 2 residual rows")
    values = source.values if isinstance(source, SamplePath) else np.asarray(source)
    t, k = values.shape
    p, n = model.p, len(seeds)

    rngs = [generator(seed) for seed in seeds]
    starts = np.array([rng.integers(0, t - p + 1) for rng in rngs])
    idx = np.array([rng.integers(0, resid.shape[0], size=t) for rng in rngs])
    centered = resid - resid.mean(axis=0)

    stacked = np.hstack(list(model.ar_hat.mats))  # K x Kp
    const = model.intercept if model.intercept is not None else np.zeros(k)
    out = np.empty((n, t, k))
    out[:, :p] = values[starts[:, np.newaxis] + np.arange(p)]
    state = out[:, :p][:, ::-1].reshape(n, -1)  # rows [y_{p-1}', ..., y_0']
    for step in range(p, t):
        # a stack of matrix-vector products keeps each draw's gemv bits;
        # state @ stacked.T would round differently
        gemv = (stacked @ state[..., np.newaxis])[..., 0]
        y_new = const + gemv + centered[idx[:, step]]
        out[:, step] = y_new
        state[:, k:] = state[:, :-k]
        state[:, :k] = y_new
    return out


def _refit_draws(
    model: VarModel,
    residuals: np.ndarray,
    y: SamplePath | np.ndarray,
    m: int,
    seed: SeedLike,
) -> np.ndarray:
    """Coefficient stacks of m recursive-bootstrap refits, shape (m, p, K, K).

    Draw r resamples from ``model`` on the stream (seed, r, attempt), moving
    to the next attempt when the refit is singular, and refits with an
    intercept when ``model`` has one. Each attempt is one pass over the
    draws still pending, resampled in blocks of ``_DRAW_BLOCK``.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    intercept = model.intercept is not None
    out = np.empty((m, model.p, model.k, model.k))
    pending = list(range(m))
    for attempt in range(_MAX_REFIT_ATTEMPTS):
        singular = []
        for lo in range(0, len(pending), _DRAW_BLOCK):
            block = pending[lo : lo + _DRAW_BLOCK]
            seeds = [substream(seed, r, attempt) for r in block]
            pseudo = residual_bootstrap_sample(model, residuals, y, seeds)
            for r, sample in zip(block, pseudo):
                try:
                    out[r] = fit_var_ls(sample, model.p, intercept=intercept)[0].ar_hat.mats
                except SingularMatrixError:
                    singular.append(r)
        pending = singular
        if not pending:
            return out
    raise SingularMatrixError(
        f"bootstrap refit failed {_MAX_REFIT_ATTEMPTS} times for draw {pending[0]}"
    )


def bootstrap_irf_distribution(
    model: VarModel,
    residuals: np.ndarray,
    y: SamplePath | np.ndarray,
    horizon: int,
    m: int,
    seed: SeedLike,
) -> np.ndarray:
    """IRF estimates from m recursive-bootstrap refits of the fitted ``model``.

    Returns the draws Phi_0..Phi_H, shape (m, H+1, K, K). Replication r
    draws from the child stream (seed, r); the result does not depend on
    the order replications execute in.
    """
    return ma_from_ar(_refit_draws(model, residuals, y, m, seed), horizon)


def percentile_indices(m: int, level: float) -> tuple[int, int]:
    """1-based order-statistic indices of the equal-tailed percentile interval."""
    lo = math.ceil(m * (1.0 - level) / 2.0)
    hi = math.ceil(m * (1.0 + level) / 2.0)
    return max(lo, 1), min(hi, m)


def percentile_ci(
    draws: np.ndarray,
    level: float,
    points: MatrixSeq | np.ndarray | None = None,
    method: str = "BOOT",
    t: int = 0,
) -> IntervalSet:
    """Equal-tailed Efron percentile interval per response entry.

    ``draws`` has shape (M, H+1, K, K). Bounds are raw order statistics
    (no interpolation). ``points`` defaults to the entrywise sample median
    of the draws.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 4 or not np.all(np.isfinite(draws)):
        raise DimensionMismatchError("draws must be a finite (M, H+1, K, K) array")
    lo, hi = percentile_indices(len(draws), level)
    ordered = np.sort(draws, axis=0)
    lowers = ordered[lo - 1]
    uppers = ordered[hi - 1]
    if points is None:
        pts = np.median(draws, axis=0)
    else:
        pts = points.mats if isinstance(points, MatrixSeq) else np.asarray(points)
    return IntervalSet(
        method=method, level=level, t=t, points=pts, lowers=lowers, uppers=uppers
    )


def stationarity_guard(
    coef: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, float]:
    """Largest delta in {1.00, 0.99, ..., 0} with stationary coef - delta*bias.

    Returns the corrected coefficient stack and the delta used; delta = 0
    cancels the correction entirely and is returned without a radius check.
    """
    k = coef.shape[1]
    for step in range(100, 0, -1):
        delta = step * _GUARD_STEP
        cand = coef - delta * bias
        if spectral_radius(companion_form(coeff_seq(cand, k))) < 1.0:
            return cand, delta
    return coef.copy(), 0.0


def bias_corrected_coefficients(
    model: VarModel,
    residuals: np.ndarray,
    y: SamplePath | np.ndarray,
    m: int,
    seed: SeedLike,
) -> tuple[MatrixSeq, np.ndarray, float]:
    """First-stage bootstrap bias correction of the fitted coefficients.

    Draws on the child stream (seed, 0). Returns (corrected coefficients,
    bias estimate, guard delta). The bias estimate is
    mean(bootstrap coefficients) - fitted coefficients.
    """
    # the builtin sum adds the draws in order, unlike numpy's pairwise sum
    coefs = _refit_draws(model, residuals, y, m, substream(seed, 0))
    bias = sum(coefs) / m - model.ar_hat.mats
    corrected, delta = stationarity_guard(model.ar_hat.mats, bias)
    return coeff_seq(corrected, model.k), bias, delta


def bias_corrected_bootstrap(
    model: VarModel,
    residuals: np.ndarray,
    y: SamplePath | np.ndarray,
    horizon: int,
    m: int,
    level: float,
    seed: SeedLike,
) -> IntervalSet:
    """Bias-corrected bootstrap percentile intervals (single-stage shortcut).

    Stage one (stream (seed, 0)) estimates the coefficient bias; stage two
    (stream (seed, 1)) resamples from the bias-corrected model and applies
    the same stage-one bias estimate to each replication's coefficients
    (with the stationarity guard applied per draw) before computing its
    IRFs. With a zero bias estimate stage two is exactly a plain bootstrap
    of ``model``. Intervals are equal-tailed percentiles of the corrected
    draws, centered on the corrected model's own IRFs.
    """
    corrected, bias, _ = bias_corrected_coefficients(model, residuals, y, m, seed)
    coefs = _refit_draws(
        replace(model, ar_hat=corrected), residuals, y, m, substream(seed, 1)
    )
    guarded = np.array([stationarity_guard(c, bias)[0] for c in coefs])
    points = ma_from_ar(corrected, horizon)
    t = y.t if isinstance(y, SamplePath) else len(np.asarray(y))
    return percentile_ci(
        ma_from_ar(guarded, horizon), level, points=points, method="BOOT-db", t=t
    )
