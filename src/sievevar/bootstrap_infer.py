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
from .estimate import VarModel, fit_var_ls, fit_var_ls_stack
from .delta_infer import IntervalSet
from .streams import SeedLike, generator, substream
from .var_core import MatrixSeq, coeff_seq, ma_from_ar, spectral_radius

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
    starts = np.array([rng.integers(0, t - p + 1) for rng in rngs], dtype=np.intp)
    idx = np.array(
        [rng.integers(0, resid.shape[0], size=t) for rng in rngs], dtype=np.intp
    ).reshape(n, t)
    centered = resid - resid.mean(axis=0)

    stacked = np.hstack(list(model.ar_hat.mats))  # K x Kp
    const = model.intercept if model.intercept is not None else np.zeros(k)
    out = np.empty((n, t, k))
    out[:, :p] = values[starts[:, np.newaxis] + np.arange(p)]
    state = out[:, :p][:, ::-1].reshape(n, k * p)  # rows [y_{p-1}', ..., y_0']
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
    draws still pending, resampled and refitted in blocks of
    ``_DRAW_BLOCK`` by ``fit_var_ls_stack``; a draw it flags is refitted by
    ``fit_var_ls``, whose ``SingularMatrixError`` marks the draw singular.
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
            coefs, fitted = fit_var_ls_stack(pseudo, model.p, intercept=intercept)
            for j in np.flatnonzero(~fitted):
                try:
                    coefs[j] = fit_var_ls(pseudo[j], model.p, intercept=intercept)[0].ar_hat.mats
                except SingularMatrixError:
                    singular.append(block[j])
            out[block] = coefs
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
) -> tuple[np.ndarray, float | np.ndarray]:
    """Largest delta in {1.00, 0.99, ..., 0} with stationary coef - delta*bias.

    ``coef`` is one (p, K, K) coefficient stack or a (..., p, K, K) stack of
    them, and ``bias`` broadcasts against it. Returns the corrected
    coefficients and the delta used, a float for one stack and an array of
    shape (...) for many; delta = 0 cancels the correction entirely and is
    returned without a radius check. Each step solves the companion
    eigenvalues of all draws still non-stationary in one stacked call.
    """
    coef = np.asarray(coef, dtype=float)
    p, k = coef.shape[-3], coef.shape[-1]
    flat = coef.reshape(-1, p, k, k)
    bias = np.broadcast_to(bias, coef.shape).reshape(flat.shape)
    out = flat.copy()
    deltas = np.zeros(len(flat))
    pending = np.arange(len(flat))
    for step in range(100, 0, -1):
        if not len(pending):
            break
        delta = step * _GUARD_STEP
        cand = flat[pending] - delta * bias[pending]
        comp = np.zeros((len(pending), k * p, k * p))
        comp[:, :k] = cand.swapaxes(1, 2).reshape(-1, k, k * p)
        comp[:, k:, :-k] = np.eye(k * (p - 1))
        stable = spectral_radius(comp) < 1.0
        out[pending[stable]] = cand[stable]
        deltas[pending[stable]] = delta
        pending = pending[~stable]
    shape = coef.shape[:-3]
    return out.reshape(coef.shape), (deltas.reshape(shape) if shape else float(deltas[0]))


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
    (under the stationarity guard, all draws at once) before computing its
    IRFs. With a zero bias estimate stage two is exactly a plain bootstrap
    of ``model``. Intervals are equal-tailed percentiles of the corrected
    draws, centered on the corrected model's own IRFs.
    """
    corrected, bias, _ = bias_corrected_coefficients(model, residuals, y, m, seed)
    coefs = _refit_draws(
        replace(model, ar_hat=corrected), residuals, y, m, substream(seed, 1)
    )
    guarded = stationarity_guard(coefs, bias)[0]
    points = ma_from_ar(corrected, horizon)
    t = y.t if isinstance(y, SamplePath) else len(np.asarray(y))
    return percentile_ci(
        ma_from_ar(guarded, horizon), level, points=points, method="BOOT-db", t=t
    )
