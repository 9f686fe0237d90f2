"""Residual-bootstrap percentile intervals and bias-corrected variants.

The recursive-design scheme resamples the centered residuals of the model
fitted to the sample with replacement, seeds the recursion with a random
contiguous block of the observed sample, and refits the VAR on each
pseudo-sample; the sample itself is never refitted. All draws of one
fitted model go through one refit pass: BOOT's draws and the first stage
of the bias-corrected interval (BOOT-db) resample the same model from the
same residuals, so ``bootstrap_interval_sets`` steps them in one recursion
and refits them with one stacked solve per block. The first stage
estimates the coefficient bias and corrects the point estimates under a
stationarity guard; the second stage resamples the corrected model and
reuses that same bias estimate on every draw instead of nesting a third
bootstrap, so it is the one pass that must wait for another.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Mapping, Sequence

import numpy as np

from .dgp_sim import SamplePath
from .errors import DimensionMismatchError, NonFiniteError, SingularMatrixError
from .estimate import VarModel, fit_var_ls, fit_var_ls_stack
from .delta_infer import IntervalSet
from .streams import SeedLike, generator, substream
from .var_core import coeff_seq, ma_from_ar, spectral_radius

_MAX_REFIT_ATTEMPTS = 10

# pseudo-sample values resampled together, 64 draws at K=4, T=600; all 300
# draws of such a call at once took about 9 MB more peak memory than blocks
# of 64 and ran about 15% faster
_BLOCK_FLOATS = 64 * 600 * 4

# stage names of the bias-corrected interval's two passes, used in errors
_STAGE_ONE = "BOOT-db stage one"
_STAGE_TWO = "BOOT-db stage two"

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
    ).reshape(n, t).T.copy()  # row s holds every draw's index for step s
    centered = resid - resid.mean(axis=0)

    stacked = np.hstack(list(model.ar_hat.mats))  # K x Kp
    const = model.intercept if model.intercept is not None else np.zeros(k)
    # time runs backwards in rev: row t-1-s holds y_s, so the state
    # [y_{s-1}', ..., y_{s-p}'] is the contiguous run of rows t-s..t-s+p-1
    rev = np.empty((n, t, k))
    rev[:, t - p :] = values[starts[:, np.newaxis] + np.arange(p)][:, ::-1]
    flat = rev.reshape(n, t * k)
    for step in range(p, t):
        row = t - 1 - step
        state = flat[:, (row + 1) * k : (row + 1 + p) * k]
        # a stack of matrix-vector products keeps each draw's gemv bits;
        # state @ stacked.T would round differently
        gemv = (stacked @ state[..., np.newaxis])[..., 0]
        rev[:, row] = const + gemv + centered.take(idx[step], axis=0)
    # take copies whole rows, several times faster than copying rev[:, ::-1]
    return rev.take(np.arange(t - 1, -1, -1), axis=1)


def _refit_draws(
    model: VarModel,
    residuals: np.ndarray,
    y: SamplePath | np.ndarray,
    streams: Sequence[tuple[str, SeedLike, int]],
) -> list[np.ndarray]:
    """Coefficient stacks of recursive-bootstrap refits, one (m, p, K, K) per stream.

    ``streams`` holds (stage, seed, m) triples; the stage names the stream
    in errors. Draw r of a stream resamples from ``model`` on the stream
    (seed, r, attempt), moving to the next attempt when its refit is
    singular, and refits with an intercept when ``model`` has one. Each
    attempt is one pass over the pending draws of all streams together:
    they are resampled in one recursion per block of at most
    ``_BLOCK_FLOATS`` pseudo-sample values and refitted by one
    ``fit_var_ls_stack`` call per block. A draw it flags is refitted by
    ``fit_var_ls``, whose ``SingularMatrixError`` marks the draw singular.
    A draw's bits do not depend on the streams or draws beside it.

    Raises
    ------
    NonFiniteError
        If a pseudo-sample is not finite, as on an explosive ``model``.
    SingularMatrixError
        If a draw's refit is singular on every attempt.
    """
    if any(m < 2 for _, _, m in streams):
        raise ValueError("m must be >= 2")
    intercept = model.intercept is not None
    values = y.values if isinstance(y, SamplePath) else np.asarray(y)
    block = max(1, _BLOCK_FLOATS // values.size)
    sizes = [m for _, _, m in streams]
    ends = np.cumsum(sizes, dtype=np.intp)
    # draws of all streams in one flat order: stream, then draw index
    owner = np.repeat(np.arange(len(streams)), sizes)
    draw = np.arange(len(owner)) - np.repeat(ends - sizes, sizes)
    out = np.empty((len(owner), model.p, model.k, model.k))
    pending = np.arange(len(owner))
    for attempt in range(_MAX_REFIT_ATTEMPTS):
        singular = []
        for lo in range(0, len(pending), block):
            chunk = pending[lo : lo + block]
            seeds = [
                substream(streams[i][1], r, attempt)
                for i, r in zip(owner[chunk].tolist(), draw[chunk].tolist())
            ]
            pseudo = residual_bootstrap_sample(model, residuals, y, seeds)
            coefs, fitted = fit_var_ls_stack(pseudo, model.p, intercept=intercept)
            if not fitted.all():
                broken = np.flatnonzero(~np.isfinite(pseudo).all(axis=(1, 2)))
                if len(broken):
                    j = chunk[broken[0]]
                    raise NonFiniteError(
                        f"{streams[owner[j]][0]} draw {draw[j]}: bootstrap "
                        "pseudo-sample is not finite (is the fitted model explosive?)"
                    )
            for j in np.flatnonzero(~fitted):
                try:
                    coefs[j] = fit_var_ls(pseudo[j], model.p, intercept=intercept)[0].ar_hat.mats
                except SingularMatrixError:
                    singular.append(chunk[j])
            out[chunk] = coefs
        pending = np.array(singular, dtype=np.intp)
        if not len(pending):
            return [out[end - m : end] for end, m in zip(ends, sizes)]
    j = pending[0]
    raise SingularMatrixError(
        f"bootstrap refit failed {_MAX_REFIT_ATTEMPTS} times for "
        f"{streams[owner[j]][0]} draw {draw[j]}"
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
    (coefs,) = _refit_draws(model, residuals, y, [("BOOT", seed, m)])
    return ma_from_ar(coefs, horizon)


def percentile_indices(m: int, level: float) -> tuple[int, int]:
    """1-based order-statistic indices of the equal-tailed percentile interval."""
    lo = math.ceil(m * (1.0 - level) / 2.0)
    hi = math.ceil(m * (1.0 + level) / 2.0)
    return max(lo, 1), min(hi, m)


def percentile_ci(
    draws: np.ndarray,
    level: float,
    points: np.ndarray | None = None,
    method: str = "BOOT",
    t: int = 0,
) -> IntervalSet:
    """Equal-tailed Efron percentile interval per response entry.

    ``draws`` has shape (M, H+1, K, K). Bounds are raw order statistics
    (no interpolation). ``points``, an (H+1, K, K) array, defaults to the
    entrywise sample median of the draws.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 4:
        raise DimensionMismatchError("draws must be an (M, H+1, K, K) array")
    if not np.all(np.isfinite(draws)):
        raise NonFiniteError("bootstrap draws are not finite")
    lo, hi = percentile_indices(len(draws), level)
    ordered = np.sort(draws, axis=0)
    lowers = ordered[lo - 1]
    uppers = ordered[hi - 1]
    if points is None:
        points = np.median(draws, axis=0)
    return IntervalSet(
        method=method, level=level, t=t, points=points, lowers=lowers, uppers=uppers
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
) -> tuple[np.ndarray, np.ndarray, float]:
    """First-stage bootstrap bias correction of the fitted coefficients.

    Draws on the child stream (seed, 0). Returns (corrected coefficients,
    bias estimate, guard delta), the first two of shape (p, K, K). The bias
    estimate is mean(bootstrap coefficients) - fitted coefficients.
    """
    (coefs,) = _refit_draws(model, residuals, y, [(_STAGE_ONE, substream(seed, 0), m)])
    return _bias_correction(model, coefs)


def _bias_correction(
    model: VarModel, coefs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """``bias_corrected_coefficients`` from the stage-one coefficient draws."""
    # the builtin sum adds the draws in order, unlike numpy's pairwise sum
    bias = sum(coefs) / len(coefs) - model.ar_hat.mats
    corrected, delta = stationarity_guard(model.ar_hat.mats, bias)
    return corrected, bias, delta


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
    return _stage_two(model, residuals, y, horizon, m, level, seed, corrected, bias)


def _stage_two(
    model: VarModel,
    residuals: np.ndarray,
    y: SamplePath | np.ndarray,
    horizon: int,
    m: int,
    level: float,
    seed: SeedLike,
    corrected: np.ndarray,
    bias: np.ndarray,
) -> IntervalSet:
    """BOOT-db intervals from the stage-one correction, drawing on (seed, 1)."""
    fitted = replace(model, ar_hat=coeff_seq(corrected, model.k))
    (coefs,) = _refit_draws(fitted, residuals, y, [(_STAGE_TWO, substream(seed, 1), m)])
    guarded = stationarity_guard(coefs, bias)[0]
    # the points expand with the draws, each bit-identical to its own expansion
    irfs = ma_from_ar(np.concatenate([corrected[np.newaxis], guarded]), horizon)
    return percentile_ci(irfs[1:], level, points=irfs[0], method="BOOT-db", t=_length(y))


def bootstrap_interval_sets(
    model: VarModel,
    residuals: np.ndarray,
    y: SamplePath | np.ndarray,
    horizon: int,
    m: int,
    level: float,
    seeds: Mapping[str, SeedLike],
) -> tuple[np.ndarray, dict[str, IntervalSet]]:
    """IRFs Phi_0..Phi_H of ``model`` and its intervals for "BOOT" and "BOOT-db".

    Returns the (H+1, K, K) IRF array and the intervals by method.
    ``seeds`` maps each bootstrap method wanted to its stream. BOOT draws
    as ``bootstrap_irf_distribution`` and BOOT-db as
    ``bias_corrected_bootstrap`` do, and every interval is bit-identical to
    theirs. BOOT's draws and BOOT-db's stage one resample the same model
    from the same residuals, so they share one ``_refit_draws`` pass, and
    the fitted IRFs are expanded together with BOOT's draws.
    """
    stages = {}
    if "BOOT" in seeds:
        stages["BOOT"] = ("BOOT", seeds["BOOT"], m)
    if "BOOT-db" in seeds:
        stages["BOOT-db"] = (_STAGE_ONE, substream(seeds["BOOT-db"], 0), m)
    coefs = dict(zip(stages, _refit_draws(model, residuals, y, list(stages.values()))))
    boot = coefs.get("BOOT", np.empty((0,) + model.ar_hat.mats.shape))
    irfs = ma_from_ar(np.concatenate([model.ar_hat.mats[np.newaxis], boot]), horizon)
    out = {}
    if "BOOT" in coefs:
        out["BOOT"] = percentile_ci(irfs[1:], level, points=irfs[0], method="BOOT", t=_length(y))
    if "BOOT-db" in coefs:
        corrected, bias, _ = _bias_correction(model, coefs["BOOT-db"])
        out["BOOT-db"] = _stage_two(
            model, residuals, y, horizon, m, level, seeds["BOOT-db"], corrected, bias
        )
    # a copy, so the IRFs do not keep BOOT's draws alive
    return irfs[0].copy(), out


def _length(y: SamplePath | np.ndarray) -> int:
    return y.t if isinstance(y, SamplePath) else len(np.asarray(y))
