"""Residual-bootstrap percentile intervals, plain (BOOT) and bias-corrected (BOOT-db).

``bootstrap_interval_sets`` is the one entry point for bootstrap
intervals: it takes a fit's coefficients, intercept and residuals, the
(T, K) sample they came from, the bootstrap methods wanted and the
sample's seed, and returns each method's point, lower and upper arrays,
as ``delta_infer.delta_bounds`` returns its bounds. The recursive-design
scheme resamples the centered residuals of the fitted model with
replacement, seeds the recursion with a random contiguous block of the
sample, and refits the VAR on each pseudo-sample; the sample itself is
never refitted. The fitted model's refits are drawn once per sample and
read by both methods: BOOT expands them to IRF draws, and BOOT-db
averages them into a coefficient bias, corrects the point estimates
under a stationarity guard, and runs its second stage (``_stage_two``)
as a pass of its own. That stage resamples the corrected model, its
intercept re-centred on the fitted mean, and reuses the same bias on
every draw, under the same guard, instead of nesting a third bootstrap.

Streams, below the sample's seed s: the fitted-model refits draw on
S = (s, 10), whichever method asked, and BOOT-db's second stage on
S = (s, 11, 1). On refit attempt a, the block starts of all the stage's
draws come from one fill of the stream (S, a, 0) and their residual
indices from one fill of (S, a, 1), row r for draw r. Both fills are
prefix-stable, so a draw's indices depend on (S, a, r) alone, not on m
or the other draws of the pass. A draw moves to the next attempt only
when its refit is singular.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SingularMatrixError
# fit_var_ls stays bound here: bench/run.py traces it through this module
from .estimate import fit_var_ls, fit_var_ls_stack  # noqa: F401
from .streams import SeedLike, generator, substream
from .var_core import _solve_recursion, _stationary, companion_form, ma_from_ar, spectral_radius

_MAX_REFIT_ATTEMPTS = 10

# pseudo-sample values resampled together, 64 draws at K=4, T=600. A BOOT
# call of 300 such draws (p = 6, H = 24) peaked about 8.5 MB above its
# starting RSS in blocks of 64 and about 20.5 MB with all draws at once,
# which ran 62-71 ms against 67-78 ms (medians of 7 calls, 2-vCPU VM)
_BLOCK_FLOATS = 64 * 600 * 4

# delta grid for the stationarity guard: 1.00, 0.99, ..., 0.00
_GUARD_STEP = 0.01


def residual_bootstrap_sample(
    ar: np.ndarray,
    intercept: np.ndarray | None,
    residuals: np.ndarray,
    source: np.ndarray,
    starts: np.ndarray,
    idx: np.ndarray,
) -> np.ndarray:
    """Recursive-design pseudo-samples of a VAR(p), one per row of ``idx``, shape (n, T, K).

    ``ar`` is the (p, K, K) coefficient stack A_1..A_p and ``intercept`` the
    (K,) constant, or None for none. Residuals are centered before
    resampling. Pseudo-sample j starts from the p rows of the (T, K)
    ``source`` beginning at ``starts[j]`` and adds the centered residuals
    ``idx[j]`` at steps p..T-1; ``starts`` is an (n,) array of starts in
    0..T-p and ``idx`` an (n, T - p) array of residual rows. Pseudo-sample j
    depends on row j alone. The pseudo-samples are gathered straight into
    the returned array, which the recursion then solves in place.
    """
    resid = np.asarray(residuals, dtype=float)
    if resid.ndim == 1:
        resid = resid[:, np.newaxis]
    if resid.shape[0] < 2:
        raise ValueError("need at least 2 residual rows")
    ar, starts, idx = np.asarray(ar, dtype=float), np.asarray(starts), np.asarray(idx)
    t = len(source)
    p, n = len(ar), len(starts)
    if idx.shape != (n, t - p):
        raise DimensionMismatchError(
            f"need {n} rows of {t - p} residual indices, got shape {idx.shape}"
        )
    if idx.size and not 0 <= idx.min() <= idx.max() < len(resid):
        raise IndexError(f"residual indices must lie in 0..{len(resid) - 1}")
    if n and not 0 <= starts.min() <= starts.max() <= t - p:
        raise IndexError(f"block starts must lie in 0..{t - p}")
    # the constant rides on every resampled residual: y_s = sum_j A_j y_{s-j} + (c + u_s)
    pool = resid - resid.mean(axis=0)
    if intercept is not None:
        pool = pool + intercept
    # one gather from the pool and the source below it: rows below p of each
    # path are its start block of the source, the rest its residuals
    table = np.concatenate([pool, source])
    rows = np.empty((n, t), dtype=np.intp)
    rows[:, :p] = len(pool) + starts[:, np.newaxis] + np.arange(p)
    rows[:, p:] = idx
    paths = table.take(rows, axis=0)
    _solve_recursion(ar, paths)
    return paths


def _draw_indices(
    seed: SeedLike, attempt: int, n: int, t: int, p: int, n_resid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Block starts (n,) and residual indices (n, T - p) of draws 0..n-1 of a stage.

    The starts fill the stream (seed, attempt, 0) and the indices the
    stream (seed, attempt, 1), row r for draw r; numpy fills both in row
    order, so row r is the same for every n > r.
    """
    starts = generator(substream(seed, attempt, 0)).integers(0, t - p + 1, size=n)
    idx = generator(substream(seed, attempt, 1)).integers(0, n_resid, size=(n, t - p))
    return starts, idx


def _refit_draws(
    ar: np.ndarray,
    intercept: np.ndarray | None,
    residuals: np.ndarray,
    y: np.ndarray,
    stage: str,
    seed: SeedLike,
    m: int,
) -> np.ndarray:
    """Coefficient stacks of the m recursive-bootstrap refits of one stage, shape (m, p, K, K).

    ``stage`` names the stage in errors. Draw r resamples from (``ar``,
    ``intercept``) with row r of ``_draw_indices(seed, attempt, ...)``,
    moving to the next attempt when its refit is singular, and refits with
    an intercept when there is one. Each attempt is one pass over the
    stage's pending draws: their indices are drawn once, for draws 0 up to
    the last pending one, and the pending draws are resampled in one
    recursion per block of at most ``_BLOCK_FLOATS`` pseudo-sample values,
    checked finite, and refitted by one ``fit_var_ls_stack`` call per
    block, and a draw it flags is singular. That kernel decides and solves
    each draw on its own, so a draw's bits do not depend on the draws
    beside it.

    Raises
    ------
    NonFiniteError
        If a pseudo-sample is not finite, as on an explosive ``ar``.
    SingularMatrixError
        If a draw's refit is singular on every attempt.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    p, k = ar.shape[:2]
    t = len(y)
    block = max(1, _BLOCK_FLOATS // y.size)
    out = np.empty((m, p, k, k))
    pending = np.arange(m)
    for attempt in range(_MAX_REFIT_ATTEMPTS):
        starts, idx = _draw_indices(seed, attempt, pending[-1] + 1, t, p, len(residuals))
        singular = []
        for lo in range(0, len(pending), block):
            rows = pending[lo : lo + block]
            pseudo = residual_bootstrap_sample(ar, intercept, residuals, y, starts[rows], idx[rows])
            finite = np.isfinite(pseudo).all(axis=(1, 2))
            if not finite.all():
                raise NonFiniteError(
                    f"{stage} draw {rows[np.argmin(finite)]}: bootstrap "
                    "pseudo-sample is not finite (is the fitted model explosive?)"
                )
            coefs, fitted, _ = fit_var_ls_stack(pseudo, p, intercept=intercept is not None)
            singular.extend(rows[~fitted].tolist())
            out[rows] = coefs
        pending = np.array(singular, dtype=np.intp)
        if not len(pending):
            return out
    raise SingularMatrixError(
        f"bootstrap refit failed {_MAX_REFIT_ATTEMPTS} times for {stage} draw {pending[0]}"
    )


def percentile_indices(m: int, level: float) -> tuple[int, int]:
    """1-based order-statistic indices of the equal-tailed percentile interval."""
    lo = math.ceil(m * (1.0 - level) / 2.0)
    hi = math.ceil(m * (1.0 + level) / 2.0)
    return max(lo, 1), min(hi, m)


def percentile_ci(draws: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Equal-tailed Efron percentile bounds per response entry, (lowers, uppers).

    ``draws`` has shape (M, H+1, K, K), and each bound (H+1, K, K). Bounds
    are raw order statistics (no interpolation).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 4:
        raise DimensionMismatchError("draws must be an (M, H+1, K, K) array")
    if not np.all(np.isfinite(draws)):
        raise NonFiniteError("bootstrap draws are not finite")
    lo, hi = percentile_indices(len(draws), level)
    lowers, uppers = np.sort(draws, axis=0)[[lo - 1, hi - 1]]
    return lowers, uppers


def stationarity_guard(
    coef: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, float | np.ndarray]:
    """Largest delta in {1.00, 0.99, ..., 0} with stationary coef - delta*bias.

    ``coef`` is one (p, K, K) coefficient stack or a (..., p, K, K) stack of
    them, and ``bias`` broadcasts against it. Returns the corrected
    coefficients and the delta used, a float for one stack and an array of
    shape (...) for many; delta = 0 cancels the correction entirely and is
    returned without a radius check. The first step (delta = 1) decides
    all draws with ``var_core._stationary``, which certifies a draw from
    the norm of a power of its companion matrix and eigen-solves only the
    draws that bound cannot settle; each later step solves the companion
    eigenvalues of the draws still non-stationary in one stacked call.
    Either way a draw's decision is exactly spectral_radius(C) < 1.
    """
    coef = np.asarray(coef, dtype=float)
    flat = coef.reshape((-1,) + coef.shape[-3:])
    bias = np.broadcast_to(bias, coef.shape).reshape(flat.shape)
    out = flat.copy()
    deltas = np.zeros(len(flat))
    pending = np.arange(len(flat))
    for step in range(100, 0, -1):
        if not len(pending):
            break
        delta = step * _GUARD_STEP
        cand = flat[pending] - delta * bias[pending]
        comp = companion_form(cand)
        # the power bound settles nearly every draw at delta = 1; a draw
        # still pending is near the boundary, where the bound would only add
        # cost
        stable = _stationary(comp) if step == 100 else spectral_radius(comp) < 1.0
        out[pending[stable]] = cand[stable]
        deltas[pending[stable]] = delta
        pending = pending[~stable]
    shape = coef.shape[:-3]
    return out.reshape(coef.shape), (deltas.reshape(shape) if shape else float(deltas[0]))


def _stage_two(
    ar: np.ndarray,
    intercept: np.ndarray | None,
    residuals: np.ndarray,
    y: np.ndarray,
    horizon: int,
    m: int,
    level: float,
    stream: SeedLike,
    corrected: np.ndarray,
    bias: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BOOT-db points, lowers and uppers around the bias-corrected fit, drawing on ``stream``.

    The corrected model keeps the fitted mean mu = (I - sum A_hat)^-1 c, so
    its intercept is (I - sum A_corr) mu, computed as c + (sum A_hat - sum
    A_corr) mu so that a zero correction leaves c bit-identical.
    """
    if intercept is not None:
        mean = np.linalg.solve(np.eye(len(intercept)) - ar.sum(axis=0), intercept)
        intercept = intercept + (ar - corrected).sum(axis=0) @ mean
    coefs = _refit_draws(corrected, intercept, residuals, y, "BOOT-db stage two", stream, m)
    guarded = stationarity_guard(coefs, bias)[0]
    # the points expand with the draws, each bit-identical to its own expansion
    irfs = ma_from_ar(np.concatenate([corrected[np.newaxis], guarded]), horizon)
    return (irfs[0].copy(), *percentile_ci(irfs[1:], level))


def bootstrap_interval_sets(
    ar: np.ndarray,
    intercept: np.ndarray | None,
    residuals: np.ndarray,
    y: np.ndarray,
    horizon: int,
    m: int,
    level: float,
    methods: Sequence[str],
    seed: SeedLike,
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Points, lowers and uppers, (H+1, K, K) each, of Phi_0..Phi_H for each of ``methods``.

    ``ar`` is a fit's (p, K, K) coefficient stack, ``intercept`` its (K,)
    constant or None, ``residuals`` its (T - p, K) residuals, ``y`` the
    (T, K) sample it was fitted to and ``seed`` the sample's seed; the
    methods are "BOOT" and "BOOT-db". Each interval is centred on its own
    point estimate: the fitted IRFs for BOOT, the bias-corrected model's
    for BOOT-db. Both read one stack of m fitted-model refits, drawn on the
    same stream whichever asked, so an interval's bits do not depend on
    which other method is requested.

    Raises
    ------
    DimensionMismatchError
        If ``y`` is not a (len(residuals) + p, K) array, the shape of the
        sample the fit came from.
    ValueError
        If ``methods`` names a method other than "BOOT" and "BOOT-db", or
        names one and m < 2.
    """
    ar = np.asarray(ar, dtype=float)
    y = np.asarray(y)
    expected = (len(residuals) + len(ar), ar.shape[-1])
    if y.shape != expected:
        raise DimensionMismatchError(
            f"y must be the (T, {expected[1]}) array the fit came from, of shape {expected}, "
            f"got shape {y.shape}"
        )
    unknown = sorted(set(methods) - {"BOOT", "BOOT-db"})
    if unknown:
        raise ValueError(f"unknown bootstrap methods {unknown}; valid: ['BOOT', 'BOOT-db']")
    out = {}
    if not methods:
        return out
    coefs = _refit_draws(ar, intercept, residuals, y, "fitted-model", substream(seed, 10), m)
    if "BOOT" in methods:
        irfs = ma_from_ar(np.concatenate([ar[np.newaxis], coefs]), horizon)
        # the point and bounds are copies, so a caller that keeps them frees the draws
        out["BOOT"] = (irfs[0].copy(), *percentile_ci(irfs[1:], level))
    if "BOOT-db" in methods:
        # the bias is mean(refit coefficients) - fitted coefficients; the
        # builtin sum adds the draws in order, unlike numpy's pairwise sum
        bias = sum(coefs) / m - ar
        corrected = stationarity_guard(ar, bias)[0]
        stream = substream(seed, 11, 1)
        out["BOOT-db"] = _stage_two(
            ar, intercept, residuals, y, horizon, m, level, stream, corrected, bias
        )
    return out
