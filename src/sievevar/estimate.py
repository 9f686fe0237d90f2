"""Least-squares VAR(p) estimation and sample second moments.

There are two different "Gamma" plug-ins on purpose: the regression
moment matrix Z Z' / T_eff of a fit (conditional on presample values), and
the block-Toeplitz matrix Gamma_p of divisor-T sample autocovariances
(``sample_gamma_p``). Finite-order delta intervals use the former, sieve
intervals the latter; keeping both explicit is what lets the two interval
families be compared cleanly. The fit's comes from the Gram of the
sample's lag windows (``_lag_grams``), Gamma_p from the sample's p
autocovariances, gathered into its blocks by one cached index.

Every kernel here takes a stack of samples: ``fit_var_fits`` fits an
(n, T, K) stack with its residuals and plug-ins, ``sample_gamma_p_stack``
builds its Gamma_p, and the one-sample functions ``fit_var_ls`` and
``sample_gamma_p`` are their n = 1 case. Each member of a stack keeps the
bits it has alone, and ``fit_var_fits`` refuses a stack with a sample it
cannot fit, with the error that sample raises alone. The solver under it,
``fit_var_ls_stack``, only computes: ``fit_var_fits`` and the bootstrap's
refits check the samples they hand it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .dgp_sim import SamplePath
from .errors import DimensionMismatchError, NonFiniteError, SingularMatrixError
from .var_core import _SERIAL_MADDS, MatrixSeq, _is_symmetric, coeff_seq

# Cholesky pivots with min^2 <= _PIVOT_COLLAPSE * max^2 mean numerical rank
# deficiency that dpotrf missed
_PIVOT_COLLAPSE = 1e-13

# _lag_grams keeps every BLAS call below OpenBLAS's threading sizes. On
# OpenBLAS 0.3.31 a syrk (numpy's a.T @ a) of 32 or more columns runs on the
# library's thread server (of 28 on the Haswell and Zen kernels), and so
# does a gemm of more than about 1e6 multiply-adds (m n k); in a forked
# worker that one call starts the server, whose helper thread then spins
# through the Python work that follows. So a Gram runs no syrk: it is built
# by gemm from two or more column panels of at most _GRAM_PANEL columns, by
# products of fewer than _SERIAL_MADDS multiply-adds.
_GRAM_PANEL = 31


class _PlugIns:
    """Regressor count and ML innovation covariance of a fit or of a stack of fits."""

    @property
    def n_reg(self) -> int:
        """Regressors per equation: K p plus one for the intercept."""
        return self.k * self.p + (1 if self.intercept is not None else 0)

    @property
    def sigma_u_ml(self) -> np.ndarray:
        """Innovation covariance over T_eff (ML) instead of T_eff - n_reg, the S-LS plug-in."""
        return self.sigma_u_hat * ((self.t_effective - self.n_reg) / self.t_effective)


@dataclass(frozen=True)
class VarModel(_PlugIns):
    """Fitted VAR(p): coefficients, df-adjusted innovation covariance, moment matrix.

    K and p are read from ``ar_hat``; the other arrays must match them.
    """

    ar_hat: MatrixSeq
    sigma_u_hat: np.ndarray
    intercept: np.ndarray | None
    moment_matrix: np.ndarray = field(repr=False)
    t_effective: int

    def __post_init__(self) -> None:
        k, kp = self.k, self.k * self.p
        shapes = {"sigma_u_hat": (k, k), "moment_matrix": (kp, kp), "intercept": (k,)}
        for name, shape in shapes.items():
            if getattr(self, name) is not None:
                arr = np.array(getattr(self, name), dtype=float)
                if arr.shape != shape:
                    raise DimensionMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
                arr.flags.writeable = False
                object.__setattr__(self, name, arr)
        if not _is_symmetric(self.sigma_u_hat):
            raise DimensionMismatchError("sigma_u_hat is not symmetric within 1e-12")
        short = _short_sample(self.t_effective + self.p, k, self.p, self.intercept is not None)
        if short:
            raise SingularMatrixError(f"sample too small: {short}")

    @property
    def k(self) -> int:
        """Variables K, from the fitted coefficients."""
        return self.ar_hat.mats.shape[1]

    @property
    def p(self) -> int:
        """Lag order p, from the fitted coefficients."""
        return self.ar_hat.mats.shape[0]


@dataclass(frozen=True)
class VarFits(_PlugIns):
    """Least-squares VAR(p) fits of the samples of an (n, T, K) stack, from ``fit_var_fits``.

    Every array has the stack dimension first, and the plug-ins carry the
    names ``VarModel`` gives them. Member i's arrays are bit for bit those
    ``fit_var_ls`` returns for its sample alone.
    """

    coefs: np.ndarray  # (n, p, K, K), A_1 first
    moment_matrix: np.ndarray  # (n, Kp, Kp), Z'Z / T_eff
    residuals: np.ndarray  # (n, T_eff, K), rows t = p+1..T
    intercept: np.ndarray | None  # (n, K)
    sigma_u_hat: np.ndarray  # (n, K, K), df-adjusted

    @property
    def k(self) -> int:
        return self.coefs.shape[-1]

    @property
    def p(self) -> int:
        return self.coefs.shape[1]

    @property
    def t_effective(self) -> int:
        return self.residuals.shape[1]


def _short_sample(t: int, k: int, p: int, intercept: bool) -> str:
    """Why T rows of K variables cannot be fitted by a VAR(p), or "" when they can.

    The package's one sample-size rule: a fit needs T - p > Kp + [intercept],
    at least one residual degree of freedom.
    """
    n_reg = k * p + intercept
    if t - p > n_reg:
        return ""
    return f"t = {t} leaves {t - p} rows for {n_reg} regressors at p = {p}"


def _as_values(y: SamplePath | np.ndarray) -> np.ndarray:
    if isinstance(y, SamplePath):
        return y.values
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, np.newaxis]
    if arr.ndim != 2:
        raise DimensionMismatchError("sample must be a T x K array")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("sample contains non-finite values")
    return arr


def _lag_windows(samples: np.ndarray, p: int) -> np.ndarray:
    """(n, T-p, K(p+1)) view of an (n, T, K) stack, rows [y_s', y_{s-1}', ..., y_{s-p}'].

    Row r of a sample is that of s = T-1-r, latest first.
    """
    n, t, k = samples.shape
    # take copies whole rows, several times faster than copying samples[:, ::-1]
    flat = samples.take(np.arange(t - 1, -1, -1), axis=1).reshape(n, t * k)
    step = k * flat.itemsize
    return np.ndarray((n, t - p, k * (p + 1)), buffer=flat, strides=(t * step, step, flat.itemsize))


@functools.cache
def _strictly_lower(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strictly lower triangle of a size x size block."""
    return np.tril_indices(size, -1)


def _lag_grams(samples: np.ndarray, p: int, demean: bool = False) -> np.ndarray:
    """(n, K(p+1), K(p+1)) Grams W'W of the lag windows W of each sample of an (n, T, K) stack.

    W holds the rows of ``_lag_windows``, column-demeaned when ``demean``.
    ``fit_var_ls_stack`` takes its regression Grams from here. Every Gram is
    exactly symmetric.
    """
    n, t, k = samples.shape
    width = k * (p + 1)
    gram = np.empty((n, width, width))
    count = max(-(-width // _GRAM_PANEL), min(width, 2))
    bounds = [width * i // count for i in range(count + 1)]
    # the upper strip of each panel by gemm, about twice syrk's rate at these
    # sizes, in row blocks of fewer than _SERIAL_MADDS multiply-adds; past
    # the first panel a strip starts a column early, in the lower triangle,
    # so that no product has one buffer on both sides, which numpy would
    # turn into a syrk
    strips = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        first = max(lo - 1, 0)
        strips.append((lo, hi, first, max((_SERIAL_MADDS - 1) // ((hi - lo) * (width - first)), 1)))
    # one contiguous copy per sample: on the overlapping window itself
    # numpy's matmul runs gemm, not syrk
    for rows, out in zip(_lag_windows(samples, p), gram):
        rows = np.array(rows, order="C")
        if demean:  # the means by a product, three times faster than rows.mean(axis=0)
            rows -= np.ones(t - p) @ rows / (t - p)
        for lo, hi, first, step in strips:
            left, strip = rows[:, lo:hi], out[lo:hi, first:]
            np.matmul(left[:step].T, rows[:step, first:], out=strip)
            for r in range(step, t - p, step):
                strip += left[r : r + step].T @ rows[r : r + step, first:]
    # the lower triangle is the mirror of the upper one, diagonal blocks
    # included: some OpenBLAS kernels (Haswell's) sum entry (i, j) of a gemm
    # in another order than entry (j, i)
    for lo, hi, _, _ in strips:
        block, (i, j) = gram[:, lo:hi, lo:hi], _strictly_lower(hi - lo)
        block[:, i, j] = block[:, j, i]
        gram[:, hi:, lo:hi] = gram[:, lo:hi, hi:].swapaxes(1, 2)
    return gram


def _cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of an (n, m, m) stack, NaN for a member not positive-definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(a.shape, np.nan)
        # one member at a time: the same LAPACK call, so the same bits
        return np.concatenate([_cholesky(member[np.newaxis]) for member in a])


def fit_var_ls(
    y: SamplePath | np.ndarray,
    p: int,
    intercept: bool = False,
) -> tuple[VarModel, np.ndarray]:
    """Multivariate least squares of y_t on its p lags, ``fit_var_fits`` of one sample.

    Conditions on the first p observations (no presample padding) and
    returns the fitted model together with the residual matrix for
    t = p+1..T.

    Raises
    ------
    SingularMatrixError
        If T - p <= Kp + [intercept] (``_short_sample``) or
        ``fit_var_ls_stack`` flags the sample.
    """
    fits = fit_var_fits(_as_values(y)[np.newaxis], p, intercept)
    model = VarModel(
        ar_hat=coeff_seq(fits.coefs[0], fits.k),
        sigma_u_hat=fits.sigma_u_hat[0],
        intercept=None if fits.intercept is None else fits.intercept[0],
        moment_matrix=fits.moment_matrix[0],
        t_effective=fits.t_effective,
    )
    return model, fits.residuals[0]


def fit_var_fits(samples: np.ndarray, p: int, intercept: bool = False) -> VarFits:
    """Least-squares VAR(p) fits of an (n, T, K) stack, with residuals and plug-ins.

    ``fit_var_ls_stack`` gives the coefficients, the flags and the moment
    matrices Z Z' / T_eff over the lagged regressors; with an intercept,
    mean(y_t) - B' mean(Z_t), the regressors are demeaned so that the
    inverse moment matrix remains the asymptotic covariance factor of the
    coefficient block. The residuals and intercept of every member come
    from a copy of that sample's own lag windows, so no (n, T-p, K(p+1))
    copy of the stack is built, and the residual covariance is
    df-adjusted, divided by T_eff minus the regressors per equation. Each
    product runs on every member alone, as its one-sample call would, so a
    member's fit does not depend on the samples beside it.

    Raises
    ------
    NonFiniteError
        If any sample holds a non-finite value: the error ``fit_var_ls``
        raises on that sample alone.
    ValueError
        If p < 1.
    SingularMatrixError
        If T - p <= Kp + [intercept] (``_short_sample``), or if
        ``fit_var_ls_stack`` flags any sample, with the condition number of
        the first flagged sample's moment matrix: the error ``fit_var_ls``
        raises on that sample alone.
    """
    samples = np.asarray(samples, dtype=float)
    n, t, k = samples.shape
    if not np.all(np.isfinite(samples)):
        raise NonFiniteError("sample contains non-finite values")
    if p < 1:
        raise ValueError("p must be >= 1")
    short = _short_sample(t, k, p, intercept)
    if short:
        raise SingularMatrixError(f"sample too small: {short}")
    coefs, fitted, grams = fit_var_ls_stack(samples, p, intercept)
    moments = grams / (t - p)
    if not fitted.all():
        raise SingularMatrixError(
            "singular regressor moment matrix",
            condition_number=float(np.linalg.cond(moments[np.argmin(fitted)])),
        )
    coef = coefs.swapaxes(2, 3).reshape(n, k * p, k)  # rows regressors, columns equations
    resid = np.empty((n, t - p, k))
    const = np.empty((n, k)) if intercept else None
    for i, windows in enumerate(_lag_windows(samples, p)):
        rows = np.ascontiguousarray(windows[::-1])  # t = p..T-1
        target, x = rows[:, :k], rows[:, k:]
        if intercept:
            means = rows.mean(axis=0)
            const[i] = means[:k] - means[k:] @ coef[i]
            target = target - const[i]
        np.subtract(target, x @ coef[i], out=resid[i])
    return VarFits(
        coefs=coefs,
        moment_matrix=moments,
        residuals=resid,
        intercept=const,
        sigma_u_hat=resid.swapaxes(1, 2) @ resid / (t - p - k * p - intercept),
    )


def fit_var_ls_stack(
    samples: np.ndarray, p: int, intercept: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares VAR(p) fit of each sample of an (n, T, K) stack.

    The one least-squares solver of the package: ``fit_var_fits`` adds the
    residuals and plug-ins of a stack, and the bootstrap refits read it
    alone. Returns the (n, p, K, K) coefficient stack, a boolean
    mask of the samples fitted, and the (n, Kp, Kp) Grams Z'Z of the
    regressors Z_t = [y_{t-1}', ..., y_{t-p}']', T_eff times the moment
    matrix. A flagged sample has NaN coefficients. The kernel only
    computes: its callers check first that the samples are finite and
    long enough to fit (``_short_sample``).

    The normal equations of a sample come from the Gram of its lag
    windows [y_t', y_{t-1}', ..., y_{t-p}'], copied one sample at a time,
    so no (n, T-p, Kp) design is built. An intercept is partialled out
    (Frisch-Waugh), so the Grams are those of the demeaned regressors and
    one Cholesky factorisation per sample checks both that the demeaned
    moment matrix is positive-definite and its pivots. A sample is flagged
    when its factorisation fails or its pivots collapse, min^2 <=
    ``_PIVOT_COLLAPSE`` max^2. Each sample is factorised and solved by its
    own LAPACK calls (``np.linalg.solve``), so neither its flag nor its bits
    depend on the samples beside it.
    """
    samples = np.asarray(samples, dtype=float)
    n, _, k = samples.shape
    if p < 1:
        raise ValueError("p must be >= 1")
    kp = k * p
    gram = _lag_grams(samples, p, demean=intercept)
    grams, xty = gram[:, k:, k:], gram[:, k:, :k]
    pivots = np.diagonal(_cholesky(grams), axis1=1, axis2=2)
    fitted = pivots.min(axis=1) ** 2 > _PIVOT_COLLAPSE * pivots.max(axis=1) ** 2
    # a flagged sample could make the solve raise; its result is discarded
    xtx = grams if fitted.all() else np.where(fitted[:, np.newaxis, np.newaxis], grams, np.eye(kp))
    coef = np.linalg.solve(xtx, xty)  # rows regressors, columns equations
    coefs = coef.reshape(n, p, k, k).swapaxes(2, 3).copy()
    coefs[~fitted] = np.nan
    return coefs, fitted, grams


def sample_gamma_p(y: SamplePath | np.ndarray, p: int) -> np.ndarray:
    """Block-Toeplitz Gamma_p of divisor-T sample autocovariances, the sieve plug-in.

    ``sample_gamma_p_stack`` of one sample.
    """
    return sample_gamma_p_stack(_as_values(y)[np.newaxis], p)[0]


def sample_gamma_p_stack(samples: np.ndarray, p: int) -> np.ndarray:
    """(n, Kp, Kp) Gamma_p of each sample of an (n, T, K) stack, from its p autocovariances.

    Block (i, j) is Gamma(j - i), with Gamma(h) = sum_t c_t c_{t-h}' / T for
    the mean-subtracted sample c_t = y_t - ybar and Gamma(-h) = Gamma(h)'.
    Each Gamma(h), h = 0..p-1, is one stacked product over the whole stack,
    O(T K^2) per sample, and the blocks are gathered from them by one cached
    index (``_toeplitz_index``). So each Kp x Kp result is exactly
    block-Toeplitz, and exactly symmetric: Gamma(0) is mirrored from its
    upper triangle and Gamma(-h) is the transpose of Gamma(h). The biased
    divisor T makes it positive semidefinite, up to rounding, for every
    sample.

    Raises
    ------
    ValueError
        If p < 1 or p - 1 >= T.
    """
    samples = np.asarray(samples, dtype=float)
    n, t, k = samples.shape
    if p < 1:
        raise ValueError("p must be >= 1")
    if p - 1 >= t:
        raise ValueError(f"p - 1 must be smaller than the sample length, got p={p}, T={t}")
    centered = samples - samples.mean(axis=1, keepdims=True)
    # lags[h] holds Gamma(h) and lags[2 p - 1 - h] Gamma(-h) = Gamma(h)'
    lags = np.empty((n, 2 * p - 1, k, k))
    # rows in blocks of fewer than _SERIAL_MADDS multiply-adds, one block for T < 2^19 / K^2
    step = max((_SERIAL_MADDS - 1) // (k * k), 1)
    for h in range(p):
        left, right, out = centered[:, h:].swapaxes(1, 2), centered[:, : t - h], lags[:, h]
        np.matmul(left[..., :step], right[:, :step], out=out)
        for r in range(step, t - h, step):
            out += left[..., r : r + step] @ right[:, r : r + step]
    lags /= t
    i, j = _strictly_lower(k)
    lags[:, 0, i, j] = lags[:, 0, j, i]
    lags[:, p:] = lags[:, p - 1 : 0 : -1].swapaxes(2, 3)
    return lags.reshape(n, -1).take(_toeplitz_index(p, k), axis=1).reshape(n, k * p, k * p)


@functools.cache
def _toeplitz_index(p: int, k: int) -> np.ndarray:
    """Flat (Kp)^2 index of entry ((i, r), (j, c)) = Gamma(j - i)[r, c] into the (2p - 1, K, K) lags.

    Lag h >= 0 sits at h, lag -h at 2p - 1 - h.
    """
    blocks = (np.arange(p) - np.arange(p)[:, np.newaxis]) % (2 * p - 1)
    entries = np.arange(k * k).reshape(k, 1, k)  # [r, 0, c] = r K + c
    return (blocks[:, np.newaxis, :, np.newaxis] * k * k + entries).ravel()
