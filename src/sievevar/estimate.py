"""Least-squares VAR(p) estimation and sample second moments.

The fitted model carries two different "Gamma" objects on purpose: the
regression moment matrix Z Z' / T_eff (conditional on presample values),
and the block-Toeplitz matrix assembled from divisor-T sample
autocovariances. Finite-order delta intervals use the former, sieve
intervals the latter; keeping both explicit is what lets the two interval
families be compared cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .dgp_sim import SamplePath
from .errors import DimensionMismatchError, NonFiniteError, SingularMatrixError
from .var_core import MatrixSeq, coeff_seq

# Cholesky pivots with min^2 <= _PIVOT_COLLAPSE * max^2 mean numerical rank
# deficiency that dpotrf missed
_PIVOT_COLLAPSE = 1e-13

# fit_var_ls_stack also flags pivots up to this factor short of collapse, so
# that fit_var_ls itself decides every sample near the threshold
_STACK_MARGIN = 100.0


@dataclass(frozen=True)
class VarModel:
    """Fitted VAR(p): coefficients, df-adjusted innovation covariance, moment matrix."""

    k: int
    p: int
    ar_hat: MatrixSeq
    sigma_u_hat: np.ndarray
    intercept: np.ndarray | None
    moment_matrix: np.ndarray = field(repr=False)
    t_effective: int = 0

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma_u_hat, dtype=float)
        if not np.allclose(sigma, sigma.T, atol=1e-12):
            raise DimensionMismatchError("sigma_u_hat is not symmetric within 1e-12")
        for name in ("sigma_u_hat", "moment_matrix"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_reg(self) -> int:
        """Regressors per equation: K p plus one for the intercept."""
        return self.k * self.p + (1 if self.intercept is not None else 0)

    def sigma_u(self, df_mode: str) -> np.ndarray:
        """Innovation covariance rescaled to the requested divisor convention."""
        current = _df_divisor("adjusted", self.t_effective, self.n_reg)
        wanted = _df_divisor(df_mode, self.t_effective, self.n_reg)
        return self.sigma_u_hat * (current / wanted)


def _df_divisor(df_mode: str, t_effective: int, n_reg: int) -> int:
    if df_mode == "ml":
        d = t_effective
    elif df_mode == "adjusted":
        d = t_effective - n_reg
    else:
        raise ValueError(f"unknown df_mode {df_mode!r}")
    if d <= 0:
        raise SingularMatrixError(
            f"nonpositive degrees of freedom: T_eff={t_effective}, n_reg={n_reg}"
        )
    return d


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


def lagged_regressors(values: np.ndarray, p: int) -> np.ndarray:
    """Design matrix with rows [y_{t-1}', ..., y_{t-p}'] for t = p..T-1."""
    t, k = values.shape
    x = np.empty((t - p, k * p))
    for j in range(1, p + 1):
        x[:, (j - 1) * k : j * k] = values[p - j : t - j]
    return x


def fit_var_ls(
    y: SamplePath | np.ndarray,
    p: int,
    intercept: bool = False,
) -> tuple[VarModel, np.ndarray]:
    """Multivariate least squares of y_t on its p lags.

    Conditions on the first p observations (no presample padding) and
    returns the fitted model together with the residual matrix for
    t = p+1..T. The moment matrix is Z Z' / T_eff over the lagged
    regressors; with an intercept it is computed from demeaned regressors
    so that its inverse remains the asymptotic covariance factor of the
    coefficient block. The residual covariance is df-adjusted, divided by
    T_eff minus the regressors per equation.

    Raises
    ------
    SingularMatrixError
        If T is too small or the moment matrix is not positive-definite.
    """
    values = _as_values(y)
    t, k = values.shape
    if p < 1:
        raise ValueError("p must be >= 1")
    n_reg = k * p + (1 if intercept else 0)
    if t <= n_reg + 1 or t <= p:
        raise SingularMatrixError(
            f"sample too small: T={t} rows for {n_reg} regressors and p={p} lags"
        )

    x = lagged_regressors(values, p)
    target = values[p:]
    t_eff = t - p
    if intercept:
        design = np.hstack([x, np.ones((t_eff, 1))])
    else:
        design = x

    xtx = design.T @ design
    xty = design.T @ target
    try:
        cho = scipy.linalg.cho_factor(xtx)
        pivots = np.abs(np.diag(cho[0]))
        if pivots.min() ** 2 <= _PIVOT_COLLAPSE * pivots.max() ** 2:
            raise scipy.linalg.LinAlgError("pivot collapse")
        coef = scipy.linalg.cho_solve(cho, xty)
    except (scipy.linalg.LinAlgError, ValueError):
        raise SingularMatrixError(
            "singular regressor moment matrix",
            condition_number=float(np.linalg.cond(xtx)),
        ) from None

    resid = target - design @ coef
    stacked = coef[: k * p].T  # K x Kp, blocks [A_1 ... A_p]
    ar_hat = coeff_seq(stacked.reshape(k, p, k).swapaxes(0, 1), k)
    const = coef[-1] if intercept else None

    if intercept:
        xc = x - x.mean(axis=0)
        moment = xc.T @ xc / t_eff
    else:
        moment = xtx / t_eff
    try:
        np.linalg.cholesky(moment)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "moment matrix is not positive-definite",
            condition_number=float(np.linalg.cond(moment)),
        ) from None

    sigma = residual_cov(resid, df_mode="adjusted", n_reg=n_reg)
    model = VarModel(
        k=k,
        p=p,
        ar_hat=ar_hat,
        sigma_u_hat=sigma,
        intercept=const,
        moment_matrix=moment,
        t_effective=t_eff,
    )
    return model, resid


def fit_var_ls_stack(
    samples: np.ndarray, p: int, intercept: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """``fit_var_ls`` coefficients of each sample of an (n, T, K) stack.

    Returns the (n, p, K, K) coefficient stack and a boolean mask of the
    samples fitted. The normal equations of all samples come from one
    stacked product of a sliding-window view, so no (n, T-p, Kp) design is
    built, and are solved with one stacked Cholesky factorisation. A sample
    is flagged False, with NaN coefficients, when it is not finite, when its
    pivots come within ``_STACK_MARGIN`` of the collapse test of
    ``fit_var_ls``, or, with an intercept, when its demeaned moment matrix
    is not positive-definite; all are flagged when a stacked factorisation
    fails or T is too small. The caller refits a flagged sample with
    ``fit_var_ls``, which stays the one definition of a singular fit.
    """
    samples = np.asarray(samples, dtype=float)
    n, t, k = samples.shape
    if p < 1:
        raise ValueError("p must be >= 1")
    kp = k * p
    coefs = np.full((n, p, k, k), np.nan)
    fitted = np.zeros(n, dtype=bool)
    if t <= kp + intercept + 1 or not np.all(np.isfinite(samples)):
        return coefs, fitted

    # row s of the window is [y_{s-p}', ..., y_{s-1}', y_s'], oldest first
    window = sliding_window_view(samples.reshape(n, t * k), k * (p + 1), axis=1)[:, ::k]
    gram = window.swapaxes(1, 2) @ window
    # regressors in the order of fit_var_ls, [y_{s-1}', ..., y_{s-p}'(, 1)]
    order = (np.arange(p - 1, -1, -1)[:, np.newaxis] * k + np.arange(k)).ravel()
    if intercept:
        sums = np.ones(t - p) @ window
        corner = np.full((n, 1, 1), float(t - p))
        gram = np.block([[gram, sums[:, :, np.newaxis]], [sums[:, np.newaxis], corner]])
        order = np.append(order, k * (p + 1))
    xtx = gram[:, order[:, np.newaxis], order]
    xty = gram[:, order[:, np.newaxis], np.arange(kp, kp + k)]
    try:
        chol = np.linalg.cholesky(xtx)
        if intercept:
            # T_eff times the demeaned moment matrix that fit_var_ls checks
            cross = xtx[:, :kp, kp, np.newaxis]
            np.linalg.cholesky(xtx[:, :kp, :kp] - cross * cross.swapaxes(1, 2) / (t - p))
    except np.linalg.LinAlgError:
        return coefs, fitted
    pivots = np.abs(np.diagonal(chol, axis1=1, axis2=2))
    fitted = pivots.min(axis=1) ** 2 > _STACK_MARGIN * _PIVOT_COLLAPSE * pivots.max(axis=1) ** 2
    # a flagged sample's pivots could overflow the solve; its result is discarded
    chol[~fitted] = np.eye(kp + intercept)
    coef = _cho_solve_stack(chol, xty)[:, :kp]  # rows regressors, columns equations
    coefs = coef.reshape(n, p, k, k).swapaxes(2, 3).copy()
    coefs[~fitted] = np.nan
    return coefs, fitted


def _cho_solve_stack(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve L L' x = rhs for a stack of lower Cholesky factors L, row by row."""
    # C order whatever the layout of rhs: matmul picks its path from the
    # strides, and a layout that varied with the stack size would change a
    # sample's bits with the number of samples solved beside it
    x = np.empty(rhs.shape)
    diag = np.diagonal(chol, axis1=1, axis2=2)[..., np.newaxis]
    for i in range(chol.shape[-1]):  # L z = rhs
        x[:, i] = (rhs[:, i] - (chol[:, i, np.newaxis, :i] @ x[:, :i])[:, 0]) / diag[:, i]
    for i in reversed(range(chol.shape[-1])):  # L' x = z
        x[:, i] = (x[:, i] - (chol[:, np.newaxis, i + 1 :, i] @ x[:, i + 1 :])[:, 0]) / diag[:, i]
    return x


def residual_cov(
    residuals: np.ndarray, df_mode: str = "adjusted", n_reg: int = 0
) -> np.ndarray:
    """(1/d) sum u_t u_t' with d = T_eff ('ml') or T_eff - n_reg ('adjusted')."""
    resid = np.asarray(residuals, dtype=float)
    if resid.ndim == 1:
        resid = resid[:, np.newaxis]
    if resid.shape[0] < 2:
        raise ValueError("need at least 2 residual rows")
    d = _df_divisor(df_mode, resid.shape[0], n_reg)
    return resid.T @ resid / d


def sample_autocov(y: SamplePath | np.ndarray, h_max: int) -> np.ndarray:
    """Divisor-T sample autocovariances Gamma(0)..Gamma(h_max), mean subtracted.

    Returns the read-only (h_max+1, K, K) array with Gamma(h) =
    sum_t (y_t - ybar)(y_{t-h} - ybar)' / T at index h. The biased divisor
    keeps the block-Toeplitz matrix built from these positive semidefinite
    for every sample.
    """
    values = _as_values(y)
    t, k = values.shape
    if h_max >= t:
        raise ValueError("h_max must be smaller than the sample length")
    centered = values - values.mean(axis=0)
    gammas = np.empty((h_max + 1, k, k))
    for h in range(h_max + 1):
        gammas[h] = centered[h:].T @ centered[: t - h] / t
    gammas.flags.writeable = False
    return gammas


def build_gamma_p(gammas: np.ndarray, p: int) -> np.ndarray:
    """Block-Toeplitz Gamma_p, the population analogue of the moment matrix.

    ``gammas`` is the (h_max+1, K, K) array Gamma(0)..Gamma(h_max) of
    ``sample_autocov``. With Gamma(h) = E[y_t y_{t-h}'], block (i, j) of
    E[Z_t Z_t'] for Z_t = [y_{t-1}', ..., y_{t-p}']' is
    E[y_{t-1-i} y_{t-1-j}'] = Gamma(j - i); Gamma(-h) = Gamma(h)' fills the
    lower triangle.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 3 or gammas.shape[1] != gammas.shape[2]:
        raise DimensionMismatchError(
            f"gammas must have shape (h_max+1, K, K), got {gammas.shape}"
        )
    if len(gammas) < p:
        raise DimensionMismatchError(
            f"need autocovariances up to lag {p - 1}, have {len(gammas) - 1}"
        )
    k = gammas.shape[1]
    # Gamma(-(p-1))..Gamma(p-1), so that lag j - i sits at index j - i + p - 1
    both = np.concatenate([gammas[p - 1 : 0 : -1].swapaxes(1, 2), gammas[:p]])
    lags = np.arange(p) - np.arange(p)[:, np.newaxis] + p - 1
    return both[lags].swapaxes(1, 2).reshape(k * p, k * p)
