"""Asymptotic IRF covariances and Gaussian confidence intervals.

One kernel serves both delta-interval families:

    G_i (Gamma^{-1} kron Sigma_u) G_i',
    G_i = sum_{m=0}^{i-1} J (A_c')^{i-1-m} kron Phi_m,

with G_i the Jacobian of vec(Phi_i) in the stacked coefficients. The
families differ only in the plug-ins the caller passes: finite-order (LS)
intervals use the regression moment matrix with the df-adjusted residual
covariance, sieve (S-LS) intervals the block-Toeplitz autocovariance matrix
Gamma_p with the ml residual covariance. All finite-sample differences
between the two come from that choice. vec() is column-stacking
throughout, so entry (row, col) of Phi_i sits at position row + K * col.

IRFs are plain (H+1, K, K) arrays with Phi_0 = I first, as ``ma_from_ar``
returns them; the kernels here validate the arrays they are given. The
Gaussian quantile is the standard library's ``NormalDist().inv_cdf``, and
the Cholesky factor of Gamma is inverted in numpy, without LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, SingularMatrixError
from .estimate import VarModel
from .var_core import companion_form, ma_from_ar


def _irf_array(values: np.ndarray, name: str, stack: bool = False) -> np.ndarray:
    """A float copy of ``values``: a finite (H+1, K, K) array, or (..., H+1, K, K) if ``stack``."""
    arr = np.array(values, dtype=float)
    square = arr.ndim >= 3 and arr.shape[-2] == arr.shape[-1]
    if not square or (arr.ndim > 3 and not stack) or not arr.shape[-3]:
        shape = "(..., H+1, K, K)" if stack else "(H+1, K, K)"
        raise DimensionMismatchError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class IntervalSet:
    """Per-horizon, per-response confidence intervals for one method."""

    method: str
    points: np.ndarray = field(repr=False)
    lowers: np.ndarray = field(repr=False)
    uppers: np.ndarray = field(repr=False)
    clamped: int = 0

    def __post_init__(self) -> None:
        for name in ("points", "lowers", "uppers"):
            arr = _irf_array(getattr(self, name), name)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.points.shape != self.lowers.shape or self.points.shape != self.uppers.shape:
            raise DimensionMismatchError("interval arrays disagree in shape")
        if np.any(self.lowers > self.uppers + 1e-15):
            raise DimensionMismatchError("interval lower bound exceeds upper bound")

    def lengths(self) -> np.ndarray:
        return self.uppers - self.lowers

    def contains(self, truth: np.ndarray) -> np.ndarray:
        """Boolean hit array: true entry inside the closed interval."""
        truth = np.asarray(truth)
        if truth.shape != self.points.shape:
            raise DimensionMismatchError("truth shape disagrees with intervals")
        return (self.lowers <= truth) & (truth <= self.uppers)


def _companion_power_cols(model: VarModel, n: int) -> np.ndarray:
    """Stack of A_c^a J' for a = 0..n-1, shape (n, Kp, K)."""
    comp = companion_form(model.ar_hat.mats)
    k, kp = model.k, model.k * model.p
    cols = np.empty((max(n, 1), kp, k))
    cols[0] = np.eye(kp, k)
    for a in range(1, n):
        cols[a] = comp @ cols[a - 1]
    return cols[:n]


def irf_jacobian(model: VarModel, i: int) -> np.ndarray:
    """Jacobian of vec(Phi_i) with respect to vec([A_1 ... A_p]).

    G_i = sum_{m=0}^{i-1} J (A_c')^{i-1-m} kron Phi_m, a K^2 x (K^2 p)
    matrix evaluated at the fitted coefficients.
    """
    if i < 1:
        raise ValueError("Jacobian defined for horizons i >= 1")
    cols = _companion_power_cols(model, i)
    phis = ma_from_ar(model.ar_hat.mats, i - 1)
    g = np.zeros((model.k**2, model.k**2 * model.p))
    for m in range(i):
        g += np.kron(cols[i - 1 - m].T, phis[m])
    return g


def _diagonal_blocks(a: np.ndarray, size: int) -> np.ndarray:
    """Writable (..., m / size, size, size) view of the diagonal blocks of C-contiguous matrices."""
    *lead, rows, cols = a.strides
    shape = a.shape[:-2] + (a.shape[-1] // size, size, size)
    return np.ndarray(shape, a.dtype, a, 0, (*lead, size * (rows + cols), rows, cols))


def _diagonal(a: np.ndarray) -> np.ndarray:
    """Writable (..., m) view of the diagonals of a C-contiguous (..., m, m) array."""
    m = a.shape[-1]
    return a.reshape(a.shape[:-2] + (m * m,))[..., :: m + 1]


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverses of the nonsingular lower-triangular (..., n, n) matrices, with exact zeros above.

    Each factor is padded with the identity to an order m that is a power
    of two. Its inverse starts as the reciprocal diagonal, and each pass
    doubles the inverted diagonal blocks: a block [[A, 0], [C, D]] with A
    and D inverted gets -D^{-1} C A^{-1} below them, for all blocks of a
    pass in one stacked product. No LAPACK call: numpy's inverse of even a
    20 x 20 leaf costs several times LAPACK's triangular inverse. Up to
    Kp = 128 every product is below ``var_core._SERIAL_MADDS``, while
    ``np.linalg.inv`` or ``solve`` on the whole factor start OpenBLAS's
    thread server at Kp = 120.
    """
    n = low.shape[-1]
    m = 1 << (n - 1).bit_length()
    padded = np.zeros(low.shape[:-2] + (m, m))
    _diagonal(padded)[...] = 1.0
    padded[..., :n, :n] = low
    out = np.zeros_like(padded)
    _diagonal(out)[...] = 1.0 / _diagonal(padded)
    half = 1
    while half < m:
        inv, tri = _diagonal_blocks(out, 2 * half), _diagonal_blocks(padded, 2 * half)
        below = -(inv[..., half:, half:] @ tri[..., half:, :half])
        inv[..., half:, :half] = below @ inv[..., :half, :half]
        half *= 2
    return out[..., :n, :n]


def irf_covariances(
    phi_hat: np.ndarray, gamma: np.ndarray, sigma_u: np.ndarray
) -> np.ndarray:
    """Stack of G_i (Gamma^{-1} kron Sigma_u) G_i' for i = 1..H.

    Returns an array of shape (H, K^2, K^2). ``phi_hat`` is the (H+1, K, K)
    array of fitted Phi_0..Phi_H, from which the G_i are built. ``gamma``
    is the Kp x Kp second-moment plug-in, which must be finite and
    positive-definite; ``sigma_u`` is the K x K innovation covariance
    plug-in, which may be singular.

    The three arrays may carry the same leading stack dimensions, one
    member per sample, and then so does the result: (..., H, K^2, K^2).
    Every product runs on each member alone, so a member's covariances are
    bit for bit those of its own call. A stack with any member that fails
    a check raises as that member would.
    """
    phis = _irf_array(phi_hat, "phi_hat", stack=True)
    lead, horizon, k = phis.shape[:-3], phis.shape[-3] - 1, phis.shape[-1]
    gamma = np.asarray(gamma, dtype=float)
    kp = gamma.shape[-1] if gamma.ndim >= 2 else 0
    if kp == 0 or kp % k or gamma.shape != lead + (kp, kp):
        raise DimensionMismatchError(
            f"gamma must be Kp x Kp for K={k} and some p >= 1, stacked as phi_hat's "
            f"leading shape {lead}, got shape {gamma.shape}"
        )
    p = kp // k
    sigma_u = np.asarray(sigma_u, dtype=float)
    if sigma_u.shape != lead + (k, k):
        raise DimensionMismatchError(
            f"sigma_u must be K x K for K={k}, stacked as phi_hat's leading shape {lead}, "
            f"got shape {sigma_u.shape}"
        )
    if not np.all(np.isfinite(gamma)):
        raise NonFiniteError("Gamma plug-in contains non-finite values")
    try:
        chol = np.linalg.cholesky(gamma)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "Gamma plug-in is not positive-definite",
            condition_number=float(np.max(np.linalg.cond(gamma))),
        ) from None
    # a blocked triangular inverse and per-horizon products keep every BLAS
    # call below OpenBLAS's threading sizes; a threaded solve leaves its
    # worker threads spinning through the Python work that follows
    linv = _lower_inverse(chol)[..., np.newaxis, :, :]
    # index -1 is zero
    padded = np.concatenate([phis[..., :horizon, :, :], np.zeros(lead + (1, k, k))], axis=-3)
    # toe[..., i, a] = Phi_{i-a}, zero for a > i: one gather for both uses below
    lags = np.maximum(np.arange(horizon)[:, None] - np.arange(max(p, horizon)), -1)
    toe = padded[..., lags, :, :]
    # A_c^a J' stacks Phi_a, Phi_{a-1}, ..., Phi_{a-p+1}
    cols = toe[..., :p, :, :].reshape(lead + (horizon, kp, k))
    # with Gamma = L L', x[a]' = J (A_c')^a L^{-T}
    x = (linv @ cols).reshape(lead + (1, horizon, kp * k))
    # phi_toe[..., i, (r, s), a] = Phi_{i-a}[r, s]
    n = len(lead)
    phi_toe = toe[..., :horizon, :, :].transpose(*range(n), n, n + 2, n + 3, n + 1)
    phi_toe = phi_toe.reshape(lead + (horizon, k * k, horizon))
    # two (..., H, K^2, K^2 p) arrays at a time set the peak memory of a
    # stack, so the rest is freed before them and each product once read
    del chol, linv, toe, cols
    # W_{i+1} = sum_{a<=i} x[a]' kron Phi_{i-a}, rows (c, r) and columns (q, s)
    w = (
        (phi_toe @ x)
        .reshape(lead + (horizon, k, k, kp, k))
        .transpose(*range(n), n, n + 4, n + 1, n + 3, n + 2)
        .reshape(lead + (horizon, k * k, kp, k))
    )
    del x, phi_toe
    w_sigma = w @ sigma_u[..., np.newaxis, np.newaxis, :, :]
    cov = w_sigma.reshape(lead + (horizon, k * k, kp * k)) @ w.reshape(
        lead + (horizon, k * k, kp * k)
    ).swapaxes(-1, -2)
    return (cov + cov.swapaxes(-1, -2)) / 2.0


def delta_bounds(
    phi_hat: np.ndarray, covs: np.ndarray, level: float, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bounds point -+ z sqrt(cov_diag / T) and clamped counts of each member of a stack.

    ``phi_hat`` is a (..., H+1, K, K) stack of Phi_0..Phi_H and ``covs``
    the (..., H, K^2, K^2) stack from ``irf_covariances`` for horizons
    1..H. Returns the two (..., H+1, K, K) bound arrays and the (...)
    counts of negative variance entries (roundoff from near-singular
    moment matrices), which are clamped to zero. Horizon 0 bounds are
    degenerate at Phi_0, which must be exactly the identity. Every step is
    elementwise or a reduction within a member, so a member's bounds are
    those of its own call. A stack with any member that fails a check
    raises as that member would.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    points = _irf_array(phi_hat, "phi_hat", stack=True)
    lead, h, k = points.shape[:-3], points.shape[-3] - 1, points.shape[-1]
    if not np.all(points[..., 0, :, :] == np.eye(k)):
        raise DimensionMismatchError("horizon-0 IRF must be the identity")
    covs = np.asarray(covs, dtype=float)
    if covs.shape != lead + (h, k * k, k * k):
        raise DimensionMismatchError(
            f"covariances must have shape {lead + (h, k * k, k * k)}, got {covs.shape}"
        )
    if not np.all(np.isfinite(covs)):
        raise NonFiniteError("IRF covariance has non-finite entries")
    scale = np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))[..., np.newaxis]
    if np.any(np.abs(covs - covs.swapaxes(-1, -2)).max(axis=-1) > 1e-10 * scale):
        raise DimensionMismatchError("IRF covariance is not symmetric")
    var = np.diagonal(covs, axis1=-2, axis2=-1)
    if np.any(var < -1e-12 * scale):
        raise DimensionMismatchError("IRF covariance has negative diagonal")
    clamped = np.count_nonzero(var < 0.0, axis=(-2, -1))
    # vec stacks columns, so diagonal index r + K c holds entry (r, c)
    var = np.maximum(var, 0.0).reshape(lead + (h, k, k)).swapaxes(-1, -2)
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    half = np.concatenate([np.zeros(lead + (1, k, k)), z * np.sqrt(var / t)], axis=-3)
    lowers, uppers = points - half, points + half
    if not (np.all(np.isfinite(lowers)) and np.all(np.isfinite(uppers))):
        raise NonFiniteError("interval bounds contain non-finite values")
    return lowers, uppers, clamped


def delta_ci(
    phi_hat: np.ndarray,
    covs: np.ndarray,
    level: float,
    t: int,
    method: str,
) -> IntervalSet:
    """Gaussian intervals point +- z sqrt(cov_diag / T) for each response.

    ``phi_hat`` is the (H+1, K, K) array of Phi_0..Phi_H and ``covs`` the
    (H, K^2, K^2) stack from ``irf_covariances``: ``delta_bounds`` of one
    sample.
    """
    points = _irf_array(phi_hat, "phi_hat")
    lowers, uppers, clamped = delta_bounds(points, covs, level, t)
    return IntervalSet(method, points, lowers, uppers, clamped=int(clamped))


def horizon_gate(p: int, horizon: int) -> list[tuple[int, bool]]:
    """Validity flags for sieve inference: horizon i is in-range iff i <= p."""
    return [(i, i <= p) for i in range(horizon + 1)]
