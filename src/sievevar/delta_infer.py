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


def _irf_array(values: np.ndarray, name: str) -> np.ndarray:
    """A float copy of ``values``, which must be a finite (H+1, K, K) array."""
    arr = np.array(values, dtype=float)
    if arr.ndim != 3 or not len(arr) or arr.shape[1] != arr.shape[2]:
        raise DimensionMismatchError(f"{name} must have shape (H+1, K, K), got {arr.shape}")
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
    """Writable (m / size, size, size) view of the diagonal blocks of a C-contiguous m x m array."""
    rows, cols = a.strides
    return np.ndarray((len(a) // size, size, size), a.dtype, a, 0, (size * (rows + cols), rows, cols))


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, lower-triangular with exact zeros above.

    The factor is padded with the identity to an order m that is a power
    of two. Its inverse starts as the reciprocal diagonal, and each pass
    doubles the inverted diagonal blocks: a block [[A, 0], [C, D]] with A
    and D inverted gets -D^{-1} C A^{-1} below them, for all blocks of a
    pass in one stacked product. No LAPACK call: numpy's inverse of even a
    20 x 20 leaf costs several times LAPACK's triangular inverse. Up to
    Kp = 128 every product is below ``var_core._SERIAL_MADDS``, while
    ``np.linalg.inv`` or ``solve`` on the whole factor start OpenBLAS's
    thread server at Kp = 120.
    """
    n = len(low)
    m = 1 << (n - 1).bit_length()
    padded = np.eye(m)
    padded[:n, :n] = low
    out = np.diag(1.0 / np.diagonal(padded))
    half = 1
    while half < m:
        inv, tri = _diagonal_blocks(out, 2 * half), _diagonal_blocks(padded, 2 * half)
        inv[:, half:, :half] = -(inv[:, half:, half:] @ tri[:, half:, :half]) @ inv[:, :half, :half]
        half *= 2
    return out[:n, :n]


def irf_covariances(
    phi_hat: np.ndarray, gamma: np.ndarray, sigma_u: np.ndarray
) -> np.ndarray:
    """Stack of G_i (Gamma^{-1} kron Sigma_u) G_i' for i = 1..H.

    Returns an array of shape (H, K^2, K^2). ``phi_hat`` is the (H+1, K, K)
    array of fitted Phi_0..Phi_H, from which the G_i are built. ``gamma``
    is the Kp x Kp second-moment plug-in, which must be finite and
    positive-definite; ``sigma_u`` is the K x K innovation covariance
    plug-in, which may be singular.
    """
    phis = _irf_array(phi_hat, "phi_hat")
    horizon, k = len(phis) - 1, phis.shape[1]
    gamma = np.asarray(gamma, dtype=float)
    kp = gamma.shape[0] if gamma.ndim == 2 else 0
    if kp == 0 or kp % k or gamma.shape != (kp, kp):
        raise DimensionMismatchError(
            f"gamma must be Kp x Kp for K={k} and some p >= 1, got {gamma.shape}"
        )
    p = kp // k
    sigma_u = np.asarray(sigma_u, dtype=float)
    if sigma_u.shape != (k, k):
        raise DimensionMismatchError(
            f"sigma_u must be K x K for K={k}, got {sigma_u.shape}"
        )
    if not np.all(np.isfinite(gamma)):
        raise NonFiniteError("Gamma plug-in contains non-finite values")
    try:
        chol = np.linalg.cholesky(gamma)
    except np.linalg.LinAlgError:
        raise SingularMatrixError(
            "Gamma plug-in is not positive-definite",
            condition_number=float(np.linalg.cond(gamma)),
        ) from None
    # a blocked triangular inverse and per-horizon products keep every BLAS
    # call below OpenBLAS's threading sizes; a threaded solve leaves its
    # worker threads spinning through the Python work that follows
    linv = _lower_inverse(chol)
    padded = np.concatenate([phis[:horizon], np.zeros((1, k, k))])  # index -1 is zero
    # toe[i, a] = Phi_{i-a}, zero for a > i: one gather for both uses below
    toe = padded[np.maximum(np.arange(horizon)[:, None] - np.arange(max(p, horizon)), -1)]
    # A_c^a J' stacks Phi_a, Phi_{a-1}, ..., Phi_{a-p+1}
    cols = toe[:, :p].reshape(horizon, kp, k)
    # with Gamma = L L', x[a]' = J (A_c')^a L^{-T}
    x = (linv @ cols).reshape(horizon, kp * k)
    # phi_toe[i, (r, s), a] = Phi_{i-a}[r, s]
    phi_toe = toe[:, :horizon].transpose(0, 2, 3, 1)
    # W_{i+1} = sum_{a<=i} x[a]' kron Phi_{i-a}, rows (c, r) and columns (q, s)
    prod = (phi_toe.reshape(horizon, k * k, horizon) @ x).reshape(horizon, k, k, kp, k)
    w = prod.transpose(0, 4, 1, 3, 2).reshape(horizon, k * k, kp, k)
    w_sigma = (w @ sigma_u).reshape(horizon, k * k, kp * k)
    cov = w_sigma @ w.reshape(horizon, k * k, kp * k).transpose(0, 2, 1)
    return (cov + cov.transpose(0, 2, 1)) / 2.0


def delta_ci(
    phi_hat: np.ndarray,
    covs: np.ndarray,
    level: float,
    t: int,
    method: str,
) -> IntervalSet:
    """Gaussian intervals point +- z sqrt(cov_diag / T) for each response.

    ``phi_hat`` is the (H+1, K, K) array of Phi_0..Phi_H and ``covs`` the
    (H, K^2, K^2) stack from ``irf_covariances`` for horizons 1..H.
    Horizon 0 intervals are degenerate at Phi_0, which must be exactly the
    identity. Negative variance entries (roundoff from near-singular moment
    matrices) are clamped to zero and counted in ``clamped``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    points = _irf_array(phi_hat, "phi_hat")
    h, k = len(points) - 1, points.shape[1]
    if not np.array_equal(points[0], np.eye(k)):
        raise DimensionMismatchError("horizon-0 IRF must be the identity")
    covs = np.asarray(covs, dtype=float)
    if covs.shape != (h, k * k, k * k):
        raise DimensionMismatchError(
            f"covariances must have shape {(h, k * k, k * k)}, got {covs.shape}"
        )
    if not np.all(np.isfinite(covs)):
        raise NonFiniteError("IRF covariance has non-finite entries")
    scale = np.maximum(1.0, np.abs(covs).max(axis=(1, 2)))[:, None]
    if np.any(np.abs(covs - covs.transpose(0, 2, 1)).max(axis=2) > 1e-10 * scale):
        raise DimensionMismatchError("IRF covariance is not symmetric")
    var = np.diagonal(covs, axis1=1, axis2=2)
    if np.any(var < -1e-12 * scale):
        raise DimensionMismatchError("IRF covariance has negative diagonal")
    clamped = int(np.count_nonzero(var < 0.0))
    # vec stacks columns, so diagonal index r + K c holds entry (r, c)
    var = np.maximum(var, 0.0).reshape(h, k, k).transpose(0, 2, 1)
    z = NormalDist().inv_cdf((1.0 + level) / 2.0)
    half = np.concatenate([np.zeros((1, k, k)), z * np.sqrt(var / t)])
    return IntervalSet(
        method=method,
        points=points,
        lowers=points - half,
        uppers=points + half,
        clamped=clamped,
    )


def horizon_gate(p: int, horizon: int) -> list[tuple[int, bool]]:
    """Validity flags for sieve inference: horizon i is in-range iff i <= p."""
    return [(i, i <= p) for i in range(horizon + 1)]
