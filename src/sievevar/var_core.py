"""Companion-form algebra, moving-average (impulse response) expansions and
the VAR recursion that steps every lag recursion of the package.

A VAR(p) with coefficients A_1..A_p has moving-average matrices defined by
Phi_0 = I and

    Phi_i = sum_{j=1}^{min(i,p)} A_j Phi_{i-j},

the path of the VAR from zero start values driven by a unit impulse, which
coincide with the top-left K x K block of the i-th power of the companion
matrix. The package steps the recursion; the tests hold it against
companion powers.

Every function takes and returns plain arrays: coefficient stacks have
shape (..., p, K, K) with A_1 first, IRF stacks (..., H+1, K, K) with
Phi_0 = I first. ``MatrixSeq`` is only the validated coefficient record a
process specification or a fitted model holds; ``coeff_seq`` builds it where
input enters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EigenvalueError

# Spectral radii below 1 - STABILITY_MARGIN classify as stable; radii in
# [1 - STABILITY_MARGIN, 1) are near-unit-root.
STABILITY_MARGIN = 1e-8


@dataclass(frozen=True)
class MatrixSeq:
    """Validated coefficient record: the read-only (p, K, K) stack A_1..A_p.

    Holds the AR or MA coefficients of a ``VarmaSpec`` and the fitted
    coefficients of a ``VarModel``; every computation takes the ``mats``
    array itself.
    """

    dim: int
    mats: np.ndarray

    def __post_init__(self) -> None:
        mats = np.array(self.mats, dtype=float)  # a copy the caller cannot write
        if mats.size == 0:
            mats = mats.reshape(0, self.dim, self.dim)
        if mats.ndim != 3 or mats.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected matrices of shape ({self.dim}, {self.dim}), got {mats.shape}"
            )
        if not np.all(np.isfinite(mats)):
            raise DimensionMismatchError("matrix sequence contains non-finite entries")
        mats.flags.writeable = False
        object.__setattr__(self, "mats", mats)


def _is_symmetric(s: np.ndarray) -> bool:
    """max|S - S'| <= 1e-12 max(1, max|S|): symmetric up to rounding at the scale of S."""
    return bool(np.abs(s - s.T).max() <= 1e-12 * max(1.0, np.abs(s).max()))


def coeff_seq(mats, dim: int | None = None) -> MatrixSeq:
    """Coefficient record A_1.. (or M_1..) of a (p, K, K) array or list of K x K matrices.

    ``dim`` gives K, which an empty list does not show.
    """
    arr = np.asarray(mats, dtype=float)
    if dim is None and arr.ndim != 3:
        raise DimensionMismatchError(f"coefficients must have shape (p, K, K), got {arr.shape}")
    return MatrixSeq(dim=int(arr.shape[-1] if dim is None else dim), mats=arr)


def companion_form(ar: np.ndarray) -> np.ndarray:
    """Read-only Kp x Kp companion matrix of A_1..A_p, (..., Kp, Kp) for a (..., p, K, K) stack."""
    ar = np.asarray(ar, dtype=float)
    if ar.ndim < 3 or ar.shape[-3] < 1 or ar.shape[-2] != ar.shape[-1]:
        raise DimensionMismatchError(f"companion_form expects (p, K, K), p >= 1, got {ar.shape}")
    p, k = ar.shape[-3], ar.shape[-1]
    data = np.zeros(ar.shape[:-3] + (k * p, k * p))
    data[..., :k, :] = ar.swapaxes(-3, -2).reshape(ar.shape[:-3] + (k, k * p))
    data[..., k:, :-k] = np.eye(k * (p - 1))
    data.flags.writeable = False
    return data


def ma_from_ar(ar: np.ndarray, horizon: int) -> np.ndarray:
    """MA matrices Phi_0..Phi_H, the VAR path Phi_i = sum_j A_j Phi_{i-j} of a unit impulse.

    Coefficients beyond the stored order are treated as zero, which is
    exactly the truncation a fitted VAR(p) imposes on a longer process.
    A (..., p, K, K) stack of coefficients gives the (..., H+1, K, K)
    stack of expansions, each member bit-identical to its own expansion.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    ar = np.asarray(ar, dtype=float)
    lead, p, k = ar.shape[:-3], ar.shape[-3], ar.shape[-1]
    shocks = np.zeros(lead + (p + horizon + 1, k, k))
    shocks[..., p, :, :] = np.eye(k)
    return var_recursion(ar, shocks)[..., p:, :, :]


def var_recursion(ar: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """Paths Y_s = sum_j A_j Y_{s-j} + E_s of VAR(p) recursions, shape (..., T, K, m).

    Each Y_s is K x m: m = 1 steps sample paths, m = K from a unit impulse
    impulse responses. ``shocks`` holds the E_s, its leading dimensions
    indexing the paths, and ``ar`` (A_1..A_p, shape (..., p, K, K))
    broadcasts against them. Rows below p are the start values, Y_s = E_s;
    row s >= p is sum_j A_j Y_{s-j} + E_s, so a constant is part of the
    shock. Every path is bit-identical to its own recursion.
    """
    ar = np.asarray(ar, dtype=float)
    lead, (t, k, m) = shocks.shape[:-3], shocks.shape[-3:]
    try:
        broadcasts = ar.ndim >= 3 and np.broadcast_shapes(ar.shape[:-3], lead) == lead
    except ValueError:
        broadcasts = False
    if not broadcasts or ar.shape[-2:] != (k, k):
        raise DimensionMismatchError(
            f"var_recursion got coefficients {ar.shape} and shocks {shocks.shape}"
        )
    p = ar.shape[-3]
    if t < p:
        raise DimensionMismatchError(f"{t} steps cannot hold {p} start values")
    stacked = ar.swapaxes(-3, -2).reshape(ar.shape[:-3] + (k, p * k))  # K x Kp, [A_1 ... A_p]
    # time runs backwards in rev: row t-1-s holds Y_s, so the state
    # [Y_{s-1}; ...; Y_{s-p}] is the contiguous run of rows t-s..t-s+p-1
    rev = np.empty(lead + (t, k, m))
    rev[..., t - p :, :, :] = shocks[..., :p, :, :][..., ::-1, :, :]
    flat = rev.reshape(lead + (t * k, m))
    for step in range(p, t):
        row = t - 1 - step
        state = flat[..., (row + 1) * k : (row + 1 + p) * k, :]
        # one product per path keeps each path's bits: at m = 1 a stack of
        # matrix-vector products, which state @ stacked.T would round differently
        rev[..., row, :, :] = stacked @ state + shocks[..., step, :, :]
    # take copies whole rows, several times faster than copying rev[..., ::-1, :, :]
    return rev.take(np.arange(t - 1, -1, -1), axis=-3)


def spectral_radius(c: np.ndarray) -> float | np.ndarray:
    """Largest eigenvalue modulus of a square matrix, or of each in a (..., n, n) stack.

    One matrix gives a float, a stack an array of shape (...).
    """
    try:
        eigs = np.linalg.eigvals(np.asarray(c, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"eigenvalue solver failed: {exc}") from exc
    radius = np.abs(eigs).max(axis=-1, initial=0.0)
    return float(radius) if radius.ndim == 0 else radius


# squarings and norm threshold of the power bound in _stationary
_CERT_SQUARINGS = 5
_CERT_NORM = 0.5


def _stationary(c: np.ndarray) -> np.ndarray:
    """spectral_radius(c) < 1.0 of an (n, m, m) stack, eigen-solving what a bound cannot settle.

    Every consistent norm bounds the spectral radius: rho(C)^s <= ||C^s||_2
    <= ||C^s||_F. Squaring the stack five times gives s = 32, and a member
    whose computed power P has ||P||_F < 1/2 is certified stationary, as
    soon as one of its squarings gets there. The rounding of the squarings
    is bounded alongside: with f = ||P||_F and e a bound on ||P - C^s||_F,
    squaring P rounds by at most gamma_m f^2 (gamma_m = m u / (1 - m u), u
    the unit roundoff, since || |P| |P| ||_F <= f^2), and
    P^2 - C^(2s) = P (P - C^s) + (P - C^s) C^s, so the new bound is
    (2 f + e) e + gamma_m f^2. A member is certified only when that bound is
    below 1/2 too, so ||C^s||_F < 1/2 + 1/2 with room left for the rounding
    of the norms and of the bound themselves. Members it cannot certify,
    among them every non-finite one, go to ``spectral_radius``, which
    raises ``EigenvalueError`` on a NaN as before.
    """
    c = np.asarray(c, dtype=float)
    mu = c.shape[-1] * np.finfo(float).eps / 2
    gamma = mu / (1.0 - mu)
    stable = np.zeros(len(c), dtype=bool)
    power, err = c, np.zeros(len(c))
    # explosive members overflow to inf and then NaN; neither certifies
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(np.einsum("nij,nij->n", c, c))
        for _ in range(_CERT_SQUARINGS):
            power = np.matmul(power, power)
            err = (2.0 * norm + err) * err + gamma * norm * norm
            norm = np.sqrt(np.einsum("nij,nij->n", power, power))
            stable |= (norm < _CERT_NORM) & (err < _CERT_NORM)
    pending = np.flatnonzero(~stable)
    if len(pending):
        stable[pending] = spectral_radius(c[pending]) < 1.0
    return stable


def stability_class(radius: float) -> str:
    """'stable', 'near-unit-root' or 'unstable' given a companion radius."""
    if radius < 1.0 - STABILITY_MARGIN:
        return "stable"
    if radius < 1.0:
        return "near-unit-root"
    return "unstable"
