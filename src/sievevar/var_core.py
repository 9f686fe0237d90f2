"""Companion-form algebra, moving-average (impulse response) expansions and
the VAR recursion behind every simulated path of the package.

A VAR(p) with coefficients A_1..A_p has moving-average matrices defined by
Phi_0 = I and

    Phi_i = sum_{j=1}^{min(i,p)} A_j Phi_{i-j},

the path of the VAR from zero start values driven by a unit impulse, which
coincide with the top-left K x K block of the i-th power of the companion
matrix. ``ma_from_ar`` steps this recursion one horizon at a time, for one
coefficient stack or a stack of them; the tests hold it against companion
powers. ``var_recursion`` computes the paths of one coefficient stack
(simulated samples, bootstrap pseudo-samples, the true IRFs and AR(infinity)
form of a VARMA) as one banded triangular solve over all steps and paths.

Every function takes and returns plain arrays: coefficient stacks have
shape (..., p, K, K) with A_1 first, IRF stacks (..., H+1, K, K) with
Phi_0 = I first. ``MatrixSeq`` is only the validated coefficient record a
process specification or a fitted model holds; ``coeff_seq`` builds it where
input enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

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
    The expansion steps its H + 1 horizons itself rather than calling
    ``var_recursion``: a stack of short expansions, one per bootstrap draw,
    each with its own coefficients, is far cheaper stepped together than
    solved one draw at a time.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    ar = np.asarray(ar, dtype=float)
    lead, p, k = ar.shape[:-3], ar.shape[-3], ar.shape[-1]
    stacked = ar.swapaxes(-3, -2).reshape(lead + (k, p * k))  # K x Kp, [A_1 ... A_p]
    # time runs backwards in rev: row H-i holds Phi_i and rows H+1.. the p
    # zero start values, so the state [Phi_{i-1}; ...; Phi_{i-p}] is the
    # contiguous run of rows H-i+1..H-i+p
    rev = np.zeros(lead + (horizon + 1 + p, k, k))
    flat = rev.reshape(lead + ((horizon + 1 + p) * k, k))
    impulse = np.eye(k)
    for i in range(horizon + 1):
        row = horizon - i
        state = flat[..., (row + 1) * k : (row + 1 + p) * k, :]
        # one product per member keeps each member's bits; adding the zero
        # shock turns a -0 product into +0
        rev[..., row, :, :] = stacked @ state + (impulse if i == 0 else 0.0)
    # take copies whole rows, several times faster than copying rev[..., ::-1, :, :]
    return rev.take(np.arange(horizon, -1, -1), axis=-3)


# band floats one segment of var_recursion's banded solve holds (8 MB)
_BAND_FLOATS = 1 << 20


def _band(ar: np.ndarray, steps: int) -> np.ndarray:
    """Lower band storage, (Kp + K, steps K) in Fortran order, of the recursion's system.

    Unknown (u, l) is entry l of Y_u, and row (s, i) of the unit
    lower-triangular system reads Y_s[i] - sum_j A_j[i, :] Y_{s-j} = E_s[i].
    Column (u, l) holds -A_j[i, l] at row (u + j, i), which is band row
    jK + i - l, the same for every u; rows s < p hold no coefficients, so
    they return their right-hand side, the start values.
    """
    p, k = ar.shape[0], ar.shape[-1]
    # lags[jK + i, l] = -A_j[i, l] for j = 1..p, zero for j = 0 and past p
    lags = np.zeros(((p + 2) * k, k))
    lags[k : (p + 1) * k] = -ar.reshape(p * k, k)
    pattern = lags[np.arange((p + 1) * k)[:, np.newaxis] + np.arange(k), np.arange(k)]
    band = np.tile(pattern.T, (steps, 1))  # row c of band.T is column c of the band
    # band row d of column c belongs to row c + d of the system: none below pK
    band[: p * k, : p * k][np.add.outer(np.arange(p * k), np.arange(p * k)) < p * k] = 0.0
    return band.T


def var_recursion(ar: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """Paths Y_s = sum_j A_j Y_{s-j} + E_s of VAR(p) recursions, shape (..., T, K, m).

    Each Y_s is K x m: m = 1 steps sample paths, m = K from a unit impulse
    impulse responses. ``shocks`` holds the E_s, its leading dimensions
    indexing the paths, and every path shares the one (p, K, K) coefficient
    stack ``ar`` (A_1..A_p). Rows below p are the start values, Y_s = E_s;
    row s >= p is sum_j A_j Y_{s-j} + E_s, so a constant is part of the
    shock. The paths are those of ``_solve_recursion`` on a copy of the
    shocks, each column of each path its own path. Returns a new
    C-contiguous array.
    """
    ar = np.asarray(ar, dtype=float)
    shocks = np.asarray(shocks, dtype=float)
    lead, (t, k, m) = shocks.shape[:-3], shocks.shape[-3:]
    n = math.prod(lead)
    # one (T, K) path per path and column m
    paths = shocks.reshape((n, t, k, m)).transpose(0, 3, 1, 2).copy().reshape(n * m, t, k)
    _solve_recursion(ar, paths)
    out = paths.reshape((n, m, t, k)).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(out).reshape(lead + (t, k, m))


def _solve_recursion(ar: np.ndarray, paths: np.ndarray) -> None:
    """Overwrite the shocks of a C-contiguous (n, T, K) float stack with the VAR(p) paths.

    Path j solves Y_s = sum_j A_j Y_{s-j} + E_s from its shocks E_s (rows
    below p being the start values) under the (p, K, K) stack ``ar``. The
    recursion is the unit lower-triangular banded system
    Y_s - sum_j A_j Y_{s-j} = E_s of bandwidth Kp + K - 1, solved by
    LAPACK's ``dtbtrs`` with each path as its own right-hand side, which it
    overwrites. Long paths are solved in segments of at most
    ``_BAND_FLOATS`` band entries (and at least 2p steps), each starting
    from the last p rows of the one before, so a path's bits depend on
    ``ar``, its own shocks and T alone, not on the paths beside it.
    """
    n, t, k = paths.shape
    if ar.ndim != 3 or ar.shape[1:] != (k, k):
        raise DimensionMismatchError(
            f"var_recursion got coefficients {ar.shape} and paths of {k} variables"
        )
    p = len(ar)
    if t < p:
        raise DimensionMismatchError(f"{t} steps cannot hold {p} start values")
    # time-major rows: the transpose is the Fortran-ordered right-hand side dtbtrs takes
    rhs = paths.reshape(n, t * k)
    steps = min(t, max(_BAND_FLOATS // ((p + 1) * k * k), 2 * p, 1))
    band = _band(ar, steps)
    # dtbtrs corrupts the heap when it is given no right-hand side
    for lo in range(0, t - p if rhs.size else 0, max(steps - p, 1)):
        seg = rhs[:, lo * k : min(lo + steps, t) * k]
        sol, info = lapack.dtbtrs(
            band[:, : seg.shape[1]], seg.T, uplo="L", diag="U", overwrite_b=True
        )
        if info:
            raise ValueError(f"dtbtrs rejected argument {-info}")
        seg[...] = sol.T


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
