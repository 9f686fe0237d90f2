"""Companion-form algebra, moving-average (impulse response) expansions and
the VAR recursion behind every simulated path of the package.

A VAR(p) with coefficients A_1..A_p has moving-average matrices defined by
Phi_0 = I and

    Phi_i = sum_{j=1}^{min(i,p)} A_j Phi_{i-j},

the path of the VAR from zero start values driven by a unit impulse, which
coincide with the top-left K x K block of the i-th power of the companion
matrix. Two kernels step a VAR recursion. ``ma_from_ar`` steps the one above
horizon at a time, for one coefficient stack or a stack of them: the fitted
IRFs, and through ``dgp_sim``'s lag filter the true IRFs and AR(infinity)
form of a VARMA. The tests hold it against companion powers.
``_solve_recursion`` overwrites a stack of shocks with the paths of one
coefficient stack (simulated samples, bootstrap pseudo-samples) in blocks of
steps, each block one matrix product over all paths. The package's numerics
need numpy alone.

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
    """max|S - S'| <= 1e-12 max(1, max|S|) for S and each member of a (..., m, m) stack.

    Symmetric up to rounding at the scale of each matrix.
    """
    scale = np.maximum(1.0, np.abs(s).max(axis=(-2, -1)))
    return bool(np.all(np.abs(s - s.swapaxes(-1, -2)).max(axis=(-2, -1)) <= 1e-12 * scale))


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
    ``_solve_recursion``: a stack of short expansions, one per bootstrap
    draw, each with its own coefficients, is far cheaper stepped together
    than solved one draw at a time.
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


# a BLAS product of fewer multiply-adds (m n k) runs on the calling thread:
# half the size at which an OpenBLAS 0.3.31 gemm threads (estimate._GRAM_PANEL)
_SERIAL_MADDS = 1 << 19

# steps of one block of _solve_recursion: its 16 K output columns are a
# multiple of 16, a width at which a product's rows keep their bits
_BLOCK_STEPS = 16


def _block_operator(ar: np.ndarray) -> np.ndarray:
    """((p + b) K, b K) operator of one block of b = ``_BLOCK_STEPS`` recursion steps.

    A path's rows Y_{s-p}..Y_{s-1}, E_s..E_{s+b-1}, flattened in time
    order, times the operator give its Y_s..Y_{s+b-1}. In block form
    Y_blk = Psi_b E_blk + M_b [Y_{s-p}; ...; Y_{s-1}]: Psi_b is the lower
    block-Toeplitz matrix of Phi_0..Phi_{b-1} and M_b holds the top K rows
    of the companion powers A_c^1..A_c^b, its columns in time order. The
    operator is [M_b Psi_b]' in C order, built by stepping the recursion
    on the (p + b) K unit inputs.
    """
    p, k = ar.shape[0], ar.shape[-1]
    b = _BLOCK_STEPS
    width = (p + b) * k
    resp = np.eye(width).reshape(p + b, k, width)  # resp[u]: Y_u (or E_u) in the inputs
    lags = ar[::-1].transpose(1, 0, 2).reshape(k, p * k)  # [A_p ... A_1], oldest lag first
    for s in range(p, p + b):
        resp[s] += lags @ resp[s - p : s].reshape(p * k, width)
    return np.ascontiguousarray(resp[p:].reshape(b * k, width).T)


def _solve_recursion(ar: np.ndarray, paths: np.ndarray) -> None:
    """Overwrite the shocks of a C-contiguous (n, T, K) float stack with the VAR(p) paths.

    Path j solves Y_s = sum_j A_j Y_{s-j} + E_s from its shocks E_s (rows
    below p being the start values) under the (p, K, K) stack ``ar``. The
    steps from p on run in blocks of ``_BLOCK_STEPS``: a block is one
    product of the paths' rows s-p..s+b-1, contiguous in each path, with
    ``_block_operator``, and the last block pads its missing shocks with
    zeros. The paths are multiplied in groups of an even number of rows,
    each product below ``_SERIAL_MADDS`` where two rows allow it, and an odd
    group gets a zero row. On the OpenBLAS kernels SkylakeX, Haswell, Zen,
    SandyBridge and Prescott, a row of such a product (C-ordered operator,
    16 K columns, an even row count) has the same bits for any row count,
    while an odd count, a one-row product (numpy's gemv), a narrower or a
    transposed operator give some rows other bits. So a path's bits depend
    on ``ar``, its own shocks and T alone, not on the paths beside it.
    """
    n, t, k = paths.shape
    if ar.ndim != 3 or ar.shape[1:] != (k, k):
        raise DimensionMismatchError(
            f"_solve_recursion got coefficients {ar.shape} and paths of {k} variables"
        )
    p = len(ar)
    if t < p:
        raise DimensionMismatchError(f"{t} steps cannot hold {p} start values")
    if not p:  # Y_s = E_s
        return
    op = _block_operator(ar)
    width, b = op.shape[0], _BLOCK_STEPS
    group = max((_SERIAL_MADDS - 1) // op.size // 2 * 2, 2)
    flat = paths.reshape(n, t * k)
    # an explosive path may overflow; its callers check for that
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, group):
            rows = flat[lo : lo + group]
            work = rows if len(rows) % 2 == 0 else np.concatenate([rows, np.zeros((1, t * k))])
            for s in range(p, t, b):
                x = work[:, (s - p) * k : (s + b) * k]
                if x.shape[1] < width:
                    x = np.concatenate([x, np.zeros((len(x), width - x.shape[1]))], axis=1)
                work[:, s * k : (s + b) * k] = (x @ op)[:, : (min(s + b, t) - s) * k]
            if work is not rows:
                rows[...] = work[:-1]


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
