"""Companion-form algebra and moving-average (impulse response) recursions.

A VAR(p) with coefficients A_1..A_p has moving-average matrices defined by
Phi_0 = I and

    Phi_i = sum_{m=0}^{i-1} Phi_m A_{i-m},        A_j := 0 for j > p,

which coincide with the top-left K x K block of the i-th power of the
companion matrix whenever p >= i. Both routes are implemented; tests hold
them against each other.

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


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


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
        mats = np.asarray(self.mats, dtype=float)
        if mats.size == 0:
            mats = mats.reshape(0, self.dim, self.dim)
        if mats.ndim != 3 or mats.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected matrices of shape ({self.dim}, {self.dim}), got {mats.shape}"
            )
        if not np.all(np.isfinite(mats)):
            raise DimensionMismatchError("matrix sequence contains non-finite entries")
        object.__setattr__(self, "mats", _freeze(mats))


def coeff_seq(mats, dim: int | None = None) -> MatrixSeq:
    """Coefficient record A_1.. (or M_1..) of a (p, K, K) array or list of K x K matrices.

    ``dim`` gives K, which an empty list does not show.
    """
    arr = np.asarray(mats, dtype=float)
    if dim is None and arr.ndim != 3:
        raise DimensionMismatchError(f"coefficients must have shape (p, K, K), got {arr.shape}")
    return MatrixSeq(dim=int(arr.shape[-1] if dim is None else dim), mats=arr)


def companion_form(ar: np.ndarray) -> np.ndarray:
    """Stack the (p, K, K) coefficients A_1..A_p into the read-only Kp x Kp companion matrix."""
    ar = np.asarray(ar, dtype=float)
    if ar.ndim != 3 or ar.shape[1] != ar.shape[2]:
        raise DimensionMismatchError(f"companion_form expects a (p, K, K) array, got {ar.shape}")
    if len(ar) < 1:
        raise DimensionMismatchError("companion_form requires p >= 1")
    p, k = ar.shape[:2]
    data = np.zeros((k * p, k * p))
    data[:k] = np.hstack(list(ar))
    if p > 1:
        idx = np.arange(k * (p - 1))
        data[k + idx, idx] = 1.0
    return _freeze(data)


def ma_from_ar(ar: np.ndarray, horizon: int) -> np.ndarray:
    """MA matrices Phi_0..Phi_H by the recursion Phi_i = sum_m Phi_m A_{i-m}.

    Coefficients beyond the stored order are treated as zero, which is
    exactly the truncation a fitted VAR(p) imposes on a longer process.
    A (..., p, K, K) stack of coefficients gives the (..., H+1, K, K)
    stack of expansions, each member bit-identical to its own expansion.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    mats = np.asarray(ar, dtype=float)
    p, k = mats.shape[-3], mats.shape[-1]
    phis = np.empty(mats.shape[:-3] + (horizon + 1, k, k))
    phis[..., 0, :, :] = np.eye(k)
    for i in range(1, horizon + 1):
        acc = np.zeros(mats.shape[:-3] + (k, k))
        # terms with i - m > p vanish
        for m in range(max(0, i - p), i):
            acc += phis[..., m, :, :] @ mats[..., i - m - 1, :, :]
        phis[..., i, :, :] = acc
    return phis


def ma_via_companion(ar: np.ndarray, i: int) -> np.ndarray:
    """Phi_i as the top-left block of the i-th companion power.

    Powers are taken by repeated multiplication; exact agreement with the
    recursion matters more here than speed.
    """
    if i < 0:
        raise ValueError("horizon index must be nonnegative")
    comp = companion_form(ar)
    power = np.eye(comp.shape[0])
    for _ in range(i):
        power = comp @ power
    k = np.shape(ar)[-1]
    return power[:k, :k].copy()


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


def stability_class(radius: float) -> str:
    """'stable', 'near-unit-root' or 'unstable' given a companion radius."""
    if radius < 1.0 - STABILITY_MARGIN:
        return "stable"
    if radius < 1.0:
        return "near-unit-root"
    return "unstable"
