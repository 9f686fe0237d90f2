"""Companion-form algebra and moving-average (impulse response) recursions.

A VAR(p) with coefficients A_1..A_p has moving-average matrices defined by
Phi_0 = I and

    Phi_i = sum_{m=0}^{i-1} Phi_m A_{i-m},        A_j := 0 for j > p,

which coincide with the top-left K x K block of the i-th power of the
companion matrix whenever p >= i. Both routes are implemented; tests hold
them against each other.
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
    """Ordered sequence of K x K matrices indexed by lag or horizon.

    ``index_base`` is 0 for MA/IRF sequences (Phi_0 first) and 1 for
    coefficient sequences (A_1 or M_1 first). ``mats`` has shape (n, K, K)
    and is read-only after construction.
    """

    dim: int
    mats: np.ndarray
    index_base: int

    def __post_init__(self) -> None:
        mats = np.asarray(self.mats, dtype=float)
        if mats.ndim == 2:
            mats = mats[np.newaxis]
        if mats.size == 0:
            mats = mats.reshape(0, self.dim, self.dim)
        if mats.ndim != 3 or mats.shape[1:] != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"expected matrices of shape ({self.dim}, {self.dim}), got {mats.shape}"
            )
        if not np.all(np.isfinite(mats)):
            raise DimensionMismatchError("matrix sequence contains non-finite entries")
        if self.index_base not in (0, 1):
            raise DimensionMismatchError("index_base must be 0 or 1")
        if self.index_base == 0 and len(mats):
            if not np.array_equal(mats[0], np.eye(self.dim)):
                raise DimensionMismatchError(
                    "horizon-0 entry of an MA/IRF sequence must be the identity"
                )
        object.__setattr__(self, "mats", _freeze(mats))

    def __len__(self) -> int:
        return len(self.mats)

    @property
    def max_lag(self) -> int:
        """Largest lag/horizon index held by the sequence."""
        return self.index_base + len(self.mats) - 1

    def at(self, lag: int) -> np.ndarray:
        """Matrix at absolute lag/horizon ``lag``; zero outside the stored range."""
        pos = lag - self.index_base
        if 0 <= pos < len(self.mats):
            return self.mats[pos]
        return np.zeros((self.dim, self.dim))


def coeff_seq(mats, dim: int | None = None) -> MatrixSeq:
    """Coefficient sequence (A_1.. or M_1..); index_base 1."""
    arr = np.asarray(mats, dtype=float)
    if dim is None:
        if arr.ndim == 2:
            dim = arr.shape[0]
        elif arr.ndim == 3:
            dim = arr.shape[1]
        else:
            raise DimensionMismatchError("cannot infer dimension from empty sequence")
    return MatrixSeq(dim=int(dim), mats=arr, index_base=1)


def irf_seq(mats, dim: int | None = None) -> MatrixSeq:
    """IRF/MA sequence starting at Phi_0; index_base 0."""
    arr = np.asarray(mats, dtype=float)
    if dim is None:
        dim = arr.shape[1] if arr.ndim == 3 else arr.shape[0]
    return MatrixSeq(dim=int(dim), mats=arr, index_base=0)


def companion_form(ar: MatrixSeq) -> np.ndarray:
    """Stack AR coefficients A_1..A_p into the read-only Kp x Kp companion matrix."""
    if ar.index_base != 1:
        raise DimensionMismatchError("companion_form expects an AR coefficient sequence")
    if len(ar) < 1:
        raise DimensionMismatchError("companion_form requires p >= 1")
    k, p = ar.dim, len(ar)
    data = np.zeros((k * p, k * p))
    data[:k] = np.hstack(list(ar.mats))
    if p > 1:
        idx = np.arange(k * (p - 1))
        data[k + idx, idx] = 1.0
    return _freeze(data)


def ma_from_ar(ar: MatrixSeq | np.ndarray, horizon: int) -> MatrixSeq | np.ndarray:
    """MA matrices Phi_0..Phi_H by the recursion Phi_i = sum_m Phi_m A_{i-m}.

    Coefficients beyond the stored order are treated as zero, which is
    exactly the truncation a fitted VAR(p) imposes on a longer process.
    A ``MatrixSeq`` gives a ``MatrixSeq``; a stack of coefficient arrays
    of shape (..., p, K, K) gives the stack of shape (..., H+1, K, K),
    each member bit-identical to its own ``MatrixSeq`` expansion.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    mats = ar.mats if isinstance(ar, MatrixSeq) else np.asarray(ar, dtype=float)
    p, k = mats.shape[-3], mats.shape[-1]
    phis = np.empty(mats.shape[:-3] + (horizon + 1, k, k))
    phis[..., 0, :, :] = np.eye(k)
    for i in range(1, horizon + 1):
        acc = np.zeros(mats.shape[:-3] + (k, k))
        # terms with i - m > p vanish
        for m in range(max(0, i - p), i):
            acc += phis[..., m, :, :] @ mats[..., i - m - 1, :, :]
        phis[..., i, :, :] = acc
    return MatrixSeq(dim=k, mats=phis, index_base=0) if isinstance(ar, MatrixSeq) else phis


def ma_via_companion(ar: MatrixSeq, i: int) -> np.ndarray:
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
    return power[: ar.dim, : ar.dim].copy()


def spectral_radius(c: np.ndarray) -> float:
    """Largest eigenvalue modulus of a companion (or any square) matrix."""
    try:
        eigs = np.linalg.eigvals(np.asarray(c, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise EigenvalueError(f"eigenvalue solver failed: {exc}") from exc
    return float(np.max(np.abs(eigs))) if eigs.size else 0.0


def stability_class(radius: float) -> str:
    """'stable', 'near-unit-root' or 'unstable' given a companion radius."""
    if radius < 1.0 - STABILITY_MARGIN:
        return "stable"
    if radius < 1.0:
        return "near-unit-root"
    return "unstable"
