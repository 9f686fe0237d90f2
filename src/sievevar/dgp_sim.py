"""VARMA data-generating processes and their exact IRF / AR(infinity) forms.

Monte Carlo experiments need three things from the generating process:
simulated sample paths, the true impulse responses used to score interval
coverage, and the true autoregressive representation used by the tail-sum
diagnostics. All three live here, together with the lagged counterexample
construction that plants extra AR mass beyond the fitted order. Those
three come back as plain arrays: (H+1, K, K) IRFs and (n, K, K)
coefficient stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, UnstableProcessError
from .streams import SeedLike, generator
from .var_core import (
    MatrixSeq,
    _is_symmetric,
    _solve_recursion,
    coeff_seq,
    companion_form,
    spectral_radius,
    stability_class,
    var_recursion,
)

# Default plan for the modified AR coefficient set: full base at lag 1,
# base/5 at lag 12, base/10 at lag 14.
DEFAULT_COUNTEREXAMPLE_PLAN: tuple[tuple[int, float], ...] = (
    (1, 1.0),
    (12, 0.2),
    (14, 0.1),
)


@dataclass(frozen=True)
class VarmaSpec:
    """A VARMA(p, q) process: AR and MA coefficient sequences plus Sigma_u.

    Either sequence may be empty. Construction runs ``validate``, so a
    built spec has a stable AR part, an invertible MA part and a symmetric
    positive-definite innovation covariance.
    """

    k: int
    ar: MatrixSeq
    ma: MatrixSeq
    sigma_u: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma_u, dtype=float)
        if sigma.shape != (self.k, self.k):
            raise DimensionMismatchError(
                f"sigma_u must be {self.k} x {self.k}, got {sigma.shape}"
            )
        if self.ar.dim != self.k or self.ma.dim != self.k:
            raise DimensionMismatchError("AR/MA dimension disagrees with k")
        sigma = sigma.copy()
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma_u", sigma)
        self.validate()

    @property
    def p(self) -> int:
        return len(self.ar.mats)

    @property
    def q(self) -> int:
        return len(self.ma.mats)

    def validate(self) -> None:
        """Raise UnstableProcessError naming the first violated invariant."""
        if self.p:
            rad = spectral_radius(companion_form(self.ar.mats))
            if stability_class(rad) != "stable":
                raise UnstableProcessError(
                    f"AR part is not stable: companion spectral radius {rad:.6f}"
                )
        if self.q:
            # roots of det(I + sum M_j z^j) lie outside the unit disk iff the
            # companion matrix of the negated coefficients has radius < 1
            rad = spectral_radius(companion_form(-self.ma.mats))
            if stability_class(rad) != "stable":
                raise UnstableProcessError(
                    f"MA part is not invertible: companion spectral radius {rad:.6f}"
                )
        if not _is_symmetric(self.sigma_u):
            raise UnstableProcessError("sigma_u is not symmetric within 1e-12")
        try:
            np.linalg.cholesky(self.sigma_u)
        except np.linalg.LinAlgError:
            raise UnstableProcessError("sigma_u is not positive-definite") from None


@dataclass(frozen=True)
class SamplePath:
    """Simulated observations, T x K."""

    k: int
    t: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.t, self.k):
            raise DimensionMismatchError(
                f"values must be {self.t} x {self.k}, got {vals.shape}"
            )
        if self.t <= 0:
            raise DimensionMismatchError("sample length must be positive")
        if not np.all(np.isfinite(vals)):
            raise DimensionMismatchError("sample contains non-finite values")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def default_desk_spec() -> VarmaSpec:
    """Stand-in K=2 VARMA(1,1) used by the shipped presets.

    The literature experiment this mirrors does not print its matrices, so
    these values are a documented implementation choice (stable AR, invertible
    MA, identity innovation covariance), not a replication claim. Literature
    matrices can be supplied through the JSON config instead.
    """
    a1 = np.array([[0.5, 0.1], [0.2, 0.4]])
    m1 = np.array([[0.3, 0.0], [0.1, 0.2]])
    return VarmaSpec(k=2, ar=coeff_seq([a1]), ma=coeff_seq([m1]), sigma_u=np.eye(2))


def default_burn_in(spec: VarmaSpec) -> int:
    """200 + p: ample for the geometric-decay processes used here."""
    return 200 + spec.p


def simulate_varma(
    spec: VarmaSpec, t: int, burn_in: int, seed: SeedLike
) -> SamplePath:
    """Simulate ``burn_in + t`` observations from zero initial conditions.

    Innovations are i.i.d. N(0, sigma_u), built as a Cholesky transform of
    standard normals; the first ``burn_in`` observations are discarded. The
    output is a pure function of (spec, t, burn_in, seed): the one-seed case
    of ``simulate_varma_stack``.
    """
    return SamplePath(k=spec.k, t=t, values=simulate_varma_stack(spec, t, burn_in, [seed])[0])


def simulate_varma_stack(
    spec: VarmaSpec, t: int, burn_in: int, seeds: Sequence[SeedLike]
) -> np.ndarray:
    """The (n, T, K) stack of ``simulate_varma`` paths, one per seed.

    Each path draws its standard normals from its own seed and takes its
    Cholesky and MA steps on its own; all paths then step one recursion,
    solved in place (``var_core._solve_recursion``). Every path is
    bit-identical to ``simulate_varma`` of its seed, whatever the seeds
    beside it. The stack is not checked for finite values:
    ``simulate_varma`` checks its path in ``SamplePath``, and ``fit_var_ls``
    refuses a non-finite path with ``NonFiniteError``.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")

    total = burn_in + t
    p, k = spec.p, spec.k
    chol = np.linalg.cholesky(spec.sigma_u)
    # p presample zeros per path: the start values, zero initial conditions
    paths = np.zeros((len(seeds), p + total, k))
    for path, seed in zip(paths, seeds):
        u = generator(seed).standard_normal((total, k)) @ chol.T
        # e_s = u_s + sum_j M_j u_{s-j}, innovations before s = 0 being zero
        e = path[p:]
        e[:] = u
        for j, m in enumerate(spec.ma.mats, start=1):
            e[j:] += u[:-j] @ m.T
    _solve_recursion(spec.ar.mats, paths)
    return paths[:, p + burn_in :]


def counterexample_ar(
    base: np.ndarray,
    plan: tuple[tuple[int, float], ...] = DEFAULT_COUNTEREXAMPLE_PLAN,
) -> np.ndarray:
    """AR coefficients A_1..A_n, shape (n, K, K), with ``base * scale`` at each planned lag."""
    base = np.asarray(base, dtype=float)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise DimensionMismatchError("base must be a square matrix")
    lags = [lag for lag, _ in plan]
    if any(lag < 1 for lag in lags):
        raise ValueError("plan lags must be positive")
    if len(set(lags)) != len(lags):
        raise ValueError("plan lags must be distinct")
    k = base.shape[0]
    mats = np.zeros((max(lags), k, k))
    for lag, scale in plan:
        mats[lag - 1] = scale * base
    return mats


def varma_true_irf(spec: VarmaSpec, horizon: int) -> np.ndarray:
    """Exact impulse responses Phi_0..Phi_H of the process, shape (H+1, K, K).

    Phi_i = M_i 1{i <= q} + sum_{j=1}^{min(i,p)} A_j Phi_{i-j} with M_0 = I:
    the path of the AR part driven by I, M_1, ..., M_q.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    p, k = spec.p, spec.k
    shocks = np.zeros((p + horizon + 1, k, k))
    shocks[p] = np.eye(k)
    shocks[p + 1 : p + 1 + spec.q] = spec.ma.mats[:horizon]
    return var_recursion(spec.ar.mats, shocks)[p:]


def varma_true_ar(spec: VarmaSpec, n_lags: int) -> np.ndarray:
    """AR(infinity) coefficients A_1..A_n of the process, shape (n, K, K).

    Lag-polynomial division of the AR polynomial by the MA polynomial, in
    the convention y_t = sum A_i y_{t-i} + u_t:

        A_i = A_i^{dgp} 1{i <= p} - sum_{j=1}^{min(i,q)} M_j A_{i-j}

    with A_0 := -I closing the recursion: the VAR path with coefficients
    -M_1, ..., -M_q driven by -I, A_1^{dgp}, ..., A_p^{dgp}.
    """
    if n_lags < 0:
        raise ValueError("n_lags must be nonnegative")
    q, k = spec.q, spec.k
    shocks = np.zeros((q + n_lags + 1, k, k))
    shocks[q] = -np.eye(k)
    shocks[q + 1 : q + 1 + spec.p] = spec.ar.mats[:n_lags]
    return var_recursion(-spec.ma.mats, shocks)[q + 1 :]
