"""Shared helpers: random stable model generation and small fixtures."""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from sievevar import (
    VarmaSpec,
    coeff_seq,
    companion_form,
    default_desk_spec,
    irf_jacobian,
    spectral_radius,
)
from sievevar import mc_harness
from sievevar.streams import generator


def lagged_regressors(values: np.ndarray, p: int) -> np.ndarray:
    """Design matrix with rows [y_{t-1}', ..., y_{t-p}'] for t = p..T-1, one slice per lag."""
    t, k = values.shape
    x = np.empty((t - p, k * p))
    for j in range(1, p + 1):
        x[:, (j - 1) * k : j * k] = values[p - j : t - j]
    return x


def sample_autocov(y: np.ndarray, h_max: int) -> np.ndarray:
    """(h_max+1, K, K) divisor-T autocovariances of the demeaned sample, one product per lag.

    Gamma(h) = sum_t (y_t - ybar)(y_{t-h} - ybar)' / T at index h; with
    ``build_gamma_p``, the oracle for ``sample_gamma_p``.
    """
    values = np.asarray(y, dtype=float)
    values = values.reshape(len(values), -1)
    t, k = values.shape
    centered = values - values.mean(axis=0)
    gammas = np.empty((h_max + 1, k, k))
    for h in range(h_max + 1):
        gammas[h] = centered[h:].T @ centered[: t - h] / t
    return gammas


def build_gamma_p(gammas: np.ndarray, p: int) -> np.ndarray:
    """Kp x Kp block-Toeplitz matrix with block (i, j) = Gamma(j - i), Gamma(-h) = Gamma(h)'.

    ``gammas`` holds Gamma(0)..Gamma(h_max), h_max >= p - 1; one gather of
    Gamma(-(p-1))..Gamma(p-1), so that lag j - i sits at index j - i + p - 1.
    """
    k = gammas.shape[1]
    both = np.concatenate([gammas[p - 1 : 0 : -1].swapaxes(1, 2), gammas[:p]])
    lags = np.arange(p) - np.arange(p)[:, np.newaxis] + p - 1
    return both[lags].swapaxes(1, 2).reshape(k * p, k * p)


def ma_via_companion(ar: np.ndarray, i: int) -> np.ndarray:
    """Phi_i as the top-left block of the i-th companion power, the oracle for ``ma_from_ar``.

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


def random_stable_coeffs(
    rng: np.random.Generator, k: int, p: int, radius: float
) -> np.ndarray:
    """(p, K, K) AR coefficients whose companion spectral radius equals ``radius``.

    Scaling A_j by s^j scales every companion eigenvalue by s, so one
    rescale lands exactly on the requested radius.
    """
    mats = rng.normal(size=(p, k, k))
    rho = spectral_radius(companion_form(mats))
    s = radius / rho
    return np.array([mats[j] * s ** (j + 1) for j in range(p)])


def random_stable_model(rng: np.random.Generator, max_k: int = 3, max_p: int = 5):
    """(coeffs, k, p) with dimensions drawn small and radius in [0.3, 0.9]."""
    k = int(rng.integers(1, max_k + 1))
    p = int(rng.integers(1, max_p + 1))
    radius = float(rng.uniform(0.3, 0.9))
    return random_stable_coeffs(rng, k, p, radius), k, p


def white_noise_spec(k: int = 2) -> VarmaSpec:
    """Pure innovation process with identity covariance."""
    empty = coeff_seq(np.empty((0, k, k)), k)
    return VarmaSpec(k=k, ar=empty, ma=empty, sigma_u=np.eye(k))


def pure_ar_spec(ar: np.ndarray, sigma: np.ndarray | None = None) -> VarmaSpec:
    k = ar.shape[-1]
    empty = white_noise_spec(k).ma
    return VarmaSpec(k=k, ar=coeff_seq(ar, k), ma=empty, sigma_u=np.eye(k) if sigma is None else sigma)


def scalar_varma(a: float | None, m: float | None, sigma2: float = 1.0) -> VarmaSpec:
    ar = coeff_seq(np.array([[[a]]]), 1) if a is not None else white_noise_spec(1).ar
    ma = coeff_seq(np.array([[[m]]]), 1) if m is not None else white_noise_spec(1).ma
    return VarmaSpec(k=1, ar=ar, ma=ma, sigma_u=np.array([[sigma2]]))


def jacobian_sandwich(model, gamma, sigma_u, horizon: int) -> np.ndarray:
    """Oracle stack of G_i (Gamma^{-1} kron Sigma_u) G_i' from irf_jacobian, i = 1..horizon."""
    middle = np.kron(np.linalg.inv(gamma), sigma_u)
    jacobians = [irf_jacobian(model, i) for i in range(1, horizon + 1)]
    return np.array([g @ middle @ g.T for g in jacobians])


def reference_simulate(spec: VarmaSpec, t: int, burn_in: int, seed) -> np.ndarray:
    """(t, K) VARMA path stepped one lag at a time, the oracle for ``simulate_varma``.

    Draws the same innovations from the same stream and accumulates
    y_s = u_s + sum_j A_j y_{s-j} + sum_j M_j u_{s-j} from zero initial
    conditions, one matrix-vector product per lag.
    """
    rng = generator(seed)
    total = burn_in + t
    u = rng.standard_normal((total, spec.k)) @ np.linalg.cholesky(spec.sigma_u).T
    y = np.zeros((total, spec.k))
    for step in range(total):
        acc = u[step].copy()
        for j in range(1, min(step, spec.p) + 1):
            acc += spec.ar.mats[j - 1] @ y[step - j]
        for j in range(1, min(step, spec.q) + 1):
            acc += spec.ma.mats[j - 1] @ u[step - j]
        y[step] = acc
    return y[burn_in:]


def reference_banded_recursion(ar: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """VAR(p) paths of an (n, T, K) shock stack, n >= 1, by LAPACK's banded triangular solve.

    The recursion is the unit lower-triangular system
    Y_s - sum_j A_j Y_{s-j} = E_s, whose rows s < p carry no coefficients.
    Column (u, l) of its lower band storage holds -A_j[i, l] at band row
    jK + i - l, for the row (u + j, i) of the system; ``dtbtrs`` solves it
    with every path as its own right-hand side.
    """
    p, k = ar.shape[0], ar.shape[-1]
    n, t, _ = shocks.shape
    band = np.zeros(((p + 1) * k, t * k))
    for u in range(t):
        for j in range(max(1, p - u), min(p, t - 1 - u) + 1):
            for i in range(k):
                band[j * k + i - np.arange(k), u * k + np.arange(k)] = -ar[j - 1, i]
    sol, info = lapack.dtbtrs(band, shocks.reshape(n, t * k).T, uplo="L", diag="U")
    assert info == 0
    return sol.T.reshape(n, t, k)


def reference_ma_from_ar(ar: np.ndarray, horizon: int) -> np.ndarray:
    """(H+1, K, K) MA matrices by Phi_i = sum_m Phi_m A_{i-m}, the oracle for ``ma_from_ar``.

    Multiplies the coefficients from the right, one product per lag, where
    the library steps Phi_i = sum_j A_j Phi_{i-j} from a unit impulse.
    """
    p, k = ar.shape[0], ar.shape[-1]
    phis = np.zeros((horizon + 1, k, k))
    phis[0] = np.eye(k)
    for i in range(1, horizon + 1):
        for m in range(max(0, i - p), i):
            phis[i] += phis[m] @ ar[i - m - 1]
    return phis


def _by_lag(coeffs: np.ndarray, n: int) -> np.ndarray:
    """(n+1, K, K) array whose entry j is coefficient j of ``coeffs``, zero past its order."""
    out = np.zeros((n + 1,) + coeffs.shape[1:])
    out[1 : len(coeffs) + 1] = coeffs[:n]
    return out


def reference_true_irf(spec: VarmaSpec, horizon: int) -> np.ndarray:
    """IRFs by Phi_i = M_i 1{i <= q} + sum_{j<=min(i,p)} A_j Phi_{i-j}, one product per lag.

    The oracle for ``varma_true_irf``.
    """
    phis = _by_lag(spec.ma.mats, horizon)
    phis[0] = np.eye(spec.k)
    for i in range(1, horizon + 1):
        for j in range(1, min(i, spec.p) + 1):
            phis[i] += spec.ar.mats[j - 1] @ phis[i - j]
    return phis


def reference_true_ar(spec: VarmaSpec, n_lags: int) -> np.ndarray:
    """AR(infinity) form by A_i = A_i^{dgp} 1{i <= p} - sum_{j<=min(i,q)} M_j A_{i-j}, A_0 = -I.

    The oracle for ``varma_true_ar``, one product per lag.
    """
    coeffs = _by_lag(spec.ar.mats, n_lags)
    coeffs[0] = -np.eye(spec.k)
    for i in range(1, n_lags + 1):
        for j in range(1, min(i, spec.q) + 1):
            coeffs[i] -= spec.ma.mats[j - 1] @ coeffs[i - j]
    return coeffs[1:]


def random_varma_spec(rng: np.random.Generator, k: int, p: int, q: int) -> VarmaSpec:
    """Stable, invertible VARMA(p, q) with identity Sigma_u, radii drawn in [0.3, 0.9]."""
    empty = np.empty((0, k, k))
    ar = random_stable_coeffs(rng, k, p, float(rng.uniform(0.3, 0.9))) if p else empty
    # invertible: the companion matrix of -M has radius below 1
    ma = -random_stable_coeffs(rng, k, q, float(rng.uniform(0.3, 0.9))) if q else empty
    spec = VarmaSpec(k=k, ar=coeff_seq(ar, k), ma=coeff_seq(ma, k), sigma_u=np.eye(k))
    spec.validate()
    return spec


def blas_is_openblas() -> bool:
    """Whether numpy's BLAS is OpenBLAS, whose threading sizes and kernels some tests pin."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def cpu_has(*flags: str) -> bool:
    """Whether /proc/cpuinfo lists every one of the CPU ``flags``."""
    try:
        words = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False
    return all(flag in words for flag in flags)


def openblas_corename() -> str | None:
    """The kernel set this process's OpenBLAS runs (``openblas_get_corename``), or None.

    OpenBLAS picks its kernels when it loads, from the CPU or from
    ``OPENBLAS_CORETYPE``; a build that ignores the variable reports the
    CPU's kernels.
    """
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    names = (
        "scipy_openblas_get_corename64_",
        "scipy_openblas_get_corename",
        "openblas_get_corename64_",
        "openblas_get_corename",
    )
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            corename = getattr(handle, name, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def assert_close_to_scale(got: np.ndarray, want: np.ndarray, rel: float) -> None:
    """Equal shapes, and entries within ``rel`` of the largest |entry| of ``want``."""
    assert got.shape == want.shape
    scale = np.max(np.abs(want), initial=0.0)
    assert np.max(np.abs(got - want), initial=0.0) <= rel * scale


@pytest.fixture
def desk_spec() -> VarmaSpec:
    return default_desk_spec()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


@pytest.fixture(autouse=True)
def fresh_worker_pool():
    """Shut the process's worker pool down after each test.

    A test's patches of ``mc_harness`` then reach the workers its own runs
    fork, and leave with it instead of living on in a reused pool.
    """
    yield
    if mc_harness._pool is not None:
        mc_harness._pool[1].shutdown(wait=True)
        mc_harness._pool = None
