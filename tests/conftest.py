"""Shared helpers: random stable model generation and small fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from sievevar import (
    VarmaSpec,
    coeff_seq,
    companion_form,
    default_desk_spec,
    irf_jacobian,
    spectral_radius,
    white_noise_spec,
)


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


@pytest.fixture
def desk_spec() -> VarmaSpec:
    return default_desk_spec()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
