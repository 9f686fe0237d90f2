"""Stacked kernels: each member of a stack keeps the bits of its one-sample call.

A Monte Carlo pass fits and scores its samples as one stack, so a
replication's output must not depend on the samples beside it. The checks
here compare, byte for byte, every member of stacks of 1, 2, 3 and 10
samples with its one-sample call: the fit and its residual covariance,
Gamma_p, ``irf_covariances`` and ``delta_bounds``; a stack with a sample
that cannot be fitted raises that sample's own error. They run in this process
and again, with the panelled Grams' symmetry, in a fresh interpreter on
OpenBLAS's Haswell kernels, the kernels AVX2-only and AMD Zen machines get.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sievevar import NonFiniteError, SingularMatrixError, delta_infer, estimate, ma_from_ar, simulate_varma
from conftest import blas_is_openblas, pure_ar_spec, random_stable_coeffs

SIZES = (1, 2, 3, 10)
# (K, p) of the stacks; p = 30 at K = 2 takes the panelled Grams
SHAPES = ((2, 10), (2, 30), (4, 6), (3, 7))
HORIZON = 12
LEVEL = 0.9


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def sample_stack(k, p, n=max(SIZES), t=200):
    rng = np.random.default_rng(100 * k + p)
    spec = pure_ar_spec(random_stable_coeffs(rng, k, 2, 0.8))
    return np.stack([simulate_varma(spec, t, 50, seed).values + 2.0 for seed in range(n)])


def check_grams_symmetric():
    """Every lag-window Gram wider than one panel is exactly symmetric."""
    rng = np.random.default_rng(7)
    for k, p, t in ((2, 30, 300), (2, 30, 3000), (4, 8, 1000)):
        assert k * (p + 1) > estimate._GRAM_PANEL
        samples = rng.normal(size=(3, t, k)) @ rng.normal(size=(k, k)) + 3.0
        for demean in (False, True):
            for gram in estimate._lag_grams(samples, p, demean):
                assert_same_bits(gram, gram.T)


def check_members(k, p, intercept):
    """Members of stacks of ``SIZES`` samples against their one-sample calls."""
    stack = sample_stack(k, p)
    t = stack.shape[1]
    alone = []
    for y in stack:
        model, resid = estimate.fit_var_ls(y, p, intercept)
        phi = ma_from_ar(model.ar_hat.mats, HORIZON)
        gamma = estimate.sample_gamma_p(y, p)
        covs = (
            delta_infer.irf_covariances(phi, model.moment_matrix, model.sigma_u_hat),
            delta_infer.irf_covariances(phi, gamma, model.sigma_u_ml),
        )
        bounds = [delta_infer.delta_bounds(phi, cov, LEVEL, t) for cov in covs]
        alone.append((model, resid, phi, gamma, covs, bounds))
    for n in SIZES:
        fits = estimate.fit_var_fits(stack[:n], p, intercept)
        phis = ma_from_ar(fits.coefs, HORIZON)
        gammas = estimate.sample_gamma_p_stack(stack[:n], p)
        covs = (
            delta_infer.irf_covariances(phis, fits.moment_matrix, fits.sigma_u_hat),
            delta_infer.irf_covariances(phis, gammas, fits.sigma_u_ml),
        )
        bounds = [delta_infer.delta_bounds(phis, cov, LEVEL, t) for cov in covs]
        for i, (model, resid, phi, gamma, cov_alone, bounds_alone) in enumerate(alone[:n]):
            assert_same_bits(fits.coefs[i], model.ar_hat.mats)
            assert_same_bits(fits.model(i).ar_hat.mats, model.ar_hat.mats)
            assert_same_bits(fits.residuals[i], resid)
            assert_same_bits(fits.sigma_u_hat[i], model.sigma_u_hat)
            assert_same_bits(fits.sigma_u_ml[i], model.sigma_u_ml)
            assert_same_bits(fits.moment_matrix[i], model.moment_matrix)
            if intercept:
                assert_same_bits(fits.intercept[i], model.intercept)
            assert_same_bits(phis[i], phi)
            assert_same_bits(gammas[i], gamma)
            for stacked, one in zip(covs, cov_alone):
                assert_same_bits(stacked[i], one)
            for stacked, one in zip(bounds, bounds_alone):
                for a, b in zip(stacked, one):
                    assert_same_bits(a[i], b)


def check_all_members():
    for k, p in SHAPES:
        for intercept in (False, True):
            check_members(k, p, intercept)


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("k, p", SHAPES)
def test_members_keep_their_one_sample_bits(k, p, intercept):
    check_members(k, p, intercept)


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("member", [0, 1, 2])
def test_stack_refuses_singular_member_with_its_own_error(member, intercept):
    # a constant variable's two lags are one regressor at p = 2, and with an
    # intercept it demeans to zero; the stack raises what the member raises alone
    stack = sample_stack(2, 2, n=3)
    stack[member, :, 0] = 1.5
    with pytest.raises(SingularMatrixError) as alone:
        estimate.fit_var_ls(stack[member], 2, intercept)
    with pytest.raises(SingularMatrixError) as stacked:
        estimate.fit_var_fits(stack, 2, intercept)
    assert str(alone.value).startswith("singular regressor moment matrix (condition number ")
    assert str(stacked.value) == str(alone.value)
    assert stacked.value.condition_number == alone.value.condition_number


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_stack_refuses_non_finite_member_with_its_own_error(value, intercept):
    # a non-finite member is refused as non-finite, as alone, not as singular
    stack = sample_stack(2, 2, n=3)
    stack[1, 7, 1] = value
    with pytest.raises(NonFiniteError) as alone:
        estimate.fit_var_ls(stack[1], 2, intercept)
    with pytest.raises(NonFiniteError) as stacked:
        estimate.fit_var_fits(stack, 2, intercept)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value) == "sample contains non-finite values"


def _cpu_has(*flags):
    try:
        words = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False
    return all(flag in words for flag in flags)


@pytest.mark.skipif(
    not _cpu_has("avx2", "fma") or not blas_is_openblas(),
    reason="OpenBLAS's Haswell kernels need an OpenBLAS build and a CPU with AVX2 and FMA",
)
def test_haswell_kernels_keep_symmetry_and_member_bits():
    # the kernel set is chosen when OpenBLAS loads, so a fresh interpreter
    here = Path(__file__).parent
    path = os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")])
    )
    code = (
        "import test_stack_kernels as t\n"
        "t.check_grams_symmetric()\n"
        "t.check_all_members()\n"
    )
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE="Haswell")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300
    )
    assert done.returncode == 0, done.stderr
