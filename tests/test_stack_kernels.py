"""Stacked kernels: each member of a stack keeps the bits of its one-sample call.

A Monte Carlo pass fits and scores its samples as one stack, so a
replication's output must not depend on the samples beside it. The checks
here compare, byte for byte, every member of stacks of 1, 2, 3 and 10
samples with its one-sample call: the fit and its residual covariance,
Gamma_p, ``irf_covariances`` and ``delta_bounds``; a stack with a sample
that cannot be fitted raises that sample's own error. The fit copies its
lag windows a group of samples at a time: its Grams, residuals and
bootstrap refits keep every member's bits with a group boundary after any
member, its residuals match a product over the whole stack, and no buffer
it or Gamma_p allocates is read before it is written. The covariances keep
their bits for any block of horizons. They run in this process
and again, with the panelled Grams' symmetry, in a fresh interpreter on
OpenBLAS's Haswell kernels, the kernels AVX2-only and AMD Zen machines get.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sievevar import (
    NonFiniteError,
    SingularMatrixError,
    bootstrap_infer,
    delta_infer,
    estimate,
    ma_from_ar,
    simulate_varma,
)
from conftest import blas_is_openblas, cpu_has, pure_ar_spec, random_stable_coeffs

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
@pytest.mark.parametrize("k, p", SHAPES)
def test_residuals_match_the_whole_stack_product(k, p, intercept):
    # fit_var_fits forms the residuals from the lag windows of a group of
    # samples at a time; one product over a copy of the whole stack's
    # windows gives the same bits
    stack = sample_stack(k, p)
    fits = estimate.fit_var_fits(stack, p, intercept)
    rows = np.ascontiguousarray(estimate._lag_windows(stack, p)[:, ::-1])
    target, x = rows[..., :k], rows[..., k:]
    coef = fits.coefs.swapaxes(2, 3).reshape(len(stack), k * p, k)
    if intercept:
        means = rows.mean(axis=1)
        const = means[:, :k] - (means[:, np.newaxis, k:] @ coef)[:, 0]
        assert_same_bits(fits.intercept, const)
        target = target - const[:, np.newaxis]
    else:
        assert fits.intercept is None
    assert_same_bits(fits.residuals, target - x @ coef)


def one_sample_fit(fits, i):
    """Coefficients, residuals, Sigma_u and intercept of member i of a ``VarFits``."""
    arrays = [fits.coefs[i], fits.residuals[i], fits.sigma_u_hat[i]]
    return arrays + ([] if fits.intercept is None else [fits.intercept[i]])


def set_group_size(monkeypatch, size, t, k, p):
    """Set ``estimate._WINDOW_FLOATS`` to the lag windows of ``size`` samples of T rows."""
    monkeypatch.setattr(estimate, "_WINDOW_FLOATS", size * (t - p) * k * (p + 1))


@pytest.mark.parametrize("k, p", SHAPES)
def test_window_groups_keep_member_bits(monkeypatch, k, p):
    # groups of 1, 2 and 3 samples put a group boundary after every member
    # of the 10-sample stack; each member keeps the bits of its one-sample
    # call and of the default groups, Grams of widths 22 to 62 demeaned or
    # not, and fits with and without an intercept
    stack = sample_stack(k, p)
    n, t = stack.shape[:2]
    default_grams = {demean: estimate._lag_grams(stack, p, demean) for demean in (False, True)}
    default_fits = {c: estimate.fit_var_fits(stack, p, c) for c in (False, True)}
    for size in (1, 2, 3):
        set_group_size(monkeypatch, size, t, k, p)
        groups = [len(rows) for _, rows in estimate._window_groups(estimate._lag_windows(stack, p))]
        assert groups == [size] * (n // size) + [n % size] * (n % size > 0)
        for demean, default in default_grams.items():
            grams = estimate._lag_grams(stack, p, demean)
            for i in range(n):
                assert_same_bits(grams[i], estimate._lag_grams(stack[i : i + 1], p, demean)[0])
                assert_same_bits(grams[i], default[i])
        for intercept, default in default_fits.items():
            fits = estimate.fit_var_fits(stack, p, intercept)
            for i in range(n):
                alone = estimate.fit_var_fits(stack[i : i + 1], p, intercept)
                got = one_sample_fit(fits, i)
                for a, b, c in zip(got, one_sample_fit(alone, 0), one_sample_fit(default, i)):
                    assert_same_bits(a, b)
                    assert_same_bits(a, c)


@pytest.mark.parametrize("intercept", [False, True])
@pytest.mark.parametrize("k, p", SHAPES)
def test_refit_block_groups_keep_draw_bits(monkeypatch, k, p, intercept):
    # one _refit_draws block of 10 draws, refitted in groups of 1, 2 and 3:
    # each draw keeps the bits of its pseudo-sample refitted alone and of
    # the default groups
    y = sample_stack(k, p, n=1)[0]
    t, m, seed = len(y), 10, 5
    model, resid = estimate.fit_var_ls(y, p, intercept)
    args = (model.ar_hat.mats, model.intercept, resid, y)
    drawn = bootstrap_infer._draw_indices(seed, 0, m, t, p, len(resid))
    pseudo = bootstrap_infer.residual_bootstrap_sample(*args, *drawn)
    alone = [estimate.fit_var_ls_stack(pseudo[i : i + 1], p, intercept)[0][0] for i in range(m)]
    default = bootstrap_infer._refit_draws(*args, "fitted-model", seed, m)
    assert m * y.size <= bootstrap_infer._BLOCK_FLOATS
    for size in (1, 2, 3):
        set_group_size(monkeypatch, size, t, k, p)
        coefs = bootstrap_infer._refit_draws(*args, "fitted-model", seed, m)
        for i in range(m):
            assert_same_bits(coefs[i], alone[i])
            assert_same_bits(coefs[i], default[i])


def test_refit_block_peak_memory():
    # a 64-draw refit block of the ci-k4 shape (K = 4, T = 600, p = 6) holds
    # the reversed stack, its Grams and one group's lag windows at a time,
    # about 2.1 MB traced; a copy of the whole block's windows would add
    # 8.5 MB, and a second group's copy alive beside the first 0.4 MB
    n, t, k, p = 64, 600, 4, 6
    width = k * (p + 1)
    samples = np.random.default_rng(11).normal(size=(n, t, k))
    assert n * (t - p) * width > 16 * estimate._WINDOW_FLOATS
    bound = 8 * (samples.size + n * width**2 + 1.5 * estimate._WINDOW_FLOATS)
    estimate.fit_var_ls_stack(samples, p)  # caches and first-call state
    for intercept in (False, True):
        tracemalloc.start()
        try:
            estimate.fit_var_ls_stack(samples, p, intercept)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


@pytest.mark.parametrize("k, p", SHAPES)
def test_kernels_read_no_unwritten_memory(monkeypatch, k, p):
    # np.empty hands out whatever bits the memory held, a signalling NaN
    # among them, on which arithmetic raises "invalid value"; filled with
    # signalling NaNs, every buffer the fit and Gamma_p allocate is written
    # before it is read, and their results keep their bits
    stack = sample_stack(k, p)
    want = [estimate.fit_var_fits(stack, p, c) for c in (False, True)]
    want_gamma = estimate.sample_gamma_p_stack(stack, p)
    empty = np.empty

    def poisoned(shape, dtype=float, *args, **kwargs):
        out = empty(shape, dtype, *args, **kwargs)
        if out.dtype == np.float64:
            out.view(np.int64)[...] = 0x7FF0000000000001
        return out

    monkeypatch.setattr(np, "empty", poisoned)
    with np.errstate(all="raise"):
        gamma = estimate.sample_gamma_p_stack(stack, p)
        fits = [estimate.fit_var_fits(stack, p, c) for c in (False, True)]
    assert_same_bits(gamma, want_gamma)
    for got, expected in zip(fits, want):
        for i in range(len(stack)):
            for a, b in zip(one_sample_fit(got, i), one_sample_fit(expected, i)):
                assert_same_bits(a, b)


@pytest.mark.parametrize("n", [1, 10])
@pytest.mark.parametrize("k, p", SHAPES + ((4, 30),))
def test_covariance_blocks_keep_member_bits(monkeypatch, k, p, n):
    # blocks of one horizon (a budget of 1 float), of 5 (12 horizons in blocks
    # of 5, 5 and 2), of the default budget and of all horizons give every
    # member the bits of its own call; one horizon of the 10-sample K = 4,
    # p = 30 stack exceeds the default budget, so its blocks hold one horizon
    stack = sample_stack(k, p, n=n, t=300)
    fits = estimate.fit_var_fits(stack, p)
    phis = ma_from_ar(fits.coefs, HORIZON)
    alone = [
        delta_infer.irf_covariances(phi, gamma, sigma)
        for phi, gamma, sigma in zip(phis, fits.moment_matrix, fits.sigma_u_hat)
    ]
    per_horizon = n * k**4 * p
    if (k, p, n) == (4, 30, 10):
        assert per_horizon > delta_infer._COV_BLOCK_FLOATS
    for floats in (1, 5 * per_horizon, delta_infer._COV_BLOCK_FLOATS, 10**12):
        monkeypatch.setattr(delta_infer, "_COV_BLOCK_FLOATS", floats)
        covs = delta_infer.irf_covariances(phis, fits.moment_matrix, fits.sigma_u_hat)
        for cov, one in zip(covs, alone):
            assert_same_bits(cov, one)


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


@pytest.mark.skipif(
    not cpu_has("avx2", "fma") or not blas_is_openblas(),
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
