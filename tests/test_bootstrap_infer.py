"""Residual bootstrap, percentile intervals, bias correction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievevar import (
    DimensionMismatchError,
    SamplePath,
    SingularMatrixError,
    bias_corrected_bootstrap,
    bias_corrected_coefficients,
    bootstrap_irf_distribution,
    coeff_seq,
    companion_form,
    fit_var_ls,
    ma_from_ar,
    percentile_ci,
    residual_bootstrap_sample,
    simulate_varma,
    spectral_radius,
    white_noise_spec,
)
from sievevar import bootstrap_infer
from sievevar.bootstrap_infer import percentile_indices, stationarity_guard
from sievevar.streams import generator, substream
from conftest import pure_ar_spec, random_stable_coeffs, scalar_varma


def scalar_resample(model, residuals, values, seed):
    """Reference recursion: one pseudo-sample, one state vector at a time."""
    rng = generator(seed)
    t, k = values.shape
    p = model.p
    start = int(rng.integers(0, t - p + 1))
    idx = rng.integers(0, residuals.shape[0], size=t)
    centered = residuals - residuals.mean(axis=0)
    stacked = np.hstack(list(model.ar_hat.mats))
    const = model.intercept if model.intercept is not None else np.zeros(k)
    out = np.empty((t, k))
    out[:p] = values[start : start + p]
    state = out[:p][::-1].reshape(-1)
    for step in range(p, t):
        y_new = const + stacked @ state + centered[idx[step]]
        out[step] = y_new
        state[k:] = state[:-k]
        state[:k] = y_new
    return out


class TestResidualBootstrapSample:
    def test_zero_residuals_zero_source_gives_zero_path(self, rng):
        zeros = SamplePath(k=1, t=30, values=np.zeros((30, 1)))
        model, _ = fit_var_ls(np.arange(30.0) % 7 + 1.0, 2)
        path = residual_bootstrap_sample(model, np.zeros((28, 1)), zeros, [5])
        np.testing.assert_array_equal(path, np.zeros((1, 30, 1)))

    def test_same_seed_identical(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 17)
        model, resid = fit_var_ls(y, 2)
        a = residual_bootstrap_sample(model, resid, y, [99])
        b = residual_bootstrap_sample(model, resid, y, [99])
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_stack_matches_scalar_recursion_bit_for_bit(self, desk_spec, intercept):
        y = simulate_varma(desk_spec, 150, 200, 17)
        values = y.values + (3.0 if intercept else 0.0)
        model, resid = fit_var_ls(values, 3, intercept=intercept)
        seeds = [substream(8, r, 0) for r in range(5)]
        paths = residual_bootstrap_sample(model, resid, values, seeds)
        assert paths.shape == (5, 150, 2)
        for path, seed in zip(paths, seeds):
            np.testing.assert_array_equal(path, scalar_resample(model, resid, values, seed))

    def test_initial_block_comes_from_source(self, desk_spec):
        y = simulate_varma(desk_spec, 100, 200, 21)
        model, resid = fit_var_ls(y, 3)
        path = residual_bootstrap_sample(model, resid, y, [1])[0]
        # first p rows must be a contiguous block of the source
        hits = [
            s
            for s in range(y.t - 3 + 1)
            if np.array_equal(path[:3], y.values[s : s + 3])
        ]
        assert hits

    def test_resampled_mean_unbiased(self, desk_spec):
        y = simulate_varma(desk_spec, 200, 200, 33)
        model, resid = fit_var_ls(y, 1)
        centered = resid - resid.mean(axis=0)
        rng = np.random.default_rng(0)
        total = np.zeros(2)
        n_draws = 10_000
        for _ in range(n_draws):
            total += centered[rng.integers(0, len(centered))]
        mean = total / n_draws
        se = centered.std(axis=0) / np.sqrt(n_draws)
        assert np.all(np.abs(mean) < 3 * se)

    def test_intercept_carried_into_recursion(self, rng):
        ar = random_stable_coeffs(rng, 1, 1, 0.5)
        y = simulate_varma(pure_ar_spec(ar), 4000, 200, 3)
        shifted = SamplePath(k=1, t=4000, values=y.values + 5.0)
        model, resid = fit_var_ls(shifted, 1, intercept=True)
        path = residual_bootstrap_sample(model, resid, shifted, [2])
        assert abs(path.mean() - 5.0) < 0.5


class TestBootstrapIrfDistribution:
    def test_horizon_zero_draws_exact_identity(self, desk_spec):
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        draws = bootstrap_irf_distribution(model, resid, y, 4, 25, 7)
        assert np.array_equal(
            draws[:, 0], np.broadcast_to(np.eye(2), (25, 2, 2))
        )

    def test_white_noise_draws_center_on_estimate(self):
        # draws center on the fitted coefficient, which is itself a
        # root-T-small deviation from zero on white-noise data
        y = simulate_varma(white_noise_spec(1), 2000, 0, 12)
        model, resid = fit_var_ls(y, 1)
        a_hat = model.ar_hat.mats[0, 0, 0]
        draws = bootstrap_irf_distribution(model, resid, y, 1, 200, 3)
        phi1 = draws[:, 1, 0, 0]
        assert abs(phi1.mean() - a_hat) < 3 * phi1.std() / np.sqrt(len(phi1))
        assert abs(phi1.mean()) < 0.05

    def test_replication_streams_independent_of_m(self, desk_spec):
        # draw r depends only on (seed, r), so a shorter run is a prefix
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        big = bootstrap_irf_distribution(model, resid, y, 4, 12, 42)
        small = bootstrap_irf_distribution(model, resid, y, 4, 5, 42)
        assert np.array_equal(big[:5], small)

    def test_minimum_replications(self, desk_spec):
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        with pytest.raises(ValueError):
            bootstrap_irf_distribution(model, resid, y, 4, 1, 7)

    def test_singular_refit_retries_on_next_attempt(self, desk_spec, monkeypatch):
        # a singular refit of draw 0 moves it to the stream (seed, 0, 1);
        # every other draw keeps its first stream
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        plain = bootstrap_irf_distribution(model, resid, y, 4, 3, 7)
        fit = bootstrap_infer.fit_var_ls
        calls = []

        def first_singular(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise SingularMatrixError("forced")
            return fit(*args, **kwargs)

        monkeypatch.setattr(bootstrap_infer, "fit_var_ls", first_singular)
        draws = bootstrap_irf_distribution(model, resid, y, 4, 3, 7)
        retry = residual_bootstrap_sample(model, resid, y, [substream(7, 0, 1)])[0]
        want = ma_from_ar(fit(retry, 2)[0].ar_hat, 4).mats
        assert len(calls) == 4
        np.testing.assert_array_equal(draws[0], want)
        assert not np.array_equal(draws[0], plain[0])
        np.testing.assert_array_equal(draws[1:], plain[1:])

    def test_refit_singular_on_every_attempt_raises(self, desk_spec, monkeypatch):
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        calls = []

        def always_singular(*args, **kwargs):
            calls.append(args)
            raise SingularMatrixError("forced")

        monkeypatch.setattr(bootstrap_infer, "fit_var_ls", always_singular)
        with pytest.raises(SingularMatrixError):
            bootstrap_irf_distribution(model, resid, y, 4, 3, 7)
        # every pending draw gets its attempts before the raise
        assert len(calls) == 3 * bootstrap_infer._MAX_REFIT_ATTEMPTS

    @pytest.mark.parametrize("first_singular", [False, True])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_blocks_match_per_draw_reference(
        self, desk_spec, monkeypatch, block, first_singular
    ):
        # a forced singular first refit moves draw 0 to its attempt-1 stream
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        m = 70
        fit = bootstrap_infer.fit_var_ls
        want = []
        for r in range(m):
            attempt = 1 if first_singular and r == 0 else 0
            pseudo = residual_bootstrap_sample(model, resid, y, [substream(7, r, attempt)])
            want.append(ma_from_ar(fit(pseudo[0], 2)[0].ar_hat, 4).mats)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            if first_singular and len(calls) == 1:
                raise SingularMatrixError("forced")
            return fit(*args, **kwargs)

        monkeypatch.setattr(bootstrap_infer, "fit_var_ls", counted)
        monkeypatch.setattr(bootstrap_infer, "_DRAW_BLOCK", block)
        draws = bootstrap_irf_distribution(model, resid, y, 4, m, 7)
        assert len(calls) == m + first_singular
        np.testing.assert_array_equal(draws, np.array(want))

    def test_explosive_model_raises_dimension_mismatch(self, rng):
        y = rng.normal(size=(1000, 2))
        fitted, resid = fit_var_ls(y, 1)
        model = replace(fitted, ar_hat=coeff_seq(3.0 * np.eye(2)[np.newaxis], 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DimensionMismatchError):
                bootstrap_irf_distribution(model, resid, y, 4, 10, 7)


class TestPercentileCi:
    def test_stated_order_statistics(self):
        draws = np.arange(0.01, 1.005, 0.01).reshape(100, 1, 1, 1)
        iv = percentile_ci(draws, 0.90)
        assert iv.lowers[0, 0, 0] == pytest.approx(0.05)
        assert iv.uppers[0, 0, 0] == pytest.approx(0.95)

    def test_constant_draws_degenerate(self):
        draws = np.full((40, 2, 1, 1), 3.25)
        iv = percentile_ci(draws, 0.95)
        assert np.all(iv.lowers == 3.25) and np.all(iv.uppers == 3.25)

    def test_non_finite_or_wrong_rank_draws_rejected(self):
        bad = np.zeros((10, 2, 1, 1))
        bad[3, 1] = np.nan
        for draws in (bad, np.zeros((10, 2, 1))):
            with pytest.raises(DimensionMismatchError):
                percentile_ci(draws, 0.9)

    def test_m300_level95_indices(self):
        assert percentile_indices(300, 0.95) == (8, 293)

    def test_m100_level90_indices(self):
        assert percentile_indices(100, 0.90) == (5, 95)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(10, 400),
        level=st.floats(0.5, 0.99),
        seed=st.integers(0, 2**31),
    )
    def test_interval_contains_median(self, m, level, seed):
        rng = np.random.default_rng(seed)
        draws = rng.normal(size=(m, 1, 1, 1))
        iv = percentile_ci(draws, level)
        med = np.median(draws[:, 0, 0, 0])
        assert iv.lowers[0, 0, 0] <= med <= iv.uppers[0, 0, 0]


class TestStationarityGuard:
    def test_zero_bias_keeps_coefficients(self):
        coef = np.array([[[0.6]]])
        corrected, delta = stationarity_guard(coef, np.zeros_like(coef))
        assert delta == 1.0
        np.testing.assert_array_equal(corrected, coef)

    def test_not_triggered_for_small_radius_small_bias(self, rng):
        for _ in range(10):
            ar = random_stable_coeffs(rng, 2, 2, float(rng.uniform(0.2, 0.5)))
            bias = rng.normal(size=ar.mats.shape) * 0.01
            corrected, delta = stationarity_guard(ar.mats, bias)
            assert delta == 1.0
            np.testing.assert_allclose(corrected, ar.mats - bias)

    def test_explosive_correction_shrunk(self):
        coef = np.array([[[0.95]]])
        bias = np.array([[[-0.10]]])  # full correction would give 1.05
        corrected, delta = stationarity_guard(coef, bias)
        radius = spectral_radius(companion_form(coeff_seq(corrected, 1)))
        assert radius < 1.0
        assert 0.0 < delta < 1.0
        assert corrected[0, 0, 0] == pytest.approx(0.95 + 0.10 * delta)

    def test_corrected_radius_always_below_one_or_cancelled(self, rng):
        for _ in range(20):
            ar = random_stable_coeffs(rng, 2, 2, float(rng.uniform(0.5, 0.98)))
            bias = rng.normal(size=ar.mats.shape) * 0.2
            corrected, delta = stationarity_guard(ar.mats, bias)
            radius = spectral_radius(companion_form(coeff_seq(corrected, 2)))
            assert radius < 1.0 or delta == 0.0


class TestBiasCorrectedBootstrap:
    def test_zero_bias_reduces_to_plain_bootstrap(self, desk_spec, monkeypatch):
        # with a zero bias estimate the second stage is exactly a plain
        # percentile bootstrap of the (uncorrected) fitted model on the
        # stage-two stream (seed, 1)
        y = simulate_varma(desk_spec, 150, 200, 4)
        model, resid = fit_var_ls(y, 2)
        m = 15
        zero = np.zeros_like(model.ar_hat.mats)
        monkeypatch.setattr(
            bootstrap_infer,
            "bias_corrected_coefficients",
            lambda *args: (model.ar_hat, zero, 1.0),
        )
        plain = bootstrap_irf_distribution(model, resid, y, 4, m, substream(31, 1))
        for level in (0.95, 0.6, 0.2):
            iv = bias_corrected_bootstrap(model, resid, y, 4, m, level, 31)
            want = percentile_ci(plain, level)
            np.testing.assert_array_equal(iv.lowers, want.lowers)
            np.testing.assert_array_equal(iv.uppers, want.uppers)

    def test_deterministic(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 4)
        model, resid = fit_var_ls(y, 2)
        a = bias_corrected_bootstrap(model, resid, y, 5, 30, 0.95, 11)
        b = bias_corrected_bootstrap(model, resid, y, 5, 30, 0.95, 11)
        assert np.array_equal(a.lowers, b.lowers)
        assert np.array_equal(a.uppers, b.uppers)
        assert np.array_equal(a.points, b.points)

    def test_horizon_zero_exact_points(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 4)
        model, resid = fit_var_ls(y, 2)
        iv = bias_corrected_bootstrap(model, resid, y, 4, 25, 0.95, 11)
        np.testing.assert_array_equal(iv.lowers[0], np.eye(2))
        np.testing.assert_array_equal(iv.uppers[0], np.eye(2))

    def test_points_are_corrected_model_irfs(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 4)
        model, resid = fit_var_ls(y, 2)
        corrected, _, _ = bias_corrected_coefficients(model, resid, y, 25, 11)
        iv = bias_corrected_bootstrap(model, resid, y, 4, 25, 0.95, 11)
        np.testing.assert_allclose(iv.points, ma_from_ar(corrected, 4).mats)

    def test_reduces_ar1_bias_single_sample(self):
        # downward LS bias at a = 0.9, T = 80: the correction should move
        # the average coefficient toward the truth (full MC check lives in
        # the acceptance suite)
        runs = 40
        plain = np.empty(runs)
        corrected = np.empty(runs)
        spec = scalar_varma(0.9, None)
        for i in range(runs):
            y = simulate_varma(spec, 80, 200, 1000 + i)
            model, resid = fit_var_ls(y, 1)
            plain[i] = model.ar_hat.mats[0, 0, 0]
            fixed, _, _ = bias_corrected_coefficients(model, resid, y, 60, 2000 + i)
            corrected[i] = fixed.mats[0, 0, 0]
        assert abs(corrected.mean() - 0.9) < abs(plain.mean() - 0.9)
