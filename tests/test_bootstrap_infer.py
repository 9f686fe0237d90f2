"""Residual bootstrap, percentile intervals, bias correction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievevar import (
    DimensionMismatchError,
    NonFiniteError,
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
from sievevar.estimate import fit_var_ls_stack
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


def count_refits(monkeypatch, fail_on=None):
    """Count the draws refitted by the stacked solve and by ``fit_var_ls``.

    With ``fail_on`` the stacked solve flags the pseudo-sample equal to it,
    and the ``fit_var_ls`` refit of that sample raises
    ``SingularMatrixError``.
    """
    stacked, fit = bootstrap_infer.fit_var_ls_stack, bootstrap_infer.fit_var_ls
    refits = {"stacked": 0, "per_draw": 0}

    def counted_stack(samples, p, intercept=False):
        coefs, fitted = stacked(samples, p, intercept)
        if fail_on is not None:
            fitted &= ~(samples == fail_on).all(axis=(1, 2))
        refits["stacked"] += len(samples)
        return coefs, fitted

    def counted_fit(y, *args, **kwargs):
        refits["per_draw"] += 1
        if fail_on is not None and np.array_equal(y, fail_on):
            raise SingularMatrixError("forced")
        return fit(y, *args, **kwargs)

    monkeypatch.setattr(bootstrap_infer, "fit_var_ls_stack", counted_stack)
    monkeypatch.setattr(bootstrap_infer, "fit_var_ls", counted_fit)
    return refits


def scalar_guard(coef, bias):
    """Reference guard: one draw, one companion eigen-solve per delta step."""
    k = coef.shape[1]
    for step in range(100, 0, -1):
        delta = step * 0.01
        cand = coef - delta * bias
        if spectral_radius(companion_form(cand)) < 1.0:
            return cand, delta
    return coef.copy(), 0.0


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

    def test_empty_seed_list_gives_empty_stack(self, desk_spec):
        y = simulate_varma(desk_spec, 50, 200, 17)
        model, resid = fit_var_ls(y, 2)
        paths = residual_bootstrap_sample(model, resid, y, [])
        assert paths.shape == (0, 50, 2)

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
        first = residual_bootstrap_sample(model, resid, y, [substream(7, 0, 0)])[0]
        refits = count_refits(monkeypatch, fail_on=first)
        draws = bootstrap_irf_distribution(model, resid, y, 4, 3, 7)
        retry = residual_bootstrap_sample(model, resid, y, [substream(7, 0, 1)])
        want = ma_from_ar(fit_var_ls_stack(retry, 2)[0][0], 4)
        assert refits == {"stacked": 4, "per_draw": 1}
        np.testing.assert_array_equal(draws[0], want)
        assert not np.array_equal(draws[0], plain[0])
        np.testing.assert_array_equal(draws[1:], plain[1:])

    def test_refit_singular_on_every_attempt_raises(self, desk_spec, monkeypatch):
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        calls = []

        def flag_all(samples, p, intercept=False):
            n, _, k = samples.shape
            return np.full((n, p, k, k), np.nan), np.zeros(n, dtype=bool)

        def always_singular(*args, **kwargs):
            calls.append(args)
            raise SingularMatrixError("forced")

        monkeypatch.setattr(bootstrap_infer, "fit_var_ls_stack", flag_all)
        monkeypatch.setattr(bootstrap_infer, "fit_var_ls", always_singular)
        with pytest.raises(SingularMatrixError):
            bootstrap_irf_distribution(model, resid, y, 4, 3, 7)
        # every pending draw gets its attempts before the raise
        assert len(calls) == 3 * bootstrap_infer._MAX_REFIT_ATTEMPTS

    def test_genuinely_singular_refit_retried_then_raises(self, rng, monkeypatch):
        # zero residuals and a unit root on a constant source: every
        # pseudo-sample is constant, so every refit's X'X has rank 1
        source = np.ones((50, 2))
        fitted, _ = fit_var_ls(rng.normal(size=(50, 2)), 1)
        model = replace(fitted, ar_hat=coeff_seq(np.eye(2)[np.newaxis], 2))
        resid = np.zeros((49, 2))
        pseudo = residual_bootstrap_sample(model, resid, source, [substream(7, 0, 0), 3])
        np.testing.assert_array_equal(pseudo, np.ones((2, 50, 2)))
        assert not fit_var_ls_stack(pseudo, 1)[1].any()
        seeds, calls = [], []
        resample, fit = bootstrap_infer.residual_bootstrap_sample, bootstrap_infer.fit_var_ls

        def recorded(model, residuals, source, block_seeds):
            seeds.extend(block_seeds)
            return resample(model, residuals, source, block_seeds)

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(bootstrap_infer, "residual_bootstrap_sample", recorded)
        monkeypatch.setattr(bootstrap_infer, "fit_var_ls", counted)
        m, attempts = 3, bootstrap_infer._MAX_REFIT_ATTEMPTS
        with pytest.raises(SingularMatrixError):
            bootstrap_irf_distribution(model, resid, source, 4, m, 7)
        want = [substream(7, r, a) for a in range(attempts) for r in range(m)]
        assert [q.spawn_key for q in seeds] == [q.spawn_key for q in want]
        assert len(calls) == m * attempts

    @pytest.mark.parametrize("first_singular", [False, True])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_blocks_match_per_draw_reference(
        self, desk_spec, monkeypatch, block, first_singular
    ):
        # two streams share each pass; a forced singular first refit in the
        # second stream moves its draw 0 to the attempt-1 stream
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        streams = [("BOOT", 7, 70), ("BOOT-db stage one", substream(9, 0), 45)]
        want = []
        for _, seed, m in streams:
            draws = []
            for r in range(m):
                attempt = 1 if first_singular and seed is streams[1][1] and r == 0 else 0
                pseudo = residual_bootstrap_sample(model, resid, y, [substream(seed, r, attempt)])
                draws.append(fit_var_ls_stack(pseudo, 2)[0][0])
            want.append(np.array(draws))
        fail_on = None
        if first_singular:
            fail_on = residual_bootstrap_sample(model, resid, y, [substream(9, 0, 0, 0)])[0]
        refits = count_refits(monkeypatch, fail_on=fail_on)
        # blocks of 1, 3 and 64 draws of this T x K sample
        monkeypatch.setattr(bootstrap_infer, "_BLOCK_FLOATS", block * y.values.size)
        got = bootstrap_infer._refit_draws(model, resid, y, streams)
        assert refits == {"stacked": 115 + first_singular, "per_draw": int(first_singular)}
        assert len(got) == 2
        for coefs, expected in zip(got, want):
            np.testing.assert_array_equal(coefs, expected)

    def test_no_streams_resample_nothing(self, desk_spec, monkeypatch):
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)

        def no_resample(*args):
            raise AssertionError("resampled")

        monkeypatch.setattr(bootstrap_infer, "residual_bootstrap_sample", no_resample)
        assert bootstrap_infer._refit_draws(model, resid, y, []) == []

    def test_block_floats_bounds_block_size(self, desk_spec, monkeypatch):
        # 64 draws of a K=4, T=600 sample, or of any sample the same size
        sizes = []
        resample = bootstrap_infer.residual_bootstrap_sample

        def recorded(model, residuals, source, seeds):
            sizes.append(len(seeds))
            return resample(model, residuals, source, seeds)

        monkeypatch.setattr(bootstrap_infer, "residual_bootstrap_sample", recorded)
        for t, k, draws in ((600, 4, [64, 64, 2]), (300, 2, [130])):
            y = simulate_varma(white_noise_spec(k), t, 0, 3)
            model, resid = fit_var_ls(y, 1)
            sizes.clear()
            bootstrap_infer._refit_draws(model, resid, y, [("BOOT", 1, 65), ("BOOT", 2, 65)])
            assert sizes == draws

    @pytest.mark.parametrize("stage", ["BOOT", "BOOT-db stage one", "BOOT-db stage two"])
    def test_retry_error_names_stage_and_draw(self, rng, monkeypatch, stage):
        # every refit of the unit-root model on a constant source is singular
        source = np.ones((50, 2))
        fitted, _ = fit_var_ls(rng.normal(size=(50, 2)), 1)
        model = replace(fitted, ar_hat=coeff_seq(np.eye(2)[np.newaxis], 2))
        resid = np.zeros((49, 2))
        message = f"failed 10 times for {stage} draw 0$"
        with pytest.raises(SingularMatrixError, match=message):
            if stage == "BOOT":
                bootstrap_irf_distribution(model, resid, source, 4, 3, 7)
            elif stage == "BOOT-db stage one":
                bias_corrected_bootstrap(model, resid, source, 4, 3, 0.9, 7)
            else:
                zero = np.zeros_like(model.ar_hat.mats)
                monkeypatch.setattr(
                    bootstrap_infer,
                    "bias_corrected_coefficients",
                    lambda *args: (model.ar_hat.mats, zero, 1.0),
                )
                bias_corrected_bootstrap(model, resid, source, 4, 3, 0.9, 7)

    def test_retry_error_names_draw_of_second_stream(self, desk_spec, monkeypatch):
        # only draw 2 of the second stream is singular, on every attempt
        y = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(y, 2)
        resample, stack = bootstrap_infer.residual_bootstrap_sample, bootstrap_infer.fit_var_ls_stack
        block = []

        def recorded(model, residuals, source, seeds):
            block[:] = [(q.entropy, q.spawn_key[:-1]) for q in seeds]
            return resample(model, residuals, source, seeds)

        def flag_target(samples, p, intercept=False):
            coefs, fitted = stack(samples, p, intercept)
            return coefs, fitted & np.array([key != (8, (2,)) for key in block], dtype=bool)

        def singular(*args, **kwargs):
            raise SingularMatrixError("forced")

        monkeypatch.setattr(bootstrap_infer, "residual_bootstrap_sample", recorded)
        monkeypatch.setattr(bootstrap_infer, "fit_var_ls_stack", flag_target)
        monkeypatch.setattr(bootstrap_infer, "fit_var_ls", singular)
        streams = [("BOOT", 7, 3), ("BOOT-db stage two", 8, 4)]
        with pytest.raises(SingularMatrixError, match="for BOOT-db stage two draw 2$"):
            bootstrap_infer._refit_draws(model, resid, y, streams)

    def test_explosive_model_raises_non_finite(self, rng):
        y = rng.normal(size=(1000, 2))
        fitted, resid = fit_var_ls(y, 1)
        model = replace(fitted, ar_hat=coeff_seq(3.0 * np.eye(2)[np.newaxis], 2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="BOOT draw 0: bootstrap pseudo-sample"):
                bootstrap_irf_distribution(model, resid, y, 4, 10, 7)

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

    def test_non_finite_draws_raise_non_finite_error(self):
        draws = np.zeros((10, 2, 1, 1))
        draws[3, 1] = np.inf
        with pytest.raises(NonFiniteError):
            percentile_ci(draws, 0.9)

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
            bias = rng.normal(size=ar.shape) * 0.01
            corrected, delta = stationarity_guard(ar, bias)
            assert delta == 1.0
            np.testing.assert_allclose(corrected, ar - bias)

    def test_explosive_correction_shrunk(self):
        coef = np.array([[[0.95]]])
        bias = np.array([[[-0.10]]])  # full correction would give 1.05
        corrected, delta = stationarity_guard(coef, bias)
        radius = spectral_radius(companion_form(corrected))
        assert radius < 1.0
        assert 0.0 < delta < 1.0
        assert corrected[0, 0, 0] == pytest.approx(0.95 + 0.10 * delta)

    def test_corrected_radius_always_below_one_or_cancelled(self, rng):
        for _ in range(20):
            ar = random_stable_coeffs(rng, 2, 2, float(rng.uniform(0.5, 0.98)))
            bias = rng.normal(size=ar.shape) * 0.2
            corrected, delta = stationarity_guard(ar, bias)
            radius = spectral_radius(companion_form(corrected))
            assert radius < 1.0 or delta == 0.0

    def test_stack_matches_scalar_guard_bit_for_bit(self, rng):
        # draws needing delta = 1, delta < 1 and delta = 0 in one stack
        coefs = [
            random_stable_coeffs(rng, 2, 2, float(rng.uniform(0.5, 0.98))) for _ in range(9)
        ]
        biases = [rng.normal(size=(2, 2, 2)) * 0.2 for _ in range(9)]
        lag2 = np.zeros((2, 2))
        for a, b in ((0.95, -0.10), (0.999, -1.0), (0.3, 0.0)):
            coefs.append(np.array([a * np.eye(2), lag2]))
            biases.append(np.array([b * np.eye(2), lag2]))
        coef = np.array(coefs).reshape(3, 4, 2, 2, 2)
        bias = np.array(biases).reshape(coef.shape)
        corrected, deltas = stationarity_guard(coef, bias)
        assert corrected.shape == coef.shape and deltas.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            want, delta = scalar_guard(coef[idx], bias[idx])
            np.testing.assert_array_equal(corrected[idx], want)
            assert deltas[idx] == delta
        assert 0.0 < deltas[2, 1] < 1.0 and deltas[2, 2] == 0.0 and deltas[2, 3] == 1.0

    def test_shared_bias_broadcasts(self, rng):
        coef = np.array([random_stable_coeffs(rng, 2, 2, 0.9) for _ in range(5)])
        bias = rng.normal(size=(2, 2, 2)) * 0.2
        corrected, deltas = stationarity_guard(coef, bias)
        for c, got, delta in zip(coef, corrected, deltas):
            want, want_delta = scalar_guard(c, bias)
            np.testing.assert_array_equal(got, want)
            assert delta == want_delta


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
            lambda *args: (model.ar_hat.mats, zero, 1.0),
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
        np.testing.assert_allclose(iv.points, ma_from_ar(corrected, 4))

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
            corrected[i] = fixed[0, 0, 0]
        assert abs(corrected.mean() - 0.9) < abs(plain.mean() - 0.9)
