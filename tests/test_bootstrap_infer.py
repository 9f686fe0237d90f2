"""Residual bootstrap, percentile intervals, bias correction."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievevar import (
    DimensionMismatchError,
    EigenvalueError,
    NonFiniteError,
    SingularMatrixError,
    bootstrap_interval_sets,
    companion_form,
    fit_var_ls,
    ma_from_ar,
    percentile_ci,
    residual_bootstrap_sample,
    simulate_varma,
    spectral_radius,
)
from sievevar import bootstrap_infer, var_core
from sievevar.bootstrap_infer import percentile_indices, stationarity_guard
from sievevar.estimate import fit_var_ls_stack
from sievevar.streams import generator, substream
from conftest import pure_ar_spec, random_stable_coeffs, scalar_varma, white_noise_spec


def rule_draw(seed, attempt, r, t, p, n_resid):
    """Block start (1,) and residual indices (1, T - p) of draw r, by the stated rule.

    On ``attempt``, a stage's block starts fill the stream (seed, attempt, 0)
    and its residual indices the stream (seed, attempt, 1), row r for draw
    r. Only rows 0..r are filled here, so a draw built from this matches
    one drawn in a pass of any size only if the fills are prefix-stable.
    """
    starts = generator(substream(seed, attempt, 0)).integers(0, t - p + 1, size=r + 1)
    idx = generator(substream(seed, attempt, 1)).integers(0, n_resid, size=(r + 1, t - p))
    return starts[r:], idx[r:]


def rule_pseudo(ar, intercept, residuals, values, seed, attempt, r):
    """Pseudo-sample of draw r on ``attempt`` of the stage ``seed``, resampled alone."""
    t, p = len(values), len(ar)
    drawn = rule_draw(seed, attempt, r, t, p, len(residuals))
    return residual_bootstrap_sample(ar, intercept, residuals, values, *drawn)[0]


def scalar_resample(ar, intercept, residuals, values, start, idx):
    """Reference recursion: one pseudo-sample, one state vector at a time.

    The constant rides on the resampled residual, A y + (u + c), as in
    ``residual_bootstrap_sample``.
    """
    t, k = values.shape
    p = len(ar)
    centered = residuals - residuals.mean(axis=0)
    stacked = np.hstack(list(ar))
    const = intercept if intercept is not None else np.zeros(k)
    out = np.empty((t, k))
    out[:p] = values[start : start + p]
    state = out[:p][::-1].reshape(-1)
    for step in range(p, t):
        y_new = stacked @ state + (centered[idx[step - p]] + const)
        out[step] = y_new
        state[k:] = state[:-k]
        state[:k] = y_new
    return out


def count_refits(monkeypatch, fail_on=None):
    """Count the draws refitted by the stacked solve.

    With ``fail_on`` the solve flags the pseudo-sample equal to it, so that
    draw is singular and moves to its next attempt.
    """
    stacked = bootstrap_infer.fit_var_ls_stack
    refits = {"stacked": 0}

    def counted_stack(samples, p, intercept=False):
        coefs, fitted, grams = stacked(samples, p, intercept)
        if fail_on is not None:
            fitted &= ~(samples == fail_on).all(axis=(1, 2))
        refits["stacked"] += len(samples)
        return coefs, fitted, grams

    monkeypatch.setattr(bootstrap_infer, "fit_var_ls_stack", counted_stack)
    return refits


def boot_draws(ar, resid, y, horizon, m, seed):
    """BOOT's IRF draws, as ``bootstrap_interval_sets`` hands them to ``percentile_ci``."""
    seen = []

    def recorded(draws, *args, **kwargs):
        seen.append(draws.copy())
        return percentile_ci(draws, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bootstrap_infer, "percentile_ci", recorded)
        bootstrap_interval_sets(ar, None, resid, y, horizon, m, 0.9, ("BOOT",), seed)
    (draws,) = seen
    return draws


def scalar_guard(coef, bias):
    """Reference guard: one draw, one companion eigen-solve per delta step."""
    k = coef.shape[1]
    for step in range(100, 0, -1):
        delta = step * 0.01
        cand = coef - delta * bias
        if spectral_radius(companion_form(cand)) < 1.0:
            return cand, delta
    return coef.copy(), 0.0


def count_eigen_solves(monkeypatch):
    """List that collects the stack size of every spectral_radius call of the guard."""
    solved = []

    def counted(c):
        solved.append(len(c))
        return spectral_radius(c)

    monkeypatch.setattr(bootstrap_infer, "spectral_radius", counted)
    monkeypatch.setattr(var_core, "spectral_radius", counted)
    return solved


class TestResidualBootstrapSample:
    def test_zero_residuals_zero_source_gives_zero_path(self, rng):
        zeros = np.zeros((30, 1))
        model, _ = fit_var_ls(np.arange(30.0) % 7 + 1.0, 2)
        idx = np.arange(28)[np.newaxis] % 5
        path = residual_bootstrap_sample(model.ar_hat.mats, None, np.zeros((28, 1)), zeros, [5], idx)
        np.testing.assert_array_equal(path, np.zeros((1, 30, 1)))

    def test_same_seed_identical(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 17).values
        model, resid = fit_var_ls(y, 2)
        drawn = bootstrap_infer._draw_indices(99, 0, 3, 150, 2, len(resid))
        a = residual_bootstrap_sample(model.ar_hat.mats, None, resid, y, *drawn)
        b = residual_bootstrap_sample(model.ar_hat.mats, None, resid, y, *drawn)
        assert np.array_equal(a, b)

    @staticmethod
    def _draws(desk_spec, intercept):
        """A fitted desk model, its residuals and sample, and a 5-draw stack of it."""
        y = simulate_varma(desk_spec, 150, 200, 17)
        values = y.values + (3.0 if intercept else 0.0)
        model, resid = fit_var_ls(values, 3, intercept=intercept)
        ar, const = model.ar_hat.mats, model.intercept
        starts, idx = bootstrap_infer._draw_indices(8, 0, 5, 150, 3, len(resid))
        paths = residual_bootstrap_sample(ar, const, resid, values, starts, idx)
        assert paths.shape == (5, 150, 2)
        return (ar, const, resid, values), starts, idx, paths

    @pytest.mark.parametrize("intercept", [False, True])
    def test_stack_member_matches_own_call_bit_for_bit(self, desk_spec, intercept):
        fit, starts, idx, paths = self._draws(desk_spec, intercept)
        for j, path in enumerate(paths):
            alone = residual_bootstrap_sample(*fit, starts[j : j + 1], idx[j : j + 1])
            np.testing.assert_array_equal(path, alone[0])

    @pytest.mark.parametrize("intercept", [False, True])
    def test_stack_matches_scalar_recursion(self, desk_spec, intercept):
        # the blocked recursion sums the lags in another order than the loop
        fit, starts, idx, paths = self._draws(desk_spec, intercept)
        for path, start, row in zip(paths, starts, idx):
            want = scalar_resample(*fit, start, row)
            np.testing.assert_allclose(path, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    def test_empty_index_arrays_give_empty_stack(self, desk_spec):
        y = simulate_varma(desk_spec, 50, 200, 17).values
        model, resid = fit_var_ls(y, 2)
        starts, idx = np.zeros(0, dtype=int), np.zeros((0, 48), dtype=int)
        paths = residual_bootstrap_sample(model.ar_hat.mats, None, resid, y, starts, idx)
        assert paths.shape == (0, 50, 2)

    @pytest.mark.parametrize("shape", [(2, 48), (3, 50), (3,)])
    def test_index_shape_must_match_starts_and_sample(self, desk_spec, shape):
        # three starts and a T = 50, p = 2 sample need a (3, 48) index array
        y = simulate_varma(desk_spec, 50, 200, 17).values
        model, resid = fit_var_ls(y, 2)
        with pytest.raises(DimensionMismatchError, match=r"need 3 rows of 48 residual indices"):
            residual_bootstrap_sample(
                model.ar_hat.mats, None, resid, y, [0, 1, 2], np.zeros(shape, dtype=int)
            )

    @pytest.mark.parametrize(
        "start, index, what",
        [
            (49, 0, "block starts"),
            (-1, 0, "block starts"),
            (0, 48, "residual"),
            (0, -1, "residual"),
        ],
    )
    def test_out_of_range_rows_rejected(self, desk_spec, start, index, what):
        # one gather reads the pool and the sample below it, so an index past
        # the 48 residuals must not read sample rows
        y = simulate_varma(desk_spec, 50, 200, 17).values
        model, resid = fit_var_ls(y, 2)
        idx = np.zeros((2, 48), dtype=int)
        idx[1, 5] = index
        with pytest.raises(IndexError, match=what):
            residual_bootstrap_sample(model.ar_hat.mats, None, resid, y, [0, start], idx)

    @pytest.mark.parametrize("seed, entropy, key", [(7, 7, ()), (substream(31, 1), 31, (1,))])
    def test_draw_indices_fill_the_stated_streams(self, seed, entropy, key):
        # attempt 2 of a stage: starts from (seed, 2, 0), indices from
        # (seed, 2, 1), each one numpy fill of n rows; any shorter fill is a prefix
        t, p, n_resid, n = 120, 3, 117, 50
        starts, idx = bootstrap_infer._draw_indices(seed, 2, n, t, p, n_resid)

        def rng(*path):
            return np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key + path))

        np.testing.assert_array_equal(starts, rng(2, 0).integers(0, t - p + 1, size=n))
        np.testing.assert_array_equal(idx, rng(2, 1).integers(0, n_resid, size=(n, t - p)))
        for short in (1, 3, 49):
            head = bootstrap_infer._draw_indices(seed, 2, short, t, p, n_resid)
            np.testing.assert_array_equal(head[0], starts[:short])
            np.testing.assert_array_equal(head[1], idx[:short])

    def test_initial_block_comes_from_source(self, desk_spec):
        y = simulate_varma(desk_spec, 100, 200, 21).values
        model, resid = fit_var_ls(y, 3)
        path = rule_pseudo(model.ar_hat.mats, None, resid, y, 1, 0, 0)
        # first p rows must be a contiguous block of the source
        hits = [s for s in range(len(y) - 3 + 1) if np.array_equal(path[:3], y[s : s + 3])]
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
        shifted = y.values + 5.0
        model, resid = fit_var_ls(shifted, 1, intercept=True)
        path = rule_pseudo(model.ar_hat.mats, model.intercept, resid, shifted, 2, 0, 0)
        assert abs(path.mean() - 5.0) < 0.5


class TestBootstrapIrfDistribution:
    def test_horizon_zero_draws_exact_identity(self, desk_spec):
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)
        draws = boot_draws(model.ar_hat.mats, resid, y, 4, 25, 7)
        assert np.array_equal(
            draws[:, 0], np.broadcast_to(np.eye(2), (25, 2, 2))
        )

    def test_white_noise_draws_center_on_estimate(self):
        # draws center on the fitted coefficient, which is itself a
        # root-T-small deviation from zero on white-noise data
        y = simulate_varma(white_noise_spec(1), 2000, 0, 12).values
        model, resid = fit_var_ls(y, 1)
        a_hat = model.ar_hat.mats[0, 0, 0]
        draws = boot_draws(model.ar_hat.mats, resid, y, 1, 200, 3)
        phi1 = draws[:, 1, 0, 0]
        assert abs(phi1.mean() - a_hat) < 3 * phi1.std() / np.sqrt(len(phi1))
        assert abs(phi1.mean()) < 0.05

    def test_replication_streams_independent_of_m(self, desk_spec):
        # draw r depends only on (seed, r), so a shorter run is a prefix
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)
        big = boot_draws(model.ar_hat.mats, resid, y, 4, 12, 42)
        small = boot_draws(model.ar_hat.mats, resid, y, 4, 5, 42)
        assert np.array_equal(big[:5], small)

    def test_minimum_replications(self, desk_spec):
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)
        with pytest.raises(ValueError):
            bootstrap_interval_sets(model.ar_hat.mats, None, resid, y, 4, 1, 0.9, ("BOOT",), 7)

    def test_singular_refit_retries_on_next_attempt(self, desk_spec, monkeypatch):
        # a singular refit of draw 1 moves it to row 1 of the attempt-1
        # fills; every other draw keeps its attempt-0 row
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)
        ar = model.ar_hat.mats
        plain = boot_draws(ar, resid, y, 4, 3, 7)
        first = rule_pseudo(ar, None, resid, y, substream(7, 10), 0, 1)
        refits = count_refits(monkeypatch, fail_on=first)
        draws = boot_draws(ar, resid, y, 4, 3, 7)
        retry = rule_pseudo(ar, None, resid, y, substream(7, 10), 1, 1)
        want = ma_from_ar(fit_var_ls_stack(retry[np.newaxis], 2)[0][0], 4)
        assert refits == {"stacked": 4}
        np.testing.assert_array_equal(draws[1], want)
        assert not np.array_equal(draws[1], plain[1])
        np.testing.assert_array_equal(draws[[0, 2]], plain[[0, 2]])

    def test_refit_singular_on_every_attempt_raises(self, desk_spec, monkeypatch):
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)
        calls = []

        def flag_all(samples, p, intercept=False):
            n, _, k = samples.shape
            calls.append(n)
            return (
                np.full((n, p, k, k), np.nan),
                np.zeros(n, dtype=bool),
                np.full((n, k * p, k * p), np.nan),
            )

        monkeypatch.setattr(bootstrap_infer, "fit_var_ls_stack", flag_all)
        with pytest.raises(SingularMatrixError):
            bootstrap_interval_sets(model.ar_hat.mats, None, resid, y, 4, 3, 0.9, ("BOOT",), 7)
        # every pending draw gets its attempts before the raise
        assert sum(calls) == 3 * bootstrap_infer._MAX_REFIT_ATTEMPTS

    def test_genuinely_singular_refit_retried_then_raises(self, monkeypatch):
        # zero residuals and a unit root on a constant source: every
        # pseudo-sample is constant, so every refit's X'X has rank 1
        source = np.ones((50, 2))
        ar = np.eye(2)[np.newaxis]
        resid = np.zeros((49, 2))
        drawn = bootstrap_infer._draw_indices(7, 0, 2, 50, 1, 49)
        pseudo = residual_bootstrap_sample(ar, None, resid, source, *drawn)
        np.testing.assert_array_equal(pseudo, np.ones((2, 50, 2)))
        assert not fit_var_ls_stack(pseudo, 1)[1].any()
        blocks = []
        resample = bootstrap_infer.residual_bootstrap_sample
        refits = count_refits(monkeypatch)

        def recorded(ar, intercept, residuals, source, starts, idx):
            blocks.append((starts, idx))
            return resample(ar, intercept, residuals, source, starts, idx)

        monkeypatch.setattr(bootstrap_infer, "residual_bootstrap_sample", recorded)
        m, attempts = 3, bootstrap_infer._MAX_REFIT_ATTEMPTS
        with pytest.raises(SingularMatrixError):
            bootstrap_interval_sets(ar, None, resid, source, 4, m, 0.9, ("BOOT",), 7)
        # one block per attempt, each draw on its row of that attempt's fills
        assert len(blocks) == attempts
        for attempt, (starts, idx) in enumerate(blocks):
            for r in range(m):
                start, row = rule_draw(substream(7, 10), attempt, r, 50, 1, 49)
                assert starts[r] == start[0]
                np.testing.assert_array_equal(idx[r], row[0])
        assert refits == {"stacked": m * attempts}

    @pytest.mark.parametrize("first_singular", [False, True])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_blocks_match_per_draw_reference(
        self, desk_spec, monkeypatch, block, first_singular
    ):
        # two stages of 60 draws, each its own pass of blocks; a forced
        # singular first refit of draw 5 of the second stage moves it to row
        # 5 of that stage's attempt-1 fills
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)
        ar, m = model.ar_hat.mats, 60
        stages = [("fitted-model", 7), ("BOOT-db stage two", substream(9, 0))]
        want = []
        for stage, seed in stages:
            draws = []
            for r in range(m):
                attempt = 1 if first_singular and stage != "fitted-model" and r == 5 else 0
                pseudo = rule_pseudo(ar, None, resid, y, seed, attempt, r)
                draws.append(fit_var_ls_stack(pseudo[np.newaxis], 2)[0][0])
            want.append(np.array(draws))
        fail_on = None
        if first_singular:
            fail_on = rule_pseudo(ar, None, resid, y, substream(9, 0), 0, 5)
        refits = count_refits(monkeypatch, fail_on=fail_on)
        # blocks of 1, 3 and 64 draws of this T x K sample
        monkeypatch.setattr(bootstrap_infer, "_BLOCK_FLOATS", block * y.size)
        got = [
            bootstrap_infer._refit_draws(ar, None, resid, y, stage, seed, m)
            for stage, seed in stages
        ]
        assert refits == {"stacked": 2 * m + first_singular}
        for coefs, expected in zip(got, want):
            assert coefs.shape == (m, 2, 2, 2)
            np.testing.assert_array_equal(coefs, expected)

    def test_no_seeds_resample_nothing(self, desk_spec, monkeypatch):
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)

        def no_resample(*args):
            raise AssertionError("resampled")

        monkeypatch.setattr(bootstrap_infer, "residual_bootstrap_sample", no_resample)
        monkeypatch.setattr(bootstrap_infer, "_draw_indices", no_resample)
        assert bootstrap_interval_sets(model.ar_hat.mats, None, resid, y, 4, 3, 0.9, (), 7) == {}

    def test_block_floats_bounds_block_size(self, desk_spec, monkeypatch):
        # 64 draws of a K=4, T=600 sample, or of any sample the same size,
        # in blocks of each stage's own draws
        sizes = []
        resample = bootstrap_infer.residual_bootstrap_sample

        def recorded(ar, intercept, residuals, source, starts, idx):
            sizes.append(len(starts))
            return resample(ar, intercept, residuals, source, starts, idx)

        monkeypatch.setattr(bootstrap_infer, "residual_bootstrap_sample", recorded)
        for t, k, draws in ((600, 4, [64, 1]), (300, 2, [65])):
            y = simulate_varma(white_noise_spec(k), t, 0, 3).values
            model, resid = fit_var_ls(y, 1)
            for seed in (1, 2):
                sizes.clear()
                ar = model.ar_hat.mats
                bootstrap_infer._refit_draws(ar, None, resid, y, "fitted-model", seed, 65)
                assert sizes == draws

    @pytest.mark.parametrize(
        "stage, methods",
        [
            ("fitted-model", ("BOOT",)),
            ("fitted-model", ("BOOT-db",)),
            ("fitted-model", ("BOOT", "BOOT-db")),
            ("BOOT-db stage two", None),
        ],
    )
    def test_retry_error_names_stage_and_draw(self, stage, methods):
        # every refit of the unit-root model on a constant source is singular;
        # the shared stage's name is right whichever method asked for it
        source = np.ones((50, 2))
        ar = np.eye(2)[np.newaxis]
        resid = np.zeros((49, 2))
        message = f"failed 10 times for {stage} draw 0$"
        with pytest.raises(SingularMatrixError, match=message):
            if methods:
                bootstrap_interval_sets(ar, None, resid, source, 4, 3, 0.9, methods, 7)
            else:
                zero = np.zeros_like(ar)
                bootstrap_infer._stage_two(ar, None, resid, source, 4, 3, 0.9, 7, ar, zero)

    def test_retry_error_names_draw_of_shared_stage(self, desk_spec, monkeypatch):
        # only draw 2 of the fitted-model stage, which BOOT and BOOT-db both
        # read, is singular, on every attempt
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)
        ar, stack = model.ar_hat.mats, bootstrap_infer.fit_var_ls_stack
        attempts = range(bootstrap_infer._MAX_REFIT_ATTEMPTS)
        shared = substream(8, 10)
        targets = np.array([rule_pseudo(ar, None, resid, y, shared, a, 2) for a in attempts])
        flagged = []

        def flag_target(samples, p, intercept=False):
            coefs, fitted, grams = stack(samples, p, intercept)
            hit = (samples[:, np.newaxis] == targets).all(axis=(2, 3)).any(axis=1)
            flagged.append(int(hit.sum()))
            return coefs, fitted & ~hit, grams

        monkeypatch.setattr(bootstrap_infer, "fit_var_ls_stack", flag_target)
        with pytest.raises(SingularMatrixError, match="for fitted-model draw 2$"):
            bootstrap_interval_sets(ar, None, resid, y, 4, 4, 0.9, ("BOOT", "BOOT-db"), 8)
        # one pass per attempt, and no other: each resampled draw 2 from its
        # own row of that attempt's fills
        assert flagged == [1] * len(attempts)

    def test_explosive_model_raises_non_finite(self, rng):
        y = rng.normal(size=(1000, 2))
        _, resid = fit_var_ls(y, 1)
        ar = 3.0 * np.eye(2)[np.newaxis]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteError, match="fitted-model draw 0: bootstrap pseudo-sample"):
                bootstrap_interval_sets(ar, None, resid, y, 4, 10, 0.9, ("BOOT",), 7)

    def test_explosive_model_raises_dimension_mismatch(self, rng):
        y = rng.normal(size=(1000, 2))
        _, resid = fit_var_ls(y, 1)
        ar = 3.0 * np.eye(2)[np.newaxis]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DimensionMismatchError):
                bootstrap_interval_sets(ar, None, resid, y, 4, 10, 0.9, ("BOOT",), 7)


class TestBootstrapIntervalSets:
    @pytest.mark.parametrize("key", ["BOOT_db", "LS"])
    def test_unknown_seed_key_rejected(self, desk_spec, key):
        y = simulate_varma(desk_spec, 120, 200, 50).values
        model, resid = fit_var_ls(y, 2)
        with pytest.raises(ValueError, match=f"'{key}'"):
            bootstrap_interval_sets(model.ar_hat.mats, None, resid, y, 4, 10, 0.9, ("BOOT", key), 7)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_one_fitted_model_stage_feeds_both_methods(self, desk_spec, monkeypatch, intercept):
        # one refit stage on (s, 10) and BOOT-db's second stage on (s, 11, 1);
        # BOOT-db alone makes the same (s, 10) call, BOOT expands that very
        # stack and BOOT-db's bias is its mean
        values = simulate_varma(desk_spec, 120, 200, 50).values + (3.0 if intercept else 0.0)
        model, resid = fit_var_ls(values, 2, intercept=intercept)
        ar, m, horizon = model.ar_hat.mats, 9, 4
        refit, stage_two, percentile = (
            bootstrap_infer._refit_draws,
            bootstrap_infer._stage_two,
            bootstrap_infer.percentile_ci,
        )
        calls, biases, expanded = [], [], []

        def spy_refit(ar_, intercept_, residuals, y, stage, seed, m_):
            coefs = refit(ar_, intercept_, residuals, y, stage, seed, m_)
            calls.append((stage, seed.entropy, seed.spawn_key, coefs))
            return coefs

        def spy_stage_two(*args):
            biases.append(args[-1])
            return stage_two(*args)

        def spy_percentile(draws, level):
            expanded.append(draws)
            return percentile(draws, level)

        monkeypatch.setattr(bootstrap_infer, "_refit_draws", spy_refit)
        monkeypatch.setattr(bootstrap_infer, "_stage_two", spy_stage_two)
        monkeypatch.setattr(bootstrap_infer, "percentile_ci", spy_percentile)
        streams = [("fitted-model", 5, (10,)), ("BOOT-db stage two", 5, (11, 1))]
        both = ("BOOT", "BOOT-db")
        fit = (ar, model.intercept, resid)
        sets = bootstrap_interval_sets(*fit, values, horizon, m, 0.9, both, 5)
        assert tuple(sets) == both
        assert [call[:3] for call in calls] == streams
        shared = calls[0][3]
        # BOOT's draws are the first expanded
        np.testing.assert_array_equal(expanded[0], ma_from_ar(shared, horizon))
        (bias,) = biases
        np.testing.assert_array_equal(bias, sum(shared) / m - ar)

        calls.clear()
        bootstrap_interval_sets(*fit, values, horizon, m, 0.9, ("BOOT-db",), 5)
        assert [call[:3] for call in calls] == streams
        np.testing.assert_array_equal(calls[0][3], shared)

    def test_sample_must_be_t_by_k_array(self, desk_spec):
        path = simulate_varma(desk_spec, 120, 200, 50)
        model, resid = fit_var_ls(path, 2)
        for y in (path, path.values[:, 0], path.values[:, :1], path.values[np.newaxis]):
            with pytest.raises(DimensionMismatchError, match=r"\(T, 2\) array"):
                bootstrap_interval_sets(model.ar_hat.mats, None, resid, y, 4, 10, 0.9, ("BOOT",), 7)

    @pytest.mark.parametrize("rows", [5, 10, 200])
    def test_sample_must_be_the_one_fitted(self, desk_spec, rows):
        # a T = 100, p = 2 fit leaves 98 residuals: a sample of another
        # length would resample another design, or fail its refits
        y = simulate_varma(desk_spec, 200, 200, 50).values
        model, resid = fit_var_ls(y[:100], 2)
        ar, other = model.ar_hat.mats, y[:rows]
        wanted = rf"of shape \(100, 2\), got shape \({rows}, 2\)"
        with pytest.raises(DimensionMismatchError, match=wanted):
            bootstrap_interval_sets(ar, None, resid, other, 4, 50, 0.9, ("BOOT",), 7)


class TestPercentileCi:
    def test_stated_order_statistics(self):
        draws = np.arange(0.01, 1.005, 0.01).reshape(100, 1, 1, 1)
        lowers, uppers = percentile_ci(draws, 0.90)
        assert lowers[0, 0, 0] == pytest.approx(0.05)
        assert uppers[0, 0, 0] == pytest.approx(0.95)

    def test_constant_draws_degenerate(self):
        draws = np.full((40, 2, 1, 1), 3.25)
        lowers, uppers = percentile_ci(draws, 0.95)
        assert np.all(lowers == 3.25) and np.all(uppers == 3.25)

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
        lowers, uppers = percentile_ci(draws, level)
        med = np.median(draws[:, 0, 0, 0])
        assert lowers[0, 0, 0] <= med <= uppers[0, 0, 0]


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
        # near the unit circle, where the first step's power bound cannot
        # settle a draw: radii in [0.95, 1.05], a unit root corrected to
        # 1 - 1e-12, and a sheared Jordan block of radius 0.9
        for radius in (0.95, 0.99, 1.0, 1.05):
            coefs.append(random_stable_coeffs(rng, 2, 2, radius))
            biases.append(rng.normal(size=(2, 2, 2)) * 0.01)
        coefs.append(np.array([(1 + 1e-12) * np.eye(2), lag2]))
        biases.append(np.array([2e-12 * np.eye(2), lag2]))
        coefs.append(np.array([[[0.9, 1e6], [0.0, 0.9]], lag2]))
        biases.append(np.zeros((2, 2, 2)))
        coef = np.array(coefs).reshape(3, 6, 2, 2, 2)
        bias = np.array(biases).reshape(coef.shape)
        corrected, deltas = stationarity_guard(coef, bias)
        assert corrected.shape == coef.shape and deltas.shape == (3, 6)
        for idx in np.ndindex(3, 6):
            want, delta = scalar_guard(coef[idx], bias[idx])
            np.testing.assert_array_equal(corrected[idx], want)
            assert deltas[idx] == delta
        assert 0.0 < deltas[1, 3] < 1.0 and deltas[1, 4] == 0.0 and deltas[1, 5] == 1.0
        assert deltas[2, 4] == 1.0 and deltas[2, 5] == 1.0

    def test_shared_bias_broadcasts(self, rng):
        coef = np.array([random_stable_coeffs(rng, 2, 2, 0.9) for _ in range(5)])
        bias = rng.normal(size=(2, 2, 2)) * 0.2
        corrected, deltas = stationarity_guard(coef, bias)
        for c, got, delta in zip(coef, corrected, deltas):
            want, want_delta = scalar_guard(c, bias)
            np.testing.assert_array_equal(got, want)
            assert delta == want_delta

    def test_explosive_stack_cancels_without_warning(self):
        coef = np.full((3, 2, 2, 2), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            corrected, deltas = stationarity_guard(coef, np.full(coef.shape, -1e300))
        np.testing.assert_array_equal(deltas, 0.0)
        np.testing.assert_array_equal(corrected, coef)

    def test_nan_coefficient_raises(self):
        coef = np.array([[[[0.5]]], [[[np.nan]]]])
        with pytest.raises(EigenvalueError):
            stationarity_guard(coef, np.zeros_like(coef))

    def test_clearly_stationary_draws_are_never_eigen_solved(self, rng, monkeypatch):
        solved = count_eigen_solves(monkeypatch)
        coef = np.array(
            [random_stable_coeffs(rng, 2, 10, float(rng.uniform(0.3, 0.9))) for _ in range(50)]
        )
        corrected, deltas = stationarity_guard(coef, np.zeros_like(coef))
        assert solved == [] and (deltas == 1.0).all()
        np.testing.assert_array_equal(corrected, coef)

    def test_power_bound_runs_once_per_guard_call(self, monkeypatch):
        # near-unit-root draws whose full correction is explosive, so the
        # guard eigen-solves on every later step, down to deltas 0.37 and 0.01
        solved = count_eigen_solves(monkeypatch)
        bounded = []

        def counted(c):
            bounded.append(len(c))
            return var_core._stationary(c)

        monkeypatch.setattr(bootstrap_infer, "_stationary", counted)
        lag = np.array([[0.985, 0.05], [0.0, 0.96]])
        coef = np.array([[lag, np.zeros((2, 2))]] * 2)
        bias = np.array([[b * np.eye(2), np.zeros((2, 2))] for b in (-0.04, -1.0)])
        corrected, deltas = stationarity_guard(coef, bias)
        assert bounded == [2] and len(solved) == 100
        np.testing.assert_allclose(deltas, [0.37, 0.01])
        for c, b, got, delta in zip(coef, bias, corrected, deltas):
            want, want_delta = scalar_guard(c, b)
            np.testing.assert_array_equal(got, want)
            assert delta == want_delta


def boot_db(ar, resid, y, horizon, m, level, seed):
    """BOOT-db points, lowers and uppers from the one bootstrap entry point."""
    sets = bootstrap_interval_sets(ar, None, resid, y, horizon, m, level, ("BOOT-db",), seed)
    return sets["BOOT-db"]


class TestBiasCorrectedBootstrap:
    def test_zero_bias_reduces_to_plain_bootstrap(self, desk_spec):
        # with a zero bias estimate the second stage, drawing on BOOT's stream
        # (seed, 10), is exactly a plain percentile bootstrap of the
        # (uncorrected) fitted model; a zero correction also leaves a fitted
        # intercept bit-identical
        y = simulate_varma(desk_spec, 150, 200, 4).values
        m = 15
        for values, intercept in ((y, False), (y + 3.0, True)):
            model, resid = fit_var_ls(values, 2, intercept=intercept)
            ar, const = model.ar_hat.mats, model.intercept
            zero = np.zeros_like(ar)
            plain = substream(31, 10)
            for level in (0.95, 0.6, 0.2):
                _, lowers, uppers = bootstrap_infer._stage_two(
                    ar, const, resid, values, 4, m, level, plain, ar, zero
                )
                sets = bootstrap_interval_sets(ar, const, resid, values, 4, m, level, ("BOOT",), 31)
                _, want_lowers, want_uppers = sets["BOOT"]
                np.testing.assert_array_equal(lowers, want_lowers)
                np.testing.assert_array_equal(uppers, want_uppers)

    def test_deterministic(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 4).values
        model, resid = fit_var_ls(y, 2)
        a_points, a_lowers, a_uppers = boot_db(model.ar_hat.mats, resid, y, 5, 30, 0.95, 11)
        b_points, b_lowers, b_uppers = boot_db(model.ar_hat.mats, resid, y, 5, 30, 0.95, 11)
        assert np.array_equal(a_lowers, b_lowers)
        assert np.array_equal(a_uppers, b_uppers)
        assert np.array_equal(a_points, b_points)

    def test_horizon_zero_exact_points(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 4).values
        model, resid = fit_var_ls(y, 2)
        _, lowers, uppers = boot_db(model.ar_hat.mats, resid, y, 4, 25, 0.95, 11)
        np.testing.assert_array_equal(lowers[0], np.eye(2))
        np.testing.assert_array_equal(uppers[0], np.eye(2))

    def test_points_are_corrected_model_irfs(self, desk_spec):
        y = simulate_varma(desk_spec, 150, 200, 4).values
        model, resid = fit_var_ls(y, 2)
        # the bias: the mean of 25 fitted-model refits on the stream (11, 10), minus the fit
        shared = substream(11, 10)
        coefs = bootstrap_infer._refit_draws(
            model.ar_hat.mats, None, resid, y, "fitted-model", shared, 25
        )
        bias = coefs.mean(axis=0) - model.ar_hat.mats
        corrected, _ = stationarity_guard(model.ar_hat.mats, bias)
        points, _, _ = boot_db(model.ar_hat.mats, resid, y, 4, 25, 0.95, 11)
        np.testing.assert_allclose(points, ma_from_ar(corrected, 4))

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
            points, _, _ = boot_db(model.ar_hat.mats, resid, y.values, 1, 60, 0.95, 2000 + i)
            corrected[i] = points[1, 0, 0]
        assert abs(corrected.mean() - 0.9) < abs(plain.mean() - 0.9)
