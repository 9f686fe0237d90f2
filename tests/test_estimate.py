"""Least-squares fit, residual covariance, and the block-Toeplitz sieve plug-in."""

from dataclasses import replace

import numpy as np
import pytest

from sievevar import (
    DimensionMismatchError,
    NonFiniteError,
    SamplePath,
    SingularMatrixError,
    coeff_seq,
    fit_var_ls,
    residual_bootstrap_sample,
    sample_gamma_p,
    simulate_varma,
)
from sievevar.bootstrap_infer import _draw_indices
from sievevar.estimate import _GRAM_PANEL, _lag_grams, _lag_windows, fit_var_ls_stack
from sievevar.var_core import _SERIAL_MADDS
from conftest import (
    assert_close_to_scale,
    build_gamma_p,
    lagged_regressors,
    pure_ar_spec,
    random_stable_coeffs,
    sample_autocov,
    scalar_varma,
    white_noise_spec,
)


class TestFitVarLs:
    def test_scalar_closed_form(self):
        # regress (2, 1) on (1, 2): a = (1*2 + 2*1) / (1 + 4) = 0.8
        model, resid = fit_var_ls(np.array([1.0, 2.0, 1.0]), 1)
        assert model.ar_hat.mats[0][0, 0] == pytest.approx(0.8, abs=1e-14)
        assert model.t_effective == 2
        np.testing.assert_allclose(resid.ravel(), [2 - 0.8, 1 - 1.6], atol=1e-14)

    def test_white_noise_coefficients_vanish(self):
        y = simulate_varma(white_noise_spec(2), 100_000, 0, 2024)
        model, _ = fit_var_ls(y, 2)
        assert np.max(np.abs(model.ar_hat.mats)) < 0.02

    def test_ar1_consistency(self):
        y = simulate_varma(scalar_varma(0.5, None), 100_000, 500, 77)
        model, _ = fit_var_ls(y, 1)
        assert model.ar_hat.mats[0][0, 0] == pytest.approx(0.5, abs=0.01)

    def test_residuals_orthogonal_to_regressors(self, rng):
        ar = random_stable_coeffs(rng, 2, 2, 0.7)
        y = simulate_varma(pure_ar_spec(ar), 400, 100, 5)
        model, resid = fit_var_ls(y, 2)
        x = lagged_regressors(y.values, 2)
        gram = x.T @ resid
        scale = np.max(np.abs(x.T @ y.values[2:]))
        assert np.max(np.abs(gram)) < 1e-8 * scale

    def test_intercept_recovers_mean_shift(self, rng):
        ar = random_stable_coeffs(rng, 1, 1, 0.5)
        y = simulate_varma(pure_ar_spec(ar), 50_000, 200, 9)
        shifted = y.values + 10.0
        model, _ = fit_var_ls(shifted, 1, intercept=True)
        a = model.ar_hat.mats[0][0, 0]
        assert a == pytest.approx(ar[0][0, 0], abs=0.02)
        assert model.intercept[0] == pytest.approx(10.0 * (1 - a), rel=0.05)

    @pytest.mark.parametrize("scale, shift", [(1e-8, 0.0), (1.0, 1e4)])
    def test_intercept_fit_ignores_level_and_scale(self, rng, scale, shift):
        # the intercept is partialled out, so neither a tiny scale nor a
        # large level makes the singular test fail
        y = rng.normal(size=(300, 2))
        want = fit_var_ls(y, 2, intercept=True)[0].ar_hat.mats
        got = fit_var_ls(scale * y + shift, 2, intercept=True)[0].ar_hat.mats
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-11 * np.abs(want).max())

    def test_singular_design_reports_condition_number(self):
        # identical columns make the moment matrix exactly singular
        base = np.sin(np.arange(40.0))
        y = np.column_stack([base, base])
        with pytest.raises(SingularMatrixError, match="condition number") as info:
            fit_var_ls(y, 1)
        assert info.value.condition_number > 1e12

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_sample_rejected(self, rng, bad):
        y = rng.normal(size=(100, 2))
        y[40, 1] = bad
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            fit_var_ls(y, 2)
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            sample_gamma_p(y, 2)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_class_follows_origin(self, rng, bad):
        # an array passed by a library caller is a numerical failure (exit 3);
        # a sample read from CSV or coefficients read from a config are input
        # errors (exit 2)
        y = rng.normal(size=(100, 2))
        y[40, 1] = bad
        with pytest.raises(NonFiniteError):
            fit_var_ls(y, 2)
        for build in (lambda: SamplePath(k=2, t=100, values=y), lambda: coeff_seq(y[np.newaxis, 39:41], 2)):
            with pytest.raises(DimensionMismatchError) as info:
                build()
            assert type(info.value) is DimensionMismatchError

    def test_too_small_sample_rejected(self):
        with pytest.raises(SingularMatrixError, match="too small"):
            fit_var_ls(np.array([1.0, 2.0]), 1)

    def test_moment_matrix_positive_definite(self, rng):
        ar = random_stable_coeffs(rng, 2, 3, 0.6)
        y = simulate_varma(pure_ar_spec(ar), 300, 100, 3)
        model, _ = fit_var_ls(y, 3)
        eigs = np.linalg.eigvalsh(model.moment_matrix)
        assert np.all(eigs > 0)

    def test_fitted_arrays_are_read_only(self, rng):
        model, _ = fit_var_ls(rng.normal(size=(100, 2)) + 4.0, 2, intercept=True)
        assert model.intercept.shape == (2,)
        for arr in (model.intercept, model.sigma_u_hat, model.moment_matrix, model.ar_hat.mats):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    def test_intercept_shape_checked(self, rng):
        model, _ = fit_var_ls(rng.normal(size=(100, 2)), 2, intercept=True)
        for bad in (np.zeros(3), np.zeros((2, 1))):
            with pytest.raises(DimensionMismatchError, match="intercept"):
                replace(model, intercept=bad)

    def test_order_and_dimension_come_from_coefficients(self, rng):
        model, _ = fit_var_ls(rng.normal(size=(100, 2)), 3)
        assert (model.k, model.p, model.n_reg) == (2, 3, 6)
        # K = 3 coefficients beside a 2 x 2 Sigma_u, then p = 2 beside a 6 x 6 moment matrix
        for name, ar in (("sigma_u_hat", np.zeros((1, 3, 3))), ("moment_matrix", np.zeros((2, 2, 2)))):
            with pytest.raises(DimensionMismatchError, match=f"{name} must have shape"):
                replace(model, ar_hat=coeff_seq(ar, ar.shape[-1]))
        with pytest.raises(DimensionMismatchError, match="sigma_u_hat must have shape"):
            replace(model, sigma_u_hat=np.eye(3))
        with pytest.raises(DimensionMismatchError, match="moment_matrix must have shape"):
            replace(model, moment_matrix=np.eye(4))

    def test_sigma_symmetry_is_relative(self, rng):
        e = rng.normal(size=(2000, 2))
        y = np.column_stack([e[:, 0], 0.8 * e[:, 0] + 0.6 * e[:, 1]])
        model, _ = fit_var_ls(y, 1)
        assert model.sigma_u_hat[0, 1] > 0.7
        s = model.sigma_u_hat.copy()
        s[0, 1] += 1.1e-6
        with pytest.raises(DimensionMismatchError, match="not symmetric within 1e-12"):
            replace(model, sigma_u_hat=s)
        scaled, _ = fit_var_ls(1e4 * y, 1)
        np.testing.assert_allclose(scaled.sigma_u_hat, 1e8 * model.sigma_u_hat, rtol=1e-10)

    def test_sigma_u_divisors(self, rng):
        # sigma_u_hat divides by T_eff - n_reg, sigma_u_ml by T_eff
        ar = random_stable_coeffs(rng, 2, 2, 0.5)
        y = simulate_varma(pure_ar_spec(ar), 200, 100, 4)
        for intercept in (False, True):
            model, resid = fit_var_ls(y, 2, intercept=intercept)
            assert model.n_reg == 4 + intercept
            gram = resid.T @ resid
            np.testing.assert_allclose(model.sigma_u_ml, gram / 198, rtol=0, atol=1e-14)
            np.testing.assert_allclose(model.sigma_u_hat, gram / (198 - model.n_reg), rtol=0, atol=1e-14)

    def test_model_refuses_no_residual_degree_of_freedom(self, rng):
        for intercept in (False, True):
            model, _ = fit_var_ls(rng.normal(size=(100, 2)), 3, intercept=intercept)
            with pytest.raises(SingularMatrixError, match="sample too small"):
                replace(model, t_effective=model.n_reg)
            assert replace(model, t_effective=model.n_reg + 1).t_effective == model.n_reg + 1


# K = 2, p = 3: T - p > Kp + [intercept] first holds at T = 10, or 11 with an intercept
SHORT_PROBES = [(t, False) for t in (7, 8, 9)] + [(t, True) for t in (8, 9, 10)]


class TestSampleSizeRule:
    @pytest.mark.parametrize("t, intercept", SHORT_PROBES)
    def test_short_sample_too_small_and_first_length_past_the_rule_fits(self, rng, t, intercept):
        y = rng.normal(size=(11, 2))
        with pytest.raises(SingularMatrixError, match="sample too small"):
            fit_var_ls(y[:t], 3, intercept=intercept)
        model, resid = fit_var_ls(y[: 10 + intercept], 3, intercept=intercept)
        assert model.t_effective - model.n_reg == 1 and resid.shape == (7 + intercept, 2)


class TestFitVarLsStack:
    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("p", [1, 3, 10, 30])
    def test_matches_fit_var_ls_per_draw(self, desk_spec, p, intercept):
        y = simulate_varma(desk_spec, 300, 200, 3)
        values = y.values + (3.0 if intercept else 0.0)
        model, resid = fit_var_ls(values, p, intercept=intercept)
        drawn = _draw_indices(1, 0, 20, 300, p, len(resid))
        pseudo = residual_bootstrap_sample(model.ar_hat.mats, model.intercept, resid, values, *drawn)
        # a collapsed and a near-collapse sample, as in test_collapsed_pivots_flagged
        base, noise = pseudo[0, :, :1], np.random.default_rng(p).normal(size=(300, 1))
        collapsed = np.hstack([base, base + 1e-7 * noise])
        near = np.hstack([base, base + 1e-6 * noise])
        samples = np.concatenate([pseudo, [collapsed, near]])
        coefs, fitted, _ = fit_var_ls_stack(samples, p, intercept)
        assert coefs.shape == (22, p, 2, 2)
        np.testing.assert_array_equal(fitted, [True] * 20 + [False, True])
        for sample, coef, ok in zip(samples, coefs, fitted):
            if not ok:
                # flagged exactly when fit_var_ls raises
                assert np.all(np.isnan(coef))
                with pytest.raises(SingularMatrixError):
                    fit_var_ls(sample, p, intercept=intercept)
                continue
            # fit_var_ls is the one-sample case, bit for bit
            want = fit_var_ls(sample, p, intercept=intercept)[0].ar_hat.mats
            np.testing.assert_array_equal(want, coef)
            # a sample's coefficients do not depend on the rest of the stack
            alone = fit_var_ls_stack(sample[np.newaxis], p, intercept)[0][0]
            np.testing.assert_array_equal(alone, coef)

    def test_collapsed_pivots_flagged(self, rng):
        # y2 = y1 + 1e-7 noise puts the pivot ratio near 1e-14, under the
        # 1e-13 collapse test; 1e-6 noise puts it near 1e-12, above it, so
        # both paths fit that sample
        base = rng.normal(size=(200, 1))
        collapsed = np.hstack([base, base + 1e-7 * rng.normal(size=(200, 1))])
        near = np.hstack([base, base + 1e-6 * rng.normal(size=(200, 1))])
        samples = np.array([rng.normal(size=(200, 2)), collapsed, near])
        coefs, fitted, _ = fit_var_ls_stack(samples, 2)
        np.testing.assert_array_equal(fitted, [True, False, True])
        assert np.all(np.isfinite(coefs[[0, 2]])) and np.all(np.isnan(coefs[1]))
        with pytest.raises(SingularMatrixError):
            fit_var_ls(collapsed, 2)
        np.testing.assert_array_equal(fit_var_ls(near, 2)[0].ar_hat.mats, coefs[2])

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("zero", SingularMatrixError),
            ("short", SingularMatrixError),
        ],
    )
    def test_only_the_sample_that_cannot_be_factorised_is_flagged(self, rng, bad, error):
        # a short sample's 3 rows leave its 4 x 4 Gram rank-deficient
        samples = rng.normal(size=(3, 5 if bad == "short" else 100, 2))
        if bad != "short":
            samples[1] = 0.0
        coefs, fitted, _ = fit_var_ls_stack(samples, 2)
        # every sample of a stack is equally short
        np.testing.assert_array_equal(fitted, [bad != "short", False, bad != "short"])
        assert np.all(np.isnan(coefs[~fitted])) and np.all(np.isfinite(coefs[fitted]))
        with pytest.raises(error):
            fit_var_ls(samples[1], 2)

    @pytest.mark.parametrize(
        "neighbour, intercept",
        [
            ("zero", False),
            ("zero", True),
            ("collapsed", False),
            ("collapsed", True),
            ("constant", True),
        ],
    )
    def test_singular_neighbour_leaves_bits_unchanged(self, rng, neighbour, intercept):
        good = rng.normal(size=(200, 2)) + (3.0 if intercept else 0.0)
        base = rng.normal(size=(200, 1))
        bad = {
            "zero": np.zeros((200, 2)),
            "collapsed": np.hstack([base, base + 1e-7 * rng.normal(size=(200, 1))]),
            "constant": np.full((200, 2), 5.0),
        }[neighbour]
        coef, fitted, gram = fit_var_ls_stack(good[np.newaxis], 2, intercept)
        assert fitted[0]
        for stack, at in ((np.array([good, bad]), 0), (np.array([bad, good, bad]), 1)):
            coefs, flags, grams = fit_var_ls_stack(stack, 2, intercept)
            np.testing.assert_array_equal(flags, np.arange(len(stack)) == at)
            np.testing.assert_array_equal(coefs[at], coef[0])
            np.testing.assert_array_equal(grams[at], gram[0])


class TestLagGrams:
    """Grams come from gemm panels of at most ``_GRAM_PANEL`` columns, never from a syrk."""

    @staticmethod
    def explicit_gram(sample, p, demean):
        # (T - p, K, p + 1) windows y_{s-p}..y_s, as rows [y_s', ..., y_{s-p}']
        w = np.lib.stride_tricks.sliding_window_view(sample, p + 1, axis=0)
        w = w[..., ::-1].transpose(0, 2, 1).reshape(len(w), -1)
        if demean:
            w = w - w.mean(axis=0)
        return w.T @ w

    @pytest.mark.parametrize("demean", [False, True])
    @pytest.mark.parametrize("k, p, t", [(2, 30, 300), (2, 30, 3000), (4, 8, 1000)])
    def test_panels_match_explicit_gram(self, rng, k, p, t, demean):
        assert k * (p + 1) > _GRAM_PANEL
        samples = rng.normal(size=(3, t, k)) @ rng.normal(size=(k, k)) + 3.0
        grams = _lag_grams(samples, p, demean)
        for sample, gram in zip(samples, grams):
            assert_close_to_scale(gram, self.explicit_gram(sample, p, demean), 1e-13)
            np.testing.assert_array_equal(gram, gram.T)

    @pytest.mark.parametrize("demean", [False, True])
    @pytest.mark.parametrize("k, p, t", [(2, 10, 300), (4, 6, 600), (1, 30, 700), (3, 9, 3000)])
    def test_narrow_gram_is_two_mirrored_panels(self, rng, k, p, t, demean):
        # the upper strips of two panels by gemm on the windows themselves, the
        # second starting a column early, in row blocks below _SERIAL_MADDS
        # multiply-adds, and their mirror below
        width = k * (p + 1)
        assert width <= _GRAM_PANEL
        samples = rng.normal(size=(2, t, k)) + 3.0
        half = width // 2
        grams = _lag_grams(samples, p, demean)
        for sample, window, gram in zip(samples, _lag_windows(samples, p), grams):
            rows = np.array(window, order="C")
            if demean:
                rows -= np.ones(len(rows)) @ rows / len(rows)
            want = np.zeros((width, width))
            for lo, hi, first in ((0, half, 0), (half, width, half - 1)):
                step = max((_SERIAL_MADDS - 1) // ((hi - lo) * (width - first)), 1)
                strip = rows[:step, lo:hi].T @ rows[:step, first:]
                for r in range(step, len(rows), step):
                    strip += rows[r : r + step, lo:hi].T @ rows[r : r + step, first:]
                want[lo:hi, first:] = strip
            np.testing.assert_array_equal(gram, np.triu(want) + np.triu(want, 1).T)
            np.testing.assert_array_equal(gram, gram.T)
            assert_close_to_scale(gram, self.explicit_gram(sample, p, demean), 1e-13)


class TestSampleGammaP:
    def test_alternating_series(self):
        # Gamma(0) = 4/4, Gamma(1) = 3 * (-1) / 4
        gp = sample_gamma_p(np.array([1.0, -1.0, 1.0, -1.0]), 2)
        np.testing.assert_allclose(gp, [[1.0, -0.75], [-0.75, 1.0]], rtol=0, atol=1e-15)

    def test_constant_series_vanishes(self):
        np.testing.assert_array_equal(sample_gamma_p(np.full(10, 3.5), 4), np.zeros((4, 4)))

    def test_ar1_matches_yule_walker(self):
        # Gamma(1) = a Gamma(0) = 0.5 * 4/3 = 2/3
        y = simulate_varma(scalar_varma(0.5, None), 100_000, 500, 15)
        assert sample_gamma_p(y, 2)[0, 1] == pytest.approx(2.0 / 3.0, rel=0.02)

    def test_order_bounds(self):
        y = np.arange(5.0)
        assert sample_gamma_p(y, 5).shape == (5, 5)  # p - 1 = T - 1 lags
        for p in (0, -1, 6):
            with pytest.raises(ValueError, match="p must be|p - 1 must be"):
                sample_gamma_p(y, p)

    @pytest.mark.parametrize("shift", [0.0, 1e4])
    @pytest.mark.parametrize("p", [1, 2, 10, 30])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_autocovariance_oracle(self, rng, k, p, shift):
        y = rng.normal(size=(120, k)) @ rng.normal(size=(k, k)) + shift
        gp = sample_gamma_p(y, p)
        assert_close_to_scale(gp, build_gamma_p(sample_autocov(y, p - 1), p), 1e-12)
        np.testing.assert_array_equal(gp, gp.T)

    @pytest.mark.parametrize("p", [1, 2, 10, 30])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_exactly_block_toeplitz_and_symmetric(self, rng, k, p):
        # bit for bit: block (i, j) equals block (i + 1, j + 1), and the
        # matrix its transpose; at T = 300 and p = 30, a Gram of the
        # zero-padded sample summed in row blocks is not bitwise Toeplitz
        y = rng.normal(size=(300, k)) @ rng.normal(size=(k, k)) + 1e4
        gp = sample_gamma_p(y, p)
        blocks = gp.reshape(p, k, p, k).swapaxes(1, 2)
        assert np.ascontiguousarray(blocks[1:, 1:]).tobytes() == np.ascontiguousarray(blocks[:-1, :-1]).tobytes()
        assert gp.tobytes() == np.ascontiguousarray(gp.T).tobytes()

    def test_negative_lag_transposes(self, rng):
        # block (2, 0) of Gamma_3 is Gamma(-2) = Gamma(2)', block (0, 2) is Gamma(2)
        y = rng.normal(size=(50, 2))
        gammas = sample_autocov(y, 2)
        gp = sample_gamma_p(y, 3)
        assert_close_to_scale(gp[4:6, 0:2], gammas[2].T, 1e-12)
        assert_close_to_scale(gp[0:2, 4:6], gammas[2], 1e-12)

    def test_positive_semidefinite_for_any_sample(self, rng):
        for _ in range(10):
            t = int(rng.integers(20, 120))
            k = int(rng.integers(1, 4))
            y = rng.normal(size=(t, k)) @ rng.normal(size=(k, k))
            eigs = np.linalg.eigvalsh(sample_gamma_p(y, 6))
            assert eigs.min() > -1e-10 * max(1.0, eigs.max())

    def test_moment_and_toeplitz_converge(self, desk_spec):
        y = simulate_varma(desk_spec, 100_000, 300, 99)
        p = 3
        model, _ = fit_var_ls(y, p)
        assert np.max(np.abs(model.moment_matrix - sample_gamma_p(y, p))) < 0.02


class TestAutocovOracle:
    """The per-lag oracle of ``sample_gamma_p`` (tests/conftest.py) on hand-built cases."""

    def test_alternating_series(self):
        gammas = sample_autocov(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        assert gammas[0][0, 0] == pytest.approx(1.0)
        assert gammas[1][0, 0] == pytest.approx(-0.75)

    def test_p1_is_gamma0(self):
        np.testing.assert_array_equal(build_gamma_p(np.array([[[1.5]]]), 1), [[1.5]])

    def test_scalar_p2_layout(self):
        gammas = np.array([[[1.0]], [[0.5]]])
        np.testing.assert_array_equal(build_gamma_p(gammas, 2), [[1.0, 0.5], [0.5, 1.0]])

    def test_k2_layout_transposes_below_diagonal(self):
        # asymmetric Gamma(1) and Gamma(2): a missing transpose shows in every
        # block below the diagonal; Gamma(3) lies beyond p - 1 and is unused
        g0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        g1 = np.array([[0.3, 0.1], [-0.4, 0.2]])
        g2 = np.array([[0.05, -0.6], [0.7, 0.01]])
        g3 = np.full((2, 2), 9.0)
        gp = build_gamma_p(np.array([g0, g1, g2, g3]), 3)
        expected = np.block([[g0, g1, g2], [g1.T, g0, g1], [g2.T, g1.T, g0]])
        np.testing.assert_array_equal(gp, expected)
