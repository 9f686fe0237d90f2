"""Least-squares fit, residual covariance, autocovariances, Toeplitz matrix."""

import numpy as np
import pytest

from sievevar import (
    AutocovSet,
    DimensionMismatchError,
    NonFiniteError,
    SamplePath,
    SingularMatrixError,
    build_gamma_p,
    coeff_seq,
    fit_var_ls,
    residual_bootstrap_sample,
    residual_cov,
    sample_autocov,
    simulate_varma,
    white_noise_spec,
)
from sievevar.estimate import fit_var_ls_stack, lagged_regressors
from sievevar.streams import substream
from conftest import pure_ar_spec, random_stable_coeffs, scalar_varma


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

    def test_singular_design_reports_condition_number(self):
        # identical columns make the moment matrix exactly singular
        base = np.sin(np.arange(40.0))
        y = np.column_stack([base, base])
        with pytest.raises(SingularMatrixError):
            fit_var_ls(y, 1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_sample_rejected(self, rng, bad):
        y = rng.normal(size=(100, 2))
        y[40, 1] = bad
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            fit_var_ls(y, 2)
        with pytest.raises(DimensionMismatchError, match="non-finite"):
            sample_autocov(y, 1)

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

    def test_sigma_mode_rescaling(self, rng):
        ar = random_stable_coeffs(rng, 2, 2, 0.5)
        y = simulate_varma(pure_ar_spec(ar), 200, 100, 4)
        model, resid = fit_var_ls(y, 2)
        np.testing.assert_allclose(
            model.sigma_u("ml"), residual_cov(resid, "ml"), atol=1e-14
        )
        np.testing.assert_allclose(model.sigma_u("adjusted"), model.sigma_u_hat)


class TestFitVarLsStack:
    @pytest.mark.parametrize("intercept", [False, True])
    @pytest.mark.parametrize("p", [1, 3, 10])
    def test_matches_fit_var_ls_per_draw(self, desk_spec, p, intercept):
        y = simulate_varma(desk_spec, 300, 200, 3)
        values = y.values + (3.0 if intercept else 0.0)
        model, resid = fit_var_ls(values, p, intercept=intercept)
        seeds = [substream(1, r, 0) for r in range(20)]
        pseudo = residual_bootstrap_sample(model, resid, values, seeds)
        coefs, fitted = fit_var_ls_stack(pseudo, p, intercept)
        assert coefs.shape == (20, p, 2, 2) and fitted.all()
        for sample, coef in zip(pseudo, coefs):
            want = fit_var_ls(sample, p, intercept=intercept)[0].ar_hat.mats
            np.testing.assert_allclose(coef, want, rtol=0, atol=1e-12 * np.abs(want).max())
            # a sample's coefficients do not depend on the rest of the stack
            alone = fit_var_ls_stack(sample[np.newaxis], p, intercept)[0][0]
            np.testing.assert_array_equal(alone, coef)

    def test_collapsed_pivots_flagged(self, rng):
        # y2 = y1 + 1e-7 noise puts the pivot ratio near 1e-14, under the
        # 1e-13 collapse test; 1e-6 noise puts it near 1e-12, inside the
        # screening margin: flagged here, but fitted by fit_var_ls
        base = rng.normal(size=(200, 1))
        collapsed = np.hstack([base, base + 1e-7 * rng.normal(size=(200, 1))])
        near = np.hstack([base, base + 1e-6 * rng.normal(size=(200, 1))])
        samples = np.array([rng.normal(size=(200, 2)), collapsed, near])
        coefs, fitted = fit_var_ls_stack(samples, 2)
        np.testing.assert_array_equal(fitted, [True, False, False])
        assert np.all(np.isfinite(coefs[0])) and np.all(np.isnan(coefs[1:]))
        with pytest.raises(SingularMatrixError):
            fit_var_ls(collapsed, 2)
        fit_var_ls(near, 2)

    @pytest.mark.parametrize(
        "bad, error",
        [
            ("nan", DimensionMismatchError),
            ("zero", SingularMatrixError),
            ("short", SingularMatrixError),
        ],
    )
    def test_every_sample_flagged_when_one_cannot_be_factorised(self, rng, bad, error):
        samples = rng.normal(size=(3, 5 if bad == "short" else 100, 2))
        if bad != "short":
            samples[1] = np.nan if bad == "nan" else 0.0
        coefs, fitted = fit_var_ls_stack(samples, 2)
        assert not fitted.any() and np.all(np.isnan(coefs))
        with pytest.raises(error):
            fit_var_ls(samples[1], 2)


class TestResidualCov:
    def test_ml_mode_scalar(self):
        assert residual_cov(np.array([1.0, -1.0]), "ml")[0, 0] == pytest.approx(1.0)

    def test_zero_residuals(self):
        out = residual_cov(np.zeros((5, 2)), "ml")
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_adjusted_mode_scalar(self):
        # (1 + 1 + 4) / (3 - 1) = 3.0 for K=1, p=1, no intercept
        out = residual_cov(np.array([1.0, -1.0, 2.0]), "adjusted", n_reg=1)
        assert out[0, 0] == pytest.approx(3.0)

    def test_nonpositive_df_rejected(self):
        with pytest.raises(SingularMatrixError):
            residual_cov(np.array([1.0, -1.0]), "adjusted", n_reg=2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            residual_cov(np.array([1.0, -1.0]), "bayes")


class TestSampleAutocov:
    def test_alternating_series(self):
        acov = sample_autocov(np.array([1.0, -1.0, 1.0, -1.0]), 1)
        assert acov.gammas[0][0, 0] == pytest.approx(1.0)
        assert acov.gammas[1][0, 0] == pytest.approx(-0.75)

    def test_constant_series_vanishes(self):
        acov = sample_autocov(np.full(10, 3.5), 3)
        np.testing.assert_array_equal(acov.gammas, np.zeros((4, 1, 1)))

    def test_ar1_matches_yule_walker(self):
        # Gamma(1) = a Gamma(0) = 0.5 * 4/3 = 2/3
        y = simulate_varma(scalar_varma(0.5, None), 100_000, 500, 15)
        acov = sample_autocov(y, 1)
        assert acov.gammas[1][0, 0] == pytest.approx(2.0 / 3.0, rel=0.02)

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            sample_autocov(np.arange(5.0), 5)

    def test_negative_lag_transposes(self, rng):
        y = rng.normal(size=(50, 2))
        acov = sample_autocov(y, 2)
        np.testing.assert_array_equal(acov.at(-2), acov.at(2).T)


class TestBuildGammaP:
    def test_p1_is_gamma0(self):
        acov = AutocovSet(k=1, gammas=np.array([[[1.5]]]))
        np.testing.assert_array_equal(build_gamma_p(acov, 1), [[1.5]])

    def test_scalar_p2_layout(self):
        acov = AutocovSet(k=1, gammas=np.array([[[1.0]], [[0.5]]]))
        np.testing.assert_array_equal(build_gamma_p(acov, 2), [[1.0, 0.5], [0.5, 1.0]])

    def test_output_symmetric(self, rng):
        y = rng.normal(size=(200, 2))
        gp = build_gamma_p(sample_autocov(y, 3), 4)
        np.testing.assert_allclose(gp, gp.T, atol=1e-14)

    def test_positive_semidefinite_for_any_sample(self, rng):
        for _ in range(10):
            t = int(rng.integers(20, 120))
            k = int(rng.integers(1, 4))
            y = rng.normal(size=(t, k)) @ rng.normal(size=(k, k))
            gp = build_gamma_p(sample_autocov(y, 5), 6)
            eigs = np.linalg.eigvalsh(gp)
            assert eigs.min() > -1e-10 * max(1.0, eigs.max())

    def test_moment_and_toeplitz_converge(self, desk_spec):
        y = simulate_varma(desk_spec, 100_000, 300, 99)
        p = 3
        model, _ = fit_var_ls(y, p)
        gp = build_gamma_p(sample_autocov(y, p - 1), p)
        assert np.max(np.abs(model.moment_matrix - gp)) < 0.02
