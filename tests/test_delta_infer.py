"""Jacobians, asymptotic covariances, and Gaussian intervals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.special import ndtri

from sievevar import (
    DimensionMismatchError,
    IntervalSet,
    NonFiniteError,
    SingularMatrixError,
    fit_var_ls,
    horizon_gate,
    irf_covariances,
    irf_jacobian,
    ma_from_ar,
    sample_gamma_p,
    simulate_varma,
)
from sievevar.delta_infer import _lower_inverse, delta_bounds
from conftest import (
    jacobian_sandwich,
    pure_ar_spec,
    random_stable_coeffs,
    random_stable_model,
    scalar_varma,
    white_noise_spec,
)


def fd_jacobian(model, i, step=1e-5):
    """Central finite differences of the MA recursion in the fitted model."""
    k, p = model.k, model.p
    stacked = np.hstack(list(model.ar_hat.mats))
    out = np.empty((k * k, k * k * p))
    for col in range(k * p):
        for row in range(k):
            pert = stacked.copy()
            pert[row, col] += step
            up = ma_from_ar(pert.reshape(k, p, k).swapaxes(0, 1), i)[i]
            pert[row, col] -= 2 * step
            dn = ma_from_ar(pert.reshape(k, p, k).swapaxes(0, 1), i)[i]
            out[:, row + k * col] = (up - dn).ravel(order="F") / (2 * step)
    return out


def fitted_model(rng, k=2, p=2, t=400, radius=0.7):
    ar = random_stable_coeffs(rng, k, p, radius)
    y = simulate_varma(pure_ar_spec(ar), t, 100, int(rng.integers(2**31)))
    model, _ = fit_var_ls(y, p)
    return model, y


class TestIrfJacobian:
    def test_horizon_one_selects_a1(self, rng):
        model, _ = fitted_model(rng)
        g = irf_jacobian(model, 1)
        k, p = model.k, model.p
        np.testing.assert_array_equal(g[:, : k * k], np.eye(k * k))
        np.testing.assert_array_equal(g[:, k * k :], np.zeros((k * k, k * k * (p - 1))))

    def test_scalar_square_rule(self):
        model, _ = fit_var_ls(np.array([1.0, 0.5, 0.25, 0.125, 0.0625]), 1)
        a = model.ar_hat.mats[0][0, 0]
        assert irf_jacobian(model, 2)[0, 0] == pytest.approx(2 * a, abs=1e-12)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 3))
            p = int(rng.integers(1, 4))
            model, _ = fitted_model(rng, k=k, p=p)
            for i in range(1, 2 * p + 1):
                g = irf_jacobian(model, i)
                fd = fd_jacobian(model, i)
                assert np.max(np.abs(g - fd)) < 1e-6

    def test_horizon_zero_rejected(self, rng):
        model, _ = fitted_model(rng)
        with pytest.raises(ValueError):
            irf_jacobian(model, 0)


def ls_plugins(model):
    return model.moment_matrix, model.sigma_u_hat


def sls_plugins(model, y):
    return sample_gamma_p(y, model.p), model.sigma_u_ml


class TestFiniteOrderCov:
    def test_scalar_exact_inputs(self, rng):
        model, _ = fitted_model(rng, k=1, p=1)
        gamma = np.array([[2.0]])
        sigma = np.array([[1.0]])
        cov = irf_covariances(ma_from_ar(model.ar_hat.mats, 1), gamma, sigma)
        assert cov[0, 0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_white_noise_unit_variance(self):
        y = simulate_varma(white_noise_spec(1), 100_000, 0, 61)
        model, _ = fit_var_ls(y, 1)
        cov = irf_covariances(ma_from_ar(model.ar_hat.mats, 1), *ls_plugins(model))
        assert cov[0, 0, 0] == pytest.approx(1.0, rel=0.03)

    def test_ar1_asymptotic_variance(self):
        # var of sqrt(T)(a_hat - a) tends to 1 - a^2 = 0.75 for a = 0.5
        # (frozen from a 2000-replication Monte Carlo of the LS estimator)
        y = simulate_varma(scalar_varma(0.5, None), 100_000, 500, 8)
        model, _ = fit_var_ls(y, 1)
        cov = irf_covariances(ma_from_ar(model.ar_hat.mats, 1), *ls_plugins(model))
        assert cov[0, 0, 0] == pytest.approx(0.75, rel=0.05)

    def test_outputs_symmetric_psd(self, rng):
        model, _ = fitted_model(rng, k=2, p=3)
        for cov in irf_covariances(ma_from_ar(model.ar_hat.mats, 6), *ls_plugins(model)):
            np.testing.assert_allclose(cov, cov.T, atol=1e-12)
            eigs = np.linalg.eigvalsh(cov)
            assert eigs.min() > -1e-12 * max(1.0, eigs.max())


class TestSieveCov:
    def test_equals_finite_order_on_identical_inputs(self, rng):
        for _ in range(20):
            ar, k, p = random_stable_model(rng)
            y = simulate_varma(pure_ar_spec(ar), 300, 100, int(rng.integers(2**31)))
            model, _ = fit_var_ls(y, p)
            gamma, sigma = ls_plugins(model)
            covs = irf_covariances(ma_from_ar(model.ar_hat.mats, 2 * p), gamma, sigma)
            oracle = jacobian_sandwich(model, gamma, sigma, 2 * p)
            for a, b in zip(oracle, covs):
                scale = max(1e-300, np.max(np.abs(a)))
                assert np.max(np.abs(a - b)) <= 1e-10 * scale

    def test_scalar_single_term(self, rng):
        model, _ = fitted_model(rng, k=1, p=1)
        phi_hat = ma_from_ar(model.ar_hat.mats, 1)
        cov = irf_covariances(phi_hat, np.array([[4.0 / 3.0]]), np.array([[1.0]]))
        assert cov[0, 0, 0] == pytest.approx(0.75, abs=1e-14)

    def test_plugins_differ_small_t_converge_large_t(self, desk_spec):
        gaps = {}
        for t, seed in ((300, 3), (100_000, 4)):
            y = simulate_varma(desk_spec, t, 300, seed)
            model, _ = fit_var_ls(y, 4)
            fo = irf_covariances(ma_from_ar(model.ar_hat.mats, 8), *ls_plugins(model))
            sl = irf_covariances(ma_from_ar(model.ar_hat.mats, 8), *sls_plugins(model, y))
            gaps[t] = max(
                np.max(np.abs(a - b)) / np.max(np.abs(a)) for a, b in zip(fo, sl)
            )
        assert gaps[300] > 0.0
        assert gaps[100_000] < 0.02

    def test_singular_gamma_rejected(self, rng):
        model, _ = fitted_model(rng, k=1, p=2)
        for gamma in (np.zeros((2, 2)), np.array([[1.0, 2.0], [2.0, 1.0]])):
            with pytest.raises(SingularMatrixError):
                irf_covariances(ma_from_ar(model.ar_hat.mats, 1), gamma, model.sigma_u_ml)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_gamma_rejected(self, rng, bad):
        model, _ = fitted_model(rng, k=1, p=2)
        gamma = np.eye(2)
        gamma[1, 0] = gamma[0, 1] = bad
        with pytest.raises(NonFiniteError):
            irf_covariances(ma_from_ar(model.ar_hat.mats, 1), gamma, model.sigma_u_ml)

    def test_wrong_side_gamma_rejected(self, rng):
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 3)
        for gamma in (np.eye(3), np.eye(4)[:, :2], np.zeros((0, 0)), np.ones(4)):
            with pytest.raises(DimensionMismatchError):
                irf_covariances(phi_hat, gamma, model.sigma_u_hat)

    def test_wrong_side_sigma_rejected(self, rng):
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 3)
        for sigma in (np.eye(3), np.eye(1), np.ones(4)):
            with pytest.raises(DimensionMismatchError):
                irf_covariances(phi_hat, model.moment_matrix, sigma)

    def test_singular_sigma_accepted(self, rng):
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 4)
        covs = irf_covariances(phi_hat, model.moment_matrix, np.zeros((2, 2)))
        np.testing.assert_array_equal(covs, np.zeros((4, 4, 4)))

    def test_asymmetric_sigma_rejected(self, rng):
        # eigh would read one triangle and symmetrise it without a word
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 3)
        sigma = np.array([[1.0, 0.3], [0.3 + 1e-9, 1.0]])
        with pytest.raises(DimensionMismatchError, match="sigma_u"):
            irf_covariances(phi_hat, model.moment_matrix, sigma)

    def test_indefinite_sigma_rejected(self, rng):
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 3)
        # eigenvalues 3 and -1; then 1 and -2e-12 against the bound -1e-12
        for sigma in (np.array([[1.0, 2.0], [2.0, 1.0]]), np.diag([1.0, -2e-12])):
            with pytest.raises(DimensionMismatchError, match="sigma_u"):
                irf_covariances(phi_hat, model.moment_matrix, sigma)
        # a negative eigenvalue within rounding is taken as zero
        covs = irf_covariances(phi_hat, model.moment_matrix, np.diag([1.0, -5e-13]))
        np.testing.assert_array_equal(covs, irf_covariances(phi_hat, model.moment_matrix, np.diag([1.0, 0.0])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, rng, bad):
        # the class delta_bounds raised on the covariances a non-finite
        # sigma_u gave before the kernel checked it
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 3)
        sigma = np.eye(2)
        sigma[0, 1] = sigma[1, 0] = bad
        with pytest.raises(NonFiniteError, match="sigma_u"):
            irf_covariances(phi_hat, model.moment_matrix, sigma)

    def test_stack_with_bad_sigma_member_raises_its_error(self, rng):
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = np.stack([ma_from_ar(model.ar_hat.mats, 3)] * 3)
        gamma = np.stack([model.moment_matrix] * 3)
        sigma = np.stack([model.sigma_u_hat] * 3)
        sigma[1] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(DimensionMismatchError, match="positive semidefinite"):
            irf_covariances(phi_hat, gamma, sigma)
        sigma[1, 0, 1] += 1e-6
        with pytest.raises(DimensionMismatchError, match="not symmetric"):
            irf_covariances(phi_hat, gamma, sigma)


def degenerate_sigma_case(rng, p, near_singular_gamma):
    """(Phi-hat, Gamma, Sigma_u) for K = 3 whose first-row IRF entries have zero variance.

    Sigma_u = v v' with v = (0, 1, -1)', and v is an eigenvector of every A_j,
    so e_1' Phi_m v = 0 for every m: the delta variance of each entry in the
    first row of Phi_i is zero, up to rounding.
    """
    v = np.array([0.0, 1.0, -1.0])
    ar = rng.normal(size=(p, 3, 3)) * 0.25
    ar -= (ar @ v)[..., np.newaxis] * v / 2
    ar += rng.uniform(-0.5, 0.5, size=(p, 1, 1)) * np.outer(v, v) / 2
    kp = 3 * p
    if near_singular_gamma:
        q, _ = np.linalg.qr(rng.normal(size=(kp, kp)))
        gamma = (q * np.geomspace(1.0, 1e-10, kp)) @ q.T
        gamma = (gamma + gamma.T) / 2
    else:
        root = rng.normal(size=(kp, kp + 2))
        gamma = root @ root.T / kp
    return ma_from_ar(ar, 10), gamma, np.outer(v, v)


class TestGramDiagonal:
    """Each covariance is a Gram V_i V_i', so its diagonal is a sum of squares."""

    @pytest.mark.parametrize("near_singular_gamma", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_zero_variance_entries_never_negative(self, rng, p, near_singular_gamma):
        # also with Sigma_u = v v' - 1e-13 I, a negative eigenvalue within
        # rounding: G (Gamma^{-1} kron Sigma_u) G' itself has negative entries
        # there, which the kernel's eigen square root clips to zero
        phi_hat, gamma, sigma = degenerate_sigma_case(rng, p, near_singular_gamma)
        for sigma_u in (sigma, sigma - 1e-13 * np.eye(3)):
            covs = irf_covariances(phi_hat, gamma, sigma_u)
            var = np.diagonal(covs, axis1=-2, axis2=-1)
            assert np.all(var >= 0.0)
            # vec index r + K c: the first-row entries are 0, 3 and 6
            assert var[:, ::3].max() <= 1e-12 * var.max()
            assert delta_bounds(phi_hat, covs, 0.95, 100)[2] == 0

    @pytest.mark.parametrize("plugin", ["LS", "S-LS"])
    def test_fitted_plugins_never_clamped(self, rng, plugin):
        for _ in range(10):
            ar, k, p = random_stable_model(rng)
            y = simulate_varma(pure_ar_spec(ar), 120, 50, int(rng.integers(2**31)))
            model, _ = fit_var_ls(y, p)
            pair = ls_plugins(model) if plugin == "LS" else sls_plugins(model, y)
            phi_hat = ma_from_ar(model.ar_hat.mats, 2 * p + 2)
            covs = irf_covariances(phi_hat, *pair)
            assert np.all(np.diagonal(covs, axis1=-2, axis2=-1) >= 0.0)
            assert delta_bounds(phi_hat, covs, 0.95, 120)[2] == 0


@st.composite
def fitted_sample(draw):
    """(y, p) from a random stable VAR, sized so both plug-ins are well conditioned."""
    seed = draw(st.integers(0, 2**31 - 1))
    k = draw(st.integers(1, 3))
    p = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    ar = random_stable_coeffs(rng, k, p, float(rng.uniform(0.3, 0.9)))
    sigma = np.diag(rng.uniform(0.5, 2.0, size=k))
    y = simulate_varma(pure_ar_spec(ar, sigma), 300, 100, seed)
    return y.values, p


def plugin_covs(y, p, plugin, horizon=6):
    model, _ = fit_var_ls(y, p)
    pair = ls_plugins(model) if plugin == "LS" else sls_plugins(model, y)
    return irf_covariances(ma_from_ar(model.ar_hat.mats, horizon), *pair)


def assert_close_rel(got, want, rel):
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(got - want) <= rel * scale)


class TestPluginInvariance:
    @settings(max_examples=25, deadline=None)
    @given(
        sample=fitted_sample(),
        c=st.floats(1e-3, 1e3),
        plugin=st.sampled_from(["LS", "S-LS"]),
    )
    def test_common_rescaling_leaves_covariances_unchanged(self, sample, c, plugin):
        y, p = sample
        assert_close_rel(plugin_covs(c * y, p, plugin), plugin_covs(y, p, plugin), 1e-9)

    @settings(max_examples=25, deadline=None)
    @given(
        sample=fitted_sample(),
        plugin=st.sampled_from(["LS", "S-LS"]),
        data=st.data(),
    )
    def test_permutation_maps_covariances(self, sample, plugin, data):
        y, p = sample
        k = y.shape[1]
        perm = data.draw(st.permutations(range(k)))
        # y_t -> P y_t maps Phi_i to P Phi_i P', so vec(Phi_i) to (P kron P) vec(Phi_i)
        pp = np.kron(np.eye(k)[perm], np.eye(k)[perm])
        want = pp @ plugin_covs(y, p, plugin) @ pp.T
        assert_close_rel(plugin_covs(y[:, perm], p, plugin), want, 1e-9)


@pytest.mark.parametrize("n", [1, 7, 20, 24, 25, 60, 120])
def test_lower_inverse_matches_lapack(rng, n):
    root = rng.normal(size=(n, 2 * n))
    low = np.linalg.cholesky(root @ root.T / (2 * n) + np.diag(rng.uniform(0.01, 1.0, n)))
    got = _lower_inverse(low)
    want = lapack.dtrtri(low, lower=1)[0]
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert not np.triu(got, 1).any()


class TestDeltaBounds:
    def test_quantile_matches_scipy(self):
        # half-width z sqrt(1 / 1) about a zero point: the upper bound is z.
        # Neither quantile is correctly rounded: they differ by up to 3 ulps
        # on this grid (at level 0.90), so the bound is relative, 1e-15
        phi_hat = np.array([[[1.0]], [[0.0]]])
        levels = np.concatenate([np.linspace(0.01, 0.99, 99), [0.999, 0.9999]])
        z = np.array([delta_bounds(phi_hat, np.ones((1, 1, 1)), lv, 1)[1][1, 0, 0] for lv in levels])
        np.testing.assert_allclose(z, ndtri((1.0 + levels) / 2.0), rtol=1e-15, atol=0.0)
        for level in (0.5, 0.68, 0.999):
            _, uppers, _ = delta_bounds(phi_hat, np.ones((1, 1, 1)), level, 1)
            assert uppers[1, 0, 0] == ndtri((1.0 + level) / 2.0)

    def test_textbook_interval(self):
        # interval around point 0.5 with unit asymptotic variance
        phi_hat = np.array([[[1.0]], [[0.5]]])
        lowers, uppers, _ = delta_bounds(phi_hat, np.array([[[1.0]]]), 0.95, 100)
        assert lowers[1, 0, 0] == pytest.approx(0.30401, abs=1e-5)
        assert uppers[1, 0, 0] == pytest.approx(0.69599, abs=1e-5)

    def test_zero_variance_degenerate(self):
        phi_hat = np.array([[[1.0]], [[0.7]]])
        lowers, uppers, _ = delta_bounds(phi_hat, np.array([[[0.0]]]), 0.95, 50)
        assert lowers[1, 0, 0] == uppers[1, 0, 0] == pytest.approx(0.7)

    def test_column_stacked_diagonal(self):
        # diagonal index r + K c holds the variance of entry (r, c)
        phi_hat = np.array([np.eye(2), np.zeros((2, 2))])
        covs = np.diag([1.0, 4.0, 9.0, 16.0])[np.newaxis]
        _, uppers, _ = delta_bounds(phi_hat, covs, 0.95, 1)
        z = uppers[1, 0, 0]
        np.testing.assert_allclose(uppers[1], z * np.array([[1.0, 3.0], [2.0, 4.0]]))

    def test_horizon_zero_pinned_to_identity(self, rng):
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 3)
        covs = irf_covariances(phi_hat, *ls_plugins(model))
        lowers, uppers, _ = delta_bounds(phi_hat, covs, 0.9, 200)
        np.testing.assert_array_equal(phi_hat[0], np.eye(2))
        np.testing.assert_array_equal(lowers[0], np.eye(2))
        np.testing.assert_array_equal(uppers[0], np.eye(2))

    def test_negative_variance_clamped_and_counted(self):
        phi_hat = np.array([[[1.0]], [[0.3]]])
        lowers, uppers, clamped = delta_bounds(phi_hat, np.array([[[-1e-13]]]), 0.95, 100)
        assert clamped == 1
        assert lowers[1, 0, 0] == uppers[1, 0, 0] == pytest.approx(0.3)

    def test_asymmetric_or_negative_covariance_rejected(self):
        phi_hat = np.array([np.eye(2), np.zeros((2, 2))])
        asymmetric = np.eye(4)[np.newaxis].copy()
        asymmetric[0, 0, 1] = 1e-6
        negative = -np.eye(4)[np.newaxis]
        for covs in (asymmetric, negative):
            with pytest.raises(DimensionMismatchError):
                delta_bounds(phi_hat, covs, 0.95, 100)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_rejected(self, bad):
        phi_hat = np.array([[[1.0]], [[0.5]]])
        with pytest.raises(NonFiniteError):
            delta_bounds(phi_hat, np.array([[[bad]]]), 0.95, 100)

    @pytest.mark.parametrize("name", ["points", "lowers", "uppers"])
    def test_interval_set_rejects_non_finite(self, name):
        arrays = {n: np.zeros((2, 1, 1)) for n in ("points", "lowers", "uppers")}
        arrays[name][1, 0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            IntervalSet(method="LS", **arrays)

    def test_requires_identity_head(self):
        covs = np.array([[[1.0]]])
        with pytest.raises(DimensionMismatchError, match="identity"):
            delta_bounds(np.array([[[0.5]], [[0.5]]]), covs, 0.95, 100)
        lowers, uppers, _ = delta_bounds(np.array([[[1.0]], [[0.5]]]), covs, 0.95, 100)
        assert lowers.shape == uppers.shape == (2, 1, 1)

    def test_malformed_irfs_rejected(self, rng):
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 3)
        covs = irf_covariances(phi_hat, *ls_plugins(model))
        for bad in (phi_hat[0], phi_hat[:, :, :1], phi_hat[:0], phi_hat[np.newaxis]):
            with pytest.raises(DimensionMismatchError, match="shape"):
                irf_covariances(bad, *ls_plugins(model))
            with pytest.raises(DimensionMismatchError, match="shape"):
                delta_bounds(bad, covs, 0.95, 100)
        broken = phi_hat.copy()
        broken[2, 1, 0] = np.nan
        with pytest.raises(NonFiniteError):
            irf_covariances(broken, *ls_plugins(model))
        with pytest.raises(NonFiniteError):
            delta_bounds(broken, covs, 0.95, 100)

    def test_intervals_symmetric_around_point(self, rng):
        model, _ = fitted_model(rng, k=2, p=2)
        phi_hat = ma_from_ar(model.ar_hat.mats, 5)
        covs = irf_covariances(phi_hat, *ls_plugins(model))
        lowers, uppers, _ = delta_bounds(phi_hat, covs, 0.95, 300)
        np.testing.assert_allclose(uppers - phi_hat, phi_hat - lowers, atol=1e-12)

    def test_missing_horizon_rejected(self, rng):
        model, _ = fitted_model(rng, k=1, p=1)
        phi_hat = ma_from_ar(model.ar_hat.mats, 3)
        covs = irf_covariances(ma_from_ar(model.ar_hat.mats, 2), *ls_plugins(model))
        with pytest.raises(DimensionMismatchError):
            delta_bounds(phi_hat, covs, 0.95, 100)

    def test_level_bounds(self, rng):
        model, _ = fitted_model(rng, k=1, p=1)
        phi_hat = ma_from_ar(model.ar_hat.mats, 1)
        covs = irf_covariances(phi_hat, *ls_plugins(model))
        with pytest.raises(ValueError):
            delta_bounds(phi_hat, covs, 1.0, 100)


class TestHorizonGate:
    def test_beyond_p_flagged(self):
        gate = horizon_gate(10, 30)
        flagged = [i for i, ok in gate if not ok]
        assert flagged == list(range(11, 31))

    def test_p_equals_horizon_all_valid(self):
        assert all(ok for _, ok in horizon_gate(5, 5))

    def test_horizon_below_p_all_valid(self):
        assert all(ok for _, ok in horizon_gate(12, 7))
