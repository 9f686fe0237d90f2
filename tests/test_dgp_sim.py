"""DGP simulation, counterexample construction, and true-process forms."""

import json
import os

import numpy as np
import pytest

from sievevar import (
    UnstableProcessError,
    VarmaSpec,
    coeff_seq,
    companion_form,
    counterexample_ar,
    ma_from_ar,
    simulate_varma,
    spectral_radius,
    varma_true_ar,
    varma_true_irf,
    white_noise_spec,
)
from sievevar.dgp_sim import DEFAULT_COUNTEREXAMPLE_PLAN, default_burn_in
from conftest import pure_ar_spec, random_stable_coeffs, scalar_varma


class TestVarmaSpec:
    def test_desk_spec_is_valid(self, desk_spec):
        desk_spec.validate()

    def test_unstable_ar_named(self):
        spec = pure_ar_spec(np.array([[[1.01]]]))
        with pytest.raises(UnstableProcessError, match="stable"):
            spec.validate()

    def test_noninvertible_ma_named(self):
        spec = scalar_varma(None, 1.1)
        with pytest.raises(UnstableProcessError, match="invertible"):
            spec.validate()

    def test_asymmetric_sigma_rejected(self):
        spec = VarmaSpec(
            k=2,
            ar=white_noise_spec(2).ar,
            ma=white_noise_spec(2).ma,
            sigma_u=np.array([[1.0, 0.2], [0.0, 1.0]]),
        )
        with pytest.raises(UnstableProcessError, match="symmetric"):
            spec.validate()

    def test_indefinite_sigma_rejected(self):
        spec = VarmaSpec(
            k=1,
            ar=white_noise_spec(1).ar,
            ma=white_noise_spec(1).ma,
            sigma_u=np.array([[-1.0]]),
        )
        with pytest.raises(UnstableProcessError, match="positive-definite"):
            spec.validate()


class TestSimulateVarma:
    def test_white_noise_matches_identity_covariance(self):
        y = simulate_varma(white_noise_spec(2), 100_000, 0, 11)
        cov = y.values.T @ y.values / y.t
        assert np.max(np.abs(cov - np.eye(2))) < 0.02

    def test_determinism_bit_identical(self, desk_spec):
        a = simulate_varma(desk_spec, 500, 100, 987654321)
        b = simulate_varma(desk_spec, 500, 100, 987654321)
        assert np.array_equal(a.values, b.values)

    def test_different_seeds_differ(self, desk_spec):
        a = simulate_varma(desk_spec, 100, 100, 1)
        b = simulate_varma(desk_spec, 100, 100, 2)
        assert not np.array_equal(a.values, b.values)

    def test_ar1_variance_matches_yule_walker(self):
        # Gamma(0) = sigma^2 / (1 - a^2) = 4/3 for a = 0.5
        y = simulate_varma(scalar_varma(0.5, None), 100_000, 500, 321)
        assert np.var(y.values) == pytest.approx(4.0 / 3.0, rel=0.02)

    def test_refuses_unstable_spec(self):
        with pytest.raises(UnstableProcessError, match="radius"):
            simulate_varma(pure_ar_spec(np.array([[[1.05]]])), 50, 0, 0)

    def test_default_burn_in_tracks_ar_order(self, desk_spec):
        assert default_burn_in(desk_spec) == 201
        assert default_burn_in(white_noise_spec(2)) == 200


class TestCounterexample:
    def test_default_plan_layout(self):
        base = np.array([[0.5, 0.1], [0.2, 0.4]])
        seq = counterexample_ar(base)
        assert len(seq) == 14
        np.testing.assert_array_equal(seq[0], base)
        np.testing.assert_allclose(seq[11], base / 5.0, rtol=1e-15)
        np.testing.assert_allclose(seq[13], base / 10.0, rtol=1e-15)
        for lag in list(range(2, 12)) + [13]:
            assert np.all(seq[lag - 1] == 0.0)

    def test_single_lag_plan(self):
        base = np.array([[0.3]])
        seq = counterexample_ar(base, ((1, 1.0),))
        assert len(seq) == 1
        np.testing.assert_array_equal(seq[0], base)

    def test_duplicate_lags_rejected(self):
        with pytest.raises(ValueError):
            counterexample_ar(np.eye(2), ((1, 1.0), (1, 0.5)))

    def test_literature_base_matrix_radius(self):
        # activates only when the literature DGP matrices are configured
        path = os.environ.get("SIEVEVAR_IK_DGP")
        if not path:
            pytest.skip("SIEVEVAR_IK_DGP not set; literature matrices not shipped")
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
        base = np.asarray(obj["ar"][0], dtype=float)
        rad_base = spectral_radius(companion_form(np.array([base])))
        rad_star = spectral_radius(companion_form(counterexample_ar(base)))
        assert rad_base == pytest.approx(0.895, abs=5e-4)
        assert rad_star == pytest.approx(0.909, abs=5e-4)

    def test_plan_constant_matches_default(self):
        assert DEFAULT_COUNTEREXAMPLE_PLAN == ((1, 1.0), (12, 0.2), (14, 0.1))


def _poly_series_inverse(coeffs: np.ndarray, n: int) -> np.ndarray:
    """Power-series inverse of 1 + c_1 z + ... (scalar), truncated at order n."""
    out = np.zeros(n + 1)
    out[0] = 1.0
    for i in range(1, n + 1):
        acc = 0.0
        for j in range(1, min(i, len(coeffs)) + 1):
            acc += coeffs[j - 1] * out[i - j]
        out[i] = -acc
    return out


class TestTrueIrf:
    def test_pure_ma_truncates(self):
        spec = scalar_varma(None, 0.3)
        phis = varma_true_irf(spec, 4).ravel()
        np.testing.assert_allclose(phis, [1.0, 0.3, 0.0, 0.0, 0.0])

    def test_scalar_varma11_against_convolution_oracle(self):
        # Phi(z) = (1 - 0.5 z)^{-1} (1 + 0.3 z), brute-force series product
        a, m = 0.5, 0.3
        n = 8
        inv_ar = _poly_series_inverse(np.array([-a]), n)
        oracle = np.convolve(inv_ar, np.array([1.0, m]))[: n + 1]
        phis = varma_true_irf(scalar_varma(a, m), n).ravel()
        np.testing.assert_allclose(phis, oracle, atol=1e-14)
        assert phis[1] == pytest.approx(0.8)
        assert phis[2] == pytest.approx(0.4)

    def test_pure_ar_equals_ma_from_ar(self, rng):
        ar = random_stable_coeffs(rng, 2, 3, 0.8)
        spec = pure_ar_spec(ar)
        np.testing.assert_allclose(
            varma_true_irf(spec, 10), ma_from_ar(ar, 10), atol=1e-14
        )


class TestTrueAr:
    def test_scalar_varma11_long_division_oracle(self):
        # Pi(z) = (1 + 0.3 z)^{-1} (1 - 0.5 z) expanded by series division
        a, m = 0.5, 0.3
        n = 6
        inv_ma = _poly_series_inverse(np.array([m]), n)
        pi = np.convolve(inv_ma, np.array([1.0, -a]))[: n + 1]
        oracle = -pi[1:]  # Pi(z) = 1 - sum A_i z^i
        coeffs = varma_true_ar(scalar_varma(a, m), n).ravel()
        np.testing.assert_allclose(coeffs, oracle, atol=1e-14)
        np.testing.assert_allclose(coeffs[:3], [0.8, -0.24, 0.072], atol=1e-14)

    def test_pure_ar_returns_own_coefficients_padded(self, rng):
        ar = random_stable_coeffs(rng, 2, 2, 0.7)
        out = varma_true_ar(pure_ar_spec(ar), 5)
        np.testing.assert_allclose(out[:2], ar, atol=1e-15)
        np.testing.assert_array_equal(out[2:], np.zeros((3, 2, 2)))

    def test_pure_ma_geometric_inversion(self):
        # y_t = (1 + m L) u_t inverts to A_i = -(-m)^i
        m = 0.3
        coeffs = varma_true_ar(scalar_varma(None, m), 5).ravel()
        oracle = [-((-m) ** i) for i in range(1, 6)]
        np.testing.assert_allclose(coeffs, oracle, atol=1e-15)
        assert coeffs[0] == pytest.approx(0.3)
        assert coeffs[1] == pytest.approx(-0.09)


class TestRoundTrip:
    def test_ar_inversion_recovers_true_irf(self, desk_spec):
        truth = varma_true_irf(desk_spec, 30)
        recovered = ma_from_ar(varma_true_ar(desk_spec, 50), 30)
        assert np.max(np.abs(truth - recovered)) < 1e-8

    def test_counterexample_round_trip(self, desk_spec):
        spec = VarmaSpec(
            k=2,
            ar=coeff_seq(counterexample_ar(desk_spec.ar.mats[0]), 2),
            ma=desk_spec.ma,
            sigma_u=desk_spec.sigma_u,
        )
        spec.validate()
        truth = varma_true_irf(spec, 30)
        recovered = ma_from_ar(varma_true_ar(spec, 60), 30)
        assert np.max(np.abs(truth - recovered)) < 1e-8
