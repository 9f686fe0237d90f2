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
)
from sievevar.dgp_sim import DEFAULT_COUNTEREXAMPLE_PLAN, default_burn_in, simulate_varma_stack
from sievevar.streams import substream
from conftest import (
    assert_close_to_scale,
    pure_ar_spec,
    random_stable_coeffs,
    random_varma_spec,
    reference_simulate,
    reference_true_ar,
    reference_true_irf,
    scalar_varma,
    white_noise_spec,
)


class TestVarmaSpec:
    """Construction runs ``validate``, so an invalid spec is never built."""

    def test_desk_spec_is_valid(self, desk_spec):
        desk_spec.validate()

    def test_unstable_ar_named(self):
        with pytest.raises(UnstableProcessError, match="stable"):
            pure_ar_spec(np.array([[[1.01]]]))

    def test_noninvertible_ma_named(self):
        with pytest.raises(UnstableProcessError, match="invertible"):
            scalar_varma(None, 1.1)

    def test_asymmetric_sigma_rejected(self):
        with pytest.raises(UnstableProcessError, match="symmetric"):
            VarmaSpec(
                k=2,
                ar=white_noise_spec(2).ar,
                ma=white_noise_spec(2).ma,
                sigma_u=np.array([[1.0, 0.2], [0.0, 1.0]]),
            )

    def test_relative_asymmetry_rejected(self):
        with pytest.raises(UnstableProcessError, match="not symmetric within 1e-12"):
            VarmaSpec(
                k=2,
                ar=white_noise_spec(2).ar,
                ma=white_noise_spec(2).ma,
                sigma_u=np.array([[1.0, 0.5 + 1e-6], [0.5, 1.0]]),
            )

    def test_indefinite_sigma_rejected(self):
        with pytest.raises(UnstableProcessError, match="positive-definite"):
            VarmaSpec(
                k=1,
                ar=white_noise_spec(1).ar,
                ma=white_noise_spec(1).ma,
                sigma_u=np.array([[-1.0]]),
            )


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
        # the spec refuses itself, so no unstable process reaches the simulator
        with pytest.raises(UnstableProcessError, match="radius"):
            pure_ar_spec(np.array([[[1.05]]]))

    def test_default_burn_in_tracks_ar_order(self, desk_spec):
        assert default_burn_in(desk_spec) == 201
        assert default_burn_in(white_noise_spec(2)) == 200


def _grid_spec(k: int, p: int, q: int) -> VarmaSpec:
    rng = np.random.default_rng(100 * k + 10 * p + q)
    ar = random_stable_coeffs(rng, k, p, 0.8) if p else np.empty((0, k, k))
    # invertible MA: the negated coefficients form a stable AR part
    ma = -random_stable_coeffs(rng, k, q, 0.6) if q else np.empty((0, k, k))
    root = rng.normal(size=(k, k))
    sigma = root @ root.T + k * np.eye(k)
    return VarmaSpec(k=k, ar=coeff_seq(ar, k), ma=coeff_seq(ma, k), sigma_u=sigma)


def _counterexample_spec(desk: VarmaSpec) -> VarmaSpec:
    ar = counterexample_ar(desk.ar.mats[0])
    return VarmaSpec(k=2, ar=coeff_seq(ar), ma=desk.ma, sigma_u=desk.sigma_u)


class TestSimulateAgainstReference:
    """``simulate_varma`` against the one-lag-at-a-time loop of conftest."""

    @staticmethod
    def _check(spec: VarmaSpec, t: int, burn_in: int, seed: int) -> None:
        got = simulate_varma(spec, t, burn_in, seed).values
        want = reference_simulate(spec, t, burn_in, seed)
        assert got.shape == want.shape == (t, spec.k)
        # relative to the path's scale: entries near zero carry the rounding
        # of the whole sum
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("p, q", [(0, 0), (0, 2), (1, 1), (3, 0)])
    @pytest.mark.parametrize("burn_in", [0, 25])
    def test_grid(self, k, p, q, burn_in):
        self._check(_grid_spec(k, p, q), 60, burn_in, 7 + burn_in)

    @pytest.mark.parametrize("burn_in", [0, 214])
    def test_counterexample_p14_q1(self, desk_spec, burn_in):
        self._check(_counterexample_spec(desk_spec), 300, burn_in, 20260104)

    @pytest.mark.parametrize("burn_in", [0, 5])
    def test_t_shorter_than_p(self, desk_spec, burn_in):
        self._check(_counterexample_spec(desk_spec), 3, burn_in, 31)
        self._check(_grid_spec(3, 3, 0), 2, burn_in, 32)


class TestSimulateStack:
    """``simulate_varma_stack`` against per-seed ``simulate_varma``, bit for bit."""

    @staticmethod
    def _check(spec: VarmaSpec, t: int, burn_in: int, seeds) -> None:
        got = simulate_varma_stack(spec, t, burn_in, seeds)
        assert got.shape == (len(seeds), t, spec.k)
        for path, seed in zip(got, seeds):
            assert np.array_equal(path, simulate_varma(spec, t, burn_in, seed).values)

    def test_desk_varma11(self, desk_spec):
        self._check(desk_spec, 300, default_burn_in(desk_spec), [3, 4, 5, 6, 7])

    @pytest.mark.parametrize("burn_in", [0, 214])
    def test_counterexample_p14(self, desk_spec, burn_in):
        # the streams an MC chunk of the counterex-desk-p30 preset draws from
        seeds = [substream(20260104, r, 0) for r in range(8)]
        self._check(_counterexample_spec(desk_spec), 300, burn_in, seeds)

    def test_white_noise(self):
        self._check(white_noise_spec(3), 50, 10, [1, 2, 3])

    def test_one_variable(self):
        self._check(scalar_varma(0.5, 0.3, 2.0), 80, 20, [9, 10, 11, 12])

    def test_burn_in_zero(self, desk_spec):
        self._check(desk_spec, 40, 0, [1, 2])

    def test_path_does_not_depend_on_its_neighbours(self, desk_spec):
        wide = simulate_varma_stack(desk_spec, 60, 30, [5, 6, 7])
        narrow = simulate_varma_stack(desk_spec, 60, 30, [7, 5])
        assert np.array_equal(wide[[2, 0]], narrow)

    def test_refuses_unstable_spec(self):
        # the spec refuses itself, so no unstable process reaches the stack
        with pytest.raises(UnstableProcessError):
            pure_ar_spec(np.array([[[1.2]]]))


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


# (k, p, q, n): p = 0, q = 0, q > n, n = 0, n below p, and a lagged counterexample-like order
ORACLE_CASES = [
    (2, 0, 2, 6), (2, 2, 0, 6), (1, 1, 5, 3), (3, 2, 4, 2), (2, 3, 1, 0),
    (2, 6, 1, 4), (1, 0, 0, 4), (3, 1, 2, 20), (2, 14, 1, 30),
]


class TestAgainstReferenceRecursions:
    @pytest.mark.parametrize("k, p, q, n", ORACLE_CASES)
    def test_true_irf(self, rng, k, p, q, n):
        spec = random_varma_spec(rng, k, p, q)
        assert_close_to_scale(varma_true_irf(spec, n), reference_true_irf(spec, n), 1e-14)

    @pytest.mark.parametrize("k, p, q, n", ORACLE_CASES)
    def test_true_ar(self, rng, k, p, q, n):
        spec = random_varma_spec(rng, k, p, q)
        assert_close_to_scale(varma_true_ar(spec, n), reference_true_ar(spec, n), 1e-14)

    def test_desk_and_counterexample(self, desk_spec):
        planted = VarmaSpec(
            k=2, ar=coeff_seq(counterexample_ar(desk_spec.ar.mats[0]), 2),
            ma=desk_spec.ma, sigma_u=desk_spec.sigma_u,
        )
        for spec in (desk_spec, planted):
            assert_close_to_scale(varma_true_irf(spec, 30), reference_true_irf(spec, 30), 1e-14)
            assert_close_to_scale(varma_true_ar(spec, 60), reference_true_ar(spec, 60), 1e-14)


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
