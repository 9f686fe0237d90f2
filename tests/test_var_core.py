"""Companion algebra and MA recursion tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievevar import (
    DimensionMismatchError,
    MatrixSeq,
    coeff_seq,
    companion_form,
    ma_from_ar,
    ma_via_companion,
    spectral_radius,
    stability_class,
)
from conftest import random_stable_coeffs, random_stable_model


class TestMatrixSeq:
    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionMismatchError):
            coeff_seq(np.array([[[np.nan]]]), 1)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MatrixSeq(dim=2, mats=np.zeros((1, 2, 3)))

    def test_entries_immutable(self):
        seq = coeff_seq(np.array([[[0.5]]]), 1)
        with pytest.raises(ValueError):
            seq.mats[0, 0, 0] = 1.0


class TestCompanionForm:
    def test_scalar_p1_is_coefficient(self):
        comp = companion_form(np.array([[[0.5]]]))
        assert comp.shape == (1, 1)
        assert comp[0, 0] == 0.5
        with pytest.raises(ValueError):
            comp[0, 0] = 1.0

    def test_scalar_p2_layout(self):
        comp = companion_form(np.array([[[0.5]], [[0.24]]]))
        np.testing.assert_array_equal(comp, [[0.5, 0.24], [1.0, 0.0]])

    def test_k2_p2_blocks(self):
        comp = companion_form(np.array([0.5 * np.eye(2), np.zeros((2, 2))]))
        assert comp.shape == (4, 4)
        np.testing.assert_array_equal(comp[:2, :2], 0.5 * np.eye(2))
        np.testing.assert_array_equal(comp[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(comp[2:, :2], np.eye(2))
        np.testing.assert_array_equal(comp[2:, 2:], np.zeros((2, 2)))

    def test_subdiagonal_identity_exact_for_large_p(self, rng):
        ar = random_stable_coeffs(rng, 2, 6, 0.7)
        comp = companion_form(ar)
        below = comp[2:]
        np.testing.assert_array_equal(below[:, :10], np.eye(10))
        np.testing.assert_array_equal(below[:, 10:], np.zeros((10, 2)))

    def test_requires_ar_indexing(self):
        # a (p, K, K) stack of square coefficients with p >= 1
        for shape in ((2, 2), (1, 2, 3), (0, 2, 2)):
            with pytest.raises(DimensionMismatchError):
                companion_form(np.zeros(shape))


class TestMaRecursion:
    def test_horizon_zero_is_exact_identity(self, rng):
        ar, k, _ = random_stable_model(rng)
        phi0 = ma_from_ar(ar, 0)[0]
        assert np.array_equal(phi0, np.eye(k))

    def test_scalar_ar1_powers(self):
        phis = ma_from_ar(np.array([[[0.5]]]), 3)
        np.testing.assert_allclose(phis.ravel(), [1.0, 0.5, 0.25, 0.125])

    def test_scalar_p2_one_step(self):
        ar = np.array([[[0.5]], [[0.2]]])
        assert ma_from_ar(ar, 2)[2][0, 0] == pytest.approx(0.45)

    def test_empty_ar_gives_zero_irfs(self):
        phis = ma_from_ar(np.empty((0, 2, 2)), 3)
        np.testing.assert_array_equal(phis[0], np.eye(2))
        np.testing.assert_array_equal(phis[1:], np.zeros((3, 2, 2)))

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            ma_from_ar(np.array([[[0.5]]]), -1)

    def test_stack_matches_each_sequence_bit_for_bit(self, rng):
        for k, p in ((1, 1), (2, 3), (3, 2)):
            stack = np.array([random_stable_coeffs(rng, k, p, 0.9) for _ in range(3)])
            phis = ma_from_ar(stack, 7)
            assert isinstance(phis, np.ndarray) and phis.shape == (3, 8, k, k)
            for member, want in zip(phis, stack):
                np.testing.assert_array_equal(member, ma_from_ar(want, 7))


class TestMaViaCompanion:
    def test_power_zero_is_identity(self, rng):
        ar, k, _ = random_stable_model(rng)
        np.testing.assert_array_equal(ma_via_companion(ar, 0), np.eye(k))

    def test_scalar_square(self):
        assert ma_via_companion(np.array([[[0.5]]]), 2) == pytest.approx(0.25)

    def test_agrees_with_recursion_on_random_models(self, rng):
        for _ in range(25):
            ar, _, p = random_stable_model(rng)
            horizon = min(p, 12)
            phis = ma_from_ar(ar, horizon)
            for i in range(horizon + 1):
                via = ma_via_companion(ar, i)
                scale = max(1.0, np.max(np.abs(phis[i])))
                assert np.max(np.abs(via - phis[i])) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None)
    @given(
        a1=st.floats(-0.9, 0.9),
        a2=st.floats(-0.4, 0.4),
        i=st.integers(0, 12),
    )
    def test_scalar_property_recursion_equals_companion(self, a1, a2, i):
        ar = np.array([[[a1]], [[a2]]])
        lhs = ma_via_companion(ar, i)[0, 0]
        rhs = ma_from_ar(ar, i)[i][0, 0]
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestSpectralRadius:
    def test_diagonal(self):
        ar = np.array([np.diag([0.9, 0.5])])
        assert spectral_radius(companion_form(ar)) == pytest.approx(0.9)

    def test_scalar_p2_against_quadratic_roots(self):
        # roots of z^2 - 0.5 z - 0.24: discriminant 1.21, so z in {0.8, -0.3}
        roots = np.roots([1.0, -0.5, -0.24])
        oracle = float(np.max(np.abs(roots)))
        ar = np.array([[[0.5]], [[0.24]]])
        assert spectral_radius(companion_form(ar)) == pytest.approx(oracle, abs=1e-12)
        assert oracle == pytest.approx(0.8, abs=1e-12)

    def test_nilpotent_zero_coefficients(self):
        ar = np.zeros((3, 2, 2))
        assert spectral_radius(companion_form(ar)) == pytest.approx(0.0)

    def test_stack_matches_each_matrix_bit_for_bit(self, rng):
        comps = np.array(
            [companion_form(random_stable_coeffs(rng, 2, 3, 0.9)) for _ in range(6)]
        ).reshape(2, 3, 6, 6)
        radii = spectral_radius(comps)
        assert radii.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert radii[idx] == spectral_radius(comps[idx])
        assert isinstance(spectral_radius(comps[0, 0]), float)

    def test_radius_agrees_with_boundary_winding_check(self, rng):
        # stable <=> det(I - sum A_i z^i) has no roots in |z| <= 1, checked
        # through the winding number of the determinant along the unit circle
        grid = np.exp(2j * np.pi * np.arange(360) / 360)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            p = int(rng.integers(1, 4))
            target = float(rng.choice([rng.uniform(0.3, 0.95), rng.uniform(1.05, 1.3)]))
            ar = random_stable_coeffs(rng, k, p, target)
            radius = spectral_radius(companion_form(ar))
            if 0.98 <= radius <= 1.02:
                continue
            dets = np.array(
                [
                    np.linalg.det(
                        np.eye(k)
                        - sum(ar[j] * z ** (j + 1) for j in range(p))
                    )
                    for z in grid
                ]
            )
            closed = np.append(dets, dets[0])
            winding = np.unwrap(np.angle(closed))[-1] - np.angle(closed[0])
            n_roots_inside = round(winding / (2 * np.pi))
            assert (radius < 1.0) == (n_roots_inside == 0)

    def test_stability_classes(self):
        assert stability_class(0.5) == "stable"
        assert stability_class(1.0 - 5e-9) == "near-unit-root"
        assert stability_class(1.0) == "unstable"
