"""Companion algebra and MA recursion tests."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievevar import (
    DimensionMismatchError,
    EigenvalueError,
    MatrixSeq,
    coeff_seq,
    companion_form,
    ma_from_ar,
    spectral_radius,
    stability_class,
    var_recursion,
)
from sievevar import var_core
from sievevar.var_core import _BLOCK_STEPS, _solve_recursion, _stationary
from conftest import (
    assert_close_to_scale,
    ma_via_companion,
    random_stable_coeffs,
    random_stable_model,
    reference_banded_recursion,
    reference_ma_from_ar,
)


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

    def test_stack_matches_each_matrix_bit_for_bit(self, rng):
        for k, p in ((1, 1), (2, 1), (2, 3), (3, 4)):
            stack = np.array([random_stable_coeffs(rng, k, p, 0.9) for _ in range(6)])
            comps = companion_form(stack.reshape((2, 3, p, k, k)))
            assert comps.shape == (2, 3, k * p, k * p) and not comps.flags.writeable
            for idx, member in zip(np.ndindex(2, 3), stack):
                np.testing.assert_array_equal(comps[idx], companion_form(member))

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

    def test_matches_reference_recursion(self, rng):
        # p = 0, H = 0, H below p and H far past p
        cases = [(2, 0, 5), (1, 3, 0), (3, 4, 2), (2, 2, 25), (1, 1, 30)]
        cases += [(int(rng.integers(1, 4)), int(rng.integers(1, 7)), int(rng.integers(0, 20)))
                  for _ in range(15)]
        for k, p, horizon in cases:
            radius = float(rng.uniform(0.3, 0.95))
            ar = random_stable_coeffs(rng, k, p, radius) if p else np.empty((0, k, k))
            assert_close_to_scale(ma_from_ar(ar, horizon), reference_ma_from_ar(ar, horizon), 1e-14)

    def test_stack_matches_each_sequence_bit_for_bit(self, rng):
        for k, p in ((1, 1), (2, 3), (3, 2)):
            stack = np.array([random_stable_coeffs(rng, k, p, 0.9) for _ in range(3)])
            phis = ma_from_ar(stack, 7)
            assert isinstance(phis, np.ndarray) and phis.shape == (3, 8, k, k)
            for member, want in zip(phis, stack):
                np.testing.assert_array_equal(member, ma_from_ar(want, 7))

    def test_member_of_two_axis_stack_matches_own_expansion_bit_for_bit(self, rng):
        k, p = 2, 3
        ar = np.array([random_stable_coeffs(rng, k, p, 0.9) for _ in range(6)])
        ar = ar.reshape(2, 3, p, k, k)
        phis = ma_from_ar(ar, 9)
        assert phis.shape == (2, 3, 10, k, k)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(phis[idx], ma_from_ar(ar[idx], 9))


class TestVarRecursion:
    def test_member_of_stack_of_7_matches_single_path_bit_for_bit(self, rng):
        k, p, t = 3, 4, 80
        ar = random_stable_coeffs(rng, k, p, 0.9)
        shocks = rng.normal(size=(7, t, k, 1))
        paths = var_recursion(ar, shocks)
        assert paths.shape == (7, t, k, 1)
        for j in range(7):
            single = var_recursion(ar, shocks[j : j + 1])
            np.testing.assert_array_equal(paths[j], single[0])

    def test_rows_below_p_are_start_values(self, rng):
        ar = random_stable_coeffs(rng, 2, 3, 0.5)
        shocks = rng.normal(size=(2, 10, 2, 1))
        paths = var_recursion(ar, shocks)
        np.testing.assert_array_equal(paths[:, :3], shocks[:, :3])

    def test_scalar_steps_by_hand(self):
        # y_s = 1 + 0.5 y_{s-1} + e_s from y_0 = 2: the start value and the
        # constant plus e_s are the shocks
        paths = var_recursion(np.array([[[0.5]]]), np.array([[[[2.0]], [[1.25]], [[0.0]]]]))
        np.testing.assert_array_equal(paths[0, :, 0, 0], [2.0, 2.25, 1.125])

    def test_p0_returns_shocks(self, rng):
        shocks = rng.normal(size=(3, 20, 2, 1))
        paths = var_recursion(np.empty((0, 2, 2)), shocks)
        np.testing.assert_array_equal(paths, shocks)

    def test_columns_of_matrix_paths_match_vector_paths(self, rng):
        # m = K columns of one K x K path against each column stepped as m = 1;
        # every column is its own path of the recursion
        k, p, t = 3, 5, 40
        ar = random_stable_coeffs(rng, k, p, 0.9)
        shocks = rng.normal(size=(2, t, k, k))
        paths = var_recursion(ar, shocks)
        assert paths.shape == (2, t, k, k) and paths.flags.c_contiguous
        for j in range(k):
            col = np.s_[..., j : j + 1]
            np.testing.assert_array_equal(paths[col], var_recursion(ar, shocks[col]))

    @pytest.mark.parametrize("k, p", [(1, 4), (3, 2), (3, 0)])
    @pytest.mark.parametrize("m", ["1", "K"])
    def test_member_at_odd_length_matches_own_call_bit_for_bit(self, rng, k, p, m):
        # T K odd at K = 1 and K = 3, so members start at every alignment
        t, n = 151, 9
        ar = random_stable_coeffs(rng, k, p, 0.9) if p else np.empty((0, k, k))
        shocks = rng.normal(size=(n, t, k, 1 if m == "1" else k))
        paths = var_recursion(ar, shocks)
        for j in range(n):
            np.testing.assert_array_equal(paths[j], var_recursion(ar, shocks[j]))

    def test_empty_stack_keeps_its_shape(self, rng):
        ar = random_stable_coeffs(rng, 2, 3, 0.9)
        for shape in ((0, 40, 2, 1), (3, 0, 40, 2, 2)):
            assert var_recursion(ar, np.zeros(shape)).shape == shape

    def test_overflowing_member_leaves_its_neighbours_bits(self, rng):
        # A_1 + A_2 + A_3 = 0.9 I with shocks of 1e308 overflows at step 3
        k, t = 2, 120
        ar = np.array([0.3 * np.eye(k)] * 3)
        shocks = rng.normal(size=(5, t, k, 1))
        calm = var_recursion(ar, shocks)
        shocks[2] = 1e308
        paths = var_recursion(ar, shocks)
        assert not np.isfinite(paths[2]).all()
        np.testing.assert_array_equal(np.delete(paths, 2, axis=0), np.delete(calm, 2, axis=0))

    def test_shapes_checked(self):
        for ar_shape, shocks_shape in (
            ((2, 2, 2), (1, 1, 2, 1)),  # fewer steps than start values
            ((2, 2, 2), (1, 5, 3, 1)),  # coefficients of another K
            ((2, 2), (1, 5, 2, 1)),  # no lag axis
            ((3, 2, 2, 2), (2, 5, 2, 1)),  # a stack that does not broadcast
            ((2, 2, 2, 2), (5, 2, 1)),  # a stack wider than the paths
            ((2, 2, 2, 2), (2, 5, 2, 1)),  # one coefficient stack per path
        ):
            with pytest.raises(DimensionMismatchError):
                var_recursion(np.zeros(ar_shape), np.zeros(shocks_shape))


def _solved(ar: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    paths = shocks.copy()
    _solve_recursion(ar, paths)
    return paths


class TestSolveRecursion:
    """The blocked kernel against the banded LAPACK solve, and each path's bits on its own."""

    SHAPES = [(2, 10), (4, 6), (2, 14), (3, 7), (1, 1)]

    @pytest.mark.parametrize("k, p", SHAPES)
    @pytest.mark.parametrize("radius", [0.95, 1.1])
    def test_matches_banded_solve(self, rng, k, p, radius):
        b = _BLOCK_STEPS
        ar = random_stable_coeffs(rng, k, p, radius)
        for t in (p, p + 1, p + b - 1, p + b, p + b + 1, 3 * b + p + 7):
            shocks = rng.normal(size=(5, t, k))
            want = reference_banded_recursion(ar, shocks)
            # an explosive path grows, so the error is relative to each step's scale
            scale = np.abs(want).max(axis=(0, 2), keepdims=True)
            assert np.all(np.abs(_solved(ar, shocks) - want) <= 1e-14 * scale)

    @pytest.mark.parametrize("k, p", SHAPES + [(4, 30)])
    def test_path_keeps_its_bits_alone_and_in_any_stack(self, rng, k, p):
        # at (4, 30) the paths are multiplied in groups of 44, so 65 paths
        # make a full group and an odd one
        ar = random_stable_coeffs(rng, k, p, 0.9)
        shocks = rng.normal(size=(66, 3 * _BLOCK_STEPS + p + 7, k))
        stack = _solved(ar, shocks)
        for n in (1, 2, 63, 64, 65):
            for lo in (0, 1):
                np.testing.assert_array_equal(_solved(ar, shocks[lo : lo + n]), stack[lo : lo + n])


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


class TestStationaryCertificate:
    """_stationary(c) is spectral_radius(c) < 1.0, member for member."""

    def assert_matches_eigen_solve(self, comps):
        np.testing.assert_array_equal(_stationary(comps), spectral_radius(comps) < 1.0)

    def test_ar1_at_and_near_the_unit_root(self):
        coefs = (1.0, -1.0, 1 - 1e-12, -(1 - 1e-12), 1 + 1e-12, 0.999, 0.5)
        self.assert_matches_eigen_solve(np.array(coefs).reshape(-1, 1, 1))

    def test_non_normal_jordan_blocks(self):
        # radius 0.9 (and 1.01), while the powers of the larger shears grow
        # far beyond 1 before they decay
        comps = [
            np.array([[a, shear], [0.0, a]])
            for a in (0.9, 1.01)
            for shear in (0.0, 1.0, 1e2, 1e4, 1e6)
        ]
        self.assert_matches_eigen_solve(np.array(comps))

    def test_stacks_rescaled_around_the_unit_circle(self, rng):
        for k, p in ((1, 1), (2, 2), (2, 10), (3, 4), (4, 6)):
            radii = rng.uniform(0.95, 1.05, size=20)
            comps = companion_form(np.array([random_stable_coeffs(rng, k, p, r) for r in radii]))
            self.assert_matches_eigen_solve(comps)

    def test_powers_cancelling_at_a_huge_scale_are_eigen_solved(self, monkeypatch):
        # the first member squares to exactly 0, but at entries of 1e10 the
        # rounding bound of its squarings is far above 1/2, so only the
        # second member is certified
        solved = []

        def counted(c):
            solved.append(len(c))
            return spectral_radius(c)

        monkeypatch.setattr(var_core, "spectral_radius", counted)
        comps = np.array([[[1e10, 1e10], [-1e10, -1e10]], [[0.5, 0.0], [0.0, 0.5]]])
        _stationary(comps)
        assert solved == [1]

    def test_explosive_members_raise_no_warning(self):
        comps = np.array([[[1e300, 1.0], [1.0, 0.0]], [[0.5, 0.0], [0.0, 0.5]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(_stationary(comps), [False, True])

    def test_nan_member_raises(self):
        comps = np.array([[[0.5]], [[np.nan]]])
        with pytest.raises(EigenvalueError):
            _stationary(comps)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 3),
        p=st.integers(1, 4),
        radius=st.floats(0.05, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_matches_eigen_solve(self, k, p, radius, seed):
        rng = np.random.default_rng(seed)
        scales = radius * rng.uniform(0.9, 1.1, size=8)
        comps = companion_form(np.array([random_stable_coeffs(rng, k, p, r) for r in scales]))
        self.assert_matches_eigen_solve(comps)
