"""Tests for fundamental-matrix estimation and epipolar error measures."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epigeo import epipolar
from epigeo.epipolar import (
    CameraMatrix,
    DegenerateConfigurationError,
    EstimationFailedError,
    FundamentalMatrix,
    as_homogeneous,
    correspondence_arrays,
    eight_point,
    epipole,
    fundamental_from_cameras,
    normalize_points,
    ransac_fundamental,
    sampson_errors,
    skew,
    symmetric_epipolar_errors,
)

from conftest import K_DEFAULT, make_rig, project_box

CANONICAL_F = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])


def residuals(f, xa, xb):
    ha = as_homogeneous(xa)
    hb = as_homogeneous(xb)
    return np.einsum("ij,jk,ik->i", hb, f.m if isinstance(f, FundamentalMatrix) else f, ha)


def one_row(errors, f, x, xp):
    """(value, flag) of a single correspondence x <-> xp as a one-row set."""
    values, flagged = errors(f, [x], [xp])
    assert values.shape == flagged.shape == (1,)
    return float(values[0]), bool(flagged[0])


class TestTypes:
    def test_correspondence_homogenizes_2d(self):
        a, b = correspondence_arrays(([[3.0, 4.0]], [[10.0, 12.0, 2.0]]))
        np.testing.assert_array_equal(a, [[3, 4, 1]])
        np.testing.assert_array_equal(b, [[5, 6, 1]])

    def test_correspondence_rejects_bad_z(self):
        with pytest.raises(ValueError):
            correspondence_arrays(([[1, 2, 0]], [[0, 0, 1]]))

    def test_correspondence_rejects_nan(self):
        with pytest.raises(ValueError):
            correspondence_arrays(([[np.nan, 0, 1]], [[0, 0, 1]]))

    def test_fundamental_matrix_invariants(self):
        m = CANONICAL_F / np.linalg.norm(CANONICAL_F)
        f = FundamentalMatrix(m)
        assert f.method == "eight_point"
        with pytest.raises(ValueError):
            FundamentalMatrix(CANONICAL_F)  # norm sqrt(2), not 1
        full_rank = np.eye(3) / np.sqrt(3)
        with pytest.raises(ValueError):
            FundamentalMatrix(full_rank)

    def test_camera_matrix_invariants(self):
        cam = CameraMatrix(K_DEFAULT, np.eye(3), [1.0, 2.0, 3.0])
        assert cam.p.shape == (3, 4)
        np.testing.assert_allclose(cam.center, [-1, -2, -3])
        with pytest.raises(ValueError):
            CameraMatrix(np.tril(np.ones((3, 3))), np.eye(3), np.zeros(3))
        with pytest.raises(ValueError):
            CameraMatrix(K_DEFAULT, np.eye(3) * 1.1, np.zeros(3))


class TestNormalizePoints:
    def test_square_example(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        normed, t = normalize_points(pts)
        np.testing.assert_allclose(normed[:, :2].mean(axis=0), 0.0, atol=1e-15)
        mean_dist = np.linalg.norm(normed[:, :2], axis=1).mean()
        assert mean_dist == pytest.approx(np.sqrt(2.0), abs=1e-12)
        # T built from centroid (1,1) and scale sqrt(2)/mean distance
        scale = np.sqrt(2.0) / np.sqrt(2.0)  # mean distance of the square is sqrt(2)
        expected_t = np.array([[scale, 0, -scale], [0, scale, -scale], [0, 0, 1]])
        np.testing.assert_allclose(t, expected_t, atol=1e-12)

    def test_idempotent_up_to_similarity(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        normed, _ = normalize_points(pts)
        _, t2 = normalize_points(normed[:, :2])
        np.testing.assert_allclose(t2, np.eye(3), atol=1e-12)

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateConfigurationError):
            normalize_points(np.ones((5, 2)))

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            normalize_points(np.array([[1.0, 2.0]]))


class TestEightPoint:
    def test_exact_recovery_20_points(self, rig_points):
        cam_a, cam_b, xa, xb = rig_points
        f = eight_point((xa, xb))
        assert np.abs(residuals(f, xa, xb)).max() < 1e-9
        assert np.linalg.norm(f.m) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.svd(f.m, compute_uv=False)[2] < 1e-8

    def test_matches_camera_oracle(self, rig_points):
        cam_a, cam_b, xa, xb = rig_points
        f = eight_point((xa, xb))
        f_gt = fundamental_from_cameras(cam_a, cam_b)
        assert 1.0 - abs(np.sum(f.m * f_gt.m)) < 1e-8

    def test_minimal_eight(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 8, seed=3)
        f = eight_point((xa, xb))
        assert np.abs(residuals(f, xa, xb)).max() < 1e-9

    def test_too_few_points(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 7, seed=4)
        with pytest.raises(ValueError):
            eight_point((xa, xb))

    def test_planar_points_degenerate(self, rig):
        cam_a, cam_b = rig
        rng = np.random.default_rng(5)
        plane = rng.uniform(-2, 2, size=(8, 2))
        pts = np.column_stack([plane, np.full(8, 6.0)])
        xa, _ = cam_a.project(pts)
        xb, _ = cam_b.project(pts)
        with pytest.raises(DegenerateConfigurationError):
            eight_point((xa, xb))

    @pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                       reason="the degeneracy test reads s[:, -2], which is sigma_7 "
                       "of an 8-row design, not its smallest singular value")
    def test_repeated_correspondence_degenerate(self, rig):
        # a minimal sample with one correspondence twice has rank 7: a
        # two-dimensional null space, so F is not determined
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 8, seed=28)
        xa[7], xb[7] = xa[0], xb[0]
        with pytest.raises(DegenerateConfigurationError):
            eight_point((xa, xb))

    @pytest.mark.parametrize("n", [9, 120, 2000])
    def test_bytes_equal_full_matrices_svd(self, rig, n):
        # the solver skips the N x N U; s and Vt must not move
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, n, seed=29)
        xb = xb + np.random.default_rng(n).normal(0.0, 0.5, xb.shape)
        a, b = correspondence_arrays((xa, xb))
        design, Ta, Tb, ok = epipolar._normalized_design(a[None], b[None])
        _, s, vt = np.linalg.svd(design, full_matrices=True)
        assert s[0, 0] / s[0, -2] < epipolar.CONDITION_LIMIT
        want, _ = epipolar._rank_two(vt[:, -1], Ta, Tb, ok)
        assert eight_point((xa, xb)).m.tobytes() == want[0].tobytes()


class TestSampsonError:
    def test_canonical_half(self):
        # numerator (x'^T F x)^2 = 1; denominator (Fx)_2^2 + (F^T x')_2^2 = 2
        value, _ = one_row(sampson_errors, CANONICAL_F, [0.0, 0.0], [0.0, 1.0])
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_on_line_is_zero(self):
        # x' on the line Fx = (0,-1,0)
        assert one_row(sampson_errors, CANONICAL_F, [0.0, 0.0], [5.0, 0.0]) == (0.0, False)

    def test_scale_invariance(self):
        x, xp = [0.0, 0.0], [0.0, 1.0]
        assert (one_row(sampson_errors, 2.0 * CANONICAL_F, x, xp)
                == one_row(sampson_errors, CANONICAL_F, x, xp))

    def test_cap_and_flag_on_degenerate_denominator(self):
        # x at the right epipole and x' at the left epipole of this F
        f = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        value, flagged = one_row(sampson_errors, f, [0.0, 0.0], [0.0, 0.0])
        assert flagged and value == 1.0e6

    def test_batch_matches_scalar(self, rig_points):
        # each row of a batch equals its one-row call
        cam_a, cam_b, xa, xb = rig_points
        f = fundamental_from_cameras(cam_a, cam_b)
        xb_noisy = xb + 0.7
        for errors in (sampson_errors, symmetric_epipolar_errors):
            values, flagged = errors(f, xa, xb_noisy)
            assert not flagged.any()
            for i in range(len(xa)):
                value, flag = one_row(errors, f, xa[i], xb_noisy[i])
                assert not flag
                assert values[i] == pytest.approx(value, rel=1e-12)


def per_model_sampson(f, a, b):
    """Sampson errors of one F on (N, 3) z = 1 points, in the per-model form
    the block products must reproduce bit for bit."""
    fx = a @ f.T
    ftx = b @ f
    resid = np.einsum("ij,ij->i", b, fx)
    denom = fx[:, 0] ** 2 + fx[:, 1] ** 2 + ftx[:, 0] ** 2 + ftx[:, 1] ** 2
    flagged = denom < epipolar.DENOM_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(flagged, epipolar.SAMPSON_CAP, resid**2 / denom)
    return values, flagged


def per_set_design(a, b):
    """(design, Ta, Tb, ok) of one (N, 3) z = 1 correspondence set: Hartley
    normalization and the constraint rows written out column by column."""

    def normalize(pts):
        xy = pts[:, :2]
        centroid = xy.mean(axis=0)
        mean_dist = np.linalg.norm(xy - centroid, axis=1).mean()
        ok = mean_dist >= 1e-12
        s = np.sqrt(2.0) / (mean_dist if ok else 1.0)
        t = np.array([[s, 0.0, -s * centroid[0]], [0.0, s, -s * centroid[1]], [0.0, 0.0, 1.0]])
        return pts @ t.T, t, ok

    na, ta, ok_a = normalize(a)
    nb, tb, ok_b = normalize(b)
    design = np.empty((len(a), 9))
    design[:, 0] = nb[:, 0] * na[:, 0]
    design[:, 1] = nb[:, 0] * na[:, 1]
    design[:, 2] = nb[:, 0]
    design[:, 3] = nb[:, 1] * na[:, 0]
    design[:, 4] = nb[:, 1] * na[:, 1]
    design[:, 5] = nb[:, 1]
    design[:, 6] = na[:, 0]
    design[:, 7] = na[:, 1]
    design[:, 8] = 1.0
    return design, ta, tb, ok_a and ok_b


def z1_points(rng, n, scale):
    return np.hstack([rng.uniform(-1.0, 1.0, (n, 2)) * scale, np.ones((n, 1))])


class TestBlockArithmetic:
    """The ranking pass computes a block of models or samples in one call;
    each row must have the bits of its own per-model computation."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 600), n=st.integers(8, 300),
           log_scale=st.floats(-3.0, 3.0), at_epipole=st.integers(0, 3))
    @example(seed=0, k=1, n=8, log_scale=-3.0, at_epipole=1)
    @example(seed=1, k=16, n=120, log_scale=2.5, at_epipole=0)
    @example(seed=2, k=184, n=120, log_scale=2.5, at_epipole=2)  # a ladder block
    @example(seed=3, k=546, n=120, log_scale=3.0, at_epipole=0)  # a full block
    def test_sampson_block_equals_one_model_calls(self, seed, k, n, log_scale, at_epipole):
        # the claim covers the blocks RANSAC ranks, at most RANSAC_BLOCK_POINTS
        # model-point pairs; larger GEMMs may take another BLAS kernel
        k = min(k, epipolar.RANSAC_BLOCK_POINTS // n)
        rng = np.random.default_rng(seed)
        a, b = z1_points(rng, n, 10.0**log_scale), z1_points(rng, n, 10.0**log_scale)
        m = rng.normal(size=(k, 3, 3))
        # model 0 has both epipoles at the origin, where the first points sit:
        # their lines vanish, so those errors are flagged and capped
        m[0, :, 2] = m[0, 2, :] = 0.0
        a[:at_epipole] = b[:at_epipole] = (0.0, 0.0, 1.0)
        values, flagged = epipolar._sampson_stack(m, a, b)
        assert values.shape == flagged.shape == (k, n)
        assert flagged[0, :at_epipole].all()
        assert (values[0, :at_epipole] == epipolar.SAMPSON_CAP).all()
        for row in range(k):
            one_values, one_flagged = epipolar._sampson_stack(m[row : row + 1], a, b)
            want_values, want_flagged = per_model_sampson(m[row], a, b)
            assert values[row].tobytes() == one_values[0].tobytes() == want_values.tobytes(), row
            assert np.array_equal(flagged[row], one_flagged[0])
            assert np.array_equal(flagged[row], want_flagged)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 64), n=st.integers(8, 40),
           log_scale=st.floats(-3.0, 3.0), coincident=st.booleans())
    @example(seed=0, k=1, n=8, log_scale=0.0, coincident=True)
    @example(seed=1, k=184, n=8, log_scale=2.5, coincident=False)  # a ladder block's samples
    def test_batched_design_equals_per_set_normalization(self, seed, k, n, log_scale, coincident):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        a = np.stack([z1_points(rng, n, scale) + (rng.uniform(-3, 3) * scale, 0.0, 0.0)
                      for _ in range(k)])
        b = np.stack([z1_points(rng, n, scale) for _ in range(k)])
        if coincident:  # every point of the last set's image-B side coincides
            b[-1] = b[-1, 0]
        design, ta, tb, ok = epipolar._normalized_design(a, b)
        assert ok[-1] != coincident
        for row in range(k):
            want = per_set_design(a[row], b[row])
            assert design[row].tobytes() == want[0].tobytes(), row
            assert ta[row].tobytes() == want[1].tobytes()
            assert tb[row].tobytes() == want[2].tobytes()
            assert ok[row] == want[3]


class TestSymmetricEpipolarError:
    def test_hand_value(self):
        # x=(1,0,1): line Fx=(0,-1,0), d(x',line)^2=1; line F^T x'=(0,0,1) is
        # degenerate for x'=(0,1,1), so use the finite pair from the scalar oracle
        value, _ = one_row(symmetric_epipolar_errors, CANONICAL_F, [1.0, 0.0], [0.0, 1.0])
        assert value == pytest.approx(2.0, abs=1e-15)

    def test_on_line_zero(self):
        assert one_row(symmetric_epipolar_errors, CANONICAL_F, [0.0, 0.0], [5.0, 0.0]) == (0.0, False)

    def test_degenerate_line_flagged(self):
        f = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        # x at epipole: F x = 0
        value, flagged = one_row(symmetric_epipolar_errors, f, [0.0, 0.0], [3.0, 4.0])
        assert flagged and value == 1.0e6

    def test_dominates_sampson_on_random_cases(self, rig):
        cam_a, cam_b = rig
        f = fundamental_from_cameras(cam_a, cam_b)
        rng = np.random.default_rng(17)
        xa = rng.uniform(0, 640, size=(1000, 2))
        xb = rng.uniform(0, 480, size=(1000, 2))
        s_vals, s_flag = sampson_errors(f, xa, xb)
        e_vals, e_flag = symmetric_epipolar_errors(f, xa, xb)
        ok = ~(s_flag | e_flag)
        assert ok.all()
        assert np.all(e_vals[ok] >= s_vals[ok] - 1e-9)


class TestRansac:
    def test_all_exact_points(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 100, seed=21)
        f, mask = ransac_fundamental((xa, xb), iterations=200, seed=1)
        assert mask.all()
        f_gt = fundamental_from_cameras(cam_a, cam_b)
        assert 1.0 - abs(np.sum(f.m * f_gt.m)) < 1e-8
        assert f.inlier_count == 100

    def test_70_exact_30_outliers_seed_42(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 100, seed=22)
        rng = np.random.default_rng(99)
        out = rng.choice(100, size=30, replace=False)
        xb_corrupt = xb.copy()
        xb_corrupt[out] = rng.uniform((0, 0), (640, 480), size=(30, 2))
        f, mask = ransac_fundamental(
            (xa, xb_corrupt), iterations=2000, inlier_threshold=1.0, seed=42
        )
        true_inliers = np.ones(100, dtype=bool)
        true_inliers[out] = False
        recovered = (mask & true_inliers).sum() / true_inliers.sum()
        false_inliers = (mask & ~true_inliers).sum()
        assert recovered >= 0.95
        assert false_inliers <= 2

    def test_deterministic_mask(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 60, seed=23)
        xb = xb + np.random.default_rng(3).normal(0, 0.3, xb.shape)
        f1, m1 = ransac_fundamental((xa, xb), iterations=300, seed=7)
        f2, m2 = ransac_fundamental((xa, xb), iterations=300, seed=7)
        assert np.array_equal(m1, m2)
        assert np.array_equal(f1.m, f2.m)

    def test_block_size_does_not_change_result(self, rig, monkeypatch):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 40, seed=26)
        rng = np.random.default_rng(4)
        xb = xb + rng.normal(0, 1.0, xb.shape)
        xb[:8] = rng.uniform((0, 0), (640, 480), size=(8, 2))
        kwargs = dict(iterations=300, inlier_threshold=1.0, seed=16)
        f1, m1 = ransac_fundamental((xa, xb), **kwargs)
        monkeypatch.setattr(epipolar, "RANSAC_BLOCK_POINTS", 1)  # one iteration per block
        f2, m2 = ransac_fundamental((xa, xb), **kwargs)
        assert np.array_equal(m1, m2)
        assert np.array_equal(f1.m, f2.m)

    def test_draws_follow_the_ranking(self, rig, monkeypatch):
        # a noise-free pair stops at its first all-inlier sample, so at the
        # default 2000 iterations it draws only the 16 samples it ranks; a pair
        # with outliers draws the rest once ranking goes on
        drawn = []
        samples = epipolar._ransac_samples

        def spy(n, seed, start, stop):
            drawn.append(stop - start)
            return samples(n, seed, start, stop)

        monkeypatch.setattr(epipolar, "_ransac_samples", spy)
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 120, seed=21)
        _, mask = ransac_fundamental((xa, xb), iterations=2000, seed=3)
        assert mask.all()
        assert drawn == [epipolar._FIRST_BLOCK]
        drawn.clear()
        xb[:30] = np.random.default_rng(5).uniform((0, 0), (640, 480), size=(30, 2))
        _, mask = ransac_fundamental((xa, xb), iterations=2000, seed=3)
        assert 85 <= mask.sum() <= 92
        assert drawn == [epipolar._FIRST_BLOCK, 2000 - epipolar._FIRST_BLOCK]

    def test_seven_points_contract_error(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 7, seed=24)
        with pytest.raises(ValueError):
            ransac_fundamental((xa, xb))

    def test_hopeless_data_estimation_failure(self):
        rng = np.random.default_rng(31)
        xa = rng.uniform(0, 640, size=(12, 2))
        xb = rng.uniform(0, 480, size=(12, 2))
        with pytest.raises(EstimationFailedError):
            ransac_fundamental((xa, xb), iterations=50, inlier_threshold=1e-12, seed=5)

    def test_consensus_fit_on_all_only_when_every_point_stays(self, rig):
        # the stop's result stands only where it is the refit on all n points
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 20, seed=27)
        xb[-1] += (30.0, 0.0)
        a, b = correspondence_arrays((xa, xb))
        _, mask, on_all = epipolar._consensus_fit(a, b, np.arange(8), 1.0)
        assert mask.sum() == 19 and not on_all
        _, mask, on_all = epipolar._consensus_fit(a[:-1], b[:-1], np.arange(8), 1.0)
        assert mask.all() and on_all

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, rig, threshold):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 20, seed=25)
        with pytest.raises(ValueError, match="inlier_threshold must be finite"):
            ransac_fundamental((xa, xb), iterations=5, inlier_threshold=threshold)

    @pytest.mark.parametrize("iterations", [2.5, True, float("nan"), "5"])
    def test_non_integral_iterations_rejected(self, rig, iterations):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 20, seed=25)
        with pytest.raises(ValueError, match="iterations must be an integer"):
            ransac_fundamental((xa, xb), iterations=iterations)

    def test_integral_iterations_accepted(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 20, seed=25)
        f, mask = ransac_fundamental((xa, xb), iterations=5)
        g, same = ransac_fundamental((xa, xb), iterations=5.0)
        assert f.m.tobytes() == g.m.tobytes() and mask.tobytes() == same.tobytes()

    def test_negative_seed_rejected_as_by_numpy(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 20, seed=25)
        with pytest.raises(ValueError):
            ransac_fundamental((xa, xb), iterations=5, seed=-1)


    @staticmethod
    def stub_ransac(monkeypatch, special, on_all=True):
        """_ransac on stubbed stages: iteration i has `count` inliers, the
        points i, i+1, ..., each at `error`; blocks of 4 of 10 iterations on
        12 points. _consensus_fit returns the sample as F, with the given
        on_all. Returns (F, iterations ranked, samples fit)."""
        n, iterations = 12, 10
        solved = iter(range(iterations))
        fits = []

        def solve(a_s, b_s):
            models = np.zeros((len(a_s), 3, 3))
            models[:, 0, 0] = [next(solved) for _ in a_s]
            return models, np.ones(len(a_s), dtype=bool)

        def score(models, a, b):
            errors = np.full((len(models), n), 9.0)
            for row, i in enumerate(models[:, 0, 0].astype(int)):
                count, error = special.get(i, (3, 0.5))
                errors[row, (i + np.arange(count)) % n] = error
            return errors, np.zeros(errors.shape, dtype=bool)

        def fit(a, b, sample, inlier_threshold):
            fits.append(sample)
            return sample, None, on_all

        monkeypatch.setattr(epipolar, "_sample_stack", solve)
        monkeypatch.setattr(epipolar, "_sampson_stack", score)
        monkeypatch.setattr(epipolar, "_consensus_fit", fit)
        monkeypatch.setattr(epipolar, "RANSAC_BLOCK_POINTS", 4 * n)
        points = np.ones((n, 3))
        m, _ = epipolar._ransac(points, points, iterations, 1.0, 0)
        return m, iterations - len(list(solved)), fits

    @pytest.mark.parametrize("special, winner", [
        ({}, 0),                               # all tie: the earliest iteration
        ({6: (4, 0.5), 9: (4, 0.5)}, 6),       # most inliers, then the earliest
        ({7: (3, 0.25), 9: (3, 0.25)}, 7),     # lowest mean error, then the earliest
        ({2: (3, 0.25), 5: (4, 0.75)}, 5),     # count first, error second
        ({3: (12, 0.5), 6: (12, 0.25)}, 3),    # the first all-inlier stops the search
        ({5: (12, 0.5), 6: (12, 0.25)}, 5),    # ... also within one block
    ])
    def test_selection_rule(self, monkeypatch, special, winner):
        m, ranked, fits = self.stub_ransac(monkeypatch, special)
        want = reference_samples(12, 0, winner, winner + 1)[0]
        np.testing.assert_array_equal(m, want)
        assert len(fits) == 1
        # a stop ends the ranking with the stopped block (blocks 0-3, 4-7, 8-9)
        stopped = special.get(winner, (3, 0.5))[0] == 12
        assert ranked == (4 * (winner // 4 + 1) if stopped else 10)

    def test_fallback_ranks_on_in_the_same_pass(self, monkeypatch):
        # the first all-inlier sample does not end in the refit on all n:
        # ranking goes on from the next block, and the lowest mean error wins
        special = {3: (12, 0.5), 6: (12, 0.25), 9: (12, 0.25)}
        m, ranked, fits = self.stub_ransac(monkeypatch, special, on_all=False)
        np.testing.assert_array_equal(m, reference_samples(12, 0, 6, 7)[0])
        assert ranked == 10
        samples = reference_samples(12, 0, 0, 10)
        np.testing.assert_array_equal(fits, samples[[3, 6]])  # the stop is tried once


def reference_samples(n, seed, start, stop):
    """Per-iteration NumPy draws: row k is the sample of iteration start + k."""
    return np.array([
        np.random.default_rng(seed ^ i).choice(n, size=8, replace=False)
        for i in range(start, stop)
    ])


class TestRansacSamples:
    """The batched sampler against NumPy's own default_rng(seed ^ i).choice.

    Also the guard against a NumPy release that changes the stream of
    SeedSequence, PCG64 or Generator.choice (NEP 19 allows it).
    """

    def check(self, n, seed, start, stop):
        got = epipolar._ransac_samples(n, seed, start, stop)
        assert got.shape == (stop - start, 8)
        np.testing.assert_array_equal(got, reference_samples(n, seed, start, stop),
                                      err_msg=f"n={n} seed={seed} start={start}")
        return stop - start

    # n = 8 is redone by NumPy; 327/328 and 8192/8193 sit on either side of
    # a change of block size RANSAC_BLOCK_POINTS // n (200/199 and 8/7)
    @pytest.mark.parametrize("n", [8, 9, 120, 327, 328, 2000, 8192, 8193, 20000])
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5])
    def test_fixed_cases_in_ransac_blocks(self, n, seed):
        iterations = 300
        block = max(1, epipolar.RANSAC_BLOCK_POINTS // n)
        for start in range(0, iterations, block):
            self.check(n, seed, start, min(start + block, iterations))

    def test_random_cases(self):
        rng = np.random.default_rng(2024)
        cases = 0
        while cases < 100_000:
            n = int(rng.choice([rng.integers(9, 40), rng.integers(40, 2000),
                                rng.integers(2000, 30000)]))
            start = int(rng.integers(0, 5000))
            cases += self.check(n, int(rng.integers(0, 2**32)), start,
                                start + int(rng.integers(1, 600)))

    def test_rejection_case(self):
        # the first Floyd draw is on [0, 2**31], whose Lemire rejection
        # threshold is 2**31 - 1: about half of these iterations redraw
        self.check(2**31 + 8, 77, 1000, 1200)

    def test_memoized_draws_are_read_only(self):
        drawn = epipolar._ransac_samples(120, 5, 0, 200)
        assert epipolar._ransac_samples(120, 5, 0, 200) is drawn
        with pytest.raises(ValueError):
            drawn[0, 0] = 1


def reference_ransac(correspondences, iterations, inlier_threshold, seed):
    """Reference RANSAC: one Generator per iteration draws its sample, and a
    Python loop scans every candidate in iteration order."""
    a, b = epipolar.correspondence_arrays(correspondences)
    n = len(a)
    if n < 8:
        raise ValueError(f"need at least 8 correspondences, got {n}")

    def candidates():
        block = max(1, epipolar.RANSAC_BLOCK_POINTS // n)
        for start in range(0, iterations, block):
            stop = min(start + block, iterations)
            idx = np.array([
                np.random.default_rng(seed ^ i).choice(n, size=8, replace=False)
                for i in range(start, stop)
            ])
            models, ok = epipolar._eight_point_stack(a[idx], b[idx])
            errors, flagged = epipolar._sampson_stack(models, a, b)
            masks = (errors < inlier_threshold) & ~flagged
            counts = masks.sum(axis=1)
            for k in np.flatnonzero(ok & (counts > 0)):
                yield int(counts[k]), errors[k], masks[k], models[k]

    best = None
    for count, errors, mask, model in candidates():
        if best is None or count >= best[0]:
            mean_err = float(errors[mask].mean())
            if best is None or count > best[0] or mean_err < best[1]:
                best = (count, mean_err, mask, model)
    if best is None:
        raise EstimationFailedError("no RANSAC iteration produced a valid model")
    count, _, mask, model = best
    if count < 8:
        raise EstimationFailedError(
            f"best consensus has only {count} inliers (need at least 8)")
    try:
        refit = epipolar._eight_point_arrays(a[mask], b[mask])
    except DegenerateConfigurationError:
        refit = model
    errors, flagged = sampson_errors(refit, a, b)
    final_mask = (errors < inlier_threshold) & ~flagged
    if int(final_mask.sum()) < 8:
        final_mask, refit = mask, model
    return refit, final_mask


def random_ransac_case(rng, rig):
    """Matched points with noise, outliers and repeated rows, and a seed that
    is sometimes wider than 32 bits.

    One case in five is duplicate-heavy, as matches are when keypoints have
    several orientation peaks: about half the rows repeat another row, and
    up to 500 iterations run. Many of its minimal samples are rank-deficient.
    """
    cam_a, cam_b = rig
    n = int(rng.choice([rng.integers(8, 16), rng.integers(16, 200), rng.integers(200, 1501)]))
    xa, xb, _ = project_box(cam_a, cam_b, n, seed=int(rng.integers(1 << 30)))
    xb = xb + rng.normal(0.0, rng.choice([0.0, 0.3, 2.0]), xb.shape)
    out = rng.random(n) < rng.choice([0.0, 0.2, 0.6])
    xb[out] = rng.uniform((0, 0), (640, 480), size=(int(out.sum()), 2))
    iterations = int(rng.integers(1, 120))
    if rng.random() < 0.2:  # duplicate-heavy
        order = rng.permutation(n)
        dst, keep = order[: n // 2], order[n // 2 :]
        src = rng.choice(keep, size=len(dst))
        xa[dst], xb[dst] = xa[src], xb[src]
        iterations = int(rng.integers(1, 501))
    elif rng.random() < 0.3:  # repeated points
        src = rng.integers(0, n, size=n // 3)
        dst = rng.integers(0, n, size=n // 3)
        xa[dst], xb[dst] = xa[src], xb[src]
    seed = int(rng.integers(0, 2**32)) if rng.random() < 0.8 else int(rng.integers(1, 2**62))
    if rng.random() < 0.1:
        seed += 2**32
    kwargs = dict(iterations=iterations,
                  inlier_threshold=float(rng.choice([1e-6, 0.5, 1.0, 4.0])), seed=seed)
    return (xa, xb), kwargs


class TestRansacAgainstReference:
    def test_random_cases_byte_equal(self, rig, monkeypatch):
        # count the minimal samples the sample stage sends to the SVD
        svd_rows = []
        svd_null_vectors, sample_stack = epipolar._svd_null_vectors, epipolar._sample_stack

        def counted_svd(design):
            svd_rows.append(len(design))
            return svd_null_vectors(design)

        def sample_stage(*args):
            with monkeypatch.context() as m:
                m.setattr(epipolar, "_svd_null_vectors", counted_svd)
                return sample_stack(*args)

        monkeypatch.setattr(epipolar, "_sample_stack", sample_stage)
        rng = np.random.default_rng(606)
        outcomes = set()
        samples = 0
        for case in range(300):
            corr, kwargs = random_ransac_case(rng, rig)
            samples += kwargs["iterations"]
            try:
                want = reference_ransac(corr, **kwargs)
            except EstimationFailedError as exc:
                with pytest.raises(EstimationFailedError, match=re.escape(str(exc))):
                    ransac_fundamental(corr, **kwargs)
                outcomes.add("failed")
                continue
            f, mask = ransac_fundamental(corr, **kwargs)
            assert f.m.tobytes() == want[0].tobytes(), (case, kwargs)
            assert mask.tobytes() == want[1].tobytes(), (case, kwargs)
            assert f.inlier_count == int(want[1].sum())
            outcomes.add("all" if mask.all() else "some")
        assert outcomes == {"failed", "all", "some"}
        # both sides of QR_TRUST ran
        assert 0 < sum(svd_rows) < samples

    def test_random_cases_independent_of_block_size(self, rig, monkeypatch):
        # the block and draw sizes follow RANSAC_BLOCK_POINTS; F, the mask and
        # a failure's message must not
        rng = np.random.default_rng(707)
        partial_blocks = 0
        for case in range(32):
            corr, kwargs = random_ransac_case(rng, rig)
            outcomes = []
            for block_points in (1 << 16, 4096, 257, 64, 8):
                monkeypatch.setattr(epipolar, "RANSAC_BLOCK_POINTS", block_points)
                epipolar._ransac_samples.cache_clear()
                partial_blocks += kwargs["iterations"] % max(1, block_points // len(corr[0])) > 0
                try:
                    f, mask = ransac_fundamental(corr, **kwargs)
                    outcomes.append((f.m.tobytes(), mask.tobytes(), f.inlier_count))
                except EstimationFailedError as exc:
                    outcomes.append(str(exc))
            assert outcomes == [outcomes[0]] * len(outcomes), (case, kwargs)
        assert partial_blocks > 0

    def test_stop_falls_back_when_the_refit_drops_points(self, rig, monkeypatch):
        # n = 8 with 7 distinct points: the first all-inlier sample's refit
        # keeps 6 < 8 points, so that sample's result is not the refit on
        # all n, and ranking goes on in the same pass
        rng = np.random.default_rng(606)
        for _ in range(216):
            corr, kwargs = random_ransac_case(rng, rig)
        a, b = epipolar.correspondence_arrays(corr)
        assert len(a) == 8 and len(np.unique(np.hstack([a, b]), axis=0)) == 7
        assert kwargs == dict(iterations=77, inlier_threshold=4.0, seed=2790843369)
        refit = epipolar._eight_point_arrays(a, b)
        errors, flagged = sampson_errors(refit, a, b)
        assert int(((errors < 4.0) & ~flagged).sum()) == 6
        want = reference_ransac(corr, **kwargs)

        rows, fits = [], []
        sample_stack, consensus_fit = epipolar._sample_stack, epipolar._consensus_fit

        def counted(a_s, b_s):
            rows.append(len(a_s))
            return sample_stack(a_s, b_s)

        def recorded(*args):
            result = consensus_fit(*args)
            fits.append(result)
            return result

        monkeypatch.setattr(epipolar, "_sample_stack", counted)
        monkeypatch.setattr(epipolar, "_consensus_fit", recorded)
        f, mask = ransac_fundamental(corr, **kwargs)
        # the stop is tried on the first block's all-inlier sample, does not
        # hold, and every iteration is ranked once
        assert [on_all for _, _, on_all in fits] == [False, False]
        assert fits[0][0].tobytes() != want[0].tobytes()
        assert rows == [16, 61]  # 77 rows: each iteration ranked once
        assert f.m.tobytes() == want[0].tobytes()
        assert mask.tobytes() == want[1].tobytes()


class TestFundamentalFromCameras:
    def test_pure_translation_skew_form(self):
        cam_a = CameraMatrix(K_DEFAULT, np.eye(3), np.zeros(3))
        cam_b = CameraMatrix(K_DEFAULT, np.eye(3), [-1.0, 0.0, 0.0])
        f = fundamental_from_cameras(cam_a, cam_b)
        expected = skew(K_DEFAULT @ np.array([1.0, 0.0, 0.0]))
        expected /= np.linalg.norm(expected)
        if expected.ravel()[np.argmax(np.abs(expected))] < 0:
            expected = -expected
        np.testing.assert_allclose(f.m, expected, atol=1e-12)
        assert f.method == "from_cameras"

    def test_projection_oracle_500_points(self, rig):
        cam_a, cam_b = rig
        xa, xb, _ = project_box(cam_a, cam_b, 500, seed=26)
        f = fundamental_from_cameras(cam_a, cam_b)
        assert np.abs(residuals(f, xa, xb)).max() < 1e-10

    def test_swap_transposes_up_to_sign(self, rig):
        cam_a, cam_b = rig
        f_ab = fundamental_from_cameras(cam_a, cam_b).m
        f_ba = fundamental_from_cameras(cam_b, cam_a).m
        diff = min(np.linalg.norm(f_ab - f_ba.T), np.linalg.norm(f_ab + f_ba.T))
        assert diff < 1e-9

    def test_coincident_centers_error(self):
        cam_a = CameraMatrix(K_DEFAULT, np.eye(3), np.zeros(3))
        from conftest import rotation_y

        cam_b = CameraMatrix(K_DEFAULT, rotation_y(0.3), np.zeros(3))
        with pytest.raises(DegenerateConfigurationError):
            fundamental_from_cameras(cam_a, cam_b)


class TestEpipole:
    def test_pure_translation_at_infinity(self):
        cam_a = CameraMatrix(K_DEFAULT, np.eye(3), np.zeros(3))
        cam_b = CameraMatrix(K_DEFAULT, np.eye(3), [-1.0, 0.0, 0.0])
        f = fundamental_from_cameras(cam_a, cam_b)
        e = epipole(f, "right")
        assert e.at_infinity
        assert abs(e.point[2]) < 1e-12

    def test_null_space_property(self, rig):
        cam_a, cam_b = rig
        f = fundamental_from_cameras(cam_a, cam_b)
        e_left = epipole(f, "left")
        assert np.abs(f.m @ e_left.point).max() < 1e-10
        e_right = epipole(f, "right")
        assert np.abs(f.m.T @ e_right.point).max() < 1e-10

    def test_epipole_is_projected_center(self, rig):
        cam_a, cam_b = rig
        f = fundamental_from_cameras(cam_a, cam_b)
        e_left = epipole(f, "left")
        assert not e_left.at_infinity
        projected, _ = cam_a.project(cam_b.center[None, :])
        np.testing.assert_allclose(e_left.point[:2], projected[0], atol=1e-8)

    def test_bad_which(self):
        with pytest.raises(ValueError):
            epipole(CANONICAL_F / np.linalg.norm(CANONICAL_F), "up")


class TestNoiseMonotonicity:
    def test_mean_inlier_sampson_grows_with_noise(self, rig):
        cam_a, cam_b = rig
        f = fundamental_from_cameras(cam_a, cam_b)
        sigmas = [0.25, 0.5, 1.0, 2.0, 4.0]
        for trial in range(20):
            xa, xb, _ = project_box(cam_a, cam_b, 150, seed=100 + trial)
            noise_rng = np.random.default_rng(500 + trial)
            means = []
            for sigma in sigmas:
                xb_n = xb + noise_rng.normal(0.0, sigma, xb.shape)
                values, flagged = sampson_errors(f, xa, xb_n)
                means.append(values[~flagged].mean())
            assert all(a < b for a, b in zip(means, means[1:])), (trial, means)


def _malformed(case, xa, xb):
    """A correspondence set (or a wrong container for one) broken one way."""
    a, b = xa.copy(), xb.copy()
    if case == "nan":
        a[3, 0] = np.nan
    elif case == "inf":
        b[5, 1] = -np.inf
    elif case == "z_zero":
        a, b = as_homogeneous(a), as_homogeneous(b)
        b[2, 2] = 0.0
    elif case == "lengths_differ":
        b = b[:-1]
    elif case == "n_by_1":
        a, b = a[:, :1], b[:, :1]
    elif case == "n4_array":
        return np.hstack([a, b])
    elif case == "list_of_point_pairs":
        return [(p, q) for p, q in zip(a, b)]
    elif case == "list_of_two_arrays":
        return [a, b]
    else:
        raise AssertionError(case)
    return a, b


def _call(entry, corr, f):
    if entry in (eight_point, ransac_fundamental):
        return entry(corr)
    # the residual functions take the two sides as separate arguments; a
    # wrong container arrives as both of them
    return entry(f, *corr) if isinstance(corr, tuple) else entry(f, corr, corr)


class TestPublicBoundary:
    @pytest.mark.parametrize("case", [
        "nan", "inf", "z_zero", "lengths_differ", "n_by_1",
        "n4_array", "list_of_point_pairs", "list_of_two_arrays",
    ])
    @pytest.mark.parametrize("entry", [
        eight_point, ransac_fundamental, sampson_errors, symmetric_epipolar_errors,
    ], ids=lambda fn: fn.__name__)
    def test_rejects_malformed_set(self, rig_points, entry, case):
        cam_a, cam_b, xa, xb = rig_points
        f = fundamental_from_cameras(cam_a, cam_b)
        assert _call(entry, (xa, xb), f) is not None  # the unbroken set is accepted
        with pytest.raises((ValueError, TypeError)):
            _call(entry, _malformed(case, xa, xb), f)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [
        sampson_errors, symmetric_epipolar_errors, epipole,
    ], ids=lambda fn: fn.__name__)
    def test_rejects_non_finite_f(self, rig_points, entry, value):
        cam_a, cam_b, xa, xb = rig_points
        f = fundamental_from_cameras(cam_a, cam_b).m.copy()

        def call(m):
            return entry(m) if entry is epipole else entry(m, xa, xb)

        assert call(f) is not None  # the unbroken matrix is accepted
        f[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            call(f)


def _random_rig(rng):
    return make_rig(angle=rng.uniform(-0.4, 0.4),
                    center=rng.uniform((0.3, -0.5, -0.5), (1.5, 0.5, 0.5)))


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40),
           n=st.integers(1, 400), share=st.floats(0.0, 1.0))
    def test_tied_row_means_match_each_row_mean(self, seed, rows, n, share):
        # _ransac averages the rows tied at the top inlier count in one
        # reshape; every bit must equal the per-row mean it replaced
        rng = np.random.default_rng(seed)
        top = max(1, round(share * n))
        errors = rng.random((rows, n)) * 10.0 ** rng.integers(-12, 3, (rows, 1))
        masks = np.zeros((rows, n), dtype=bool)
        for mask in masks:
            mask[rng.choice(n, top, replace=False)] = True
        means = errors[masks].reshape(rows, top).mean(axis=1)
        for k in range(rows):
            assert means[k].tobytes() == errors[k][masks[k]].mean().tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 400),
           iterations=st.integers(1, 300), threshold=st.floats(1e-9, 100.0))
    def test_clean_sets_stop_byte_equal_to_full_search(self, seed, n, iterations, threshold):
        # noise- and outlier-free sets stop at their first all-inlier sample;
        # the result must be the full search's, bit for bit
        rng = np.random.default_rng(seed)
        cam_a, cam_b = _random_rig(rng)
        xa, xb, _ = project_box(cam_a, cam_b, n, seed=seed)
        kwargs = dict(iterations=iterations, inlier_threshold=threshold, seed=seed)
        f, mask = ransac_fundamental((xa, xb), **kwargs)
        want_f, want_mask = reference_ransac((xa, xb), **kwargs)
        assert f.m.tobytes() == want_f.tobytes()
        assert mask.tobytes() == want_mask.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sigma=st.floats(0.0, 3.0))
    def test_pair_swap_symmetry(self, seed, sigma):
        # x'^T F x = x^T F^T x', so swapping the sides and transposing F
        # leaves every residual unchanged up to rounding
        rng = np.random.default_rng(seed)
        cam_a, cam_b = _random_rig(rng)
        xa, xb, _ = project_box(cam_a, cam_b, 50, seed=seed)
        xb = xb + rng.normal(0.0, sigma, xb.shape)
        f = fundamental_from_cameras(cam_a, cam_b).m
        for errors in (sampson_errors, symmetric_epipolar_errors):
            values_ab, flagged_ab = errors(f, xa, xb)
            values_ba, flagged_ba = errors(f.T, xb, xa)
            assert np.array_equal(flagged_ab, flagged_ba)
            np.testing.assert_allclose(values_ba, values_ab, rtol=1e-8, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), angle=st.floats(-np.pi, np.pi),
           scale=st.floats(0.2, 5.0), tx=st.floats(-1000.0, 1000.0),
           ty=st.floats(-1000.0, 1000.0))
    def test_eight_point_similarity_invariance(self, seed, angle, scale, tx, ty):
        # Hartley normalization makes the estimate covariant with a
        # similarity T of the pixel frame: F' = T^-T F T^-1
        rng = np.random.default_rng(seed)
        cam_a, cam_b = _random_rig(rng)
        xa, xb, _ = project_box(cam_a, cam_b, 30, seed=seed)
        xb = xb + rng.normal(0.0, 0.5, xb.shape)
        c, s = scale * np.cos(angle), scale * np.sin(angle)
        t = np.array([[c, -s, tx], [s, c, ty], [0.0, 0.0, 1.0]])
        moved_a = as_homogeneous(xa) @ t.T
        moved_b = as_homogeneous(xb) @ t.T
        f = eight_point((xa, xb)).m
        t_inv = np.linalg.inv(t)
        expected = epipolar._canonicalize((t_inv.T @ f @ t_inv)[None])[0]
        moved_f = eight_point((moved_a[:, :2], moved_b[:, :2])).m
        np.testing.assert_allclose(moved_f, expected, rtol=0, atol=1e-9)
