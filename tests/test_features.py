"""Tests for scale space, keypoint detection, descriptors, and matching."""

import numpy as np
import pytest

from epigeo.features import (
    FeatureParams,
    Keypoint,
    build_scale_space,
    compute_descriptors,
    detect_keypoints,
    extract_features,
    match_descriptors,
    match_frames,
)
from epigeo.image import Frame
from epigeo.synth import render_dots


def dot_grid(n=50, size=256, spacing=28, jitter=4.0, seed=5, dot_sigma=3.0, tex=0.02):
    """Rendered grid of dots with known centers."""
    rng = np.random.default_rng(seed)
    margin = 30
    axis = np.arange(margin, size - margin + 1, spacing)
    gx, gy = np.meshgrid(axis, axis)
    centers = np.column_stack([gx.ravel(), gy.ravel()]).astype(float)[:n]
    centers += rng.uniform(-jitter, jitter, centers.shape)
    frame = render_dots(
        centers, size, size, dot_sigma=dot_sigma, intensity_seed=seed,
        texture_amplitude=tex,
    )
    return centers, frame


class TestBuildScaleSpace:
    def test_sigma_schedule(self):
        f = Frame(np.zeros((256, 256)))
        pyr = build_scale_space(f, octaves=3, scales_per_octave=3, base_sigma=1.6)
        assert pyr.sigma_abs(1, 0) == pytest.approx(3.2)
        assert pyr.sigma_abs(0, 3) == pytest.approx(3.2)
        assert pyr.sigma_abs(2, 2) == pytest.approx(1.6 * 2 ** (2 + 2 / 3))
        assert len(pyr.gaussians[0]) == 6  # S + 3 levels
        assert len(pyr.dogs[0]) == 5

    def test_downsampling_shapes(self):
        pyr = build_scale_space(Frame(np.zeros((256, 192))), octaves=3)
        assert pyr.gaussians[0][0].shape == (256, 192)
        assert pyr.gaussians[1][0].shape == (128, 96)
        assert pyr.gaussians[2][0].shape == (64, 48)

    def test_constant_image_zero_dog(self):
        pyr = build_scale_space(Frame(np.full((256, 256), 0.5)), octaves=3)
        worst = max(np.abs(d).max() for octave in pyr.dogs for d in octave)
        assert worst < 1e-12

    def test_too_small_suggests_fewer_octaves(self):
        with pytest.raises(ValueError, match="fewer octaves"):
            build_scale_space(Frame(np.zeros((100, 500))), octaves=4)
        # the same frame is fine with 2 octaves
        build_scale_space(Frame(np.zeros((100, 500))), octaves=2)

    def test_blob_scale_selection(self):
        # analytic center response of a sigma_b blob through blur sigma is
        # amp * sigma_b^2 / (sigma_b^2 + sigma^2); pick the DoG level pair
        # maximizing the difference and compare with the pyramid's argmax
        blob_sigma = 4.0
        yy, xx = np.mgrid[0:256, 0:256].astype(float)
        img = np.exp(-((xx - 128) ** 2 + (yy - 128) ** 2) / (2 * blob_sigma**2))
        pyr = build_scale_space(Frame(img), octaves=3, scales_per_octave=3)

        def analytic(sig):
            return blob_sigma**2 / (blob_sigma**2 + sig**2)

        best_analytic = max(
            (
                abs(analytic(pyr.sigma_abs(o, s)) - analytic(pyr.sigma_abs(o, s + 1))),
                pyr.sigma_abs(o, s),
            )
            for o in range(3)
            for s in range(5)
        )
        best_measured = max(
            (abs(pyr.dogs[o][s][128 >> o, 128 >> o]), pyr.sigma_abs(o, s))
            for o in range(3)
            for s in range(5)
        )
        # same level up to the duplicated sigma at octave boundaries,
        # allowing one grid step for sampling effects
        ratio = best_measured[1] / best_analytic[1]
        assert 2 ** (-1 / 3) - 1e-9 <= ratio <= 2 ** (1 / 3) + 1e-9

    def test_parameter_validation(self):
        f = Frame(np.zeros((256, 256)))
        with pytest.raises(ValueError):
            build_scale_space(f, octaves=0)
        with pytest.raises(ValueError):
            build_scale_space(f, scales_per_octave=2)


class TestDetectKeypoints:
    def test_constant_image_empty(self):
        pyr = build_scale_space(Frame(np.full((256, 256), 0.3)), octaves=3)
        assert detect_keypoints(pyr) == []

    def test_dot_grid_recall(self):
        centers, frame = dot_grid(n=50)
        pyr = build_scale_space(frame, octaves=3)
        kps = detect_keypoints(pyr)
        positions = np.array([[kp.x, kp.y] for kp in kps])
        hits = 0
        for c in centers:
            d = np.linalg.norm(positions - c, axis=1)
            if d.min() <= 1.5:
                hits += 1
        assert hits >= 40

    def test_keypoint_invariants(self):
        _, frame = dot_grid(n=50)
        pyr = build_scale_space(frame, octaves=3)
        for kp in detect_keypoints(pyr, contrast_threshold=0.03):
            assert 0 <= kp.x < frame.width and 0 <= kp.y < frame.height
            assert kp.scale > 0
            assert kp.response > 0.03
            assert 0 <= kp.orientation < 2 * np.pi

    def test_step_edge_rejected(self):
        img = np.zeros((256, 256))
        img[:, 128:] = 1.0
        pyr = build_scale_space(Frame(img), octaves=3)
        kps = detect_keypoints(pyr, edge_ratio_threshold=10.0)
        on_edge = [kp for kp in kps if abs(kp.x - 128) < 6 and 20 < kp.y < 236]
        assert on_edge == []

    def test_max_keypoints_cap(self):
        _, frame = dot_grid(n=50)
        pyr = build_scale_space(frame, octaves=3)
        kps = detect_keypoints(pyr, max_keypoints=10)
        assert len(kps) == 10
        full = detect_keypoints(pyr, max_keypoints=100000)
        top = sorted(full, key=lambda k: -k.response)[:10]
        assert [k.response for k in kps] == [k.response for k in top]

    def test_translation_equivariance(self):
        centers, frame = dot_grid(n=25, size=256, spacing=40, seed=8)
        shift = (13, 7)  # (dy, dx)
        rolled = Frame(np.roll(frame.pixels, shift, axis=(0, 1)))
        kps_a = detect_keypoints(build_scale_space(frame, octaves=3))
        kps_b = detect_keypoints(build_scale_space(rolled, octaves=3))
        pos_b = np.array([[kp.x, kp.y] for kp in kps_b])
        margin = 40
        checked = 0
        for kp in kps_a:
            tx, ty = kp.x + shift[1], kp.y + shift[0]
            if not (margin < kp.x < 256 - margin and margin < kp.y < 256 - margin):
                continue
            if not (margin < tx < 256 - margin and margin < ty < 256 - margin):
                continue
            d = np.linalg.norm(pos_b - [tx, ty], axis=1)
            assert d.min() <= 0.5
            checked += 1
        assert checked >= 10


class TestComputeDescriptors:
    def test_norms_and_clip(self):
        _, frame = dot_grid(n=50)
        pyr = build_scale_space(frame, octaves=3)
        feats = compute_descriptors(pyr, detect_keypoints(pyr))
        assert len(feats.descriptors) > 0
        norms = np.linalg.norm(feats.descriptors, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-6)
        assert feats.descriptors.min() >= 0
        assert feats.descriptors.max() <= 1.0

    def test_rotation_covariance_90_degrees(self):
        rng = np.random.default_rng(5)
        centers = rng.uniform(40, 216, size=(40, 2))
        img = render_dots(centers, 256, 256, dot_sigma=2.5, intensity_seed=3,
                          texture_amplitude=0.02)
        pyr = build_scale_space(img, octaves=3)
        feats = compute_descriptors(pyr, detect_keypoints(pyr))
        rot = Frame(np.rot90(img.pixels))
        pyr_r = build_scale_space(rot, octaves=3)
        size = 256
        compared = 0
        for kp, desc in list(zip(feats.keypoints, feats.descriptors))[:40]:
            oct_size = size // 2**kp.octave
            kp_r = Keypoint(
                x=kp.y, y=size - 1 - kp.x, scale=kp.scale,
                orientation=(kp.orientation - np.pi / 2) % (2 * np.pi),
                response=kp.response, octave=kp.octave, level=kp.level,
                x_octave=kp.y_octave, y_octave=oct_size - 1 - kp.x_octave,
                sigma_local=kp.sigma_local,
            )
            out = compute_descriptors(pyr_r, [kp_r])
            if len(out.descriptors):
                assert np.linalg.norm(desc - out.descriptors[0]) < 0.15
                compared += 1
        assert compared >= 20

    def test_uniform_gradient_single_bin_per_cell(self):
        ramp = np.tile(np.linspace(0.0, 1.0, 64), (64, 1))
        pyr = build_scale_space(Frame(ramp), octaves=1)
        kp = Keypoint(x=32, y=32, scale=1.6, orientation=0.0, response=1.0,
                      octave=0, level=1, x_octave=32, y_octave=32, sigma_local=1.6)
        feats = compute_descriptors(pyr, [kp])
        d = feats.descriptors[0].reshape(4, 4, 8)
        assert (d.argmax(axis=2) == 0).all()
        assert d[:, :, 1:].sum() < 1e-9

    def test_window_off_image_skipped(self):
        _, frame = dot_grid(n=50)
        pyr = build_scale_space(frame, octaves=1)
        kp = Keypoint(x=1.0, y=1.0, scale=1.6, orientation=0.0, response=1.0,
                      octave=0, level=1, x_octave=1.0, y_octave=1.0, sigma_local=1.6)
        feats = compute_descriptors(pyr, [kp])
        assert feats.skipped == 1
        assert len(feats.keypoints) == 0


def random_unit_descriptors(n, seed):
    rng = np.random.default_rng(seed)
    d = np.abs(rng.normal(size=(n, 128)))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


class TestMatchDescriptors:
    def test_identity_matching(self):
        d = random_unit_descriptors(20, 1)
        matches = match_descriptors(d, d, ratio_threshold=0.8, mutual=True)
        assert len(matches) == 20
        for m in matches:
            assert m.index_a == m.index_b
            assert m.distance == 0.0
            assert m.ratio == 0.0

    def test_noisy_identity_95_percent(self):
        a = random_unit_descriptors(100, 2)
        rng = np.random.default_rng(3)
        b = a + rng.normal(0, 0.01, a.shape)
        b = np.abs(b)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        matches = match_descriptors(a, b, ratio_threshold=0.8, mutual=False)
        correct = sum(1 for m in matches if m.index_a == m.index_b)
        assert correct >= 95

    def test_single_pair_ratio_zero(self):
        a = random_unit_descriptors(1, 4)
        b = random_unit_descriptors(1, 5)
        matches = match_descriptors(a, b, ratio_threshold=0.8)
        assert len(matches) == 1
        assert matches[0].ratio == 0.0

    def test_empty_sides(self):
        d = random_unit_descriptors(3, 6)
        assert match_descriptors(np.empty((0, 128)), d) == []
        assert match_descriptors(d, np.empty((0, 128))) == []

    def test_ratio_one_no_mutual_is_nearest_neighbor(self):
        a = random_unit_descriptors(30, 7)
        b = random_unit_descriptors(50, 8)
        matches = match_descriptors(a, b, ratio_threshold=1.0, mutual=False)
        assert len(matches) == 30

    def test_all_matches_respect_threshold(self):
        a = random_unit_descriptors(50, 9)
        b = random_unit_descriptors(50, 10)
        for thr in (0.6, 0.8, 0.95):
            for m in match_descriptors(a, b, ratio_threshold=thr, mutual=False):
                assert m.ratio < thr

    def test_mutual_filter_subset(self):
        a = random_unit_descriptors(40, 11)
        b = random_unit_descriptors(40, 12)
        loose = {(m.index_a, m.index_b) for m in match_descriptors(a, b, 0.95, mutual=False)}
        strict = {(m.index_a, m.index_b) for m in match_descriptors(a, b, 0.95, mutual=True)}
        assert strict <= loose

    def test_bad_threshold(self):
        d = random_unit_descriptors(3, 13)
        with pytest.raises(ValueError):
            match_descriptors(d, d, ratio_threshold=0.0)
        with pytest.raises(ValueError):
            match_descriptors(d, d, ratio_threshold=1.5)


class TestExtractAndCache:
    def test_extract_features_pipeline(self):
        _, frame = dot_grid(n=30, size=192, spacing=24)
        feats = extract_features(frame, FeatureParams(octaves=3))
        assert len(feats.keypoints) == len(feats.descriptors)
        assert len(feats.keypoints) > 10

    def test_max_dim_rescales_coordinates(self):
        # dots big enough to stay detectable after the 2x downscale
        centers, frame = dot_grid(n=30, size=256, spacing=28, dot_sigma=6.0)
        full = extract_features(frame, FeatureParams(octaves=3))
        half = extract_features(frame, FeatureParams(octaves=2, max_dim=128))
        assert len(half.keypoints) > 5
        pos_full = np.array([[kp.x, kp.y] for kp in full.keypoints])
        close = 0
        for kp in half.keypoints:
            d = np.linalg.norm(pos_full - [kp.x, kp.y], axis=1)
            if d.min() < 2.0:
                close += 1
        assert close >= len(half.keypoints) * 0.6

    def test_match_frames_returns_points(self):
        _, frame = dot_grid(n=30, size=192, spacing=24)
        params = FeatureParams(octaves=3)
        feats = extract_features(frame, params)
        pa, pb, matches = match_frames(feats, feats, params)
        assert len(pa) == len(matches) == len(pb)
        assert all(m.index_a == m.index_b for m in matches)
