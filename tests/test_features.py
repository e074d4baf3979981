"""Tests for scale space, keypoint detection, descriptors, and matching."""

import numpy as np
import pytest

from epigeo import features
from epigeo.features import (
    DESC_BLOCK_KEYPOINTS,
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


def one_descriptor(gx, gy, kp):
    """The former per-keypoint descriptor: np.add.at over eight trilinear corners."""
    height, width = gx.shape
    cos_t, sin_t = np.cos(kp.orientation), np.sin(kp.orientation)
    spacing = features.DESC_SAMPLE_SPACING * kp.sigma_local
    u = features._DESC_UU.ravel() * spacing
    v = features._DESC_VV.ravel() * spacing
    sx = kp.x_octave + cos_t * u - sin_t * v
    sy = kp.y_octave + sin_t * u + cos_t * v
    if sx.min() < 0 or sy.min() < 0 or sx.max() >= width - 1 or sy.max() >= height - 1:
        return None
    gxs = features._bilinear(gx, sx, sy)
    gys = features._bilinear(gy, sx, sy)
    mag = np.hypot(gxs, gys) * features._DESC_GAUSS
    ang = np.mod(np.arctan2(gys, gxs) - kp.orientation, 2.0 * np.pi)
    obin = ang / (2.0 * np.pi) * 8

    hist = np.zeros((4, 4, 8))
    r0 = np.floor(features._CELL_R).astype(int)
    c0 = np.floor(features._CELL_C).astype(int)
    o0 = np.floor(obin).astype(int)
    fr = features._CELL_R - r0
    fc = features._CELL_C - c0
    fo = obin - o0
    for dr, wr in ((0, 1 - fr), (1, fr)):
        rr = r0 + dr
        ok_r = (rr >= 0) & (rr < 4)
        for dc, wc in ((0, 1 - fc), (1, fc)):
            cc = c0 + dc
            ok = ok_r & (cc >= 0) & (cc < 4)
            for do, wo in ((0, 1 - fo), (1, fo)):
                oo = (o0 + do) % 8
                w = mag * wr * wc * wo
                np.add.at(hist, (rr[ok], cc[ok], oo[ok]), w[ok])
    vec = hist.ravel()
    norm = np.linalg.norm(vec)
    if norm < 1e-12:
        return None
    vec = np.minimum(vec / norm, features.DESC_CLIP)
    return vec / np.linalg.norm(vec)


def reference_descriptors(pyramid, keypoints):
    """(kept keypoints, descriptor rows, skipped) from one_descriptor, keypoint by keypoint."""
    kept, rows = [], []
    for kp in keypoints:
        gx, gy = features._gradients(pyramid.gaussians[kp.octave][kp.level])
        vec = one_descriptor(gx, gy, kp)
        if vec is not None:
            kept.append(kp)
            rows.append(vec)
    return kept, np.array(rows).reshape(-1, 128), len(keypoints) - len(kept)


def crowded_level(pyramid, n, seed):
    """n keypoints on octave 0, level 1, spread over the whole image, so some
    sample windows leave it; n exceeds one descriptor block."""
    rng = np.random.default_rng(seed)
    height, width = pyramid.gaussians[0][1].shape
    sigma = pyramid.sigma_local(1)
    xs, ys = rng.uniform(0, width - 1, n), rng.uniform(0, height - 1, n)
    return [
        Keypoint(x=x, y=y, scale=sigma, orientation=t, response=1.0, octave=0, level=1,
                 x_octave=x, y_octave=y, sigma_local=sigma)
        for x, y, t in zip(xs, ys, rng.uniform(0, 2 * np.pi, n))
    ]


class TestDescriptorsAgainstReference:
    @pytest.mark.parametrize("octaves", [1, 2, 3])
    def test_bit_identical_to_per_keypoint_loop(self, octaves):
        _, frame = dot_grid(n=50, seed=octaves)
        pyr = build_scale_space(frame, octaves=octaves)
        kps = detect_keypoints(pyr)
        # mixed levels and input order; the crowded level spans three blocks
        kps = kps + crowded_level(pyr, 2 * DESC_BLOCK_KEYPOINTS + 7, seed=octaves)
        kps = [kps[i] for i in np.random.default_rng(octaves).permutation(len(kps))]
        feats = compute_descriptors(pyr, kps)
        kept, rows, skipped = reference_descriptors(pyr, kps)
        assert skipped > 0 and len(kept) > 2 * DESC_BLOCK_KEYPOINTS
        assert [id(kp) for kp in feats.keypoints] == [id(kp) for kp in kept]
        assert feats.skipped == skipped
        assert np.array_equal(feats.descriptors, rows)

    def test_no_keypoints(self):
        _, frame = dot_grid(n=10)
        feats = compute_descriptors(build_scale_space(frame, octaves=1), [])
        assert feats.keypoints == [] and feats.skipped == 0
        assert feats.descriptors.shape == (0, 128)


def random_unit_descriptors(n, seed):
    rng = np.random.default_rng(seed)
    d = np.abs(rng.normal(size=(n, 128)))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def reference_matches(desc_a, desc_b, ratio_threshold=0.8, mutual=True):
    """The per-query loop match_descriptors replaced, kept as its reference.

    Returns (pairs, distances, ratios): an (M, 2) array of (index_a, index_b)
    rows and each match's best distance and ratio.
    """
    a = np.asarray(desc_a, dtype=np.float64)
    b = np.asarray(desc_b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        return np.empty((0, 2), dtype=np.intp), np.empty(0), np.empty(0)
    d2 = np.maximum(
        (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T),
        0.0,
    )
    nearest = d2.argmin(axis=1)
    best = np.linalg.norm(a - b[nearest], axis=1)
    if b.shape[0] >= 2:
        masked = d2.copy()
        masked[np.arange(len(a)), nearest] = np.inf
        second = np.sqrt(masked.min(axis=1))
    else:
        second = None
    if mutual:
        reverse = d2.argmin(axis=0)
    rows = []
    for i in range(len(a)):
        j = int(nearest[i])
        if second is None:
            ratio = 0.0
        elif second[i] > 0:
            ratio = float(best[i] / second[i])
        else:
            ratio = 0.0  # best and second both exact: treat as unambiguous
        if ratio >= ratio_threshold:
            continue
        if mutual and int(reverse[j]) != i:
            continue
        rows.append((i, j, float(best[i]), ratio))
    pairs = np.array([r[:2] for r in rows], dtype=np.intp).reshape(-1, 2)
    return pairs, np.array([r[2] for r in rows]), np.array([r[3] for r in rows])


class TestMatchDescriptors:
    def test_identity_matching(self):
        d = random_unit_descriptors(20, 1)
        # every best distance is exact, so every ratio is 0 and passes any threshold
        pairs = match_descriptors(d, d, ratio_threshold=1e-9, mutual=True)
        assert pairs.dtype == np.intp
        assert np.array_equal(pairs, np.column_stack([np.arange(20), np.arange(20)]))

    def test_noisy_identity_95_percent(self):
        a = random_unit_descriptors(100, 2)
        rng = np.random.default_rng(3)
        b = a + rng.normal(0, 0.01, a.shape)
        b = np.abs(b)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        pairs = match_descriptors(a, b, ratio_threshold=0.8, mutual=False)
        correct = int(np.count_nonzero(pairs[:, 0] == pairs[:, 1]))
        assert correct >= 95

    def test_single_pair_ratio_zero(self):
        a = random_unit_descriptors(1, 4)
        b = random_unit_descriptors(1, 5)
        # with no second neighbor the ratio is 0 and passes any threshold
        pairs = match_descriptors(a, b, ratio_threshold=1e-9)
        assert np.array_equal(pairs, [[0, 0]])

    def test_empty_sides(self):
        d = random_unit_descriptors(3, 6)
        for pairs in (match_descriptors(np.empty((0, 128)), d),
                      match_descriptors(d, np.empty((0, 128)))):
            assert pairs.shape == (0, 2) and pairs.dtype == np.intp

    def test_ratio_one_no_mutual_is_nearest_neighbor(self):
        a = random_unit_descriptors(30, 7)
        b = random_unit_descriptors(50, 8)
        pairs = match_descriptors(a, b, ratio_threshold=1.0, mutual=False)
        assert len(pairs) == 30

    def test_all_matches_respect_threshold(self):
        a = random_unit_descriptors(50, 9)
        b = random_unit_descriptors(50, 10)
        dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        second = np.sort(dist, axis=1)[:, 1]
        total = 0
        for thr in (0.6, 0.8, 0.95):
            pairs = match_descriptors(a, b, ratio_threshold=thr, mutual=False)
            ratios = dist[pairs[:, 0], pairs[:, 1]] / second[pairs[:, 0]]
            assert np.all(ratios < thr)
            total += len(pairs)
        assert total > 0

    def test_mutual_filter_subset(self):
        a = random_unit_descriptors(40, 11)
        b = random_unit_descriptors(40, 12)
        loose = {tuple(p) for p in match_descriptors(a, b, 0.95, mutual=False)}
        strict = {tuple(p) for p in match_descriptors(a, b, 0.95, mutual=True)}
        assert strict <= loose

    def test_bad_threshold(self):
        d = random_unit_descriptors(3, 13)
        with pytest.raises(ValueError):
            match_descriptors(d, d, ratio_threshold=0.0)
        with pytest.raises(ValueError):
            match_descriptors(d, d, ratio_threshold=1.5)


class TestMatchAgainstReference:
    @pytest.mark.parametrize("mutual", [True, False])
    @pytest.mark.parametrize("threshold", [0.6, 0.8, 1.0])
    def test_equals_reference_loop(self, threshold, mutual):
        rng = np.random.default_rng(int(threshold * 10) + 100 * mutual)
        sizes = [(0, 5), (5, 0), (1, 1), (1, 7), (7, 1), (2, 2), (40, 60), (300, 200)]
        sizes += [tuple(rng.integers(1, 120, size=2)) for _ in range(12)]
        for k, (n_a, n_b) in enumerate(sizes):
            a = random_unit_descriptors(n_a, 1000 + k)
            b = random_unit_descriptors(n_b, 2000 + k)
            if n_a and n_b and k % 2:
                # duplicate rows in b (best and second distances tie) and
                # queries equal to some of them (distance exactly 0)
                b[rng.integers(0, n_b, size=n_b // 3 + 1)] = b[0]
                a[: max(1, n_a // 4)] = b[0]
            expected, _, _ = reference_matches(a, b, threshold, mutual)
            pairs = match_descriptors(a, b, threshold, mutual)
            assert pairs.dtype == np.intp and pairs.shape == expected.shape
            assert np.array_equal(pairs, expected), (n_a, n_b)


class TestFeatureParams:
    @pytest.mark.parametrize("bad", [
        {"octaves": 0}, {"scales_per_octave": 2}, {"base_sigma": 0.0},
        {"contrast_threshold": -0.01}, {"edge_ratio_threshold": 0.0},
        {"ratio_threshold": 0.0}, {"ratio_threshold": 1.01}, {"max_keypoints": 0},
        {"max_dim": 15},
    ])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            FeatureParams(**bad)

    def test_accepts_limits(self):
        FeatureParams(octaves=1, scales_per_octave=3, contrast_threshold=0.0,
                      ratio_threshold=1.0, max_keypoints=1, max_dim=16)


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
        pa, pb, pairs = match_frames(feats, feats, params)
        assert len(pa) == len(pairs) == len(pb) > 0
        assert np.array_equal(pairs[:, 0], pairs[:, 1])
        positions = np.array([[kp.x, kp.y] for kp in feats.keypoints])
        assert np.array_equal(pa, positions[pairs[:, 0]])
        assert np.array_equal(pb, positions[pairs[:, 1]])
