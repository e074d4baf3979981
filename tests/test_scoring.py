"""Tests for frame-pair selection, pair scoring, and video aggregation."""

from dataclasses import fields

import numpy as np
import pytest

from epigeo import epipolar
from epigeo.features import FeatureParams, extract_features, match_frames
from epigeo.image import Frame
from epigeo.scoring import (
    STATUS_DEGENERATE,
    STATUS_ESTIMATION_FAILED,
    STATUS_OK,
    STATUS_TOO_FEW_MATCHES,
    PairScore,
    ScoringParams,
    VideoScore,
    _aggregate,
    frame_pairs,
    score_pair,
    score_video,
    score_video_from_correspondences,
)
from epigeo.synth import (
    TrajectorySpec,
    camera_trajectory,
    generate_scene,
    project_scene,
    render_video,
)

DIAG_DEFAULT = float(np.hypot(640.0, 480.0))

# fast settings for correspondence-level scoring in tests
CORR_PARAMS = ScoringParams(
    gaps=(2, 4),
    stride=4,
    min_matches=30,
    ransac_iterations=200,
    inlier_threshold=50.0,
)


def project_orbit(seed, sigma=0.0, n_frames=8, pairs=None, n_pts=100, **spec_kw):
    scene = generate_scene(n_pts, extent=2.5, seed=seed)
    spec = TrajectorySpec(kind="orbit", n_frames=n_frames, jitter_sigma=sigma, **spec_kw)
    cams = camera_trajectory(spec)
    return project_scene(scene, cams, spec, pairs=pairs), spec


def dot_video(seed, sigma=0.0, n_render=8, size=256):
    # slow orbit so neighbouring frames stay matchable
    scene = generate_scene(120, extent=2.5, seed=seed)
    spec = TrajectorySpec(
        kind="orbit", n_frames=288, focal=300.0, width=size, height=size,
        jitter_sigma=sigma,
    )
    cams = camera_trajectory(spec)
    proj = project_scene(scene, cams, spec, pairs=[])
    return render_video(
        proj, spec, dot_sigma=3.0, intensity_seed=seed,
        texture_amplitude=0.02, frame_indices=range(n_render),
    )


PIXEL_PARAMS = ScoringParams(
    gaps=(1, 2),
    stride=1,
    min_matches=30,
    ransac_iterations=500,
    inlier_threshold=25.0,
    feature_params=FeatureParams(octaves=3, ratio_threshold=0.85),
)


# ---------------------------------------------------------------- frame_pairs

def test_frame_pairs_gap_four_stride_two():
    assert frame_pairs(10, (4,), 2) == [(0, 4), (2, 6), (4, 8)]


def test_frame_pairs_minimal():
    assert frame_pairs(2, (1,), 1) == [(0, 1)]


def test_frame_pairs_oversized_gap_contributes_nothing():
    assert frame_pairs(5, (2, 9), 1) == [(0, 2), (1, 3), (2, 4)]
    assert frame_pairs(5, (9,), 1) == []


def test_frame_pairs_deduplicated_and_sorted():
    got = frame_pairs(8, (2, 2, 1), 3)
    assert got == sorted(set(got))
    assert got == [(0, 1), (0, 2), (3, 4), (3, 5), (6, 7)]


def test_frame_pairs_validation():
    with pytest.raises(ValueError):
        frame_pairs(1, (1,), 1)
    with pytest.raises(ValueError):
        frame_pairs(10, (), 1)
    with pytest.raises(ValueError):
        frame_pairs(10, (0,), 1)
    with pytest.raises(ValueError):
        frame_pairs(10, (2,), 0)


@pytest.mark.parametrize("args, name", [((8, (1, 2), 1.5), "stride"), ((8, (1, 2), True), "stride"),
                                        ((8.5, (1, 2), 1), "n_frames")])
def test_frame_pairs_rejects_non_integers(args, name):
    # 1.5 and 8.5 raised TypeError from range(), and True ran as stride 1
    with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
        frame_pairs(*args)


def test_frame_pairs_takes_integral_numbers():
    assert frame_pairs(8.0, (1, 2), np.int64(2)) == frame_pairs(8, (1, 2), 2)


# ------------------------------------------------------------------ invariants

def test_pair_score_inlier_count_bounded():
    with pytest.raises(ValueError):
        PairScore(0, 1, 10, 11, 0.1, 0.1, STATUS_OK)


def test_pair_score_stats_iff_ok():
    with pytest.raises(ValueError):
        PairScore(0, 1, 50, 40, None, None, STATUS_OK)
    with pytest.raises(ValueError):
        PairScore(0, 1, 50, 40, 0.1, 0.1, STATUS_TOO_FEW_MATCHES)


def test_video_score_invariants():
    with pytest.raises(ValueError):
        VideoScore("v", 1.0, 0.9, 0.5, 1, False, False)  # score != 1/(1+err)
    with pytest.raises(ValueError):
        VideoScore("v", None, 0.5, 0.5, 0, False, True)
    with pytest.raises(ValueError):
        VideoScore("v", -0.1, 1.0 / 0.9, 0.5, 1, False, False)
    with pytest.raises(ValueError):
        VideoScore("v", None, None, None, 0, True, True)  # near_static without motion


def test_scoring_params_validation():
    with pytest.raises(ValueError):
        ScoringParams(gaps=())
    with pytest.raises(ValueError):
        ScoringParams(gaps=(0,))
    with pytest.raises(ValueError):
        ScoringParams(stride=0)
    with pytest.raises(ValueError):
        ScoringParams(min_matches=4)
    with pytest.raises(ValueError):
        ScoringParams(aggregation="mode")
    with pytest.raises(ValueError):
        ScoringParams(static_threshold=0.0)
    with pytest.raises(ValueError):
        ScoringParams(inlier_threshold=0.0)


@pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
def test_non_finite_inlier_threshold_rejected(threshold):
    # a NaN threshold takes no inlier, so every pair would fail estimation
    # and the video be flagged as texture-poor instead of the setting
    with pytest.raises(ValueError, match="inlier_threshold must be positive and finite"):
        ScoringParams(inlier_threshold=threshold)


@pytest.mark.parametrize("gaps", [(1.5, 2.9), (2, 0.5), (float("nan"),), (float("inf"),), ("4",),
                                  (True, 4), 5, None])
def test_non_integral_gaps_rejected(gaps):
    with pytest.raises(ValueError, match="gaps must be integers"):
        ScoringParams(gaps=gaps)
    with pytest.raises(ValueError, match="gaps must be integers"):
        frame_pairs(10, gaps, 1)


def test_integral_gaps_become_ints():
    gaps = ScoringParams(gaps=(4.0, np.int64(8))).gaps
    assert gaps == (4, 8) and all(type(g) is int for g in gaps)


INT_FIELDS = [
    (ScoringParams, "stride"), (ScoringParams, "min_matches"),
    (ScoringParams, "ransac_iterations"), (FeatureParams, "octaves"),
    (FeatureParams, "scales_per_octave"), (FeatureParams, "max_keypoints"),
    (FeatureParams, "max_dim"), (TrajectorySpec, "n_frames"),
    (TrajectorySpec, "width"), (TrajectorySpec, "height"),
]


@pytest.mark.parametrize("cls, name", INT_FIELDS)
@pytest.mark.parametrize("value", [100.5, True, float("nan"), float("inf"), "100"])
def test_int_settings_reject_non_integers(cls, name, value):
    # a non-integral value failed deep in the pipeline or was kept silently
    with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", INT_FIELDS)
def test_integral_int_settings_become_ints(cls, name):
    given = getattr(cls(), name) or 100  # max_dim defaults to None
    for value in (float(given), np.int64(given)):
        got = getattr(cls(**{name: value}), name)
        assert got == given and type(got) is int


def _fields_of_type(kind):
    return [(cls, f.name) for cls in (FeatureParams, ScoringParams, TrajectorySpec)
            for f in fields(cls) if f.type == kind]


@pytest.mark.parametrize("cls, name", _fields_of_type("float"))
@pytest.mark.parametrize("value", ["0.5", True, None, [0.5]])
def test_float_settings_reject_other_types(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a real number, got"):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", [(cls, name) for cls, name in _fields_of_type("float")
                                       if float(getattr(cls(), name)).is_integer()])
def test_integral_float_settings_become_floats(cls, name):
    # so a config that spells 25.0 as 25 hashes alike
    given = getattr(cls(), name)
    got = getattr(cls(**{name: int(given)}), name)
    assert got == given and type(got) is float


@pytest.mark.parametrize("cls, name", _fields_of_type("bool"))
@pytest.mark.parametrize("value", [1, 0, "true", None])
def test_bool_settings_take_a_bool_only(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a bool, got"):
        cls(**{name: value})


@pytest.mark.parametrize("name", ["base_sigma", "contrast_threshold", "edge_ratio_threshold"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_feature_settings_rejected(name, value):
    # a NaN threshold keeps no keypoint, so every pair would lack matches and
    # the video be flagged as texture-poor instead of the setting
    with pytest.raises(ValueError, match=f"{name} must be .* finite, got"):
        FeatureParams(**{name: value})


# ------------------------------------------------- correspondence-level scoring

def test_clean_orbit_scores_ok_with_tiny_error():
    proj, spec = project_orbit(3, pairs=[(0, 2), (0, 4), (4, 6)])
    vs = score_video_from_correspondences(
        proj.pairs, CORR_PARAMS, video_id="clean", seed=3, diagonal=DIAG_DEFAULT
    )
    assert all(p.status == STATUS_OK for p in vs.pair_scores)
    assert vs.n_valid_pairs == 3
    assert vs.consistency_error < 1e-12
    assert vs.consistency_score == 1.0 / (1.0 + vs.consistency_error)
    assert not vs.near_static and not vs.insufficient_texture
    for p in vs.pair_scores:
        assert p.n_inliers == p.n_matches


def test_jitter_increases_consistency_error():
    pairs = [(0, 2), (0, 4), (4, 6)]
    errs = []
    for sigma in (0.0, 2.0):
        proj, _ = project_orbit(7, sigma=sigma, pairs=pairs)
        vs = score_video_from_correspondences(
            proj.pairs, CORR_PARAMS, seed=7, diagonal=DIAG_DEFAULT
        )
        errs.append(vs.consistency_error)
    assert errs[0] < errs[1]


def test_dynamic_points_increase_error():
    pairs = [(0, 1)]
    vals = {}
    for frac in (0.0, 0.4):
        scene = generate_scene(100, extent=2.5, seed=5)
        spec = TrajectorySpec(
            kind="orbit", n_frames=8, dynamic_fraction=frac, dynamic_speed=0.05
        )
        cams = camera_trajectory(spec)
        proj = project_scene(scene, cams, spec, pairs=pairs)
        vs = score_video_from_correspondences(
            proj.pairs, CORR_PARAMS, seed=5, diagonal=DIAG_DEFAULT
        )
        vals[frac] = vs.consistency_error
    assert vals[0.4] > vals[0.0]


def test_too_few_matches_status():
    proj, _ = project_orbit(1, pairs=[(0, 1)])
    a, b = proj.pairs[(0, 1)].as_arrays()
    vs = score_video_from_correspondences(
        {(0, 1): (a[:10], b[:10])}, CORR_PARAMS, diagonal=DIAG_DEFAULT
    )
    p = vs.pair_scores[0]
    assert p.status == STATUS_TOO_FEW_MATCHES
    assert p.n_matches == 10 and p.n_inliers == 0
    assert p.mean_inlier_sampson is None and p.median_inlier_sampson is None
    assert vs.consistency_error is None and vs.insufficient_texture


def test_zero_baseline_flagged_degenerate():
    rng = np.random.default_rng(0)
    pts = rng.uniform((0, 0), (640, 480), size=(60, 2))
    a = pts + rng.normal(0.0, 1e-4, size=pts.shape)
    b = pts + rng.normal(0.0, 1e-4, size=pts.shape)
    vs = score_video_from_correspondences(
        {(0, 1): (a, b)}, ScoringParams(), diagonal=DIAG_DEFAULT
    )
    assert vs.pair_scores[0].status == STATUS_DEGENERATE
    assert vs.consistency_error is None


def test_pair_seed_depends_only_on_indices():
    proj, _ = project_orbit(9, sigma=1.0, pairs=[(0, 2), (2, 4)])
    full = score_video_from_correspondences(proj.pairs, CORR_PARAMS, seed=9, diagonal=DIAG_DEFAULT)
    solo = score_video_from_correspondences(
        {(2, 4): proj.pairs[(2, 4)]}, CORR_PARAMS, seed=9, diagonal=DIAG_DEFAULT
    )
    full_pair = [p for p in full.pair_scores if (p.frame_i, p.frame_j) == (2, 4)][0]
    assert full_pair == solo.pair_scores[0]


def test_correspondence_scoring_deterministic():
    proj, _ = project_orbit(11, sigma=0.5, pairs=[(0, 2), (0, 4)])
    a = score_video_from_correspondences(proj.pairs, CORR_PARAMS, seed=4, diagonal=DIAG_DEFAULT)
    b = score_video_from_correspondences(proj.pairs, CORR_PARAMS, seed=4, diagonal=DIAG_DEFAULT)
    assert a == b


def test_memoized_ransac_draws_do_not_change_scores():
    # a criterion-5 ladder: five jitter levels of one scene share every
    # pair's RANSAC stream, so 12 of the group's 15 draws come from the memo
    scene = generate_scene(120, extent=2.5, seed=1003)
    pairs = frame_pairs(8, CORR_PARAMS.gaps, CORR_PARAMS.stride)
    videos = []
    for sigma in (0.0, 0.5, 1.0, 2.0, 4.0):
        spec = TrajectorySpec(kind="orbit", n_frames=8, jitter_sigma=sigma)
        proj = project_scene(scene, camera_trajectory(spec), spec, pairs=pairs)
        videos.append((f"sigma{sigma:g}", proj.pairs))

    def score_reversed():
        return [
            score_video_from_correspondences(
                corr, CORR_PARAMS, video_id=vid, seed=1003, diagonal=DIAG_DEFAULT)
            for vid, corr in reversed(videos)
        ]

    epipolar._ransac_samples.cache_clear()
    cold = score_reversed()
    info = epipolar._ransac_samples.cache_info()
    assert (info.hits, info.hits + info.misses) == (12, 15)
    assert score_reversed() == cold


@pytest.mark.parametrize("sigma, ranked", [
    (0.0, epipolar._FIRST_BLOCK),            # the first sample takes every point
    (4.0, CORR_PARAMS.ransac_iterations),    # no sample does
])
def test_ransac_stops_at_the_first_full_consensus(monkeypatch, sigma, ranked):
    # count the minimal samples each pair of a criterion-5 ladder video ranks
    scene = generate_scene(120, extent=2.5, seed=1003)
    spec = TrajectorySpec(kind="orbit", n_frames=8, jitter_sigma=sigma)
    pairs = frame_pairs(8, CORR_PARAMS.gaps, CORR_PARAMS.stride)
    proj = project_scene(scene, camera_trajectory(spec), spec, pairs=pairs)
    rows = []
    sample_stack = epipolar._sample_stack

    def counted(a, b):
        rows.append(len(a))
        return sample_stack(a, b)

    monkeypatch.setattr(epipolar, "_sample_stack", counted)
    score = score_video_from_correspondences(
        proj.pairs, CORR_PARAMS, seed=1003, diagonal=DIAG_DEFAULT)
    assert [p.status for p in score.pair_scores] == [STATUS_OK] * len(pairs)
    assert sum(rows) == ranked * len(pairs)


def test_diagonal_normalization_rescales_errors():
    proj, _ = project_orbit(13, sigma=1.0, pairs=[(0, 2)])
    on = score_video_from_correspondences(proj.pairs, CORR_PARAMS, seed=1, diagonal=DIAG_DEFAULT)
    off_params = ScoringParams(
        gaps=(2, 4), stride=4, min_matches=30, ransac_iterations=200,
        inlier_threshold=50.0, normalize_by_diagonal=False,
    )
    off = score_video_from_correspondences(proj.pairs, off_params, seed=1)
    assert on.pair_scores[0].n_inliers == off.pair_scores[0].n_inliers
    ratio = off.consistency_error / on.consistency_error
    assert ratio == pytest.approx(DIAG_DEFAULT**2, rel=0.05)


def test_normalization_requires_diagonal():
    proj, _ = project_orbit(1, pairs=[(0, 2)])
    with pytest.raises(ValueError):
        score_video_from_correspondences(proj.pairs, CORR_PARAMS, diagonal=None)


def test_aggregate_modes():
    vals = [1, 2, 3, 4, 5, 6, 7, 8, 9, 100]
    assert _aggregate(vals, "mean") == pytest.approx(14.5)
    assert _aggregate(vals, "median") == pytest.approx(5.5)
    assert _aggregate(vals, "trimmed_mean") == pytest.approx(5.5)  # drops 1 and 100
    assert _aggregate([3.0], "trimmed_mean") == 3.0


# ------------------------------------------------------------- pixel pipeline

def test_score_pair_rendered_orbit_clean():
    frames = dot_video(0, n_render=2)
    params = ScoringParams(
        gaps=(1,), stride=1, min_matches=30, ransac_iterations=500,
        inlier_threshold=1.0, normalize_by_diagonal=False,
        feature_params=FeatureParams(octaves=3, ratio_threshold=0.85),
    )
    p = score_pair(frames[0], frames[1], params)
    assert p.status == STATUS_OK
    assert p.mean_inlier_sampson < 0.5  # px^2
    assert p.n_inliers >= 30


def test_every_entry_point_scores_a_pair_alike():
    frames = dot_video(3, n_render=3, size=192)
    params = ScoringParams(
        gaps=(1, 2), stride=1, min_matches=16, ransac_iterations=200,
        inlier_threshold=25.0, feature_params=FeatureParams(octaves=2, ratio_threshold=0.85),
    )
    video = score_video(frames, params, seed=5)
    assert [p.status for p in video.pair_scores].count(STATUS_OK) >= 2
    feats = [extract_features(f, params.feature_params) for f in frames]
    matched = {
        (p.frame_i, p.frame_j): match_frames(feats[p.frame_i], feats[p.frame_j],
                                             params.feature_params)[:2]
        for p in video.pair_scores
    }
    corr = score_video_from_correspondences(matched, params, seed=5, diagonal=frames[0].diagonal)
    assert corr.pair_scores == video.pair_scores
    for p in video.pair_scores:
        assert score_pair(frames[p.frame_i], frames[p.frame_j], params,
                          p.frame_i, p.frame_j, seed=5) == p


def test_score_pair_dimension_mismatch():
    a = Frame(np.zeros((64, 64)))
    b = Frame(np.zeros((64, 128)))
    with pytest.raises(ValueError):
        score_pair(a, b)


def test_score_video_clean_below_jittered():
    clean = score_video(dot_video(1, sigma=0.0), PIXEL_PARAMS, video_id="clean", seed=1)
    jit = score_video(dot_video(1, sigma=2.0), PIXEL_PARAMS, video_id="jit", seed=1)
    ok_frac = lambda v: sum(p.status == STATUS_OK for p in v.pair_scores) / len(v.pair_scores)
    assert ok_frac(clean) >= 0.9
    assert ok_frac(jit) >= 0.9
    assert clean.consistency_error < jit.consistency_error


def test_score_video_identical_frames_near_static():
    frame = dot_video(2, n_render=1, size=128)[0]
    params = ScoringParams(
        gaps=(1,), stride=1, min_matches=20, ransac_iterations=100,
        feature_params=FeatureParams(octaves=2),
    )
    vs = score_video([frame] * 3, params, video_id="static", seed=0)
    assert vs.motion_level == pytest.approx(1.0)
    assert vs.near_static
    # zero-baseline pairs cannot produce a defined consistency value
    assert all(p.status in (STATUS_DEGENERATE, STATUS_ESTIMATION_FAILED) for p in vs.pair_scores)
    assert vs.consistency_error is None


def test_score_video_blank_frames_flag_insufficient_texture():
    frames = [Frame(np.zeros((64, 64))) for _ in range(3)]
    params = ScoringParams(
        gaps=(1,), stride=1, feature_params=FeatureParams(octaves=2)
    )
    vs = score_video(frames, params, video_id="blank", seed=0)
    assert vs.insufficient_texture
    assert vs.consistency_error is None and vs.consistency_score is None
    assert vs.n_valid_pairs == 0
    assert vs.near_static  # constant frames are also static


def test_score_video_input_validation():
    frame = Frame(np.zeros((64, 64)))
    with pytest.raises(ValueError):
        score_video([frame], ScoringParams())
    with pytest.raises(ValueError):
        score_video([frame, Frame(np.zeros((64, 32)))], ScoringParams())
