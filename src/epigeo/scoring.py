"""Per-video 3D consistency scoring.

A video is scored by sampling frame pairs at fixed index gaps, estimating a
fundamental matrix for each pair from matched features, and aggregating the
mean Sampson error of the surviving inliers.  Low aggregate error means the
frames are explainable by a single rigid two-view geometry; high error means
the content wobbles, deforms, or teleports.

Two entry points cover the two kinds of input: :func:`score_video` runs the
full pixel pipeline (features -> matching -> RANSAC), while
:func:`score_video_from_correspondences` accepts already-paired points so the
geometric statistics can be studied without detector noise.  Both score
each pair with the same estimator, so a pair's status and statistics mean
the same on either path.
"""

from __future__ import annotations

import numpy as np

from .epipolar import (
    DegenerateConfigurationError,
    EstimationFailedError,
    ransac_fundamental,
    sampson_errors,
)
from .features import extract_features, match_frames
from .image import Frame, motion_level
from .records import (
    STATUS_DEGENERATE,
    STATUS_ESTIMATION_FAILED,
    STATUS_OK,
    STATUS_TOO_FEW_MATCHES,
    PairScore,
    ScoringParams,
    VideoScore,
    _as_type,
    validated_gaps,
)

# Zero-baseline detection: a pair is degenerate when nearly every match is an
# inlier, the fit is numerically perfect, and the matched points barely moved.
DEGENERATE_INLIER_RATIO = 0.99
DEGENERATE_MEDIAN_ERROR = 1e-6
DEGENERATE_CENTROID_SHIFT = 0.5  # px

TRIM_FRACTION = 0.10


def frame_pairs(n_frames, gaps, stride=1):
    """Frame index pairs (i, i+g) for each gap g, starting indices on a stride.

    Gaps at least as large as the frame count contribute nothing.  The result
    is deduplicated and sorted.
    """
    n_frames = _as_type("n_frames", n_frames, "int")
    stride = _as_type("stride", stride, "int")
    if n_frames < 2:
        raise ValueError("need at least 2 frames")
    gaps = validated_gaps(gaps)
    if stride < 1:
        raise ValueError("stride must be >= 1")
    pairs = set()
    for g in gaps:
        for i in range(0, n_frames - g, stride):
            pairs.add((i, i + g))
    return sorted(pairs)


def _pair_seed(seed, i, j):
    # one independent RANSAC stream per (video seed, frame i, frame j)
    return int(np.random.SeedSequence([int(seed), int(i), int(j)]).generate_state(1)[0])


def _score_matched_points(pts_a, pts_b, params, frame_i, frame_j, seed, diagonal):
    """Shared estimation path: matched point arrays -> PairScore."""
    pts_a = np.asarray(pts_a, dtype=np.float64)
    pts_b = np.asarray(pts_b, dtype=np.float64)
    n_matches = len(pts_a)
    if n_matches < params.min_matches:
        return PairScore(frame_i, frame_j, n_matches, 0, None, None, STATUS_TOO_FEW_MATCHES)

    threshold = params.inlier_threshold
    a, b = pts_a, pts_b
    if params.normalize_by_diagonal:
        if diagonal is None:
            raise ValueError("diagonal required when normalize_by_diagonal is on")
        a = pts_a / diagonal
        b = pts_b / diagonal
        threshold = threshold / diagonal**2

    try:
        model, mask = ransac_fundamental(
            (a, b),
            iterations=params.ransac_iterations,
            inlier_threshold=threshold,
            seed=_pair_seed(seed, frame_i, frame_j),
        )
    except (DegenerateConfigurationError, EstimationFailedError):
        return PairScore(frame_i, frame_j, n_matches, 0, None, None, STATUS_ESTIMATION_FAILED)

    # the mask holds at least 8 points, none of them flagged under the model
    inlier_errors = sampson_errors(model.m, a, b)[0][mask]
    n_inliers = len(inlier_errors)
    mean_err = float(np.mean(inlier_errors))
    median_err = float(np.median(inlier_errors))
    if (
        n_inliers / n_matches > DEGENERATE_INLIER_RATIO
        and median_err < DEGENERATE_MEDIAN_ERROR
        and np.linalg.norm(pts_a.mean(axis=0) - pts_b.mean(axis=0)) < DEGENERATE_CENTROID_SHIFT
    ):
        return PairScore(frame_i, frame_j, n_matches, n_inliers, None, None, STATUS_DEGENERATE)

    return PairScore(frame_i, frame_j, n_matches, n_inliers, mean_err, median_err, STATUS_OK)


def _check_frames(frames):
    """Reject fewer than 2 frames, or frames of differing dimensions."""
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    shape = frames[0].pixels.shape
    for k, f in enumerate(frames):
        if f.pixels.shape != shape:
            raise ValueError(f"frame {k} dimensions differ from frame 0")


def score_pair(
    frame_a: Frame,
    frame_b: Frame,
    params: ScoringParams | None = None,
    frame_i=0,
    frame_j=1,
    seed=0,
):
    """Score one frame pair through the full feature pipeline."""
    params = params or ScoringParams()
    _check_frames([frame_a, frame_b])
    feats_a = extract_features(frame_a, params.feature_params)
    feats_b = extract_features(frame_b, params.feature_params)
    pts_a, pts_b, _ = match_frames(feats_a, feats_b, params.feature_params)
    return _score_matched_points(
        pts_a, pts_b, params, frame_i, frame_j, seed, frame_a.diagonal
    )


def _aggregate(values, mode):
    values = np.sort(np.asarray(values, dtype=np.float64))
    if mode == "mean":
        return float(values.mean())
    if mode == "median":
        return float(np.median(values))
    # trimmed mean: drop the outer TRIM_FRACTION from each tail
    k = int(TRIM_FRACTION * len(values))
    core = values[k : len(values) - k] if k else values
    return float(core.mean())


def _assemble_video_score(video_id, pair_results, motion, params, config_hash):
    ok = [p for p in pair_results if p.status == STATUS_OK]
    too_few = sum(1 for p in pair_results if p.status == STATUS_TOO_FEW_MATCHES)
    near_static = motion is not None and motion > params.static_threshold
    insufficient = not ok or (pair_results and too_few > 0.5 * len(pair_results))
    if ok:
        error = _aggregate([p.mean_inlier_sampson for p in ok], params.aggregation)
        score = 1.0 / (1.0 + error)
    else:
        error = None
        score = None
    return VideoScore(
        video_id=video_id,
        consistency_error=error,
        consistency_score=score,
        motion_level=motion,
        n_valid_pairs=len(ok),
        near_static=near_static,
        insufficient_texture=bool(insufficient),
        config_hash=config_hash,
        pair_scores=tuple(pair_results),
    )


def score_video(
    frames,
    params: ScoringParams | None = None,
    video_id="video",
    seed=0,
    config_hash=None,
):
    """Score a whole video from its frames.

    Features are extracted once per frame that participates in any pair.
    Per-pair RANSAC randomness derives from (seed, i, j) only, so pair order
    cannot change results.
    """
    params = params or ScoringParams()
    frames = list(frames)
    _check_frames(frames)

    motion = motion_level(frames)
    pairs = frame_pairs(len(frames), params.gaps, params.stride)

    feats = {}
    for i, j in pairs:
        for k in (i, j):
            if k not in feats:
                feats[k] = extract_features(frames[k], params.feature_params)

    results = []
    for i, j in pairs:
        pts_a, pts_b, _ = match_frames(feats[i], feats[j], params.feature_params)
        results.append(_score_matched_points(
            pts_a, pts_b, params, i, j, seed, frames[0].diagonal))
    return _assemble_video_score(video_id, results, motion, params, config_hash)


def score_video_from_correspondences(
    pair_points,
    params: ScoringParams | None = None,
    video_id="video",
    seed=0,
    diagonal=None,
    config_hash=None,
):
    """Score a video from already-matched point pairs.

    ``pair_points`` maps (i, j) frame index pairs to a correspondence set:
    a (points_a, points_b) tuple of (N, 2) pixel arrays, or an object such
    as ``synth.CorrespondenceSet`` whose ``as_arrays()`` returns that tuple.
    No matching or detection runs, so this isolates the geometric statistics
    from feature noise.  There are no frames to measure motion on, so
    ``motion_level`` is None and the near-static flag stays off.
    """
    params = params or ScoringParams()
    results = []
    for (i, j) in sorted(pair_points):
        value = pair_points[(i, j)]
        if hasattr(value, "as_arrays"):
            pts_a, pts_b = value.as_arrays()
        else:
            pts_a, pts_b = value
        results.append(
            _score_matched_points(pts_a, pts_b, params, i, j, seed, diagonal)
        )
    return _assemble_video_score(video_id, results, None, params, config_hash)
