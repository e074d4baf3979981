"""Epipolar-geometry consistency scoring for frame sequences.

The pipeline: detect and match blob features between frame pairs, robustly
estimate the fundamental matrix, and summarize the surviving reprojection
error as a per-video consistency score. On top of that sit group ranking,
preference-pair construction, and a small flow-matching preference objective
with a verified analytic gradient.

Submodules
    image      frame container, PGM/PNG decoding, blur, SSIM
    features   scale-space keypoints, descriptors, matching
    epipolar   eight-point estimation, Sampson error, RANSAC
    synth      ground-truth scenes, trajectories, rendering
    scoring    pairwise estimation -> per-video consistency scores
    dataset    ranking and preference-pair emission
    alignment  preference loss, gradients, toy trainer
    io         PGM/JSONL serialization helpers
    cli        `epigeo` command-line entry point
"""

__version__ = "0.1.0"

from .alignment import (
    DpoBatchItem,
    LinearVelocityModel,
    beta_schedule,
    flow_dpo_loss,
    grad_check,
    interpolate,
    predict_clean,
    reward_margin,
    synthetic_preference_items,
    target_velocity,
    temporal_penalty,
    total_loss,
    total_loss_gradient,
    toy_train,
)
from .dataset import (
    GenerationGroup,
    GroupSkipped,
    PreferencePair,
    build_pairs,
    rank_group,
)
from .epipolar import (
    CameraMatrix,
    DegenerateConfigurationError,
    EstimationFailedError,
    FundamentalMatrix,
    eight_point,
    epipole,
    fundamental_from_cameras,
    normalize_points,
    ransac_fundamental,
    sampson_errors,
    symmetric_epipolar_errors,
)
from .features import FeatureParams, extract_features, match_frames
from .image import Frame, DecodeError, decode_frame, gaussian_blur, motion_level, ssim
from .scoring import (
    PairScore,
    ScoringParams,
    VideoScore,
    frame_pairs,
    score_pair,
    score_video,
    score_video_from_correspondences,
)
from .synth import (
    Scene,
    TrajectorySpec,
    camera_trajectory,
    generate_scene,
    project_scene,
    render_video,
)

__all__ = [
    "__version__",
    "Frame", "DecodeError", "decode_frame", "gaussian_blur", "motion_level", "ssim",
    "FeatureParams", "extract_features", "match_frames",
    "CameraMatrix", "FundamentalMatrix",
    "DegenerateConfigurationError", "EstimationFailedError",
    "eight_point", "epipole", "fundamental_from_cameras", "normalize_points",
    "ransac_fundamental", "sampson_errors", "symmetric_epipolar_errors",
    "Scene", "TrajectorySpec", "camera_trajectory", "generate_scene",
    "project_scene", "render_video",
    "PairScore", "ScoringParams", "VideoScore", "frame_pairs",
    "score_pair", "score_video", "score_video_from_correspondences",
    "GenerationGroup", "GroupSkipped", "PreferencePair", "build_pairs", "rank_group",
    "DpoBatchItem", "LinearVelocityModel", "beta_schedule", "flow_dpo_loss",
    "grad_check", "interpolate", "predict_clean", "reward_margin",
    "synthetic_preference_items", "target_velocity", "temporal_penalty",
    "total_loss", "total_loss_gradient", "toy_train",
]
