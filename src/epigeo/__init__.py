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
    records    settings, run config and result records, JSONL helpers (no NumPy)
    io         frame files: PGM encoding, decoding by path
    cli        `epigeo` command-line entry point

The names in ``__all__`` resolve on first access, each from the submodule
that defines it, so ``import epigeo`` loads no NumPy: the records come from
``records`` and only a numeric name imports its module.
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule behind each exported name; __all__ lists them in this order
_EXPORTS = {
    "image": ("Frame", "DecodeError", "decode_frame", "gaussian_blur", "motion_level", "ssim"),
    "features": ("extract_features", "match_frames"),
    "epipolar": (
        "CameraMatrix", "FundamentalMatrix",
        "DegenerateConfigurationError", "EstimationFailedError",
        "eight_point", "epipole", "fundamental_from_cameras", "normalize_points",
        "ransac_fundamental", "sampson_errors", "symmetric_epipolar_errors",
    ),
    "synth": ("Scene", "camera_trajectory", "generate_scene", "project_scene", "render_video"),
    "records": ("FeatureParams", "TrajectorySpec", "PairScore", "ScoringParams", "VideoScore"),
    "scoring": ("frame_pairs", "score_pair", "score_video", "score_video_from_correspondences"),
    "dataset": ("GenerationGroup", "GroupSkipped", "PreferencePair", "build_pairs", "rank_group"),
    "alignment": (
        "DpoBatchItem", "LinearVelocityModel", "beta_schedule", "flow_dpo_loss",
        "grad_check", "interpolate", "predict_clean", "reward_margin",
        "synthetic_preference_items", "target_velocity", "temporal_penalty",
        "total_loss", "total_loss_gradient", "toy_train",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    """Import an exported name's submodule on first access and bind the name."""
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
