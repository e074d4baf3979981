"""The chain's open failures on its one question, pinned as strict xfails.

Each test asserts the behaviour the chain should have, and its marker names
why it fails today. The change that mends that reason flips the test.
"""

import json

import numpy as np
import pytest

from conftest import rotation_y
from epigeo.cli import main
from epigeo.epipolar import CameraMatrix
from epigeo.image import Frame
from epigeo.records import ScoringParams, TrajectorySpec, read_jsonl
from epigeo.scoring import frame_pairs, score_video, score_video_from_correspondences
from epigeo.synth import generate_scene
from test_acceptance import PIXEL_PARAMS, dot_video

LADDER_SEEDS = (7, 8, 9)
LADDER_JITTERS = (0, 1, 2, 4)  # px


@pytest.fixture(scope="module")
def ladders(tmp_path_factory):
    """Default `synth` jitter ladders, one group per seed, scored at default flags."""
    root = tmp_path_factory.mktemp("ladders")
    for seed in LADDER_SEEDS:
        for jitter in LADDER_JITTERS:
            out = root / "videos" / f"s{seed}_j{jitter}"
            assert main(["synth", "--out", str(out), "--seed", str(seed), "--jitter", str(jitter)]) == 0
    assert main(["score", str(root / "videos"), "--output", str(root / "scores.jsonl")]) == 0
    groups = [{"prompt_id": f"s{seed}", "video_ids": [f"s{seed}_j{j}" for j in LADDER_JITTERS]}
              for seed in LADDER_SEEDS]
    (root / "groups.json").write_text(json.dumps({"groups": groups}))
    return root


def _inputs(root):
    return ["--scores", str(root / "scores.jsonl"), "--groups", str(root / "groups.json")]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 4 and 5: at default flags seed 7 ranks sigma = 4 px first")
def test_default_ladders_rank_in_jitter_order(ladders):
    assert main(["rank", *_inputs(ladders), "--output", str(ladders / "ranking.jsonl")]) == 0
    _, rankings = read_jsonl(ladders / "ranking.jsonl")
    for rec in rankings:
        assert rec["ranking"] == [f"{rec['prompt_id']}_j{j}" for j in LADDER_JITTERS], rec


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: score gaps stay below 3e-5, so the default tau emits no pair")
def test_default_pairs_feed_dpo_demo(ladders):
    assert main(["pairs", *_inputs(ladders), "--output", str(ladders / "pairs.jsonl")]) == 0
    _, pairs = read_jsonl(ladders / "pairs.jsonl")
    assert pairs, "default pairs emitted no preference pair"
    assert main(["dpo-demo", "--pairs", str(ladders / "pairs.jsonl"), "--out", str(ladders / "demo")]) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: sensor noise holds SSIM motion_level near 0.76, below 0.90")
def test_frozen_camera_with_sensor_noise_is_flagged():
    motion = {}
    for seed in range(4):
        still = dot_video(seed, 0.0)[0].pixels
        rng = np.random.default_rng(seed)
        frames = [Frame(np.clip(still + rng.normal(0.0, 0.02, still.shape), 0.0, 1.0)) for _ in range(8)]
        vs = score_video(frames, PIXEL_PARAMS, seed=seed)
        if not vs.flagged:
            motion[seed] = vs.motion_level
    assert not motion, f"unflagged frozen videos, by seed: motion_level {motion}"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: every minimal sample of a pure rotation is degenerate, so each "
                          "pair ends estimation_failed and the video reads insufficient_texture")
def test_clean_pan_gets_a_score_or_no_parallax():
    # correspondences only: a camera at distance 8 turning 2 degrees per frame
    scene = generate_scene(150, extent=2.5, seed=0)
    spec = TrajectorySpec()
    center = np.array([0.0, 0.0, -8.0])
    cams = [CameraMatrix(spec.intrinsics, r, -r @ center)
            for r in (rotation_y(np.radians(2.0 * k)) for k in range(spec.n_frames))]
    params = ScoringParams(gaps=(2, 4), stride=1, ransac_iterations=200, inlier_threshold=50.0)
    pair_points = {(i, j): (cams[i].project(scene.points3d)[0], cams[j].project(scene.points3d)[0])
                   for i, j in frame_pairs(spec.n_frames, params.gaps, params.stride)}
    vs = score_video_from_correspondences(pair_points, params, diagonal=np.hypot(spec.width, spec.height))
    statuses = [p.status for p in vs.pair_scores]
    assert vs.consistency_score is not None or "no_parallax" in statuses, statuses
