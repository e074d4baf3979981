"""The benchmark tracer still measures every layer of the pixel path.

perfbench/spans.py records spans by replacing library functions at the names
their callers look up, and reads some of their arguments by name. A renamed
function or argument leaves its layer unmeasured, and a changed call path can
break its coverage check. This runs score_video under that tracer on a few
small rendered frames, decoded from PGM files, so both show up here.
"""

import pathlib
import sys

import pytest

from epigeo import io, scoring
from epigeo.features import FeatureParams
from epigeo.synth import (
    TrajectorySpec,
    camera_trajectory,
    generate_scene,
    project_scene,
    render_video,
)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402

PARAMS = scoring.ScoringParams(
    gaps=(1, 2),
    stride=1,
    min_matches=16,
    ransac_iterations=200,
    inlier_threshold=25.0,
    feature_params=FeatureParams(octaves=2, ratio_threshold=0.85, max_dim=160),
)


@pytest.fixture(scope="module")
def frame_paths(tmp_path_factory):
    # a slow orbit, so neighbouring frames stay matchable
    spec = TrajectorySpec(kind="orbit", n_frames=288, focal=240.0, width=192, height=192)
    projected = project_scene(generate_scene(100, extent=2.5, seed=3),
                              camera_trajectory(spec), spec, pairs=[])
    frames = render_video(projected, spec, intensity_seed=3, texture_amplitude=0.02,
                          frame_indices=range(4))
    out = tmp_path_factory.mktemp("trace_frames")
    paths = [out / f"frame_{k:03d}.pgm" for k in range(len(frames))]
    for frame, path in zip(frames, paths):
        io.write_pgm(frame, path)
    return paths


def test_score_video_spans_cover_every_layer(frame_paths):
    tracer = spans.library_tracer()
    tracer.install()
    try:
        # through the module attributes the tracer replaces
        video = scoring.score_video(io.load_frames(frame_paths), PARAMS, video_id="dots")
    finally:
        tracer.uninstall()
    assert tracer.unmeasured == {}
    assert spans.check_coverage(tracer.spans, PARAMS.min_matches) == []
    names = {span[0] for span in tracer.spans}
    assert {"io.load_frame", "image.decode", "image.resize", "image.ssim",
            "features.pyramid", "features.detect", "features.describe",
            "features.match", "epipolar.ransac", "epipolar.sampson",
            "scoring.video"} <= names
    metrics = spans.layer_metrics(tracer.spans, tracer.unmeasured)
    assert None not in metrics.values()
    assert metrics["scoring.pairs"] == len(video.pair_scores) == 5
    assert metrics["scoring.pair_status.ok"] > 0
    assert metrics["epipolar.ransac_calls"] == sum(
        p.n_matches >= PARAMS.min_matches for p in video.pair_scores)
