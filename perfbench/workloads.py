"""Workload inputs and the chains that run them.

Each workload has a catalog of groups (one group = the videos generated for
one prompt) whose results on the seed commit are stored under
``reference/``. A run's seed draws a pool of groups from the catalog; the
held-out seed draws from catalog entries that no other seed can reach.

Inputs are generated here, outside every timing. The chains call the library
through module attributes (``scoring.score_video``, ``cli.main``, ...) so that
the traced run's wrappers, installed on those attributes, see every call.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from epigeo import cli, dataset, scoring, synth
from epigeo.features import FeatureParams

import pngenc

HELDOUT_SEED = 99991

# Settings of the acceptance gate (tests/test_acceptance.py), restated here
# so that the benchmark does not depend on test files.
PIXEL_PARAMS = scoring.ScoringParams(
    gaps=(1, 2),
    stride=1,
    min_matches=30,
    ransac_iterations=500,
    inlier_threshold=25.0,
    feature_params=FeatureParams(octaves=3, ratio_threshold=0.85),
)
CORR_PARAMS = scoring.ScoringParams(
    gaps=(2, 4),
    stride=4,
    min_matches=30,
    ransac_iterations=200,
    inlier_threshold=50.0,
)
LADDER_SIGMAS = (0.0, 0.5, 1.0, 2.0, 4.0)
DOT_SIGMAS = (0.0, 2.0)
DOT_FRAMES = 8

# Scores normalized by the image diagonal sit within 3e-5 of 1, so the
# default tau=0.05 emits no pairs at all (and `dpo-demo` then exits 1); every
# chain passes tau=0 so that pairs and DPO are exercised.
PAIR_TAU = 0.0

LADDER_DIAGONAL = float(np.hypot(640.0, 480.0))  # TrajectorySpec's default frame

# `epigeo score` flags for png_cli: PIXEL_PARAMS, with frames downscaled to 320
PNG_SCORE_FLAGS = [
    "--per-pair", "--check", "--max-dim", "320",
    "--gaps", *(str(g) for g in PIXEL_PARAMS.gaps),
    "--stride", str(PIXEL_PARAMS.stride),
    "--min-matches", str(PIXEL_PARAMS.min_matches),
    "--ransac-iterations", str(PIXEL_PARAMS.ransac_iterations),
    "--inlier-threshold", repr(PIXEL_PARAMS.inlier_threshold),
    "--octaves", str(PIXEL_PARAMS.feature_params.octaves),
    "--ratio-threshold", repr(PIXEL_PARAMS.feature_params.ratio_threshold),
]
CLI_OK = (0, 2)  # 2 = partial success (flagged video or skipped group)


@dataclass(frozen=True)
class Workload:
    name: str
    params: scoring.ScoringParams
    catalog: int      # entries any seed may draw
    heldout: int      # entries only the held-out seed draws
    pool: int         # groups per run

    def pool_entries(self, seed: int) -> list:
        if seed == HELDOUT_SEED:
            return list(range(self.catalog, self.catalog + self.heldout))
        return random.Random(f"{self.name}:{seed}").sample(range(self.catalog), self.pool)

    def all_entries(self) -> list:
        return list(range(self.catalog + self.heldout))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dots256", PIXEL_PARAMS, catalog=32, heldout=3, pool=3),
        Workload("ladder", CORR_PARAMS, catalog=96, heldout=20, pool=20),
        Workload("png_cli", PIXEL_PARAMS, catalog=24, heldout=2, pool=2),
    )
}


@dataclass
class UnitResult:
    """Outcome of one group's chain: timings, op counts and comparable results."""

    wall_s: float = 0.0
    video_s: list = field(default_factory=list)
    videos_ok: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    # comparable outputs, the same layout as the stored reference
    videos: dict = field(default_factory=dict)   # id -> {"error", "statuses"}
    ranking: list | None = None                  # best first; None if skipped
    pairs: list = field(default_factory=list)    # [winner, loser, score_gap]
    final_loss: float | None = None
    gt_order: list = field(default_factory=list)

    def outputs(self) -> dict:
        out = {"videos": self.videos, "ranking": self.ranking, "pairs": self.pairs}
        if self.final_loss is not None:
            out["final_loss"] = self.final_loss
        return out


# --------------------------------------------------------------------- inputs

def dot_video(scene_seed, sigma, width, height, focal, dot_sigma):
    """The criterion-10 slow-orbit dot video (288-frame circle, 8 rendered)."""
    scene = synth.generate_scene(120, extent=2.5, seed=scene_seed)
    spec = synth.TrajectorySpec(
        kind="orbit", n_frames=288, focal=focal, width=width, height=height,
        jitter_sigma=sigma,
    )
    cams = synth.camera_trajectory(spec)
    proj = synth.project_scene(scene, cams, spec, pairs=[])
    return synth.render_video(
        proj, spec, dot_sigma=dot_sigma, intensity_seed=scene_seed,
        texture_amplitude=0.02, frame_indices=range(DOT_FRAMES),
    )


def dots256_inputs(entry):
    return [
        (f"e{entry}_sigma{sigma:g}", dot_video(entry, sigma, 256, 256, 300.0, 3.0))
        for sigma in DOT_SIGMAS
    ]


def ladder_inputs(entry):
    """The criterion-5 jitter ladder: one scene, five jitter levels."""
    scene = synth.generate_scene(120, extent=2.5, seed=1000 + entry)
    pairs = scoring.frame_pairs(8, CORR_PARAMS.gaps, CORR_PARAMS.stride)
    out = []
    for sigma in LADDER_SIGMAS:
        spec = synth.TrajectorySpec(kind="orbit", n_frames=8, jitter_sigma=sigma)
        proj = synth.project_scene(scene, synth.camera_trajectory(spec), spec, pairs=pairs)
        out.append((f"e{entry}_sigma{sigma:g}", proj.pairs))
    return out


def png_cli_inputs(entry, unit_dir):
    """Write the group's 640x480 RGB PNG videos and its group manifest.

    Rendered at twice the criterion-10 focal length and dot size, so that
    after `--max-dim 320` features see dots like those of criterion 10.
    """
    if os.path.isdir(unit_dir):
        shutil.rmtree(unit_dir)
    ids = []
    for sigma in DOT_SIGMAS:
        vid = f"e{entry}_sigma{sigma:g}"
        ids.append(vid)
        vdir = os.path.join(unit_dir, "videos", vid)
        os.makedirs(vdir)
        for k, frame in enumerate(dot_video(entry, sigma, 640, 480, 600.0, 6.0)):
            gray = np.round(frame.pixels * 255.0).astype(np.uint8)
            rgb = np.repeat(gray[:, :, None], 3, axis=2)
            with open(os.path.join(vdir, f"frame_{k:03d}.png"), "wb") as fh:
                fh.write(pngenc.encode_png(rgb))
    manifest = {"groups": [{"prompt_id": f"png_cli-{entry}", "video_ids": ids}]}
    with open(os.path.join(unit_dir, "groups.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return ids


# --------------------------------------------------------------------- chains

def _rank_and_pair(prompt_id, scored, res):
    """In-memory `rank_group` then `build_pairs` on one scored group."""
    res.attempted += 2
    try:
        group = dataset.GenerationGroup(prompt_id, tuple(scored))
        try:
            res.ranking = [vid for vid, _ in dataset.rank_group(group)]
        except dataset.GroupSkipped:
            res.ranking = None
        pairs = dataset.build_pairs([group], tau=PAIR_TAU)
    except Exception as exc:  # a failed step is counted, reported and compared
        res.failed += 2
        res.errors.append(f"{prompt_id}: rank/pairs raised {exc!r}")
        return
    res.pairs = [[p.winner_id, p.loser_id, p.score_gap] for p in pairs]


def _record_video(res, vs):
    res.videos[vs.video_id] = {
        "error": vs.consistency_error,
        "statuses": [p.status for p in vs.pair_scores],
    }


def run_memory_unit(workload, entry, inputs) -> UnitResult:
    """dots256 / ladder: score each video, then rank and pair the group."""
    res = UnitResult(gt_order=[vid for vid, _ in inputs])
    scored = []
    t_unit = time.perf_counter()
    for vid, payload in inputs:
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            if workload == "ladder":
                vs = scoring.score_video_from_correspondences(
                    payload, CORR_PARAMS, video_id=vid, seed=1000 + entry,
                    diagonal=LADDER_DIAGONAL,
                )
            else:
                vs = scoring.score_video(payload, PIXEL_PARAMS, video_id=vid, seed=entry)
        except Exception as exc:  # counted as a failed video, never hidden
            res.failed += 1
            res.errors.append(f"{vid}: scoring raised {exc!r}")
            continue
        res.video_s.append(time.perf_counter() - t0)
        res.videos_ok += 1
        scored.append((vid, vs))
        _record_video(res, vs)
    if len(scored) >= 2:
        _rank_and_pair(f"{workload}-{entry}", scored, res)
    else:
        res.attempted += 2
        res.failed += 2
    res.wall_s = time.perf_counter() - t_unit
    return res


def cli_steps(entry, unit_dir):
    """The four `epigeo` invocations of one png_cli group, in order."""
    p = lambda name: os.path.join(unit_dir, name)  # noqa: E731
    return [
        ("score", ["score", p("videos"), "--output", p("scores.jsonl"),
                   "--seed", str(entry), *PNG_SCORE_FLAGS]),
        ("rank", ["rank", "--scores", p("scores.jsonl"), "--groups", p("groups.json"),
                  "--output", p("rank.jsonl"), "--check"]),
        ("pairs", ["pairs", "--scores", p("scores.jsonl"), "--groups", p("groups.json"),
                   "--output", p("pairs.jsonl"), "--check", "--tau", str(PAIR_TAU)]),
        ("dpo_demo", ["dpo-demo", "--pairs", p("pairs.jsonl"), "--out", p("dpo"),
                      "--check", "--seed", str(entry)]),
    ]


def run_cli_unit(entry, unit_dir, ids, span=None) -> UnitResult:
    """png_cli: score -> rank -> pairs -> dpo-demo through `epigeo.cli.main`.

    `span(name)` returns a context manager that records a span around each
    invocation; the traced run passes one, the untraced run passes None.
    """
    res = UnitResult(gt_order=list(ids))
    for name in ("scores.jsonl", "rank.jsonl", "pairs.jsonl", "dpo"):
        path = os.path.join(unit_dir, name)  # outputs of an earlier run of this group
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.remove(path)
    codes = {}
    t_unit = time.perf_counter()
    for name, argv in cli_steps(entry, unit_dir):
        if span is None:
            codes[name] = cli.main(argv)
        else:
            with span(f"cli.{name}"):
                codes[name] = cli.main(argv)
        if codes[name] not in CLI_OK:
            break
    res.wall_s = time.perf_counter() - t_unit

    n_videos = len(ids)
    res.attempted = n_videos + 3
    for name, _ in cli_steps(entry, unit_dir):
        code = codes.get(name)
        if code in CLI_OK:
            continue
        res.failed += n_videos if name == "score" else 1
        res.errors.append(f"png_cli-{entry}: `{name}` exit code {code}")
    if codes.get("score") in CLI_OK:
        res.videos_ok = n_videos
        res.video_s = [res.wall_s / n_videos] * n_videos
        _read_cli_outputs(unit_dir, res)
    return res


def _read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip() and not line.startswith("#")]


def _read_cli_outputs(unit_dir, res):
    for rec in _read_jsonl(os.path.join(unit_dir, "scores.jsonl")):
        res.videos[rec["video_id"]] = {
            "error": rec["consistency_error"],
            "statuses": [p["status"] for p in rec["pair_scores"]],
        }
    rank_path = os.path.join(unit_dir, "rank.jsonl")
    if os.path.exists(rank_path):
        (rec,) = _read_jsonl(rank_path)
        res.ranking = rec.get("ranking")
    pairs_path = os.path.join(unit_dir, "pairs.jsonl")
    if os.path.exists(pairs_path):
        res.pairs = [
            [p["winner_id"], p["loser_id"], p["score_gap"]] for p in _read_jsonl(pairs_path)
        ]
    params_path = os.path.join(unit_dir, "dpo", "final_params.json")
    if os.path.exists(params_path):
        with open(params_path, encoding="utf-8") as fh:
            res.final_loss = json.load(fh)["final_loss"]


# ----------------------------------------------------------------- comparison

REL_TOL = 1e-9
# Deviations are taken relative to max(|reference|, SCALE_FLOOR). The floor is
# the size of a small consistency error, so rounding noise on exact
# zero-jitter inputs (errors near 1e-32) cannot fail a run.
SCALE_FLOOR = 1e-6


def _rel_dev(got, want):
    if got is None or want is None:
        return 0.0 if got is None and want is None else float("inf")
    return abs(got - want) / max(abs(want), SCALE_FLOOR)


def compare(got: dict, want: dict):
    """Compare one unit's outputs with its stored reference.

    Returns (values compared, values matched, largest relative deviation of
    any float, list of mismatch descriptions). Floats match within REL_TOL
    (see SCALE_FLOOR); statuses, rankings and pair members must be equal.
    """
    checks = []  # (matched, rel_dev or None, description)

    def num(label, g, w):
        dev = _rel_dev(g, w)
        checks.append((dev <= REL_TOL, dev, f"{label}: got {g!r}, reference {w!r}"))

    def same(label, g, w):
        checks.append((g == w, None, f"{label}: got {g!r}, reference {w!r}"))

    same("video ids", sorted(got["videos"]), sorted(want["videos"]))
    for vid, w in want["videos"].items():
        g = got["videos"].get(vid, {"error": None, "statuses": None})
        num(f"{vid} consistency_error", g["error"], w["error"])
        same(f"{vid} pair statuses", g["statuses"], w["statuses"])
    same("ranking", got["ranking"], want["ranking"])
    same("pair members", [p[:2] for p in got["pairs"]], [p[:2] for p in want["pairs"]])
    for k, (g, w) in enumerate(zip(got["pairs"], want["pairs"])):
        num(f"pair {k} score_gap", g[2], w[2])
    if "final_loss" in want:
        num("dpo final_loss", got.get("final_loss"), want["final_loss"])

    devs = [d for ok, d, _ in checks if d is not None]
    max_dev = max(devs) if devs else 0.0
    mismatches = [desc for ok, _, desc in checks if not ok]
    return len(checks), len(checks) - len(mismatches), max_dev, mismatches
