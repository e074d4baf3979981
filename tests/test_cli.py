"""End-to-end tests for the command-line interface.

Runs main() in process: return values are exit codes, argparse usage errors
surface as SystemExit(64).
"""

import json
import os
import struct
import subprocess
import sys
import threading
import zlib
from dataclasses import fields

import numpy as np
import pytest

from epigeo import cli
from epigeo.alignment import LinearVelocityModel, synthetic_preference_items
from epigeo.cli import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    RunConfig,
    _carries,
    build_parser,
    check_jsonl,
    collect_videos,
    config_overrides,
    load_config,
    main,
)
from epigeo.image import Frame
from epigeo.io import read_jsonl, write_jsonl, write_pgm
from epigeo.records import TrajectorySpec
from epigeo.synth import camera_trajectory

SCORE_FLAGS = [
    "--gaps", "1", "2", "--stride", "1", "--ransac-iterations", "300",
    "--inlier-threshold", "25", "--octaves", "3", "--ratio-threshold", "0.85",
    "--min-matches", "16", "--seed", "7",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scene directories, a static video, and one scored manifest."""
    ws = tmp_path_factory.mktemp("cliws")
    common = ["--kind", "dolly", "--frames", "6", "--points", "110",
              "--width", "192", "--height", "192", "--focal", "260"]
    assert main(["synth", "--out", str(ws / "clean"), "--seed", "11"] + common) == EXIT_OK
    assert main(["synth", "--out", str(ws / "shaky"), "--seed", "11",
                 "--jitter", "1.0"] + common) == EXIT_OK

    static = ws / "static"
    static.mkdir()
    src = (ws / "clean" / "frames" / "frame_000.pgm").read_bytes()
    for i in range(4):
        (static / f"frame_{i:03d}.pgm").write_bytes(src)

    manifest = {
        "videos": [
            {"id": "clean", "dir": "clean/frames"},
            {"id": "shaky", "dir": "shaky/frames"},
            {"id": "static", "dir": "static"},
        ]
    }
    (ws / "manifest.json").write_text(json.dumps(manifest))
    (ws / "groups.json").write_text(json.dumps({
        "groups": [
            {"prompt_id": "p0", "video_ids": ["clean", "shaky"]},
            {"prompt_id": "p1", "video_ids": ["clean", "static"]},
        ]
    }))

    # static member is flagged, so the whole run reports partial success
    code = main(["score", str(ws / "manifest.json"),
                 "--output", str(ws / "scores.jsonl"), "--per-pair"] + SCORE_FLAGS)
    assert code == EXIT_PARTIAL
    return ws


def scores_by_id(path):
    header, records = read_jsonl(path)
    return header, {rec["video_id"]: rec for rec in records}


# ----------------------------------------------------------------- exit codes

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("epigeo ")


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["score", "--bogus-flag", "x"])
    assert exc.value.code == EXIT_USAGE


def test_missing_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_USAGE


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_missing_input_is_fatal(tmp_path, capsys):
    code = main(["score", str(tmp_path / "nope"),
                 "--output", str(tmp_path / "out.jsonl")])
    assert code == EXIT_FATAL
    assert "error:" in capsys.readouterr().err


def test_empty_input_dir_is_fatal(tmp_path, capsys):
    code = main(["score", str(tmp_path), "--output", str(tmp_path / "out.jsonl")])
    assert code == EXIT_FATAL
    assert "no frames" in capsys.readouterr().err


def test_removed_flags_are_usage_errors(tmp_path):
    for argv in (["score", str(tmp_path), "--output", "o.jsonl", "--threads", "2"],
                 ["rank", "--scores", "s", "--groups", "g", "--output", "o", "--seed", "1"],
                 ["rank", "--scores", "s", "--groups", "g", "--output", "o", "--config", "c"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE


def _write_json(path, obj):
    path.write_text(json.dumps(obj))
    return path


def _scores_lacking(ws, tmp, key):
    header, records = read_jsonl(ws / "scores.jsonl")
    for rec in records:
        del rec[key]
    path = tmp / "bad_scores.jsonl"
    write_jsonl(path, records, header)
    return path


def _truncated_png(path):
    """A PNG holding its signature and IHDR, then ending where the next chunk should start."""
    ihdr = b"IHDR" + struct.pack(">IIBBBBB", 2, 2, 8, 0, 0, 0, 0)
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + struct.pack(">I", 13) + ihdr
                     + struct.pack(">I", zlib.crc32(ihdr)))
    return path


# config files each holding one bad value or key
_BAD_CONFIGS = {
    "config_with_string_stride": {"stride": "x"},
    "config_with_zero_octaves": {"octaves": 0},
    "config_with_empty_gaps": {"gaps": []},
    "config_with_small_max_dim": {"max_dim": 8},
    "config_with_unknown_key": {"bogus": 1},
    "config_with_nan_lam": {"lam": float("nan")},  # json.dumps writes NaN
    "config_with_infinite_inlier_threshold": {"inlier_threshold": float("inf")},
}


def _malformed_run(case, ws, tmp):
    """(argv, malformed file) for one subcommand reading one bad input."""
    out = str(tmp / "out")
    scores, groups = ws / "scores.jsonl", ws / "groups.json"
    if case == "manifest_entry_without_id":
        bad = _write_json(tmp / "manifest.json", {"videos": [{"dir": "clean/frames"}]})
        return ["score", str(bad), "--output", out], bad
    if case == "manifest_duplicate_video_id":
        bad = _write_json(tmp / "manifest.json", {"videos": [
            {"id": "a", "dir": str(ws / "clean" / "frames")},
            {"id": "a", "dir": str(ws / "shaky" / "frames")}]})
        return ["score", str(bad), "--output", out], bad
    if case == "manifest_is_a_list":
        bad = _write_json(tmp / "manifest.json", [{"id": "clean", "dir": "clean/frames"}])
        return ["score", str(bad), "--output", out], bad
    if case in ("rank_scores_without_error", "pairs_scores_without_error"):
        bad = _scores_lacking(ws, tmp, "consistency_error")
        return [case.split("_")[0], "--scores", str(bad), "--groups", str(groups), "--output", out], bad
    if case in ("group_without_video_ids", "group_without_prompt_id"):
        entry = {"prompt_id": "p0", "video_ids": ["clean", "shaky"]}
        del entry[case[len("group_without_"):]]
        bad = _write_json(tmp / "groups.json", {"groups": [entry]})
        return ["rank", "--scores", str(scores), "--groups", str(bad), "--output", out], bad
    if case in ("pair_without_score_gap", "pair_with_null_score_gap"):
        record = {"prompt_id": "p0", "winner_id": "clean", "loser_id": "shaky"}
        if case == "pair_with_null_score_gap":
            record["score_gap"] = None
        bad = tmp / "pairs.jsonl"
        write_jsonl(bad, [record])
        return ["dpo-demo", "--pairs", str(bad), "--out", out], bad
    if case in ("latent_without_x0_l", "latent_with_null_t"):
        item = synthetic_preference_items(1, frames=4, dims=2, seed=0)[0]
        entry = {"x0_w": item.x0_w.tolist(), "x0_l": item.x0_l.tolist(),
                 "eps_w": item.eps_w.tolist(), "eps_l": item.eps_l.tolist(), "t": item.t}
        if case == "latent_without_x0_l":
            del entry["x0_l"]
        else:
            entry["t"] = None
        bad = _write_json(tmp / "latents.json", {"items": [entry]})
        return ["dpo-demo", "--latents", str(bad), "--out", out], bad
    if case == "manifest_videos_not_a_list":
        bad = _write_json(tmp / "manifest.json", {"videos": 5})
        return ["score", str(bad), "--output", out], bad
    if case in ("manifest_frames_not_a_list", "manifest_dir_not_a_string"):
        entry = {"id": "v", "frames": "f.png"} if case.endswith("list") else {"id": "v", "dir": 5}
        bad = _write_json(tmp / "manifest.json", {"videos": [entry]})
        return ["score", str(bad), "--output", out], bad
    if case in ("groups_not_a_list", "video_ids_not_a_list"):
        manifest = ({"groups": {"p0": ["clean", "shaky"]}} if case == "groups_not_a_list"
                    else {"groups": [{"prompt_id": "p0", "video_ids": "clean"}]})
        bad = _write_json(tmp / "groups.json", manifest)
        return ["pairs", "--scores", str(scores), "--groups", str(bad), "--output", out], bad
    if case == "video_ids_holds_a_list":
        bad = _write_json(tmp / "groups.json", {"groups": [{"prompt_id": "p", "video_ids": [["a"]]}]})
        return ["rank", "--scores", str(scores), "--groups", str(bad), "--output", out], bad
    if case == "scores_video_id_is_a_list":
        header, records = read_jsonl(scores)
        records[0]["video_id"] = ["a"]
        bad = tmp / "bad_scores.jsonl"
        write_jsonl(bad, records, header)
        return ["rank", "--scores", str(bad), "--groups", str(groups), "--output", out], bad
    if case in ("scores_duplicate_video_id", "scores_break_an_invariant"):
        header, records = read_jsonl(scores)
        if case == "scores_duplicate_video_id":
            records.append(dict(records[0]))
        else:
            records[0]["consistency_score"] = 0.5
        bad = tmp / "bad_scores.jsonl"
        write_jsonl(bad, records, header)
        return ["rank", "--scores", str(bad), "--groups", str(groups), "--output", out], bad
    if case == "latent_items_not_a_list":
        bad = _write_json(tmp / "latents.json", {"items": 3})
        return ["dpo-demo", "--latents", str(bad), "--out", out], bad
    if case == "scores_line_not_json":
        bad = tmp / "bad_scores.jsonl"
        lines = (ws / "scores.jsonl").read_text().splitlines()
        lines[2] = lines[2][:-1]  # drop the closing brace of the second record
        bad.write_text("\n".join(lines) + "\n")
        return ["rank", "--scores", str(bad), "--groups", str(groups), "--output", out], bad
    if case == "config_not_json":
        bad = tmp / "cfg.json"
        bad.write_text('{"stride": 2,}')
        return ["score", str(ws / "manifest.json"), "--config", str(bad), "--output", out], bad
    if case == "truncated_png_frame":
        frames = tmp / "video"
        frames.mkdir()
        bad = _truncated_png(frames / "frame_000.png")
        return ["score", str(frames), "--output", out], bad
    if case == "png_dimensions_past_the_limit":
        frames = tmp / "video"
        frames.mkdir()
        bad = frames / "frame_000.png"
        # 4294967295x4294967295 16-bit RGB: past the PNG limit of 2^31 - 1
        ihdr = b"IHDR" + struct.pack(">IIBBBBB", 2**32 - 1, 2**32 - 1, 16, 2, 0, 0, 0)
        idat = b"IDAT" + zlib.compress(bytes(7))
        bad.write_bytes(b"\x89PNG\r\n\x1a\n"
                        + b"".join(struct.pack(">I", len(c) - 4) + c + struct.pack(">I", zlib.crc32(c))
                                   for c in (ihdr, idat, b"IEND")))
        return ["score", str(frames), "--output", out], bad
    if case in ("pgm_sample_above_maxval", "pgm_header_field_too_long",
                "video_with_one_frame", "video_with_mixed_sizes"):
        frames = tmp / case
        frames.mkdir()
        if case == "pgm_sample_above_maxval":
            bad = frames / "frame_000.pgm"
            bad.write_bytes(b"P5 2 2 100 " + bytes([0, 200, 5, 5]))
        elif case == "pgm_header_field_too_long":
            bad = frames / "frame_000.pgm"
            bad.write_bytes(b"P5 " + b"9" * 5000 + b" 1 255\n")
        else:
            heights = [300] if case == "video_with_one_frame" else [300, 280]
            for k, height in enumerate(heights):
                write_pgm(Frame(np.full((height, 300), 0.5)), frames / f"frame_{k:03d}.pgm")
            bad = case  # the video id: no single file is at fault
        return ["score", str(frames), "--output", out], bad
    if case in _BAD_CONFIGS:
        bad = _write_json(tmp / "cfg.json", _BAD_CONFIGS[case])
        return ["score", str(ws / "manifest.json"), "--config", str(bad), "--output", out], bad
    if case in ("negative_seed_flag", "negative_seed_in_config"):
        bad = "seed"  # the key: a flag or a config file may set it
        if case == "negative_seed_flag":
            return ["score", str(ws / "manifest.json"), "--seed", "-1", "--output", out], bad
        cfg = _write_json(tmp / "cfg.json", {"seed": -2})
        frame = str(ws / "clean" / "frames" / "frame_000.pgm")
        return ["ssim", frame, frame, "--config", str(cfg)], bad
    if case in ("latent_clip_not_numeric", "latent_clips_of_different_shapes",
                "latent_t_out_of_range"):
        item = synthetic_preference_items(1, frames=4, dims=2, seed=0)[0]
        entries = [{"x0_w": item.x0_w.tolist(), "x0_l": item.x0_l.tolist(),
                    "eps_w": item.eps_w.tolist(), "eps_l": item.eps_l.tolist(), "t": item.t}
                   for _ in range(2)]
        if case == "latent_clip_not_numeric":
            entries[0]["x0_w"][1][0] = "a"
        elif case == "latent_clips_of_different_shapes":
            entries[1]["eps_l"] = entries[1]["eps_l"][:-1]
        else:
            entries[0]["t"] = 1.5
        bad = _write_json(tmp / "latents.json", {"items": entries})
        return ["dpo-demo", "--latents", str(bad), "--out", out], bad
    raise AssertionError(case)


@pytest.mark.parametrize("case, key", [
    ("manifest_entry_without_id", "id"),
    ("manifest_is_a_list", "JSON object"),
    ("manifest_duplicate_video_id", "video id 'a' appears more than once"),
    ("rank_scores_without_error", "consistency_error"),
    ("pairs_scores_without_error", "consistency_error"),
    ("group_without_video_ids", "video_ids"),
    ("group_without_prompt_id", "prompt_id"),
    ("pair_without_score_gap", "score_gap"),
    ("pair_with_null_score_gap", "score_gap"),
    ("latent_without_x0_l", "x0_l"),
    ("latent_with_null_t", "'t'"),
    ("config_with_string_stride", "stride"),
    ("config_with_zero_octaves", "octaves must be >= 1"),
    ("config_with_empty_gaps", "gaps must be non-empty"),
    ("config_with_small_max_dim", "max_dim must be None or >= 16"),
    ("config_with_unknown_key", "unknown config keys: ['bogus']"),
    ("config_with_nan_lam", "config key 'lam' must be finite, got nan"),
    ("config_with_infinite_inlier_threshold", "config key 'inlier_threshold' must be finite, got inf"),
    ("manifest_videos_not_a_list", "'videos'"),
    ("manifest_frames_not_a_list", "'frames'"),
    ("groups_not_a_list", "'groups'"),
    ("video_ids_not_a_list", "'video_ids'"),
    ("video_ids_holds_a_list", "'video_ids'"),
    ("scores_video_id_is_a_list", "'video_id'"),
    ("scores_duplicate_video_id", "video_id 'clean' appears more than once"),
    ("scores_break_an_invariant", "video 'clean': consistency_score must equal"),
    ("manifest_dir_not_a_string", "'dir'"),
    ("latent_items_not_a_list", "'items'"),
    ("scores_line_not_json", "line 3"),
    ("config_not_json", "line 1"),
    ("truncated_png_frame", "truncated PNG chunk"),
    ("png_dimensions_past_the_limit", "invalid PNG dimensions 4294967295x4294967295 (byte offset 16)"),
    ("pgm_sample_above_maxval", "exceeds maxval 100 (byte offset 12)"),
    ("pgm_header_field_too_long", "more than 10 digits (byte offset 3)"),
    ("video_with_one_frame", "video 'video_with_one_frame': need at least 2 frames"),
    ("video_with_mixed_sizes", "video 'video_with_mixed_sizes': frame 1 dimensions differ"),
    ("negative_seed_flag", "seed must be >= 0, got -1"),
    ("negative_seed_in_config", "seed must be >= 0, got -2"),
    ("latent_clip_not_numeric", "item 0: could not convert string to float: 'a'"),
    ("latent_clips_of_different_shapes", "item 1: all clips must share one shape"),
    ("latent_t_out_of_range", "item 0: t must lie in [0, 1], got 1.5"),
])
def test_malformed_input_is_fatal(workspace, tmp_path, capsys, case, key):
    argv, bad = _malformed_run(case, workspace, tmp_path)
    assert main(argv) == EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert str(bad) in err
    assert key in err


@pytest.mark.parametrize("flags", [["--max-keypoints", "0"], ["--max-keypoints", "-3"],
                                   ["--octaves", "0"], ["--ratio-threshold", "1.5"],
                                   ["--max-dim", "8"]])
def test_invalid_feature_settings_are_fatal(workspace, tmp_path, capsys, flags):
    code = main(["score", str(workspace / "manifest.json"),
                 "--output", str(tmp_path / "out.jsonl")] + flags)
    assert code == EXIT_FATAL
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("command, flag", [("dpo-demo", "--beta"), ("score", "--contrast-threshold")])
def test_non_finite_flag_is_fatal(workspace, pairs_file, tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    argv = {"dpo-demo": ["dpo-demo", "--pairs", str(pairs_file), "--out", str(out)],
            "score": ["score", str(workspace / "manifest.json"), "--output", str(out)]}[command]
    assert main(argv + [flag, "nan"]) == EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"config key {flag[2:].replace('-', '_')!r} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--jitter", "nan"], "--jitter"),
    (["synth", "--focal", "inf"], "--focal"),
    (["dpo-demo", "--lr", "nan"], "--lr"),
    (["dpo-demo", "--lr", "inf"], "--lr"),
])
def test_non_finite_float_flag_is_usage_error(pairs_file, tmp_path, capsys, argv, flag):
    # flags that are no config keys: argparse rejects the value before any
    # file is written or any step is trained
    out = tmp_path / "out"
    if argv[0] == "dpo-demo":
        argv = argv + ["--pairs", str(pairs_file)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert f"argument {flag}: must be finite, got '{argv[2]}'" in capsys.readouterr().err
    assert not out.exists()


def test_bad_flag_beside_a_valid_config_file_names_no_file(workspace, tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"stride": 1})
    code = main(["score", str(workspace / "manifest.json"), "--config", str(cfg),
                 "--output", str(tmp_path / "out.jsonl"), "--octaves", "0"])
    assert code == EXIT_FATAL
    assert capsys.readouterr().err == "error: octaves must be >= 1\n"


# --------------------------------------------------------------------- config

def test_runconfig_hash_is_stable_hex():
    a = RunConfig().config_hash
    assert a == RunConfig().config_hash
    assert len(a) == 16
    int(a, 16)


def test_runconfig_hash_tracks_fields():
    assert RunConfig().config_hash != RunConfig(seed=1).config_hash
    assert RunConfig().config_hash != RunConfig(tau=0.06).config_hash
    assert RunConfig().config_hash != load_config(None, {"octaves": 3}).config_hash


def test_config_hash_is_pinned():
    # outputs already written carry these hashes; the flat key layout keeps them
    assert RunConfig().config_hash == "43446a61413ee426"
    args = build_parser().parse_args(["score", "in", "--output", "out"] + SCORE_FLAGS)
    assert load_config(None, config_overrides(args)).config_hash == "0d325af401a17a26"


def test_config_flat_layout_round_trips():
    flat = RunConfig().to_dict()
    assert len(flat) == 25
    assert load_config(None, flat) == RunConfig()


def test_load_config_merges_file_and_flags(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "stride": 2}))
    cfg = load_config(str(path), {"seed": 9, "tau": None, "octaves": None})
    assert cfg.seed == 9          # flag beats file
    assert cfg.scoring.stride == 2    # file beats default
    assert cfg.tau == RunConfig().tau
    assert cfg.scoring.feature_params.octaves == RunConfig().scoring.feature_params.octaves


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"bogus_key": 1}))
    with pytest.raises(ValueError, match="bogus_key"):
        load_config(str(path), {})


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(str(path), {})


def test_config_file_matches_equivalent_flags(workspace, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "gaps": [1, 2], "stride": 1, "ransac_iterations": 300,
        "inlier_threshold": 25.0, "octaves": 3, "ratio_threshold": 0.85,
        "min_matches": 16, "seed": 7,
    }))
    out = tmp_path / "scores.jsonl"
    code = main(["score", str(workspace / "manifest.json"),
                 "--config", str(cfg), "--output", str(out), "--per-pair"])
    assert code == EXIT_PARTIAL
    assert out.read_bytes() == (workspace / "scores.jsonl").read_bytes()


# ---------------------------------------------------------------------- synth

def test_synth_writes_scene_directory(workspace):
    scene_dir = workspace / "clean"
    frames = sorted(os.listdir(scene_dir / "frames"))
    assert frames == [f"frame_{i:03d}.pgm" for i in range(6)]

    scene = json.loads((scene_dir / "scene.json").read_text())
    assert len(scene["cameras"]) == 6
    assert scene["seed"] == 11
    assert scene["dynamic_point_ids"] == []
    assert len(scene["config_hash"]) == 16

    header, records = read_jsonl(scene_dir / "correspondences.jsonl")
    assert header["config_hash"] == scene["config_hash"]
    assert records, "consecutive-frame correspondences expected"
    assert {"i", "j", "index", "x", "y", "xp", "yp", "label"} <= set(records[0])


def test_synth_rerun_is_byte_identical(workspace, tmp_path):
    out = tmp_path / "again"
    args = ["synth", "--out", str(out), "--seed", "11", "--kind", "dolly",
            "--frames", "6", "--points", "110", "--width", "192",
            "--height", "192", "--focal", "260"]
    assert main(args) == EXIT_OK
    base = workspace / "clean"
    assert (out / "scene.json").read_bytes() == (base / "scene.json").read_bytes()
    assert (out / "correspondences.jsonl").read_bytes() == (base / "correspondences.jsonl").read_bytes()
    for name in os.listdir(base / "frames"):
        assert (out / "frames" / name).read_bytes() == (base / "frames" / name).read_bytes()


def test_synth_records_dynamic_points(tmp_path):
    out = tmp_path / "dyn"
    code = main(["synth", "--out", str(out), "--frames", "4", "--points", "50",
                 "--dynamic", "0.2", "--seed", "5", "--check"])
    assert code == EXIT_OK
    scene = json.loads((out / "scene.json").read_text())
    assert len(scene["dynamic_point_ids"]) == 10
    _, records = read_jsonl(out / "correspondences.jsonl")
    labels = {rec["label"] for rec in records}
    assert "dynamic" in labels


@pytest.mark.parametrize("flags", [
    ["--kind", "dolly", "--radius", "6", "--travel", "0.3"],
    ["--kind", "orbit", "--radius", "5.5", "--focal", "420", "--width", "320"],
])
def test_scene_json_alone_rebuilds_the_cameras(tmp_path, flags):
    out = tmp_path / "scene"
    assert main(["synth", "--out", str(out), "--frames", "4", "--points", "30", *flags]) == EXIT_OK
    scene = json.loads((out / "scene.json").read_text())
    spec = TrajectorySpec(**{f.name: scene[f.name] for f in fields(TrajectorySpec) if f.name in scene})
    cameras = [{"k": c.k.tolist(), "r": c.r.tolist(), "t": c.t.tolist()}
               for c in camera_trajectory(spec)]
    assert cameras == scene["cameras"]


# ---------------------------------------------------------------------- score

def test_score_records_and_header(workspace):
    header, by_id = scores_by_id(workspace / "scores.jsonl")
    assert header["record"] == "video_score"
    assert len(header["config_hash"]) == 16
    assert set(by_id) == {"clean", "shaky", "static"}
    clean = by_id["clean"]
    assert clean["consistency_score"] == pytest.approx(
        1.0 / (1.0 + clean["consistency_error"]))
    assert clean["pair_scores"], "--per-pair should embed pair records"
    assert clean["config_hash"] == header["config_hash"]


def test_score_orders_clean_above_shaky(workspace):
    _, by_id = scores_by_id(workspace / "scores.jsonl")
    assert by_id["clean"]["consistency_error"] < by_id["shaky"]["consistency_error"]


def test_score_flags_static_video(workspace):
    _, by_id = scores_by_id(workspace / "scores.jsonl")
    static = by_id["static"]
    assert static["near_static"] is True
    assert static["consistency_score"] is None


def test_score_single_video_directory(workspace, tmp_path):
    out = tmp_path / "one.jsonl"
    code = main(["score", str(workspace / "clean"), "--output", str(out),
                 "--check"] + SCORE_FLAGS)
    assert code == EXIT_OK
    _, records = read_jsonl(out)
    assert [r["video_id"] for r in records] == ["clean"]


def test_score_rerun_is_byte_identical(workspace, tmp_path):
    out = tmp_path / "rerun.jsonl"
    code = main(["score", str(workspace / "manifest.json"),
                 "--output", str(out), "--per-pair"] + SCORE_FLAGS)
    assert code == EXIT_PARTIAL
    assert out.read_bytes() == (workspace / "scores.jsonl").read_bytes()


def test_collect_videos_nested_frames_dir(workspace):
    videos = collect_videos(str(workspace / "clean"))
    assert len(videos) == 1
    vid, paths = videos[0]
    assert vid == "clean"
    assert len(paths) == 6


def test_check_jsonl_detects_foreign_hash(workspace):
    path = str(workspace / "scores.jsonl")
    header, _ = read_jsonl(path)
    assert check_jsonl(path, header["config_hash"])
    assert not check_jsonl(path, "0" * 16)


def test_check_reads_every_output_form(workspace, pairs_file, tmp_path):
    frame = str(workspace / "clean" / "frames" / "frame_000.pgm")
    assert main(["synth", "--out", str(tmp_path / "scene"), "--frames", "2", "--points", "20",
                 "--width", "64", "--height", "64", "--focal", "80"]) == EXIT_OK
    assert main(["dpo-demo", "--pairs", str(pairs_file), "--out", str(tmp_path / "demo"),
                 "--steps", "5"]) == EXIT_OK
    assert main(["ssim", frame, frame, "--output", str(tmp_path / "ssim.txt")]) == EXIT_OK
    scores = workspace / "scores.jsonl"
    written = [(tmp_path / name, RunConfig().config_hash)
               for name in ("scene/scene.json", "scene/correspondences.jsonl",
                            "demo/loss_trace.csv", "demo/final_params.json", "ssim.txt")]
    written.append((scores, read_jsonl(scores)[0]["config_hash"]))
    for path, chash in written:
        assert _carries(str(path), chash), path
        assert not _carries(str(path), "0" * 16), path


@pytest.mark.parametrize("command", ["synth", "score", "rank", "pairs", "dpo-demo", "ssim"])
def test_check_fails_on_a_foreign_hash(workspace, pairs_file, tmp_path, capsys, monkeypatch, command):
    """A file written under another hash fails --check with exit 1, ahead of
    the partial exit 2 that score and rank give on this workspace."""
    scores, groups = str(workspace / "scores.jsonl"), str(workspace / "groups.json")
    out = str(tmp_path / "out")
    frame = str(workspace / "clean" / "frames" / "frame_000.pgm")
    argv = {
        "synth": ["synth", "--out", out, "--frames", "2", "--points", "20",
                  "--width", "64", "--height", "64", "--focal", "80"],
        "score": ["score", str(workspace / "manifest.json"), "--output", out] + SCORE_FLAGS,
        "rank": ["rank", "--scores", scores, "--groups", groups, "--output", out],
        "pairs": ["pairs", "--scores", scores, "--groups", groups, "--output", out],
        "dpo-demo": ["dpo-demo", "--pairs", str(pairs_file), "--out", out, "--steps", "5"],
        "ssim": ["ssim", frame, frame, "--output", out],
    }[command]
    assert main(argv + ["--check"]) in (EXIT_OK, EXIT_PARTIAL)
    capsys.readouterr()
    real_header = cli._header
    monkeypatch.setattr(cli, "_header", lambda chash, **extra: real_header("0" * 16, **extra))
    assert main(argv + ["--check"]) == EXIT_FATAL
    assert capsys.readouterr().err == "error: embedded config hash mismatch\n"


# ----------------------------------------------------------- worker processes

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="score forks its workers")


def _usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@needs_fork
def test_score_output_does_not_depend_on_worker_count(workspace, tmp_path, monkeypatch):
    for cpus in (1, 2, 3):
        _usable_cpus(monkeypatch, cpus)
        assert cli._score_workers(3) == cpus
        out = tmp_path / f"scores_{cpus}.jsonl"
        code = main(["score", str(workspace / "manifest.json"),
                     "--output", str(out), "--per-pair"] + SCORE_FLAGS)
        assert code == EXIT_PARTIAL
        assert out.read_bytes() == (workspace / "scores.jsonl").read_bytes()


@needs_fork
def test_worker_error_reads_as_in_process(workspace, tmp_path, monkeypatch, capsys):
    """The error of the first failing video in input order, with its file and
    byte offset, whether it was raised in a worker or in this process."""
    broken, short = tmp_path / "broken", tmp_path / "short"
    broken.mkdir()
    short.mkdir()
    bad = _truncated_png(broken / "frame_000.png")
    (short / "frame_000.pgm").write_bytes((workspace / "clean" / "frames" / "frame_000.pgm").read_bytes())
    manifest = _write_json(tmp_path / "manifest.json", {"videos": [
        {"id": "clean", "dir": str(workspace / "clean" / "frames")},
        {"id": "broken", "dir": str(broken)},
        {"id": "short", "dir": str(short)}]})
    argv = ["score", str(manifest), "--output", str(tmp_path / "out.jsonl")] + SCORE_FLAGS
    errors = []
    for cpus in (2, 1):
        _usable_cpus(monkeypatch, cpus)
        assert cli._score_workers(3) == cpus
        assert main(argv) == EXIT_FATAL
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: video 'broken': ")
    assert str(bad) in errors[0]
    assert "truncated PNG chunk" in errors[0] and "(byte offset 33)" in errors[0]
    assert not (tmp_path / "out.jsonl").exists()


@needs_fork
@pytest.mark.parametrize("videos, cpus", [(1, 4), (2, 2), (3, 2), (5, 1)])
def test_worker_count_is_bounded_by_videos_and_cpus(monkeypatch, videos, cpus):
    _usable_cpus(monkeypatch, cpus)
    assert cli._score_workers(videos) == min(videos, cpus)


@needs_fork
def test_scoring_stays_in_process_without_fork_or_beside_a_thread(monkeypatch):
    _usable_cpus(monkeypatch, 4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, daemon=True)
    thread.start()
    try:
        assert cli._score_workers(4) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert cli._score_workers(4) == 4
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli._score_workers(4) == 1


def _fresh_python(code, *args, **env):
    """A new interpreter running ``code`` on the source tree; its completed process.

    OPENBLAS_NUM_THREADS is unset unless ``env`` gives it.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    inherited = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**inherited, "PYTHONPATH": src, **env},
                          capture_output=True, text=True, check=True, timeout=120)


def test_cli_start_up_loads_no_pool_module():
    code = ("import sys, epigeo.cli; epigeo.cli.build_parser(); "
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'numpy') if m in sys.modules])")
    assert _fresh_python(code).stdout.strip() == "[]"


# main(argv) in a new interpreter; the last stderr line is
# "<numpy loaded> <exit code> <OPENBLAS_NUM_THREADS>"
MAIN_PROBE = """
import os, sys
from epigeo.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print("numpy" in sys.modules, code, os.environ.get("OPENBLAS_NUM_THREADS"), file=sys.stderr)
"""


@pytest.mark.parametrize("command, expected", [
    ("rank", EXIT_PARTIAL), ("pairs", EXIT_OK), ("--help", 0), ("usage", EXIT_USAGE),
])
def test_bookkeeping_commands_load_no_numpy(workspace, tmp_path, command, expected):
    inputs = ["--scores", str(workspace / "scores.jsonl"), "--groups", str(workspace / "groups.json"),
              "--output", str(tmp_path / "out.jsonl")]
    argv = {"rank": ["rank", *inputs], "pairs": ["pairs", *inputs, "--tau", "0"],
            "--help": ["--help"], "usage": ["pairs", "--tau", "x"]}[command]
    proc = _fresh_python(MAIN_PROBE, *argv)
    assert proc.stderr.splitlines()[-1].split()[:2] == ["False", str(expected)]


def test_blas_defaults_to_one_thread_unless_set(tmp_path):
    # main sets the default before NumPy loads; a value already set wins
    argv = ["dpo-demo", "--latents", str(tmp_path / "missing.json"), "--out", str(tmp_path / "o")]
    for env, expected in (({}, "1"), ({"OPENBLAS_NUM_THREADS": "3"}, "3")):
        proc = _fresh_python(MAIN_PROBE, *argv, **env)
        assert proc.stderr.splitlines()[-1].split() == ["True", str(EXIT_FATAL), expected]


# ----------------------------------------------------------------------- rank

def test_rank_orders_and_skips(workspace, tmp_path):
    out = tmp_path / "ranking.jsonl"
    code = main(["rank", "--scores", str(workspace / "scores.jsonl"),
                 "--groups", str(workspace / "groups.json"),
                 "--output", str(out), "--check"])
    assert code == EXIT_PARTIAL  # p1 has only one usable member
    _, records = read_jsonl(out)
    by_prompt = {rec["prompt_id"]: rec for rec in records}
    assert by_prompt["p0"]["ranking"] == ["clean", "shaky"]
    assert by_prompt["p1"]["skipped"] == "too_few_unflagged"


def test_rank_unscored_video_is_fatal(workspace, tmp_path, capsys):
    groups = tmp_path / "g.json"
    groups.write_text(json.dumps(
        {"groups": [{"prompt_id": "p", "video_ids": ["clean", "ghost"]}]}))
    code = main(["rank", "--scores", str(workspace / "scores.jsonl"),
                 "--groups", str(groups), "--output", str(tmp_path / "r.jsonl")])
    assert code == EXIT_FATAL
    assert "ghost" in capsys.readouterr().err


def test_rank_and_pairs_accept_numeric_ids(workspace, tmp_path):
    # a manifest id may be a JSON number, and `score` writes it back as one
    numeric = {"clean": 1, "shaky": 2, "static": 3}
    header, records = read_jsonl(workspace / "scores.jsonl")
    for rec in records:
        rec["video_id"] = numeric[rec["video_id"]]
    write_jsonl(tmp_path / "scores.jsonl", records, header)
    _write_json(tmp_path / "groups.json", {"groups": [
        {"prompt_id": "p0", "video_ids": [1, 2]},
        {"prompt_id": "p1", "video_ids": [1, 3]},
    ]})
    inputs = ["--scores", str(tmp_path / "scores.jsonl"), "--groups", str(tmp_path / "groups.json")]

    assert main(["rank", *inputs, "--output", str(tmp_path / "ranking.jsonl")]) == EXIT_PARTIAL
    _, ranking = read_jsonl(tmp_path / "ranking.jsonl")
    by_prompt = {rec["prompt_id"]: rec for rec in ranking}
    assert by_prompt["p0"]["ranking"] == ["1", "2"]
    assert by_prompt["p1"]["skipped"] == "too_few_unflagged"

    assert main(["pairs", *inputs, "--output", str(tmp_path / "pairs.jsonl"),
                 "--tau", "1e-9"]) == EXIT_OK
    _, pairs = read_jsonl(tmp_path / "pairs.jsonl")
    assert [(p["winner_id"], p["loser_id"]) for p in pairs] == [("1", "2")]


# ---------------------------------------------------------------------- pairs

def test_pairs_emits_winner_loser(workspace, tmp_path):
    out = tmp_path / "pairs.jsonl"
    code = main(["pairs", "--scores", str(workspace / "scores.jsonl"),
                 "--groups", str(workspace / "groups.json"),
                 "--output", str(out), "--tau", "1e-9", "--check"])
    assert code == EXIT_OK
    header, records = read_jsonl(out)
    assert header["tau"] == 1e-9
    assert [r["prompt_id"] for r in records] == ["p0"]
    assert records[0]["winner_id"] == "clean"
    assert records[0]["loser_id"] == "shaky"
    assert {"prompt_id": "p1", "reason": "too_few_unflagged"} in header["skipped_groups"]


def test_pairs_respects_tau(workspace, tmp_path):
    out = tmp_path / "pairs.jsonl"
    code = main(["pairs", "--scores", str(workspace / "scores.jsonl"),
                 "--groups", str(workspace / "groups.json"),
                 "--output", str(out), "--tau", "0.5"])
    assert code == EXIT_OK
    _, records = read_jsonl(out)
    assert records == []


# ------------------------------------------------------------------- dpo-demo

@pytest.fixture(scope="module")
def pairs_file(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("pairs") / "pairs.jsonl"
    code = main(["pairs", "--scores", str(workspace / "scores.jsonl"),
                 "--groups", str(workspace / "groups.json"),
                 "--output", str(out), "--tau", "1e-9"])
    assert code == EXIT_OK
    return out


def test_dpo_demo_from_pairs(pairs_file, tmp_path):
    out = tmp_path / "demo"
    code = main(["dpo-demo", "--pairs", str(pairs_file), "--out", str(out),
                 "--steps", "60", "--check"])
    assert code == EXIT_OK

    lines = (out / "loss_trace.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "step,loss"
    losses = [float(line.split(",")[1]) for line in lines[2:]]
    assert len(losses) == 61
    assert losses[-1] < losses[0]

    params = json.loads((out / "final_params.json").read_text())
    model = LinearVelocityModel.from_parameters(params["parameters"], params["dims"])
    assert model.dim == params["dims"]
    assert params["final_loss"] == losses[-1]


def test_dpo_demo_rerun_is_byte_identical(pairs_file, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["dpo-demo", "--pairs", str(pairs_file), "--out", str(out),
                     "--steps", "40"]) == EXIT_OK
        outs.append(out)
    assert (outs[0] / "loss_trace.csv").read_bytes() == (outs[1] / "loss_trace.csv").read_bytes()
    assert (outs[0] / "final_params.json").read_bytes() == (outs[1] / "final_params.json").read_bytes()


def test_dpo_demo_from_latents(tmp_path):
    items = synthetic_preference_items(3, frames=5, dims=3, seed=4)
    manifest = {"items": [
        {"x0_w": it.x0_w.tolist(), "x0_l": it.x0_l.tolist(),
         "eps_w": it.eps_w.tolist(), "eps_l": it.eps_l.tolist(), "t": it.t}
        for it in items
    ]}
    path = tmp_path / "latents.json"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "demo"
    code = main(["dpo-demo", "--latents", str(path), "--out", str(out),
                 "--steps", "30"])
    assert code == EXIT_OK
    params = json.loads((out / "final_params.json").read_text())
    assert params["dims"] == 3


def test_dpo_demo_training_overflow_is_fatal(pairs_file, tmp_path, capsys):
    out = tmp_path / "demo"
    code = main(["dpo-demo", "--pairs", str(pairs_file), "--out", str(out), "--lr", "1e150"])
    assert code == EXIT_FATAL
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "e_theta_w" in err
    assert not (out / "final_params.json").exists()


def test_dpo_demo_empty_pairs_is_fatal(tmp_path, capsys):
    path = tmp_path / "pairs.jsonl"
    path.write_text("")
    code = main(["dpo-demo", "--pairs", str(path),
                 "--out", str(tmp_path / "demo")])
    assert code == EXIT_FATAL
    assert "no preference items" in capsys.readouterr().err


# ----------------------------------------------------------------------- ssim

def test_ssim_stdout(workspace, capsys):
    a = str(workspace / "clean" / "frames" / "frame_000.pgm")
    code = main(["ssim", a, a])
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["ssim"] == pytest.approx(1.0)


def test_ssim_output_file(workspace, tmp_path):
    a = str(workspace / "clean" / "frames" / "frame_000.pgm")
    b = str(workspace / "clean" / "frames" / "frame_001.pgm")
    out = tmp_path / "ssim.json"
    code = main(["ssim", a, b, "--output", str(out)])
    assert code == EXIT_OK
    record = json.loads(out.read_text())
    assert 0.0 < record["ssim"] < 1.0
    assert record["frame_a"] == "frame_000.pgm"


def test_ssim_check_without_output_is_usage_error(workspace, capsys):
    a = str(workspace / "clean" / "frames" / "frame_000.pgm")
    assert main(["ssim", a, a, "--check"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--check needs --output" in captured.err
