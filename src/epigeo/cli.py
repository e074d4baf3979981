"""Command-line interface.

One executable with subcommands covering the pipeline: `synth` generates
ground-truth scenes, `score` measures videos, `rank` orders generations per
prompt, `pairs` builds preference pairs, `dpo-demo` runs the toy alignment
trainer, and `ssim` compares two frames.

Every subcommand but `rank` is configured by a ``records.RunConfig``: the
defaults of the library's parameter records, overridden by an optional JSON
config file, overridden by explicit flags, each value checked as it loads.
The canonical serialization of the effective RunConfig is hashed and
embedded in every output artifact, and all outputs are deterministic given
flags plus seed (reruns are byte identical).  `synth`'s scene flags are not
config keys, so its hash does not cover them; scene.json records them, with
the cameras.  `rank` reads no configuration; its output carries the config
hash of its scores file.

`score` scores its videos in worker processes, one per video up to the CPUs
the process may run on; its outputs do not depend on the number of workers.

Start-up loads no NumPy.  The parser's defaults come from ``records``, and
`rank`, `pairs`, `--help`, `--version` and usage errors need nothing else
but ``dataset``.  `synth`, `score`, `dpo-demo` and `ssim` import the numeric
modules when they run.  Before that first import, main sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 where the user
has not set them, so that `score`'s workers do not each start a BLAS pool.

Malformed input files end in a fatal error that names the file and the
offending key.  Exit codes: 0 success, 1 fatal error, 2 partial success (some
videos flagged or groups skipped), 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
from dataclasses import asdict
from importlib import import_module
from itertools import repeat

from . import __version__
from .dataset import GenerationGroup, GroupSkipped, build_pairs, rank_group
from .records import (
    AGGREGATIONS,
    CLEAN_MODES,
    DEFAULT_CLIP_DIMS,
    DEFAULT_CLIP_FRAMES,
    DEFAULT_DOT_SIGMA,
    DEFAULT_LEARNING_RATE,
    DEFAULT_SCENE_EXTENT,
    DEFAULT_STEPS,
    DEFAULT_TEXTURE_AMPLITUDE,
    PENALTY_BRANCHES,
    TRAJECTORY_KINDS,
    RunConfig,
    TrajectorySpec,
    canonical_json,
    read_jsonl,
    video_score_from_record,
    video_score_to_record,
    write_jsonl,
)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64

# the variables that size a BLAS library's thread pool
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Library functions the computing subcommands call, and the modules they come
# from.  Each is imported on first access through this module (see
# __getattr__) and called through that attribute, so a wrapper set on it sees
# every call.
_LAZY = {"score_video": "scoring", "toy_train": "alignment"}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _lib(name: str):
    """This module's attribute ``name`` (one of _LAZY), imported on first use."""
    return getattr(sys.modules[__name__], name)


_DEFAULTS = RunConfig().to_dict()
_SPEC = TrajectorySpec()


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then config-file values, then explicit flag overrides."""
    values = {}
    if path is not None:
        values = _read_json_object(path, "config file")
        # the file must hold a valid config by itself, so that the records'
        # errors can name it; a flag's value names no file
        try:
            RunConfig.from_dict(values)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    values.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig.from_dict(values)


def config_overrides(args) -> dict:
    """Flag values destined for config keys (None = not given)."""
    return {name: getattr(args, name) for name in _DEFAULTS if hasattr(args, name)}


def _read_json_object(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {what} must hold a JSON object")
    return obj


def _require(entry, key: str, path: str):
    """entry[key], or a ValueError naming the file and the missing key."""
    if not isinstance(entry, dict) or key not in entry:
        raise ValueError(f"{path}: an entry lacks the key {key!r}")
    return entry[key]


def _require_type(value, kind: type, key: str, path: str):
    """value, or a ValueError naming the file and the key when not a `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{path}: key {key!r} holds {type(value).__name__}, not {kind.__name__}")
    return value


def _require_id(value, key: str, path: str):
    """value, or a ValueError naming the file and the key when it is a JSON
    list or object; ids may be any JSON scalar."""
    if isinstance(value, (list, dict)):
        raise ValueError(f"{path}: key {key!r} holds {type(value).__name__}, not a scalar id")
    return value


def _require_number(entry, key: str, path: str) -> float:
    """entry[key] as a finite float, or a ValueError naming the file and the key."""
    value = _require(entry, key, path)
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{path}: key {key!r} holds {value!r}, not a finite number")
    return number


# ------------------------------------------------------------------ input sets

def _frame_files(directory: str) -> list:
    """The frame files of a directory, or else those of its frames/ child."""
    from .io import list_frame_files

    nested = os.path.join(directory, "frames")
    return list_frame_files(directory) or (list_frame_files(nested) if os.path.isdir(nested) else [])


def collect_videos(input_path: str):
    """Resolve a frame directory or manifest into (video_id, frame_paths)."""
    from .io import list_frame_files

    if os.path.isfile(input_path):
        if not input_path.endswith(".json"):
            raise ValueError("input file must be a .json manifest")
        manifest = _read_json_object(input_path, "manifest")
        base = os.path.dirname(os.path.abspath(input_path))
        videos = []
        seen = set()
        for entry in _require_type(manifest.get("videos", []), list, "videos", input_path):
            vid = _require_id(_require(entry, "id", input_path), "id", input_path)
            if vid in seen:
                raise ValueError(f"{input_path}: video id {vid!r} appears more than once")
            seen.add(vid)
            if "frames" in entry:
                frames = _require_type(entry["frames"], list, "frames", input_path)
                paths = [os.path.join(base, _require_type(p, str, "frames", input_path))
                         for p in frames]
            elif "dir" in entry:
                directory = _require_type(entry["dir"], str, "dir", input_path)
                paths = list_frame_files(os.path.join(base, directory))
            else:
                raise ValueError(f"video {vid!r} needs a 'frames' list or a 'dir'")
            videos.append((vid, paths))
        return videos
    if os.path.isdir(input_path):
        frames = _frame_files(input_path)
        if frames:
            return [(os.path.basename(os.path.normpath(input_path)), frames)]
        videos = []
        for name in sorted(os.listdir(input_path)):
            sub = os.path.join(input_path, name)
            if os.path.isdir(sub) and (frames := _frame_files(sub)):
                videos.append((name, frames))
        return videos
    raise ValueError(f"input path does not exist: {input_path}")


def load_score_groups(scores_path: str, groups_path: str):
    """Scores JSONL + group manifest -> (GenerationGroups, scores header)."""
    header, records = read_jsonl(scores_path)
    by_id = {}
    for rec in records:
        try:
            vs = video_score_from_record(rec)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"{scores_path}: malformed score record ({type(exc).__name__}: {exc})") from None
        except ValueError as exc:  # a VideoScore or PairScore invariant
            raise ValueError(f"{scores_path}: video {rec.get('video_id')!r}: {exc}") from None
        vid = _require_id(vs.video_id, "video_id", scores_path)
        if vid in by_id:
            raise ValueError(f"{scores_path}: video_id {vid!r} appears more than once")
        by_id[vid] = vs
    manifest = _read_json_object(groups_path, "group manifest")
    groups = []
    for entry in _require_type(manifest.get("groups", []), list, "groups", groups_path):
        prompt_id = _require(entry, "prompt_id", groups_path)
        video_ids = _require(entry, "video_ids", groups_path)
        members = []
        for vid in _require_type(video_ids, list, "video_ids", groups_path):
            if _require_id(vid, "video_ids", groups_path) not in by_id:
                raise ValueError(f"group {prompt_id!r} references unscored video {vid!r}")
            members.append((vid, by_id[vid]))
        groups.append(GenerationGroup(prompt_id, tuple(members)))
    return groups, (header or {})


def check_jsonl(path: str, expected_hash: str) -> bool:
    header, records = read_jsonl(path)
    if not header or header.get("config_hash") != expected_hash:
        return False
    return all(
        rec.get("config_hash", expected_hash) == expected_hash for rec in records
    )


# -------------------------------------------------------------------- outputs

def _header(chash, **extra) -> dict:
    """The provenance every output file starts with, plus ``extra``."""
    return {"config_hash": chash, "tool_version": __version__, **extra}


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj) + "\n")


def _carries(path: str, chash) -> bool:
    """Whether a written file still embeds ``chash``.

    The first line tells the file's form: a JSONL header (checked with every
    record), the loss trace's CSV comment, or a whole JSON object.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if first.startswith("# {"):
        return check_jsonl(path, chash)
    if first.startswith("#"):
        return f"config_hash={chash} " in first
    return json.loads(first).get("config_hash") == chash


def _finish(args, chash, *paths) -> int:
    """EXIT_FATAL when ``--check`` finds a written file without ``chash``."""
    if args.check and not all(_carries(path, chash) for path in paths):
        print("error: embedded config hash mismatch", file=sys.stderr)
        return EXIT_FATAL
    return EXIT_OK


# ---------------------------------------------------------------- subcommands

def cmd_synth(args) -> int:
    from .io import write_pgm
    from .synth import camera_trajectory, dynamic_motion, generate_scene, project_scene, render_video

    config = load_config(args.config, config_overrides(args))
    scene = generate_scene(args.points, extent=args.extent, seed=config.seed)
    settings = {name: getattr(args, name) for _, name, _, _ in _SCENE_FLAGS}
    spec = TrajectorySpec(**settings)
    cams = camera_trajectory(spec)
    projected = project_scene(scene, cams, spec)
    frames = render_video(
        projected, spec, dot_sigma=args.dot_sigma,
        intensity_seed=config.seed, texture_amplitude=args.texture,
    )

    os.makedirs(os.path.join(args.out, "frames"), exist_ok=True)
    chash = config.config_hash
    for k, frame in enumerate(frames):
        write_pgm(
            frame,
            os.path.join(args.out, "frames", f"frame_{k:03d}.pgm"),
            comment=f"config_hash={chash}",
        )

    dynamic_idx, _ = dynamic_motion(scene, spec)
    scene_path = os.path.join(args.out, "scene.json")
    _write_json(scene_path, _header(
        chash,
        seed=config.seed,
        n_points=args.points,
        extent=args.extent,
        **settings,
        dot_sigma=args.dot_sigma,
        texture_amplitude=args.texture,
        dynamic_point_ids=sorted(int(i) for i in dynamic_idx),
        cameras=[{"k": c.k.tolist(), "r": c.r.tolist(), "t": c.t.tolist()} for c in cams],
    ))

    corr_records = [
        {"i": i, "j": j, "index": n, "x": x, "y": y, "xp": xp, "yp": yp, "label": label}
        for (i, j), cs in sorted(projected.pairs.items())
        for n, x, y, xp, yp, label in zip(cs.indices.tolist(), *cs.a.T.tolist(), *cs.b.T.tolist(),
                                          cs.labels.tolist())
    ]
    corr_path = os.path.join(args.out, "correspondences.jsonl")
    write_jsonl(corr_path, corr_records, _header(chash, record="correspondence"))
    return _finish(args, chash, corr_path, scene_path)


def _score_one(video, config: RunConfig, chash: str):
    """The VideoScore of one (video_id, frame_paths) entry; runs in a worker."""
    from .io import load_frames

    vid, paths = video
    try:
        return _lib("score_video")(load_frames(paths), config.scoring, video_id=vid,
                                   seed=config.seed, config_hash=chash)
    except ValueError as exc:
        raise ValueError(f"video {vid!r}: {exc}") from None


def _score_workers(n_videos: int) -> int:
    """Processes to score ``n_videos`` with: one per video, up to the usable CPUs.

    1 (score in this process) where the platform cannot fork or report the
    CPUs the process may use, and while another thread runs: a forked child
    holds only the forking thread, so a lock another thread holds never opens.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(n_videos, len(os.sched_getaffinity(0)))


def cmd_score(args) -> int:
    config = load_config(args.config, config_overrides(args))
    videos = collect_videos(args.input)
    if not videos:
        print(f"error: no frames found under {args.input}", file=sys.stderr)
        return EXIT_FATAL
    chash = config.config_hash
    _lib("score_video")  # imported before any worker forks, so each inherits it
    work = (videos, repeat(config), repeat(chash))
    workers = _score_workers(len(videos))
    if workers == 1:
        scores = list(map(_score_one, *work))
    else:
        # imported here: loading them adds 16-18 ms to every start of the CLI
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: the workers inherit the loaded NumPy and epigeo instead of importing
        # them. map yields in input order and, at the first error, cancels the
        # videos no worker has taken yet.
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            scores = list(pool.map(_score_one, *work))
    records = [video_score_to_record(vs, per_pair=args.per_pair) for vs in scores]
    write_jsonl(args.output, records, _header(chash, record="video_score"))
    flagged = any(vs.near_static or vs.insufficient_texture for vs in scores)
    return _finish(args, chash, args.output) or (EXIT_PARTIAL if flagged else EXIT_OK)


def cmd_rank(args) -> int:
    groups, scores_header = load_score_groups(args.scores, args.groups)
    chash = scores_header.get("config_hash")
    records = []
    skipped = 0
    for group in groups:
        try:
            ranked = rank_group(group)
            records.append(
                {
                    "prompt_id": group.prompt_id,
                    "ranking": [vid for vid, _ in ranked],
                    "consistency_scores": [s.consistency_score for _, s in ranked],
                }
            )
        except GroupSkipped as skip:
            skipped += 1
            records.append({"prompt_id": group.prompt_id, "skipped": skip.reason})
    write_jsonl(args.output, records, _header(chash, record="ranking"))
    return _finish(args, chash, args.output) or (EXIT_PARTIAL if skipped else EXIT_OK)


def cmd_pairs(args) -> int:
    config = load_config(args.config, config_overrides(args))
    groups, scores_header = load_score_groups(args.scores, args.groups)
    chash = scores_header.get("config_hash")
    skips = []
    pairs = build_pairs(
        groups,
        tau=config.tau,
        epsilon=config.epsilon,
        max_pairs_per_group=config.max_pairs_per_group,
        on_skip=lambda pid, why: skips.append({"prompt_id": pid, "reason": why}),
    )
    header = _header(
        chash,
        record="preference_pair",
        tau=config.tau,
        epsilon=config.epsilon,
        max_pairs_per_group=config.max_pairs_per_group,
        skipped_groups=skips,
    )
    write_jsonl(args.output, [asdict(p) for p in pairs], header)
    return _finish(args, chash, args.output)


def _items_from_latents(path: str):
    from .alignment import DpoBatchItem

    manifest = _read_json_object(path, "latent manifest")
    items = []
    entries = _require_type(_require(manifest, "items", path), list, "items", path)
    for k, entry in enumerate(entries):
        clips = {key: _require(entry, key, path) for key in ("x0_w", "x0_l", "eps_w", "eps_l")}
        t = _require_number(entry, "t", path)
        try:
            items.append(DpoBatchItem(**clips, t=t))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: item {k}: {exc}") from None
    return items


def _items_from_pairs(path: str, frames: int, dims: int, seed: int):
    """Synthesize latent clips whose corruption scales with each score gap."""
    from .alignment import synthetic_preference_items

    _, records = read_jsonl(path)
    items = []
    for k, rec in enumerate(records):
        gap = _require_number(rec, "score_gap", path)
        try:
            items += synthetic_preference_items(1, frames, dims, seed=[seed, k], corruption=0.5 + 4.0 * gap)
        except ValueError as exc:
            raise ValueError(f"{path}: record {k}: {exc}") from None
    return items


def cmd_dpo_demo(args) -> int:
    from .alignment import LinearVelocityModel

    config = load_config(args.config, config_overrides(args))
    if args.latents:
        items = _items_from_latents(args.latents)
    else:
        items = _items_from_pairs(args.pairs, args.frames, args.dims, config.seed)
    if not items:
        print("error: no preference items to train on", file=sys.stderr)
        return EXIT_FATAL
    dims = items[0].x0_w.shape[1]
    ref = LinearVelocityModel.zeros(dims)
    objective = {key: getattr(config, key) for key in ("beta", "lam", "clean_mode", "penalty_branch")}
    model, trace = _lib("toy_train")(items, ref, steps=args.steps, learning_rate=args.lr, **objective)

    os.makedirs(args.out, exist_ok=True)
    chash = config.config_hash
    trace_path = os.path.join(args.out, "loss_trace.csv")
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={chash} tool_version={__version__}\n")
        fh.write("step,loss\n")
        for k, value in enumerate(trace):
            fh.write(f"{k},{value!r}\n")
    params_path = os.path.join(args.out, "final_params.json")
    _write_json(params_path, _header(
        chash,
        dims=dims,
        steps=args.steps,
        learning_rate=args.lr,
        **objective,
        final_loss=trace[-1],
        parameters=model.parameters.tolist(),
    ))
    return _finish(args, chash, trace_path, params_path)


def cmd_ssim(args) -> int:
    if args.check and not args.output:
        print("error: ssim --check needs --output: there is no file to re-read", file=sys.stderr)
        return EXIT_USAGE
    from .image import ssim
    from .io import load_frame

    config = load_config(args.config, config_overrides(args))
    chash = config.config_hash
    record = _header(
        chash,
        frame_a=os.path.basename(args.frame_a),
        frame_b=os.path.basename(args.frame_b),
        ssim=ssim(load_frame(args.frame_a), load_frame(args.frame_b)),
    )
    if not args.output:
        print(canonical_json(record))
        return EXIT_OK
    _write_json(args.output, record)
    return _finish(args, chash, args.output)


# -------------------------------------------------------------------- parsing

def _finite_float(text: str) -> float:
    """An argparse type: a finite float, so nan or inf is a usage error naming the flag."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _int_at_least(minimum: int):
    """An argparse type: an int >= minimum, so a smaller value is a usage error naming the flag."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return convert


# The scene settings of `synth`: (flag, TrajectorySpec field, type, help).  The
# parser adds one flag per row, defaulting to TrajectorySpec's value, and
# cmd_synth builds its TrajectorySpec from them and records them in scene.json.
_SCENE_FLAGS = (
    ("--kind", "kind", str, "camera trajectory"),
    ("--frames", "n_frames", int, "frame count"),
    ("--width", "width", int, "image width"),
    ("--height", "height", int, "image height"),
    ("--focal", "focal", _finite_float, "focal length in px"),
    ("--radius", "radius", _finite_float, "trajectory radius"),
    ("--travel", "travel", _finite_float, "dolly travel fraction"),
    ("--jitter", "jitter_sigma", _finite_float, "pixel jitter sigma"),
    ("--outliers", "outlier_fraction", _finite_float, "outlier fraction per pair"),
    ("--dynamic", "dynamic_fraction", _finite_float, "moving-point fraction"),
    ("--dynamic-speed", "dynamic_speed", _finite_float, "world units per frame for moving points"),
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems with exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common(parser, configurable=True):
    parser.add_argument("--check", action="store_true", help="re-validate embedded config hashes after writing")
    if configurable:
        parser.add_argument("--config", help="JSON config file; flags override its values")
        _config_flag(parser, "--seed", "master seed", type=int)


def _config_flag(parser, flag, help, dest=None, **kwargs):
    """A flag that overrides one config key; its help shows the key's default."""
    dest = dest or flag[2:].replace("-", "_")
    parser.add_argument(flag, dest=dest, help=f"{help} (default: {_DEFAULTS[dest]})", **kwargs)


def _add_scoring_flags(parser):
    _config_flag(parser, "--gaps", "frame index gaps", type=int, nargs="+")
    _config_flag(parser, "--stride", "starting-index stride", type=int)
    _config_flag(parser, "--min-matches", "fewest matches worth estimating from", type=int)
    _config_flag(parser, "--aggregation", "per-video aggregation", choices=AGGREGATIONS)
    _config_flag(parser, "--static-threshold", "mean-SSIM level above which a video is near-static", type=float)
    _config_flag(parser, "--normalize-by-diagonal", "divide pixel coordinates by the image diagonal", action=argparse.BooleanOptionalAction)
    _config_flag(parser, "--ransac-iterations", "RANSAC iterations", type=int)
    _config_flag(parser, "--inlier-threshold", "inlier threshold, px^2", type=float)
    _config_flag(parser, "--octaves", "scale-space octaves", type=int)
    _config_flag(parser, "--ratio-threshold", "nearest-neighbour ratio cutoff", type=float)
    _config_flag(parser, "--contrast-threshold", "keypoint contrast cutoff", type=float)
    _config_flag(parser, "--max-keypoints", "keypoint budget per frame", type=int)
    _config_flag(parser, "--max-dim", "downscale frames so max(width, height) <= this before detection; None keeps full size", type=int)


def build_parser() -> _Parser:
    parser = _Parser(prog="epigeo", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"epigeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic scene directory")
    _add_common(p)
    p.add_argument("--out", required=True, help="output scene directory")
    for flag, name, convert, help in _SCENE_FLAGS:
        choices = TRAJECTORY_KINDS if name == "kind" else None
        p.add_argument(flag, dest=name, type=convert, choices=choices, default=getattr(_SPEC, name),
                       metavar=None if choices else flag[2:].replace("-", "_").upper(),
                       help=f"{help} (default: %(default)s)")
    p.add_argument("--points", type=int, default=150, help="scene points (default: %(default)s)")
    p.add_argument("--extent", type=_finite_float, default=DEFAULT_SCENE_EXTENT, help="scene half-extent (default: %(default)s)")
    p.add_argument("--dot-sigma", dest="dot_sigma", type=_finite_float, default=DEFAULT_DOT_SIGMA, help="rendered dot size in px (default: %(default)s)")
    p.add_argument("--texture", type=_finite_float, default=DEFAULT_TEXTURE_AMPLITUDE, help="background texture amplitude (default: %(default)s)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("score", help="score videos for 3D consistency")
    _add_common(p)
    _add_scoring_flags(p)
    p.add_argument("input", help="frame directory or manifest JSON")
    p.add_argument("--output", required=True, help="output JSONL path")
    p.add_argument("--per-pair", dest="per_pair", action="store_true", help="embed per-pair scores in each record")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("rank", help="rank scored generations within groups")
    _add_common(p, configurable=False)
    p.add_argument("--scores", required=True, help="video-score JSONL from `score`")
    p.add_argument("--groups", required=True, help="group manifest JSON (prompt_id -> video_ids)")
    p.add_argument("--output", required=True, help="output JSONL path")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("pairs", help="build preference pairs from scored groups")
    _add_common(p)
    p.add_argument("--scores", required=True, help="video-score JSONL from `score`")
    p.add_argument("--groups", required=True, help="group manifest JSON (prompt_id -> video_ids)")
    p.add_argument("--output", required=True, help="output JSONL path")
    _config_flag(p, "--tau", "minimum score gap", type=float)
    _config_flag(p, "--eps", "minimum winner score", dest="epsilon", type=float)
    _config_flag(p, "--max-pairs-per-group", "pair budget per group", type=int)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("dpo-demo", help="train the toy preference model")
    _add_common(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--pairs", help="preference-pair JSONL; latents are synthesized from score gaps")
    src.add_argument("--latents", help="explicit latent manifest JSON")
    p.add_argument("--out", required=True, help="output directory (loss_trace.csv, final_params.json)")
    p.add_argument("--steps", type=int, default=DEFAULT_STEPS, help="gradient steps (default: %(default)s)")
    p.add_argument("--lr", type=_finite_float, default=DEFAULT_LEARNING_RATE, help="learning rate (default: %(default)s)")
    p.add_argument("--frames", type=_int_at_least(2), default=DEFAULT_CLIP_FRAMES, help="synthesized clip frames (default: %(default)s)")
    p.add_argument("--dims", type=_int_at_least(1), default=DEFAULT_CLIP_DIMS, help="synthesized clip dims (default: %(default)s)")
    _config_flag(p, "--beta", "preference strength", type=float)
    _config_flag(p, "--lambda", "temporal penalty weight", dest="lam", type=float)
    _config_flag(p, "--clean-mode", "clean-sample reconstruction convention", choices=CLEAN_MODES)
    _config_flag(p, "--penalty-branch", "branch the penalty applies to", choices=PENALTY_BRANCHES)
    p.set_defaults(func=cmd_dpo_demo)

    p = sub.add_parser("ssim", help="structural similarity of two frames")
    _add_common(p)
    p.add_argument("frame_a", help="first image (PGM or PNG)")
    p.add_argument("frame_b", help="second image (PGM or PNG)")
    p.add_argument("--output", help="write the JSON record here instead of stdout")
    p.set_defaults(func=cmd_ssim)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "numpy" not in sys.modules:  # BLAS reads these once, as NumPy loads
        for var in BLAS_THREAD_VARS:
            os.environ.setdefault(var, "1")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:  # DecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
