"""Command-line interface.

One executable with subcommands covering the pipeline: `synth` generates
ground-truth scenes, `score` measures videos, `rank` orders generations per
prompt, `pairs` builds preference pairs, `dpo-demo` runs the toy alignment
trainer, and `ssim` compares two frames.

Every subcommand but `rank` is configured by a RunConfig: the defaults of the
library's parameter records, overridden by an optional JSON config file,
overridden by explicit flags.  The canonical serialization of the effective
config is hashed and embedded in every output artifact, and all outputs are
deterministic given flags plus seed (reruns are byte identical).  `rank` reads
no configuration; its output carries the config hash of its scores file.

Malformed input files end in a fatal error that names the file and the
offending key.  Exit codes: 0 success, 1 fatal error, 2 partial success (some
videos flagged or groups skipped), 64 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields

from . import __version__
from .alignment import (
    CLEAN_MODES,
    DEFAULT_BETA,
    DEFAULT_CLEAN_MODE,
    DEFAULT_LAMBDA,
    DEFAULT_PENALTY_BRANCH,
    PENALTY_BRANCHES,
    DpoBatchItem,
    LinearVelocityModel,
    synthetic_preference_items,
    toy_train,
)
from .dataset import (
    DEFAULT_EPSILON,
    DEFAULT_MAX_PAIRS_PER_GROUP,
    DEFAULT_TAU,
    GenerationGroup,
    GroupSkipped,
    build_pairs,
    rank_group,
)
from .features import FeatureParams
from .image import DecodeError, ssim
from .io import (
    camera_to_record,
    canonical_json,
    list_frame_files,
    load_frame,
    load_frames,
    preference_pair_to_record,
    read_jsonl,
    video_score_from_record,
    video_score_to_record,
    write_jsonl,
    write_pgm,
)
from .scoring import AGGREGATIONS, ScoringParams, score_video
from .synth import (
    TRAJECTORY_KINDS,
    TrajectorySpec,
    camera_trajectory,
    dynamic_motion,
    generate_scene,
    project_scene,
    render_video,
)

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64


@dataclass(frozen=True)
class RunConfig:
    """Run-level settings plus the scoring parameters of one run.

    Feature and scoring settings live only in ``scoring``, which carries its
    FeatureParams.  Config files, flags and :meth:`to_dict` address all of
    them by one flat set of keys.
    """

    seed: int = 0
    # preference-pair thresholds
    tau: float = DEFAULT_TAU
    epsilon: float = DEFAULT_EPSILON
    max_pairs_per_group: int = DEFAULT_MAX_PAIRS_PER_GROUP
    # alignment objective
    beta: float = DEFAULT_BETA
    lam: float = DEFAULT_LAMBDA
    clean_mode: str = DEFAULT_CLEAN_MODE
    penalty_branch: str = DEFAULT_PENALTY_BRANCH
    scoring: ScoringParams = field(default_factory=ScoringParams)

    def to_dict(self) -> dict:
        """The flat key layout that config files use and the hash covers."""
        flat = asdict(self)
        scoring = flat.pop("scoring")
        flat.update(scoring.pop("feature_params"))
        flat.update(scoring)
        flat["gaps"] = list(flat["gaps"])
        return flat

    @property
    def config_hash(self) -> str:
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]


def _keys(cls, nested=None) -> tuple:
    return tuple(f.name for f in fields(cls) if f.name != nested)


_RUN_KEYS = _keys(RunConfig, "scoring")
_SCORING_KEYS = _keys(ScoringParams, "feature_params")
_FEATURE_KEYS = _keys(FeatureParams)
_DEFAULTS = RunConfig().to_dict()
_SPEC = TrajectorySpec()


def _fits(value, default) -> bool:
    """Whether a JSON value has the type of the default it replaces."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    if default is None:  # max_dim: an optional int
        return value is None or _fits(value, 0)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Defaults, then config-file values, then explicit flag overrides."""
    values = {}
    if path is not None:
        file_values = _read_json_object(path, "config file")
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            if not _fits(value, _DEFAULTS[key]):
                raise ValueError(f"{path}: config key {key!r} has the wrong type: {value!r}")
        values.update(file_values)
    values.update({k: v for k, v in overrides.items() if v is not None})

    def pick(keys):
        return {k: values[k] for k in keys if k in values}

    features = FeatureParams(**pick(_FEATURE_KEYS))
    scoring = ScoringParams(**pick(_SCORING_KEYS), feature_params=features)
    return RunConfig(**pick(_RUN_KEYS), scoring=scoring)


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
    value = _require(entry, key, path)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: key {key!r} holds {value!r}, not a number") from None


# ------------------------------------------------------------------ input sets

def collect_videos(input_path: str):
    """Resolve a frame directory or manifest into (video_id, frame_paths)."""
    if os.path.isfile(input_path):
        if not input_path.endswith(".json"):
            raise ValueError("input file must be a .json manifest")
        manifest = _read_json_object(input_path, "manifest")
        base = os.path.dirname(os.path.abspath(input_path))
        videos = []
        for entry in _require_type(manifest.get("videos", []), list, "videos", input_path):
            vid = _require(entry, "id", input_path)
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
        direct = list_frame_files(input_path)
        if direct:
            return [(os.path.basename(os.path.normpath(input_path)), direct)]
        nested = os.path.join(input_path, "frames")
        if os.path.isdir(nested) and list_frame_files(nested):
            return [(os.path.basename(os.path.normpath(input_path)), list_frame_files(nested))]
        videos = []
        for name in sorted(os.listdir(input_path)):
            sub = os.path.join(input_path, name)
            if os.path.isdir(sub):
                frames = list_frame_files(sub)
                if not frames and os.path.isdir(os.path.join(sub, "frames")):
                    frames = list_frame_files(os.path.join(sub, "frames"))
                if frames:
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
        by_id[_require_id(vs.video_id, "video_id", scores_path)] = vs
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


# ---------------------------------------------------------------- subcommands

def cmd_synth(args) -> int:
    config = load_config(args.config, config_overrides(args))
    scene = generate_scene(args.points, extent=args.extent, seed=config.seed)
    spec = TrajectorySpec(
        kind=args.kind,
        n_frames=args.frames,
        focal=args.focal,
        width=args.width,
        height=args.height,
        radius=args.radius,
        travel=args.travel,
        jitter_sigma=args.jitter,
        outlier_fraction=args.outliers,
        dynamic_fraction=args.dynamic,
        dynamic_speed=args.dynamic_speed,
    )
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
    scene_record = {
        "config_hash": chash,
        "tool_version": __version__,
        "seed": config.seed,
        "n_points": args.points,
        "extent": args.extent,
        "kind": spec.kind,
        "n_frames": spec.n_frames,
        "width": spec.width,
        "height": spec.height,
        "focal": spec.focal,
        "jitter_sigma": spec.jitter_sigma,
        "outlier_fraction": spec.outlier_fraction,
        "dynamic_fraction": spec.dynamic_fraction,
        "dynamic_speed": spec.dynamic_speed,
        "dot_sigma": args.dot_sigma,
        "texture_amplitude": args.texture,
        "dynamic_point_ids": sorted(int(i) for i in dynamic_idx),
        "cameras": [camera_to_record(c) for c in cams],
    }
    with open(os.path.join(args.out, "scene.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(scene_record) + "\n")

    corr_records = []
    for (i, j) in sorted(projected.pairs):
        cs = projected.pairs[(i, j)]
        for k in range(len(cs)):
            corr_records.append(
                {
                    "i": i,
                    "j": j,
                    "index": int(cs.indices[k]),
                    "x": float(cs.a[k, 0]),
                    "y": float(cs.a[k, 1]),
                    "xp": float(cs.b[k, 0]),
                    "yp": float(cs.b[k, 1]),
                    "label": str(cs.labels[k]),
                }
            )
    write_jsonl(
        os.path.join(args.out, "correspondences.jsonl"),
        corr_records,
        header={"config_hash": chash, "tool_version": __version__, "record": "correspondence"},
    )

    if args.check:
        ok = check_jsonl(os.path.join(args.out, "correspondences.jsonl"), chash)
        with open(os.path.join(args.out, "scene.json"), "r", encoding="utf-8") as fh:
            ok = ok and json.load(fh).get("config_hash") == chash
        if not ok:
            print("error: embedded config hash mismatch", file=sys.stderr)
            return EXIT_FATAL
    return EXIT_OK


def cmd_score(args) -> int:
    config = load_config(args.config, config_overrides(args))
    videos = collect_videos(args.input)
    if not videos:
        print(f"error: no frames found under {args.input}", file=sys.stderr)
        return EXIT_FATAL
    chash = config.config_hash
    scores = [
        score_video(load_frames(paths), config.scoring, video_id=vid, seed=config.seed, config_hash=chash)
        for vid, paths in videos
    ]
    records = [video_score_to_record(vs, per_pair=args.per_pair) for vs in scores]
    header = {"config_hash": chash, "tool_version": __version__, "record": "video_score"}
    write_jsonl(args.output, records, header)

    if args.check and not check_jsonl(args.output, chash):
        print("error: embedded config hash mismatch", file=sys.stderr)
        return EXIT_FATAL
    flagged = any(vs.near_static or vs.insufficient_texture for vs in scores)
    return EXIT_PARTIAL if flagged else EXIT_OK


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
    header = {"config_hash": chash, "tool_version": __version__, "record": "ranking"}
    write_jsonl(args.output, records, header)
    if args.check and not check_jsonl(args.output, chash):
        print("error: embedded config hash mismatch", file=sys.stderr)
        return EXIT_FATAL
    return EXIT_PARTIAL if skipped else EXIT_OK


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
    header = {
        "config_hash": chash,
        "tool_version": __version__,
        "record": "preference_pair",
        "tau": config.tau,
        "epsilon": config.epsilon,
        "max_pairs_per_group": config.max_pairs_per_group,
        "skipped_groups": skips,
    }
    write_jsonl(args.output, [preference_pair_to_record(p) for p in pairs], header)
    if args.check and not check_jsonl(args.output, chash):
        print("error: embedded config hash mismatch", file=sys.stderr)
        return EXIT_FATAL
    return EXIT_OK


def _items_from_latents(path: str):
    manifest = _read_json_object(path, "latent manifest")
    items = []
    for entry in _require_type(_require(manifest, "items", path), list, "items", path):
        clips = {k: _require(entry, k, path) for k in ("x0_w", "x0_l", "eps_w", "eps_l")}
        items.append(DpoBatchItem(**clips, t=_require_number(entry, "t", path)))
    return items


def _items_from_pairs(path: str, frames: int, dims: int, seed: int):
    """Synthesize latent clips whose corruption scales with each score gap."""
    _, records = read_jsonl(path)
    items = []
    for k, rec in enumerate(records):
        gap = _require_number(rec, "score_gap", path)
        items.extend(
            synthetic_preference_items(
                1, frames, dims, seed=[seed, k], corruption=0.5 + 4.0 * gap
            )
        )
    return items


def cmd_dpo_demo(args) -> int:
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
    model, trace = toy_train(
        items,
        ref,
        steps=args.steps,
        learning_rate=args.lr,
        beta=config.beta,
        lam=config.lam,
        penalty_branch=config.penalty_branch,
        clean_mode=config.clean_mode,
    )

    os.makedirs(args.out, exist_ok=True)
    chash = config.config_hash
    trace_path = os.path.join(args.out, "loss_trace.csv")
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config_hash={chash} tool_version={__version__}\n")
        fh.write("step,loss\n")
        for k, value in enumerate(trace):
            fh.write(f"{k},{value!r}\n")
    params_record = {
        "config_hash": chash,
        "tool_version": __version__,
        "dims": dims,
        "steps": args.steps,
        "learning_rate": args.lr,
        "beta": config.beta,
        "lam": config.lam,
        "clean_mode": config.clean_mode,
        "penalty_branch": config.penalty_branch,
        "final_loss": trace[-1],
        "parameters": model.parameters.tolist(),
    }
    with open(os.path.join(args.out, "final_params.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(params_record) + "\n")

    if args.check:
        with open(trace_path, "r", encoding="utf-8") as fh:
            first = fh.readline()
        with open(os.path.join(args.out, "final_params.json"), "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        if chash not in first or saved.get("config_hash") != chash:
            print("error: embedded config hash mismatch", file=sys.stderr)
            return EXIT_FATAL
    return EXIT_OK


def cmd_ssim(args) -> int:
    config = load_config(args.config, config_overrides(args))
    value = ssim(load_frame(args.frame_a), load_frame(args.frame_b))
    record = {
        "config_hash": config.config_hash,
        "tool_version": __version__,
        "frame_a": os.path.basename(args.frame_a),
        "frame_b": os.path.basename(args.frame_b),
        "ssim": value,
    }
    line = canonical_json(record)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(line + "\n")
    else:
        print(line)
    return EXIT_OK


# -------------------------------------------------------------------- parsing

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
    p.add_argument("--kind", choices=TRAJECTORY_KINDS, default=_SPEC.kind, help="camera trajectory (default: %(default)s)")
    p.add_argument("--frames", type=int, default=_SPEC.n_frames, help="frame count (default: %(default)s)")
    p.add_argument("--points", type=int, default=150, help="scene points (default: %(default)s)")
    p.add_argument("--extent", type=float, default=2.5, help="scene half-extent (default: %(default)s)")
    p.add_argument("--width", type=int, default=_SPEC.width, help="image width (default: %(default)s)")
    p.add_argument("--height", type=int, default=_SPEC.height, help="image height (default: %(default)s)")
    p.add_argument("--focal", type=float, default=_SPEC.focal, help="focal length in px (default: %(default)s)")
    p.add_argument("--radius", type=float, default=_SPEC.radius, help="trajectory radius (default: %(default)s)")
    p.add_argument("--travel", type=float, default=_SPEC.travel, help="dolly travel fraction (default: %(default)s)")
    p.add_argument("--jitter", type=float, default=_SPEC.jitter_sigma, help="pixel jitter sigma (default: %(default)s)")
    p.add_argument("--outliers", type=float, default=_SPEC.outlier_fraction, help="outlier fraction per pair (default: %(default)s)")
    p.add_argument("--dynamic", type=float, default=_SPEC.dynamic_fraction, help="moving-point fraction (default: %(default)s)")
    p.add_argument("--dynamic-speed", dest="dynamic_speed", type=float, default=_SPEC.dynamic_speed, help="world units per frame for moving points (default: %(default)s)")
    p.add_argument("--dot-sigma", dest="dot_sigma", type=float, default=3.0, help="rendered dot size in px (default: %(default)s)")
    p.add_argument("--texture", type=float, default=0.02, help="background texture amplitude (default: %(default)s)")
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
    p.add_argument("--steps", type=int, default=200, help="gradient steps (default: %(default)s)")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate (default: %(default)s)")
    p.add_argument("--frames", type=int, default=6, help="synthesized clip frames (default: %(default)s)")
    p.add_argument("--dims", type=int, default=4, help="synthesized clip dims (default: %(default)s)")
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
    try:
        return args.func(args)
    except (ValueError, OSError, DecodeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
