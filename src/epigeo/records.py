"""Settings and result records, their defaults, and the JSONL files they travel in.

Everything here is plain Python: importing this module loads no NumPy, so
the command line can build its parser and run `rank` and `pairs` without the
numeric stack.  The modules that compute import what they use from here.

Settings records alone declare their defaults and check their values.  One
field rule types every int, float and bool field: an int takes an integral
number (4.0 is stored as 4; 1.5 and True are errors), a float any real number
but a bool (4 is stored as 4.0), a bool only a bool.  :class:`RunConfig`'s
pair and objective ranges are the checks ``dataset`` and ``alignment`` use.
A JSONL record is exactly its dataclass's fields; :func:`from_record` builds
any of them back.  JSONL files are UTF-8 with one JSON object per line; an
optional metadata header is a single leading line starting with '#'.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

# ------------------------------------------------------------------ settings


def _as_int(value):
    """value as an int when it is an integral number (4.0 counts; 1.5, nan,
    "4" and True do not), else None."""
    if isinstance(value, bool):
        return None
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == value else None


def _as_float(value):
    """value as a float when it is a real number (4 counts; "4" and True do not), else None."""
    try:
        return float(value) if hasattr(value, "__float__") and not isinstance(value, bool) else None
    except (TypeError, ValueError, OverflowError):
        return None


# the field rule: declared type -> (the value as that type or None, its name in errors)
_FIELD_TYPES = {
    "int": (_as_int, "an integer"),
    "float": (_as_float, "a real number"),
    "bool": (lambda value: value if isinstance(value, bool) else None, "a bool"),
}


def _as_type(name: str, value, kind: str):
    """value as a ``kind`` ("int", "float" or "bool"), or a ValueError naming ``name``."""
    typed = _FIELD_TYPES[kind][0](value)
    if typed is None:
        raise ValueError(f"{name} must be {_FIELD_TYPES[kind][1]}, got {value!r}")
    return typed


def _store_typed_fields(record) -> None:
    """Store each int, float and bool field of a frozen settings record as that
    type, or raise ValueError naming it; an `int | None` field may be None."""
    for f in fields(record):
        value = getattr(record, f.name)
        kind = "int" if f.type == "int | None" and value is not None else f.type
        if kind in _FIELD_TYPES:
            object.__setattr__(record, f.name, _as_type(f.name, value, kind))


@dataclass(frozen=True)
class FeatureParams:
    """Detector, descriptor, and matcher settings (canonical defaults)."""

    octaves: int = 4
    scales_per_octave: int = 3
    base_sigma: float = 1.6
    contrast_threshold: float = 0.03
    edge_ratio_threshold: float = 10.0
    ratio_threshold: float = 0.8
    mutual: bool = True
    max_keypoints: int = 2000
    max_dim: int | None = None

    def __post_init__(self):
        _store_typed_fields(self)
        if self.octaves < 1:
            raise ValueError("octaves must be >= 1")
        if self.scales_per_octave < 3:
            raise ValueError("scales_per_octave must be >= 3")
        if not (math.isfinite(self.base_sigma) and self.base_sigma > 0):
            raise ValueError(f"base_sigma must be positive and finite, got {self.base_sigma}")
        if not (math.isfinite(self.contrast_threshold) and self.contrast_threshold >= 0):
            raise ValueError(
                f"contrast_threshold must be >= 0 and finite, got {self.contrast_threshold}"
            )
        if not (math.isfinite(self.edge_ratio_threshold) and self.edge_ratio_threshold > 0):
            raise ValueError(
                f"edge_ratio_threshold must be positive and finite, got {self.edge_ratio_threshold}"
            )
        if not 0.0 < self.ratio_threshold <= 1.0:
            raise ValueError("ratio_threshold must be in (0, 1]")
        if self.max_keypoints < 1:
            raise ValueError("max_keypoints must be >= 1")
        if self.max_dim is not None and self.max_dim < 16:
            raise ValueError("max_dim must be None or >= 16")


AGGREGATIONS = ("mean", "median", "trimmed_mean")


def validated_gaps(gaps) -> tuple:
    """Frame index gaps as a tuple of ints: non-empty, each a positive
    integer (an integral float such as 4.0 counts, 1.5 and True do not)."""
    try:
        given = tuple(gaps)
    except TypeError:
        raise ValueError(f"gaps must be integers, got {gaps!r}") from None
    ints = tuple(_as_int(g) for g in given)
    if None in ints:
        raise ValueError(f"gaps must be integers, got {list(given)}")
    if not ints:
        raise ValueError("gaps must be non-empty")
    if any(g < 1 for g in ints):
        raise ValueError("gaps must be positive")
    return ints


DEFAULT_RANSAC_ITERATIONS = 2000
DEFAULT_INLIER_THRESHOLD = 1.0  # px^2


@dataclass(frozen=True)
class ScoringParams:
    """Knobs for pair selection, estimation, and aggregation."""

    gaps: tuple = (4, 8)
    stride: int = 4
    min_matches: int = 30
    ransac_iterations: int = DEFAULT_RANSAC_ITERATIONS
    inlier_threshold: float = DEFAULT_INLIER_THRESHOLD  # converted if coordinates are rescaled
    aggregation: str = "mean"
    static_threshold: float = 0.90
    normalize_by_diagonal: bool = True
    feature_params: FeatureParams = field(default_factory=FeatureParams)

    def __post_init__(self):
        _store_typed_fields(self)
        object.__setattr__(self, "gaps", validated_gaps(self.gaps))
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if self.min_matches < 8:
            raise ValueError("min_matches must be >= 8")
        if self.ransac_iterations < 1:
            raise ValueError("ransac_iterations must be >= 1")
        if not (math.isfinite(self.inlier_threshold) and self.inlier_threshold > 0):
            raise ValueError(
                f"inlier_threshold must be positive and finite, got {self.inlier_threshold}"
            )
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
        if not 0.0 < self.static_threshold <= 1.0:
            raise ValueError("static_threshold must be in (0, 1]")


TRAJECTORY_KINDS = ("orbit", "dolly", "arc")
DEFAULT_DOT_SIGMA = 3.0  # rendered dot size, px
DEFAULT_SCENE_EXTENT = 2.5  # scene half-extent, world units
DEFAULT_TEXTURE_AMPLITUDE = 0.02  # background texture, below the detector's contrast cutoff


@dataclass(frozen=True)
class TrajectorySpec:
    """Camera path plus projection-time corruption settings.

    kind:
      orbit - full circle of radius `radius` around the scene, looking in
      dolly - straight approach along the view axis (fixed orientation)
      arc   - partial orbit (arc_span radians) with a vertical rise
    jitter_sigma and the fractions control the corruption applied by
    project_scene; fractions must sum below 1.
    """

    kind: str = "orbit"
    n_frames: int = 8
    focal: float = 500.0
    width: int = 640
    height: int = 480
    principal_point: tuple | None = None
    radius: float = 8.0
    travel: float = 0.4
    arc_span: float = math.pi / 2
    arc_rise: float = 1.0
    jitter_sigma: float = 0.0
    outlier_fraction: float = 0.0
    dynamic_fraction: float = 0.0
    dynamic_speed: float = 0.05

    def __post_init__(self):
        _store_typed_fields(self)
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.n_frames < 2:
            raise ValueError("n_frames must be >= 2")
        if self.focal <= 0 or self.radius <= 0:
            raise ValueError("focal and radius must be positive")
        if not 0.0 <= self.outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")
        if not 0.0 <= self.dynamic_fraction < 1.0:
            raise ValueError("dynamic_fraction must be in [0, 1)")
        if self.outlier_fraction + self.dynamic_fraction >= 1.0:
            raise ValueError("outlier and dynamic fractions must sum below 1")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        if not 0.0 < self.travel < 1.0:
            raise ValueError("travel must be in (0, 1)")

    @property
    def intrinsics(self):
        """The (3, 3) camera matrix K as a NumPy array."""
        import numpy as np

        px, py = self.principal_point or (self.width / 2.0, self.height / 2.0)
        return np.array(
            [[self.focal, 0.0, px], [0.0, self.focal, py], [0.0, 0.0, 1.0]]
        )


# preference-pair thresholds (dataset)
DEFAULT_TAU = 0.05
DEFAULT_EPSILON = 0.5
DEFAULT_MAX_PAIRS_PER_GROUP = 1

# the preference objective and its toy trainer (alignment)
CLEAN_MODES = ("self_consistent", "reverse_time")
PENALTY_BRANCHES = ("winner", "both")
DEFAULT_BETA = 1.0
DEFAULT_LAMBDA = 0.001
DEFAULT_CLEAN_MODE = "self_consistent"
DEFAULT_PENALTY_BRANCH = "winner"
DEFAULT_STEPS = 200
DEFAULT_LEARNING_RATE = 1e-3
# frames and dims of a synthesized toy clip
DEFAULT_CLIP_FRAMES = 6
DEFAULT_CLIP_DIMS = 4


def check_pair_settings(tau, epsilon, max_pairs_per_group) -> None:
    """Raise ValueError unless the preference-pair thresholds are in range."""
    if not tau >= 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if not max_pairs_per_group >= 1:
        raise ValueError(f"max_pairs_per_group must be >= 1, got {max_pairs_per_group}")


def check_objective_settings(beta=DEFAULT_BETA, lam=DEFAULT_LAMBDA, clean_mode=DEFAULT_CLEAN_MODE,
                             penalty_branch=DEFAULT_PENALTY_BRANCH) -> None:
    """Raise ValueError unless the objective's settings are valid; one not given is its default."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not lam >= 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if clean_mode not in CLEAN_MODES:
        raise ValueError(f"clean_mode must be one of {CLEAN_MODES}, got {clean_mode!r}")
    if penalty_branch not in PENALTY_BRANCHES:
        raise ValueError(f"penalty_branch must be one of {PENALTY_BRANCHES}, got {penalty_branch!r}")


@dataclass(frozen=True)
class RunConfig:
    """Run-level settings plus the scoring parameters of one command-line run.

    Config files, flags, :meth:`to_dict` and :meth:`from_dict` address them
    all by one flat set of keys; feature settings live in ``scoring``.
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

    def __post_init__(self):
        _store_typed_fields(self)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_pair_settings(self.tau, self.epsilon, self.max_pairs_per_group)
        check_objective_settings(self.beta, self.lam, self.clean_mode, self.penalty_branch)

    def to_dict(self) -> dict:
        """The flat key layout that config files use and the hash covers."""
        flat = asdict(self)
        scoring = flat.pop("scoring")
        flat.update(scoring.pop("feature_params"))
        flat.update(scoring)
        flat["gaps"] = list(flat["gaps"])
        return flat

    @classmethod
    def from_dict(cls, flat: dict) -> "RunConfig":
        """The RunConfig of :meth:`to_dict`'s flat keys, defaults filling those
        not given; an unknown key or a non-finite float is a ValueError."""
        rest = dict(flat)
        run, scoring, features = (
            {f.name: rest.pop(f.name) for f in fields(c)
             if f.name in rest and f.name not in ("scoring", "feature_params")}
            for c in (cls, ScoringParams, FeatureParams)
        )
        if rest:
            raise ValueError(f"unknown config keys: {sorted(rest)}")
        for key, value in flat.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"config key {key!r} must be finite, got {value}")
        scoring = ScoringParams(**scoring, feature_params=FeatureParams(**features))
        return cls(**run, scoring=scoring)

    @property
    def config_hash(self) -> str:
        digest = hashlib.sha256(canonical_json(self.to_dict()).encode("utf-8"))
        return digest.hexdigest()[:16]


# ------------------------------------------------------------------- results

STATUS_OK = "ok"
STATUS_TOO_FEW_MATCHES = "too_few_matches"
STATUS_ESTIMATION_FAILED = "estimation_failed"
STATUS_DEGENERATE = "degenerate"


@dataclass(frozen=True)
class PairScore:
    """Epipolar consistency of one frame pair.

    ``mean_inlier_sampson`` and ``median_inlier_sampson`` are populated only
    when ``status`` is ``ok``; for every other status they are None.
    """

    frame_i: int
    frame_j: int
    n_matches: int
    n_inliers: int
    mean_inlier_sampson: float | None
    median_inlier_sampson: float | None
    status: str

    def __post_init__(self):
        if self.n_inliers > self.n_matches:
            raise ValueError("n_inliers cannot exceed n_matches")
        has_stats = self.mean_inlier_sampson is not None and self.median_inlier_sampson is not None
        if (self.status == STATUS_OK) != has_stats:
            raise ValueError("statistics must be present exactly when status is ok")


@dataclass(frozen=True)
class VideoScore:
    """Aggregate consistency of one video.

    ``consistency_error`` is None when no frame pair could be scored; in that
    case ``consistency_score`` is None too and ``insufficient_texture`` is
    set.  Otherwise ``consistency_score == 1 / (1 + consistency_error)``.
    """

    video_id: str
    consistency_error: float | None
    consistency_score: float | None
    motion_level: float | None
    n_valid_pairs: int
    near_static: bool
    insufficient_texture: bool
    config_hash: str | None = None
    pair_scores: tuple = ()

    def __post_init__(self):
        if self.consistency_error is None:
            if self.consistency_score is not None:
                raise ValueError("consistency_score must be None when error is undefined")
        else:
            if self.consistency_error < 0:
                raise ValueError("consistency_error must be >= 0")
            expected = 1.0 / (1.0 + self.consistency_error)
            if self.consistency_score != expected:
                raise ValueError("consistency_score must equal 1/(1+consistency_error)")
        if self.motion_level is None and self.near_static:
            raise ValueError("near_static requires a motion level")

    @property
    def flagged(self) -> bool:
        """Left out of ranking and pairs: near-static, short of texture, or unscored."""
        return self.near_static or self.insufficient_texture or self.consistency_score is None


# --------------------------------------------------------------------- JSONL

def canonical_json(obj) -> str:
    """One fixed serialization per value: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_jsonl(path, records, header: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write("# " + canonical_json(header) + "\n")
        for rec in records:
            fh.write(canonical_json(rec) + "\n")


def read_jsonl(path):
    """Returns (header dict or None, list of records).

    A line that is not JSON raises a ValueError naming the file and the line.
    """
    header = None
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for k, line in enumerate(fh):
            line = line.strip()
            if not line or (line.startswith("#") and k > 0):
                continue
            try:
                if line.startswith("#"):
                    header = json.loads(line.lstrip("# "))
                else:
                    records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {k + 1}: {exc}") from None
    return header, records


def from_record(cls, rec: dict):
    """The dataclass ``cls`` built from the keys of ``rec`` that name its fields.

    Unknown keys are ignored; a missing field without a default is a KeyError
    naming it.
    """
    return cls(**{
        f.name: rec[f.name] for f in fields(cls)
        if f.name in rec or (f.default is MISSING and f.default_factory is MISSING)
    })


def video_score_to_record(vs: VideoScore, per_pair: bool = False) -> dict:
    """The fields of ``vs``; ``pair_scores`` only when ``per_pair``."""
    rec = asdict(vs)
    if not per_pair:
        del rec["pair_scores"]
    return rec


def video_score_from_record(rec: dict) -> VideoScore:
    vs = from_record(VideoScore, rec)
    return replace(vs, pair_scores=tuple(from_record(PairScore, p) for p in vs.pair_scores))
