"""File formats: PGM frames, JSONL records, and score/pair serialization.

All writers are deterministic: same inputs produce the same bytes, so reruns
can be compared with a plain file diff.  JSONL files are UTF-8 with one JSON
object per line; an optional metadata header is a single leading line starting
with '#'.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .dataset import PreferencePair
from .epipolar import CameraMatrix
from .image import DecodeError, Frame, decode_frame
from .scoring import PairScore, VideoScore

FRAME_EXTENSIONS = (".pgm", ".png")
PGM_MAXVAL = 65535


def canonical_json(obj) -> str:
    """One fixed serialization per value: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


# -------------------------------------------------------------------- frames

def frame_to_pgm_bytes(frame: Frame, comment: str | None = None) -> bytes:
    """Encode a frame as a 16-bit binary PGM."""
    header = "P5\n"
    if comment:
        if "\n" in comment:
            raise ValueError("comment must be a single line")
        header += f"# {comment}\n"
    header += f"{frame.width} {frame.height}\n{PGM_MAXVAL}\n"
    data = np.round(frame.pixels * PGM_MAXVAL).astype(">u2").tobytes()
    return header.encode("ascii") + data


def write_pgm(frame: Frame, path, comment: str | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(frame_to_pgm_bytes(frame, comment))


def load_frame(path) -> Frame:
    """Decode one frame file; a DecodeError names the file."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return decode_frame(data)
    except DecodeError as exc:
        raise DecodeError(f"{path}: {exc.message}", exc.offset) from None


def list_frame_files(directory):
    """Image files in a directory, sorted by name for a stable frame order."""
    names = sorted(
        n for n in os.listdir(directory)
        if n.lower().endswith(FRAME_EXTENSIONS)
    )
    return [os.path.join(directory, n) for n in names]


def load_frames(paths):
    return [load_frame(p) for p in paths]


# --------------------------------------------------------------------- JSONL

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


# ------------------------------------------------------------------- records

def pair_score_to_record(p: PairScore) -> dict:
    return {
        "frame_i": p.frame_i,
        "frame_j": p.frame_j,
        "n_matches": p.n_matches,
        "n_inliers": p.n_inliers,
        "mean_inlier_sampson": p.mean_inlier_sampson,
        "median_inlier_sampson": p.median_inlier_sampson,
        "status": p.status,
    }


def pair_score_from_record(rec: dict) -> PairScore:
    return PairScore(
        frame_i=int(rec["frame_i"]),
        frame_j=int(rec["frame_j"]),
        n_matches=int(rec["n_matches"]),
        n_inliers=int(rec["n_inliers"]),
        mean_inlier_sampson=rec["mean_inlier_sampson"],
        median_inlier_sampson=rec["median_inlier_sampson"],
        status=rec["status"],
    )


def video_score_to_record(vs: VideoScore, per_pair: bool = False) -> dict:
    rec = {
        "video_id": vs.video_id,
        "consistency_error": vs.consistency_error,
        "consistency_score": vs.consistency_score,
        "motion_level": vs.motion_level,
        "n_valid_pairs": vs.n_valid_pairs,
        "near_static": vs.near_static,
        "insufficient_texture": vs.insufficient_texture,
        "config_hash": vs.config_hash,
    }
    if per_pair:
        rec["pair_scores"] = [pair_score_to_record(p) for p in vs.pair_scores]
    return rec


def video_score_from_record(rec: dict) -> VideoScore:
    return VideoScore(
        video_id=rec["video_id"],
        consistency_error=rec["consistency_error"],
        consistency_score=rec["consistency_score"],
        motion_level=rec["motion_level"],
        n_valid_pairs=int(rec["n_valid_pairs"]),
        near_static=bool(rec["near_static"]),
        insufficient_texture=bool(rec["insufficient_texture"]),
        config_hash=rec.get("config_hash"),
        pair_scores=tuple(
            pair_score_from_record(p) for p in rec.get("pair_scores", [])
        ),
    )


def preference_pair_to_record(p: PreferencePair) -> dict:
    return {
        "prompt_id": p.prompt_id,
        "winner_id": p.winner_id,
        "loser_id": p.loser_id,
        "winner_score": p.winner_score,
        "loser_score": p.loser_score,
        "score_gap": p.score_gap,
    }


def camera_to_record(cam: CameraMatrix) -> dict:
    return {"k": cam.k.tolist(), "r": cam.r.tolist(), "t": cam.t.tolist()}
