"""File formats: PGM frames, JSONL files, and the records of result dataclasses.

All writers are deterministic: same inputs produce the same bytes, so reruns
can be compared with a plain file diff.  JSONL files are UTF-8 with one JSON
object per line; an optional metadata header is a single leading line starting
with '#'.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, fields, replace

import numpy as np

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
