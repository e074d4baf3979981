"""Frame files: PGM encoding, decoding by file, and frame directories.

The writer is deterministic: same inputs produce the same bytes, so reruns
can be compared with a plain file diff.  JSONL files are ``records``' own.
"""

from __future__ import annotations

import os

import numpy as np

from .image import DecodeError, Frame, decode_frame

FRAME_EXTENSIONS = (".pgm", ".png")
PGM_MAXVAL = 65535


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
