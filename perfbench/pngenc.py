"""Minimal 8-bit PNG encoder for benchmark inputs (stdlib zlib + NumPy).

Scanline filters are chosen by row, cycling through all five PNG filter
types (None, Sub, Up, Average, Paeth), so a decoder's cost for every filter
is in every frame. Filtering is computed from the unfiltered samples, so it
vectorizes over the whole image.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
FILTER_TYPES = (0, 1, 2, 3, 4)


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(ctype + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + ctype + payload + struct.pack(">I", crc)


def _paeth(a, b, c):
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_rows(rows: np.ndarray, bpp: int, filters) -> bytes:
    """Filtered scanlines, each prefixed by its filter-type byte.

    `rows` is a (height, stride) uint8 array of raw samples; `filters` gives
    the filter type of each row.
    """
    x = rows.astype(np.int32)
    height, stride = x.shape
    a = np.zeros_like(x)
    a[:, bpp:] = x[:, :-bpp]
    b = np.zeros_like(x)
    b[1:] = x[:-1]
    c = np.zeros_like(x)
    c[1:, bpp:] = x[:-1, :-bpp]
    predictions = (
        np.zeros_like(x),
        a,
        b,
        (a + b) >> 1,
        _paeth(a, b, c),
    )
    out = np.empty((height, stride + 1), dtype=np.uint8)
    for row, ftype in enumerate(filters):
        if ftype not in FILTER_TYPES:
            raise ValueError(f"invalid PNG filter type {ftype}")
        out[row, 0] = ftype
        out[row, 1:] = (x[row] - predictions[ftype][row]) & 0xFF
    return out.tobytes()


def encode_png(samples: np.ndarray, filters=None) -> bytes:
    """Encode a (H, W) gray or (H, W, 3) RGB uint8 array as PNG bytes.

    `filters` is one filter type per row; by default rows cycle through
    all five types.
    """
    samples = np.asarray(samples)
    if samples.dtype != np.uint8:
        raise ValueError("samples must be uint8")
    if samples.ndim == 2:
        color_type, channels = 0, 1
    elif samples.ndim == 3 and samples.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ValueError(f"expected (H, W) or (H, W, 3) samples, got {samples.shape}")
    height, width = samples.shape[:2]
    if filters is None:
        filters = [FILTER_TYPES[row % len(FILTER_TYPES)] for row in range(height)]
    if len(filters) != height:
        raise ValueError("need one filter type per row")
    rows = samples.reshape(height, width * channels)
    raw = filter_rows(rows, channels, filters)
    header = struct.pack(">IIBBBBB", width, height, 8, color_type, 0, 0, 0)
    return (
        SIGNATURE
        + _chunk(b"IHDR", header)
        + _chunk(b"IDAT", zlib.compress(raw))
        + _chunk(b"IEND", b"")
    )
