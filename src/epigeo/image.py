"""Grayscale frames: decoding, Gaussian filtering, SSIM and motion level.

Pixel values are float64 luminance in [0, 1]. RGB inputs are reduced with
BT.601 weights (Y = 0.299 R + 0.587 G + 0.114 B). All convolutions use
reflect padding (edge sample not repeated), the single border policy of
this package.

PNG scanline filters are undone by dependency level, not in row order: a
None or Sub row starts a chain, and each Up, Average or Paeth row is one
level above the row over it. The rows of one level and filter type are
undone together; Average and Paeth rows by one pass over the pixel
columns that updates every byte lane of every row at each step. A level
with fewer than UNFILTER_BATCH_LANES lanes goes one lane at a time in
Python instead, so an image that is one long Paeth chain costs no more
than in row order. Both read the Average and Paeth predictors from one
lookup table, their only definition here.
"""

from __future__ import annotations

import functools
import struct
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LUMA_WEIGHTS = (0.299, 0.587, 0.114)

# 11x11 Gaussian window (gaussian_kernel_1d(SSIM_SIGMA): radius
# ceil(3 * 1.5) = 5), sigma 1.5, C1/C2 from L = 1.0
SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = (0.01 * 1.0) ** 2
SSIM_C2 = (0.03 * 1.0) ** 2


class DecodeError(ValueError):
    """Malformed image stream. Carries the byte offset where parsing failed."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.message = message
        self.offset = offset

    def __reduce__(self):
        # the default rebuilds from the formatted text alone and lacks `offset`
        return type(self), (self.message, self.offset)


@dataclass
class Frame:
    """Single grayscale image; `pixels` is a (height, width) float64 array in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"frame pixels must be a 2-D array, got shape {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ValueError("frame contains non-finite pixel values")
        if px.min() < 0.0 or px.max() > 1.0:
            raise ValueError("frame pixel values must lie in [0, 1]")
        self.pixels = px

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def diagonal(self):
        return float(np.hypot(self.width, self.height))


# ---------------------------------------------------------------------------
# decoding


def decode_frame(data: bytes) -> Frame:
    """Decode PGM (binary P5) or PNG bytes into a Frame.

    The format is told by the magic bytes; anything else is a DecodeError at
    offset 0. RGB PNGs are converted to luminance with BT.601 weights;
    sample values are scaled by the format's maximum (maxval for PGM,
    255/65535 for 8/16-bit PNG). A PGM sample above maxval is a DecodeError.
    """
    if data[:2] == b"P5":
        return _decode_pgm(data)
    if data[:8] == PNG_SIGNATURE:
        return _decode_png(data)
    raise DecodeError("unrecognized image magic", 0)


# the longest PGM header field read: past every valid width, height and
# maxval, and far below the digit count at which int() refuses to parse
PGM_MAX_DIGITS = 10


def _decode_pgm(data: bytes) -> Frame:
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise DecodeError("truncated PGM header", pos)
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            if pos - start > PGM_MAX_DIGITS:
                raise DecodeError(
                    f"PGM header field has more than {PGM_MAX_DIGITS} digits", start)
            fields.append(int(data[start:pos]))
        else:
            raise DecodeError(f"unexpected byte {c!r} in PGM header", pos)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DecodeError("missing whitespace after PGM maxval", pos)
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DecodeError(f"invalid PGM dimensions {width}x{height}", 2)
    if not 0 < maxval < 65536:
        raise DecodeError(f"invalid PGM maxval {maxval}", 2)
    bytes_per_sample = 1 if maxval < 256 else 2
    need = width * height * bytes_per_sample
    body = data[pos : pos + need]
    if len(body) < need:
        raise DecodeError(
            f"truncated PGM body: expected {need} bytes, found {len(body)}",
            pos + len(body),
        )
    dtype = np.uint8 if bytes_per_sample == 1 else np.dtype(">u2")
    samples = np.frombuffer(body, dtype=dtype)
    over = np.flatnonzero(samples > maxval)
    if over.size:
        k = int(over[0])
        raise DecodeError(
            f"PGM sample {samples[k]} exceeds maxval {maxval}", pos + k * bytes_per_sample
        )
    return Frame(samples.astype(np.float64).reshape(height, width) / maxval)


PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
# the PNG specification's limit on width and height
PNG_MAX_DIM = 2**31 - 1


def _decode_png(data: bytes) -> Frame:
    pos = 8
    header = None
    idat = bytearray()
    ended = False
    while not ended:
        if pos + 8 > len(data):
            raise DecodeError("truncated PNG chunk header", pos)
        length, ctype = struct.unpack(">I4s", data[pos : pos + 8])
        chunk_start = pos
        pos += 8
        if pos + length + 4 > len(data):
            raise DecodeError(f"truncated PNG chunk {ctype!r}", pos)
        payload = data[pos : pos + length]
        pos += length
        (crc,) = struct.unpack(">I", data[pos : pos + 4])
        if zlib.crc32(ctype + payload) & 0xFFFFFFFF != crc:
            raise DecodeError(f"PNG chunk {ctype!r} CRC mismatch", pos)
        pos += 4
        if ctype == b"IHDR":
            if length != 13:
                raise DecodeError("PNG IHDR has wrong length", chunk_start)
            header = struct.unpack(">IIBBBBB", payload)
        elif ctype == b"IDAT":
            if header is None:
                raise DecodeError("PNG IDAT before IHDR", chunk_start)
            idat.extend(payload)
        elif ctype == b"IEND":
            ended = True
        # ancillary chunks are skipped
    if header is None:
        raise DecodeError("PNG missing IHDR", 8)
    width, height, bit_depth, color_type, compression, filter_method, interlace = header
    if not (0 < width <= PNG_MAX_DIM and 0 < height <= PNG_MAX_DIM):
        raise DecodeError(f"invalid PNG dimensions {width}x{height}", 16)
    if bit_depth not in (8, 16):
        raise DecodeError(f"unsupported PNG bit depth {bit_depth}", 24)
    if color_type not in (0, 2):
        raise DecodeError(
            f"unsupported PNG color type {color_type} (grayscale or RGB only)", 25
        )
    if compression != 0 or filter_method != 0:
        raise DecodeError("unsupported PNG compression/filter method", 26)
    if interlace != 0:
        raise DecodeError("interlaced PNG not supported", 28)
    channels = 1 if color_type == 0 else 3
    sample_bytes = bit_depth // 8
    stride = width * channels * sample_bytes
    expected = height * (stride + 1)
    # inflate at most one byte past the declared size, so a small stream that
    # expands to gigabytes fails before it is allocated; a declared size past
    # what zlib can count is capped, and the stream then fails as too short
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise DecodeError(f"corrupt PNG pixel stream: {exc}", 8) from exc
    if len(raw) > expected:
        raise DecodeError(f"PNG pixel stream inflates past {expected} bytes", 8)
    if not inflater.eof:
        raise DecodeError("corrupt PNG pixel stream: incomplete or truncated stream", 8)
    if len(raw) != expected:
        raise DecodeError(f"PNG pixel stream has {len(raw)} bytes, expected {expected}", 8)
    unfiltered = _png_unfilter(raw, height, stride, channels * sample_bytes)
    if bit_depth == 8:
        samples = unfiltered.astype(np.float64) / 255.0
    else:
        flat = unfiltered.reshape(height, width * channels, 2).astype(np.float64)
        samples = (flat[..., 0] * 256.0 + flat[..., 1]) / 65535.0
        samples = samples.reshape(height, -1)
    samples = samples.reshape(height, width, channels)
    if channels == 1:
        luma = samples[:, :, 0]
    else:
        luma = (
            LUMA_WEIGHTS[0] * samples[:, :, 0]
            + LUMA_WEIGHTS[1] * samples[:, :, 1]
            + LUMA_WEIGHTS[2] * samples[:, :, 2]
        )
    return Frame(np.clip(luma, 0.0, 1.0))


def _png_unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """Undo per-scanline PNG filters. Returns a (height, stride) uint8 array.

    An invalid filter byte is a DecodeError at the offset of the first row
    that has one. Rows are undone by dependency level, not in row order. A
    None or Sub row does not read the row above, so it starts a chain at
    level 0; an Up, Average or Paeth row is one level above the row over it
    (row 0 reads a row of zeros). Rows of one level depend only on rows of
    lower levels, so the rows of one level and filter type are undone
    together, level by level. None, Sub and Up are one uint8 array operation
    each, which wraps mod 256 as the filters require. Average and Paeth
    predict each byte from the one just decoded to its left: their rows go
    through one column pass (_unfilter_columns) when they hold at least
    UNFILTER_BATCH_LANES byte lanes, and one lane at a time
    (_unfilter_lanes) otherwise.
    """
    rows = np.frombuffer(raw, np.uint8, height * (stride + 1)).reshape(height, stride + 1)
    ftypes, lines = rows[:, 0], rows[:, 1:]
    invalid = np.flatnonzero(ftypes > 4)
    if invalid.size:
        row = int(invalid[0])
        raise DecodeError(f"invalid PNG filter type {ftypes[row]}", row * (stride + 1))
    # done[r + 1] is row r decoded; done[0] is the row of zeros above row 0
    done = np.zeros((height + 1, stride), dtype=np.uint8)
    none = np.flatnonzero(ftypes == 0)
    done[none + 1] = lines[none]
    sub = np.flatnonzero(ftypes == 1)
    pixels = lines[sub].reshape(len(sub), stride // bpp, bpp)
    done[sub + 1] = np.cumsum(pixels, axis=1, dtype=np.uint8).reshape(-1, stride)
    # a row's level is its distance from the nearest None or Sub row at or
    # above it, or from row 0 when there is none
    index = np.arange(height)
    level = index - np.maximum.accumulate(np.where(ftypes <= 1, index, 0))
    # the rows that read the row above, ordered by (level, filter type)
    chained = np.flatnonzero(ftypes > 1)
    key = level[chained] * 5 + ftypes[chained]
    order = np.argsort(key, kind="stable")
    chained, key = chained[order], key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(chained)]):
        group = chained[lo:hi]
        ftype = int(ftypes[group[0]])
        if ftype == 2:
            done[group + 1] = lines[group] + done[group]
        else:
            batched = len(group) * bpp >= UNFILTER_BATCH_LANES[ftype]
            undo = _unfilter_columns if batched else _unfilter_lanes
            done[group + 1] = undo(lines[group], done[group], bpp, ftype)
    return done[1:]


# the fewest byte lanes (rows x bytes per pixel) for which one column pass
# over a level's Average or Paeth rows beats undoing its lanes one by one;
# a column step costs about as much as 25 Average or 19 Paeth bytes of the
# lane loop (measured on 640-pixel RGB rows, 2 vCPUs)
UNFILTER_BATCH_LANES = {3: 25, 4: 19}


def _predictor_keys(x: np.ndarray, b: np.ndarray, ftype: int):
    """(base, key) of Average (3) or Paeth (4) filtered bytes x over the
    decoded bytes b above them; both are laid out (..., pixels, lanes).

    A byte decodes to base + _predictor_table(ftype)[key + a], mod 256,
    where a is the decoded byte of its lane in the pixel to its left (0 in
    the first pixel). The Average key is b itself; the Paeth key is int32,
    half the memory of intp keys at about the same speed.
    """
    if ftype == 3:
        return x, b
    c = np.zeros_like(b)
    c[..., 1:, :] = b[..., :-1, :]
    return x + c, (b.astype(np.int32) - c) * 511 + (511 * 255 + 255) - c


def _unfilter_columns(lines: np.ndarray, above: np.ndarray, bpp: int, ftype: int) -> np.ndarray:
    """Undo Average (3) or Paeth (4) on n rows at once, given the decoded
    rows above them; both are (n, stride) uint8 arrays.

    A byte depends on the byte of the same lane (byte position within a
    pixel) in the pixel to its left, and on bytes of the row above. So the
    rows are laid out by column, (width, n * bpp): step x decodes pixel x of
    every row, all n * bpp lanes at once, from the lanes of step x - 1.
    """
    base, key = _predictor_keys(_transpose_pixels(lines, bpp), _transpose_pixels(above, bpp), ftype)
    table = _predictor_table(ftype)
    out = np.empty_like(base)
    a = np.zeros(base.shape[1], dtype=np.uint8)
    at = np.empty(base.shape[1], dtype=np.int32)
    for k, start, decoded in zip(key.astype(np.int32, copy=False), base, out):
        np.add(a, k, out=at)
        a = np.add(start, table.take(at), out=decoded)
    return _transpose_pixels(out, bpp)


def _unfilter_lanes(lines: np.ndarray, above: np.ndarray, bpp: int, ftype: int) -> np.ndarray:
    """_unfilter_columns one byte lane at a time, in Python integers: for a
    few lanes, cheaper than one NumPy call per column."""
    n, stride = lines.shape
    base, key = _predictor_keys(lines.reshape(n, -1, bpp), above.reshape(n, -1, bpp), ftype)
    # uint8 keys (Average) iterate as bytes, without building a list
    starts = base.tobytes()
    keys = key.tobytes() if key.dtype == np.uint8 else key.ravel().tolist()
    table = _predictor_list(ftype)
    out = bytearray(n * stride)
    for row in range(0, n * stride, stride):
        for first in range(row, row + bpp):
            lane = slice(first, row + stride, bpp)
            a = 0
            decoded = bytearray()
            for start, k in zip(starts[lane], keys[lane]):
                a = (start + table[k + a]) & 0xFF
                decoded.append(a)
            out[lane] = decoded
    return np.frombuffer(out, np.uint8).reshape(n, stride)


def _transpose_pixels(m: np.ndarray, bpp: int) -> np.ndarray:
    """An (r, w * bpp) byte array of pixels as (w, r * bpp), each pixel's
    bytes kept together. One 2-D transpose per byte lane: several times
    faster than copying a 3-D transpose when bpp is 3 or 6."""
    rows = m.reshape(len(m), -1, bpp)
    out = np.empty((rows.shape[1], len(m), bpp), dtype=np.uint8)
    for lane in range(bpp):
        out[:, :, lane] = rows[:, :, lane].T
    return out.reshape(-1, len(m) * bpp)


@functools.cache
def _predictor_table(ftype: int) -> np.ndarray:
    """uint8 lookup table of the Average (3) or Paeth (4) predictor, the one
    definition of both in this module.

    Average: entry a + b is (a + b) >> 1. Paeth: the predictor is whichever
    of a, b and c is nearest to a + b - c, ties going to a, then b; with
    da = a - c and db = b - c, entry (da + 255) + 511 (db + 255) is the
    predictor minus c, mod 256, and the caller adds c back. Built on first
    use, so importing the module stays cheap, and read-only, since every
    caller shares it.
    """
    if ftype == 3:
        table = np.arange(511) >> 1
    else:
        d = np.arange(-255, 256, dtype=np.int16)
        da, db = d[None, :], d[:, None]
        pa, pb, pc = np.abs(db), np.abs(da), np.abs(da + db)
        table = np.where((pa <= pb) & (pa <= pc), da, np.where(pb <= pc, db, 0))
    table = table.astype(np.uint8).ravel()
    table.setflags(write=False)
    return table


@functools.cache
def _predictor_list(ftype: int) -> list:
    """_predictor_table as a list, which Python indexes faster than an array."""
    return _predictor_table(ftype).tolist()


# ---------------------------------------------------------------------------
# filtering


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized 1-D Gaussian kernel with radius ceil(3*sigma)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be > 0, got {sigma}")
    radius = int(np.ceil(3.0 * sigma))
    xs = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-0.5 * (xs / sigma) ** 2)
    return k / k.sum()


def _conv_valid_axis(img, kernel, axis):
    """img correlated with kernel along axis, at window positions that fit."""
    windows = sliding_window_view(img, len(kernel), axis=axis)
    return windows @ kernel


def _convolve_axis_reflect(img: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    radius = len(kernel) // 2
    pad = [(0, 0), (0, 0)]
    pad[axis] = (radius, radius)
    # the reversed view's negative stride keeps NumPy's own matmul loop; a
    # contiguous kernel, even the symmetric one unreversed, sends axis 0 to
    # BLAS gemv, whose sums round differently
    return _conv_valid_axis(np.pad(img, pad, mode="reflect"), kernel[::-1], axis)


def gaussian_blur_array(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur of a 2-D array, reflect padding."""
    kernel = gaussian_kernel_1d(sigma)
    out = _convolve_axis_reflect(np.asarray(img, dtype=np.float64), kernel, axis=0)
    return _convolve_axis_reflect(out, kernel, axis=1)


def gaussian_blur(frame: Frame, sigma: float) -> Frame:
    """Gaussian-blur a frame; output has the same dimensions."""
    blurred = gaussian_blur_array(frame.pixels, sigma)
    # clip FP dust so the [0, 1] frame invariant survives round-trips
    return Frame(np.clip(blurred, 0.0, 1.0))


def resize_max_dim(frame: Frame, max_dim: int):
    """Downscale so the longer side equals max_dim; returns (frame, scale).

    Bilinear sampling after an anti-alias blur. Frames already small enough
    come back unchanged with scale 1.
    """
    if max_dim < 16:
        raise ValueError("max_dim must be >= 16")
    longest = max(frame.width, frame.height)
    if longest <= max_dim:
        return frame, 1.0
    scale = max_dim / longest
    out_w = max(int(round(frame.width * scale)), 1)
    out_h = max(int(round(frame.height * scale)), 1)
    sigma = 0.5 * np.sqrt(max(1.0 / scale**2 - 1.0, 1e-6))
    src = gaussian_blur_array(frame.pixels, sigma)
    xs = (np.arange(out_w) + 0.5) / scale - 0.5
    ys = (np.arange(out_h) + 0.5) / scale - 0.5
    x0 = np.clip(np.floor(xs).astype(int), 0, frame.width - 2)
    y0 = np.clip(np.floor(ys).astype(int), 0, frame.height - 2)
    fx = np.clip(xs - x0, 0.0, 1.0)
    fy = np.clip(ys - y0, 0.0, 1.0)
    top = src[y0][:, x0] * (1 - fx) + src[y0][:, x0 + 1] * fx
    bot = src[y0 + 1][:, x0] * (1 - fx) + src[y0 + 1][:, x0 + 1] * fx
    out = top * (1 - fy)[:, None] + bot * fy[:, None]
    return Frame(np.clip(out, 0.0, 1.0)), scale


# ---------------------------------------------------------------------------
# SSIM / motion level


def _ssim_window_filter(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    return _conv_valid_axis(_conv_valid_axis(img, kernel, 0), kernel, 1)


_SSIM_KERNEL = gaussian_kernel_1d(SSIM_SIGMA)


def _ssim_moments(x: np.ndarray):
    """Window means of x and of x*x: what SSIM needs of one frame alone."""
    return _ssim_window_filter(x, _SSIM_KERNEL), _ssim_window_filter(x * x, _SSIM_KERNEL)


def ssim(a: Frame, b: Frame, *, _moments_a=None) -> float:
    """Structural similarity between two equally sized frames.

    Gaussian-weighted 11x11 windows (sigma 1.5), dynamic range 1.0, mean
    over all fully valid window positions. Returns a value in [-1, 1].
    `_moments_a`, when given, is _ssim_moments(a.pixels), computed once by
    a caller that compares one frame with many.
    """
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError(
            f"ssim requires identical dimensions, got {a.width}x{a.height} "
            f"vs {b.width}x{b.height}"
        )
    if min(a.height, a.width) < SSIM_WINDOW:
        raise ValueError(f"ssim requires min dimension >= {SSIM_WINDOW}")
    x = a.pixels
    y = b.pixels
    mu_x, xx = _ssim_moments(x) if _moments_a is None else _moments_a
    mu_y, yy = _ssim_moments(y)
    var_x = xx - mu_x * mu_x
    var_y = yy - mu_y * mu_y
    cov_xy = _ssim_window_filter(x * y, _SSIM_KERNEL) - mu_x * mu_y

    num = (2.0 * mu_x * mu_y + SSIM_C1) * (2.0 * cov_xy + SSIM_C2)
    den = (mu_x * mu_x + mu_y * mu_y + SSIM_C1) * (var_x + var_y + SSIM_C2)
    return float(np.mean(num / den))


def motion_level(frames: list[Frame]) -> float:
    """Mean SSIM between the first frame and each later frame.

    Lower values mean more motion; a static sequence scores 1.0. The first
    frame's window moments are computed once for all comparisons.
    """
    if len(frames) < 2:
        raise ValueError(f"motion_level needs at least 2 frames, got {len(frames)}")
    first = frames[0]
    # a frame too small for one window gets ssim's own error
    moments = _ssim_moments(first.pixels) if min(first.height, first.width) >= SSIM_WINDOW else None
    return float(np.mean([ssim(first, f, _moments_a=moments) for f in frames[1:]]))
