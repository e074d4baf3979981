"""The benchmark's PNG encoder round-trips through epigeo's decoder exactly.

Run from the repository root: python3 -m pytest perfbench/test_pngenc.py
"""

import os
import struct
import sys
import zlib

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from epigeo.image import decode_frame  # noqa: E402

from pngenc import FILTER_TYPES, encode_png  # noqa: E402


def expected_luma(samples):
    """The decoder's own conversion: scale by 255, then BT.601 for RGB."""
    s = samples.astype(np.float64) / 255.0
    if s.ndim == 3:
        s = 0.299 * s[:, :, 0] + 0.587 * s[:, :, 1] + 0.114 * s[:, :, 2]
    return np.clip(s, 0.0, 1.0)


def source(shape, seed):
    # random samples reach every branch of the Paeth predictor
    return np.random.default_rng(seed).integers(0, 256, size=shape, dtype=np.uint8)


@pytest.mark.parametrize("ftype", FILTER_TYPES)
@pytest.mark.parametrize("shape", [(23, 31), (23, 31, 3), (1, 1, 3)])
def test_single_filter_round_trip(ftype, shape):
    samples = source(shape, seed=ftype)
    data = encode_png(samples, filters=[ftype] * shape[0])
    assert np.array_equal(decode_frame(data).pixels, expected_luma(samples))


def row_filters(data, stride):
    """Filter-type byte of every scanline in a single-IDAT PNG."""
    pos = 8 + 25  # signature, IHDR chunk
    (length,) = struct.unpack(">I", data[pos : pos + 4])
    raw = zlib.decompress(data[pos + 8 : pos + 8 + length])
    return list(raw[:: stride + 1])


def test_cycling_filters_round_trip():
    samples = source((40, 64, 3), seed=7)
    data = encode_png(samples)
    assert row_filters(data, 64 * 3) == [row % 5 for row in range(40)]
    assert np.array_equal(decode_frame(data).pixels, expected_luma(samples))


def test_gray_rgb_frame_decodes_to_its_gray_levels():
    gray = source((16, 16), seed=3)
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    assert np.array_equal(decode_frame(encode_png(rgb)).pixels, expected_luma(rgb))
    assert np.allclose(decode_frame(encode_png(rgb)).pixels, gray / 255.0, rtol=0, atol=1e-15)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        encode_png(np.zeros((4, 4), dtype=np.uint16))
    with pytest.raises(ValueError):
        encode_png(np.zeros((4, 4), dtype=np.uint8), filters=[5] * 4)
