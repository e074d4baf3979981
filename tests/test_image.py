"""Tests for frame decoding, Gaussian blur, SSIM, and motion level."""

import pickle
import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from epigeo import image
from epigeo.image import (
    DecodeError,
    Frame,
    _png_unfilter,
    decode_frame,
    gaussian_blur,
    gaussian_kernel_1d,
    motion_level,
    ssim,
)


def average_predictor(a, b):
    """The PNG Average predictor (PNG spec section 9.3), on ints or arrays."""
    return (a + b) >> 1


def paeth_predictor(a, b, c):
    """The PNG Paeth predictor (PNG spec section 9.4), on ints or int arrays:
    whichever of a, b and c is nearest to p = a + b - c, ties going to a,
    then b."""
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def make_png(arr, bit_depth=8, color_type=0, filters=None, interlace=0):
    """Minimal PNG encoder for test fixtures (grayscale or RGB, filter per row)."""
    arr = np.asarray(arr)
    h, w = arr.shape[:2]

    def chunk(ctype, payload):
        return (
            struct.pack(">I", len(payload))
            + ctype
            + payload
            + struct.pack(">I", zlib.crc32(ctype + payload) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, bit_depth, color_type, 0, 0, interlace)
    if filters is None:
        filters = [0] * h
    bpp = (1 if color_type == 0 else 3) * (bit_depth // 8)
    raw = bytearray()
    prev = np.zeros(w * bpp, dtype=np.int32)
    for r, ftype in zip(range(h), filters):
        if bit_depth == 8:
            line = np.asarray(arr[r]).reshape(-1).astype(np.int32)
        else:
            line = np.frombuffer(
                np.asarray(arr[r]).reshape(-1).astype(">u2").tobytes(), np.uint8
            ).astype(np.int32)
        enc = np.zeros_like(line)
        for i in range(len(line)):
            a = line[i - bpp] if i >= bpp else 0
            b = prev[i]
            c = prev[i - bpp] if i >= bpp else 0
            if ftype == 0:
                pred = 0
            elif ftype == 1:
                pred = a
            elif ftype == 2:
                pred = b
            elif ftype == 3:
                pred = average_predictor(a, b)
            else:
                pred = paeth_predictor(a, b, c)
            enc[i] = (line[i] - pred) & 0xFF
        raw.append(ftype)
        raw.extend(bytes(enc.astype(np.uint8)))
        prev = line
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(bytes(raw)))
        + chunk(b"IEND", b"")
    )


def png_unfilter_reference(raw, height, stride, bpp):
    """The decoder's former per-byte loop over NumPy scalars (PNG spec section 9)."""
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int32)
    for row in range(height):
        offset = row * (stride + 1)
        ftype = raw[offset]
        line = np.frombuffer(raw, np.uint8, stride, offset + 1).astype(np.int32)
        if ftype == 0:
            cur = line
        elif ftype == 2:
            cur = (line + prev) & 0xFF
        elif ftype in (1, 3, 4):
            cur = np.zeros(stride, dtype=np.int32)
            for i in range(stride):
                a = cur[i - bpp] if i >= bpp else 0
                b = prev[i]
                if ftype == 1:
                    pred = a
                elif ftype == 3:
                    pred = average_predictor(a, b)
                else:
                    pred = paeth_predictor(a, b, prev[i - bpp] if i >= bpp else 0)
                cur[i] = (line[i] + pred) & 0xFF
        else:
            raise DecodeError(f"invalid PNG filter type {ftype}", offset)
        out[row] = cur
        prev = cur
    return out


def with_ihdr(data, width, height):
    """PNG bytes from make_png with the IHDR width and height rewritten."""
    body = bytearray(data)
    body[16:24] = struct.pack(">II", width, height)
    body[29:33] = struct.pack(">I", zlib.crc32(bytes(body[12:29])) & 0xFFFFFFFF)
    return bytes(body)


def expected_pixels(samples, bit_depth):
    """The decoder's conversion: scale by the maximum sample, then BT.601 for RGB."""
    s = samples.astype(np.float64) / (255.0 if bit_depth == 8 else 65535.0)
    if s.ndim == 3:
        s = 0.299 * s[:, :, 0] + 0.587 * s[:, :, 1] + 0.114 * s[:, :, 2]
    return np.clip(s, 0.0, 1.0)


# (height, width): a single pixel, width 1, height 1, odd and even widths
CORPUS_SHAPES = [(1, 1), (1, 8), (6, 1), (5, 7), (9, 12), (11, 13)]


def corpus():
    """(samples, bit_depth, color_type, filters) covering every filter per row mix."""
    rng = np.random.default_rng(11)
    cases = []
    for height, width in CORPUS_SHAPES:
        for bit_depth, dtype in ((8, np.uint8), (16, np.uint16)):
            for color_type, shape in ((0, (height, width)), (2, (height, width, 3))):
                samples = rng.integers(0, np.iinfo(dtype).max + 1, size=shape, dtype=dtype)
                filters = [int(f) for f in rng.permutation(np.arange(height) % 5)]
                cases.append((samples, bit_depth, color_type, filters))
    return cases


def random_stream(rng, filters, stride):
    """Filter bytes `filters`, one per row, each followed by `stride` random bytes."""
    rows = rng.integers(0, 256, size=(len(filters), stride + 1), dtype=np.uint8)
    rows[:, 0] = filters
    return rows.tobytes()


def assert_unfilter_matches_reference(raw, height, stride, bpp):
    fast = _png_unfilter(raw, height, stride, bpp)
    assert fast.dtype == np.uint8 and fast.shape == (height, stride)
    assert np.array_equal(fast, png_unfilter_reference(raw, height, stride, bpp))


class TestUnfilterAgainstReference:
    @pytest.mark.parametrize("samples, bit_depth, color_type, filters", corpus())
    def test_corpus_matches_reference_and_samples(self, samples, bit_depth, color_type, filters):
        data = make_png(samples, bit_depth=bit_depth, color_type=color_type, filters=filters)
        height, width = samples.shape[:2]
        bpp = (1 if color_type == 0 else 3) * bit_depth // 8
        stride = width * bpp
        idat_len = int.from_bytes(data[33:37], "big")
        raw = zlib.decompress(data[41 : 41 + idat_len])
        fast = _png_unfilter(raw, height, stride, bpp)
        assert fast.dtype == np.uint8 and fast.shape == (height, stride)
        assert np.array_equal(fast, png_unfilter_reference(raw, height, stride, bpp))
        big_endian = samples.astype(">u2") if bit_depth == 16 else samples
        assert fast.tobytes() == big_endian.tobytes()
        assert np.array_equal(decode_frame(data).pixels, expected_pixels(samples, bit_depth))

    @pytest.mark.parametrize("bpp", [1, 2, 3, 6])
    def test_random_streams_match_reference(self, bpp):
        # arbitrary filtered bytes, not produced by an encoder, reach every
        # predictor branch and wrap-around
        rng = np.random.default_rng(bpp)
        for height, width in CORPUS_SHAPES:
            stride = width * bpp
            rows = rng.integers(0, 256, size=(height, stride + 1), dtype=np.uint8)
            rows[:, 0] = rng.integers(0, 5, size=height)
            raw = rows.tobytes()
            assert np.array_equal(
                _png_unfilter(raw, height, stride, bpp),
                png_unfilter_reference(raw, height, stride, bpp),
            )

    @pytest.mark.parametrize("lanes", [1, 10**9], ids=["every-level-batched", "row-by-row"])
    @pytest.mark.parametrize("bpp", [1, 2, 3, 6])
    def test_random_streams_on_each_path(self, bpp, lanes):
        rng = np.random.default_rng(100 + bpp)
        with mock.patch.dict(image.UNFILTER_BATCH_LANES, {3: lanes, 4: lanes}):
            for height, width in CORPUS_SHAPES + [(60, 1), (60, 5)]:
                filters = rng.integers(0, 5, size=height)
                raw = random_stream(rng, filters, width * bpp)
                assert_unfilter_matches_reference(raw, height, width * bpp, bpp)

    @pytest.mark.parametrize("width", [1, 7])
    @pytest.mark.parametrize("bpp", [1, 2, 3, 6])
    @pytest.mark.parametrize("ftype", [3, 4])
    def test_levels_on_both_sides_of_the_lane_cutoff(self, monkeypatch, ftype, bpp, width):
        # n chains of (None or Sub, ftype) put n rows of ftype on level 1;
        # n runs over the row counts nearest the cutoff
        batched = []

        def spy(lines, *rest):
            batched.append(len(lines))
            return unfilter_columns(lines, *rest)

        unfilter_columns = image._unfilter_columns
        monkeypatch.setattr(image, "_unfilter_columns", spy)
        cutoff = image.UNFILTER_BATCH_LANES[ftype]
        least = -(-cutoff // bpp)  # the fewest rows whose lanes reach the cutoff
        rng = np.random.default_rng(ftype * 100 + bpp * 10 + width)
        for n in sorted({max(least - 1, 1), least, least + 1}):
            filters = [f for k in range(n) for f in (k % 2, ftype)]
            height, stride = len(filters), width * bpp
            assert height <= 60
            batched.clear()
            assert_unfilter_matches_reference(random_stream(rng, filters, stride), height, stride, bpp)
            assert batched == ([n] if n * bpp >= cutoff else [])

    @pytest.mark.parametrize("bpp", [1, 2, 3, 6])
    @pytest.mark.parametrize("ftype", [2, 3, 4])
    def test_single_filter_chains(self, ftype, bpp):
        # one row per level: row by row at the real cutoff, one-row column
        # passes at a cutoff of one lane
        rng = np.random.default_rng(ftype * 10 + bpp)
        for width in (1, 5):
            raw = random_stream(rng, [ftype] * 60, width * bpp)
            for lanes in (image.UNFILTER_BATCH_LANES[3], image.UNFILTER_BATCH_LANES[4], 1):
                with mock.patch.dict(image.UNFILTER_BATCH_LANES, {3: lanes, 4: lanes}):
                    assert_unfilter_matches_reference(raw, 60, width * bpp, bpp)

    def test_invalid_filter_after_batched_rows_reports_its_row(self):
        bpp, stride = 3, 12
        # 12 chains put 36 Paeth lanes on level 1 and 36 Average lanes on level 2
        filters = [0, 4, 3] * 12 + [9, 1, 4, 200]
        assert 12 * bpp >= max(image.UNFILTER_BATCH_LANES.values())
        raw = random_stream(np.random.default_rng(5), filters, stride)
        with pytest.raises(DecodeError) as exc:
            _png_unfilter(raw, len(filters), stride, bpp)
        assert exc.value.offset == 36 * (stride + 1)
        assert "filter type 9" in str(exc.value)

    @settings(max_examples=60, deadline=None)
    @given(bpp=st.sampled_from([1, 2, 3, 6]), width=st.integers(1, 6),
           lanes=st.integers(1, 24), data=st.data())
    def test_random_filter_sequences_match_reference(self, bpp, width, lanes, data):
        filters = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=60))
        stride = width * bpp
        body = data.draw(hnp.arrays(np.uint8, (len(filters), stride)))
        raw = np.column_stack([np.array(filters, dtype=np.uint8), body]).tobytes()
        with mock.patch.dict(image.UNFILTER_BATCH_LANES, {3: lanes, 4: lanes}):
            assert_unfilter_matches_reference(raw, len(filters), stride, bpp)

    def test_invalid_filter_type_reports_row_offset(self):
        height, stride = 4, 6
        rows = np.zeros((height, stride + 1), dtype=np.uint8)
        rows[:, 0] = [0, 1, 5, 2]
        with pytest.raises(DecodeError) as exc:
            _png_unfilter(rows.tobytes(), height, stride, 3)
        assert exc.value.offset == 2 * (stride + 1)
        assert "filter type 5" in str(exc.value)

    @settings(max_examples=40, deadline=None)
    @given(height=st.integers(1, 7), width=st.integers(1, 7), rgb=st.booleans(), data=st.data())
    def test_decodes_random_image_with_random_filters(self, height, width, rgb, data):
        shape = (height, width, 3) if rgb else (height, width)
        samples = data.draw(hnp.arrays(np.uint8, shape))
        filters = data.draw(st.lists(st.integers(0, 4), min_size=height, max_size=height))
        png = make_png(samples, color_type=2 if rgb else 0, filters=filters)
        assert np.array_equal(decode_frame(png).pixels, expected_pixels(samples, 8))

    @pytest.mark.parametrize("layout", ["columns", "lanes"])
    @pytest.mark.parametrize("ftype", [3, 4])
    def test_predictor_table_holds_the_png_rule_for_every_byte_triple(self, ftype, layout):
        # every (b, c) pair is one lane of two pixels, c above-left of b; the
        # keys come from _predictor_keys in the layout each path gives it:
        # (pixels, lanes) for the column pass, (rows, pixels, bpp) for lanes
        c, b = np.divmod(np.arange(256 * 256), 256)
        above = np.stack([c, b]).astype(np.uint8)
        if layout == "lanes":
            above = above.T[:, :, None]
        base, key = image._predictor_keys(np.zeros_like(above), above, ftype)
        second = (1, slice(None)) if layout == "columns" else (slice(None), 1, 0)
        base, key = base[second].astype(np.int64), key[second].astype(np.int64)
        table = image._predictor_table(ftype)
        assert image._predictor_list(ftype) == table.tolist()
        for a in range(256):
            got = (base + table[key + a]) & 0xFF
            want = average_predictor(a, b) if ftype == 3 else paeth_predictor(a, b, c)
            assert np.array_equal(got, want), a


class TestFrame:
    def test_basic_properties(self):
        f = Frame(np.zeros((4, 6)))
        assert f.height == 4 and f.width == 6
        assert f.diagonal == pytest.approx(np.hypot(6, 4))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Frame(np.full((2, 2), 1.5))
        with pytest.raises(ValueError):
            Frame(np.full((2, 2), -0.1))

    def test_rejects_non_finite_and_wrong_rank(self):
        with pytest.raises(ValueError):
            Frame(np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError):
            Frame(np.zeros(4))


class TestDecodePGM:
    def test_2x2_values_scaled_by_maxval(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64])
        f = decode_frame(data)
        assert (f.height, f.width) == (2, 2)
        expected = np.array([[0, 128], [255, 64]]) / 255.0
        np.testing.assert_allclose(f.pixels, expected)

    def test_header_comments_and_whitespace(self):
        data = b"P5 # magic\n# a comment line\n 3\t1 \n100\n" + bytes([0, 50, 100])
        f = decode_frame(data)
        np.testing.assert_allclose(f.pixels, [[0.0, 0.5, 1.0]])

    def test_16bit_big_endian(self):
        data = b"P5 2 1 65535 " + struct.pack(">2H", 0, 65535)
        np.testing.assert_allclose(decode_frame(data).pixels, [[0.0, 1.0]])

    def test_nonstandard_maxval(self):
        data = b"P5 2 1 7 " + bytes([7, 0])
        np.testing.assert_allclose(decode_frame(data).pixels, [[1.0, 0.0]])

    def test_truncated_body_reports_offset(self):
        data = b"P5\n2 2\n255\n" + bytes([0, 1])
        with pytest.raises(DecodeError) as exc:
            decode_frame(data)
        assert exc.value.offset == len(data)
        assert "byte offset" in str(exc.value)

    @pytest.mark.parametrize("header, samples, offset", [
        (b"P5 2 2 100 ", bytes([0, 200, 5, 101]), 12),
        (b"P5 2 1 1000 ", struct.pack(">2H", 1000, 1001), 14),
    ])
    def test_sample_above_maxval_reports_offset(self, header, samples, offset):
        with pytest.raises(DecodeError) as exc:
            decode_frame(header + samples)
        assert exc.value.offset == offset
        assert "exceeds maxval" in exc.value.message

    def test_bad_magic(self):
        with pytest.raises(DecodeError) as exc:
            decode_frame(b"P6 1 1 255 abc")
        assert exc.value.offset == 0

    def test_garbage_in_header(self):
        with pytest.raises(DecodeError):
            decode_frame(b"P5\nxx 2\n255\n\x00\x00")

    def test_header_field_past_the_digit_limit_reports_its_offset(self):
        # int() refuses digit runs past 4300; a field is refused far sooner
        assert decode_frame(b"P5 0000000002 1 255\n" + bytes([0, 255])).width == 2
        for field in (b"9" * 5000, b"00000000002"):
            with pytest.raises(DecodeError) as exc:
                decode_frame(b"P5 " + field + b" 1 255\n")
            assert exc.value.offset == 3
            assert "more than 10 digits" in exc.value.message


class TestDecodePNG:
    def test_grayscale_8bit(self):
        g = np.array([[0, 255], [128, 64]], dtype=np.uint8)
        f = decode_frame(make_png(g))
        np.testing.assert_allclose(f.pixels, g / 255.0)

    def test_rgb_bt601_luminance(self):
        rgb = np.zeros((1, 3, 3), dtype=np.uint8)
        rgb[0, 0] = [255, 0, 0]
        rgb[0, 1] = [0, 255, 0]
        rgb[0, 2] = [0, 0, 255]
        f = decode_frame(make_png(rgb, color_type=2))
        np.testing.assert_allclose(f.pixels, [[0.299, 0.587, 0.114]], atol=1e-12)

    def test_16bit_grayscale(self):
        g = np.array([[0, 65535, 32768]], dtype=np.uint16)
        f = decode_frame(make_png(g, bit_depth=16))
        np.testing.assert_allclose(f.pixels, g / 65535.0)

    def test_16bit_rgb(self):
        rgb = np.zeros((1, 1, 3), dtype=np.uint16)
        rgb[0, 0] = [65535, 65535, 65535]
        f = decode_frame(make_png(rgb, bit_depth=16, color_type=2))
        np.testing.assert_allclose(f.pixels, [[1.0]], atol=1e-12)

    def test_all_filter_types_roundtrip(self):
        rng = np.random.default_rng(3)
        g = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        f = decode_frame(make_png(g, filters=[0, 1, 2, 3, 4]))
        np.testing.assert_allclose(f.pixels, g / 255.0)

    def test_filter_types_rgb(self):
        rng = np.random.default_rng(4)
        rgb = rng.integers(0, 256, size=(4, 5, 3), dtype=np.uint8)
        f = decode_frame(make_png(rgb, color_type=2, filters=[4, 3, 1, 2]))
        expected = rgb @ np.array([0.299, 0.587, 0.114]) / 255.0
        np.testing.assert_allclose(f.pixels, expected, atol=1e-12)

    def test_crc_mismatch_reports_offset(self):
        data = bytearray(make_png(np.zeros((2, 2), dtype=np.uint8)))
        data[-1] ^= 0xFF  # corrupt IEND CRC
        with pytest.raises(DecodeError) as exc:
            decode_frame(bytes(data))
        assert exc.value.offset == len(data) - 4  # start of the CRC field

    def test_truncated_chunk_reports_offset(self):
        data = make_png(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(DecodeError) as exc:
            decode_frame(data[:20])
        assert exc.value.offset == 16

    def test_decode_error_survives_pickling(self):
        # worker processes send their errors back pickled
        with pytest.raises(DecodeError) as exc:
            decode_frame(make_png(np.zeros((2, 2), dtype=np.uint8))[:20])
        copy = pickle.loads(pickle.dumps(exc.value))
        assert type(copy) is DecodeError
        assert (str(copy), copy.message, copy.offset) == (str(exc.value), exc.value.message, 16)

    def test_inflate_bomb_rejected_without_inflating(self):
        # a valid zlib stream of 256 MiB of zeros (about 260 KB compressed):
        # units of 1 MiB, each ended by a full flush, so every unit after the
        # first compresses to the same bytes
        mib = bytes(1 << 20)
        deflate = zlib.compressobj(9)
        head = deflate.compress(mib) + deflate.flush(zlib.Z_FULL_FLUSH)
        unit = deflate.compress(mib) + deflate.flush(zlib.Z_FULL_FLUSH)
        adler = 1
        for _ in range(256):
            adler = zlib.adler32(mib, adler)
        stream = head + unit * 255 + b"\x03\x00" + struct.pack(">I", adler)
        assert len(stream) < 400_000
        data = bytearray(make_png(np.zeros((1, 1), dtype=np.uint8)))
        idat_len = struct.unpack(">I", data[33:37])[0]
        assert data[37:41] == b"IDAT"
        idat = (struct.pack(">I", len(stream)) + b"IDAT" + stream
                + struct.pack(">I", zlib.crc32(b"IDAT" + stream) & 0xFFFFFFFF))
        data[33 : 33 + 12 + idat_len] = idat
        tracemalloc.start()
        try:
            with pytest.raises(DecodeError) as exc:
                decode_frame(bytes(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20  # the input is copied a few times; 256 MiB never is
        assert exc.value.offset == 8
        assert "inflates past 2 bytes" in str(exc.value)

    def test_truncated_pixel_stream_rejected(self):
        data = bytearray(make_png(np.zeros((4, 4), dtype=np.uint8)))
        idat_len = struct.unpack(">I", data[33:37])[0]
        stream = bytes(data[41 : 41 + idat_len - 4])  # drop the adler32 trailer
        idat = (struct.pack(">I", len(stream)) + b"IDAT" + stream
                + struct.pack(">I", zlib.crc32(b"IDAT" + stream) & 0xFFFFFFFF))
        data[33 : 33 + 12 + idat_len] = idat
        with pytest.raises(DecodeError, match="corrupt PNG pixel stream") as exc:
            decode_frame(bytes(data))
        assert exc.value.offset == 8

    @pytest.mark.parametrize("width, height", [(2**32 - 1, 2**32 - 1), (2**31, 1), (1, 2**31)])
    def test_dimensions_past_the_png_limit_rejected(self, width, height):
        # a 16-bit RGB image that size would declare a stream zlib cannot count
        data = with_ihdr(make_png(np.zeros((1, 1, 3), dtype=np.uint16), 16, 2), width, height)
        with pytest.raises(DecodeError) as exc:
            decode_frame(data)
        assert exc.value.offset == 16
        assert f"invalid PNG dimensions {width}x{height}" in str(exc.value)

    def test_largest_dimensions_fail_as_a_short_stream(self):
        limit = image.PNG_MAX_DIM
        data = with_ihdr(make_png(np.zeros((1, 1, 3), dtype=np.uint16), 16, 2), limit, limit)
        with pytest.raises(DecodeError, match="PNG pixel stream has 7 bytes") as exc:
            decode_frame(data)
        assert exc.value.offset == 8

    def test_interlaced_rejected(self):
        data = make_png(np.zeros((2, 2), dtype=np.uint8), interlace=1)
        with pytest.raises(DecodeError) as exc:
            decode_frame(data)
        assert "interlaced" in str(exc.value)

    def test_palette_rejected(self):
        data = make_png(np.zeros((2, 2), dtype=np.uint8))
        # rewrite color type byte to 3 (palette) and fix the CRC
        body = bytearray(data)
        body[25] = 3
        ihdr = bytes(body[12:29])
        body[29:33] = struct.pack(">I", zlib.crc32(ihdr) & 0xFFFFFFFF)
        with pytest.raises(DecodeError) as exc:
            decode_frame(bytes(body))
        assert "color type" in str(exc.value)

    def test_format_sniffing(self):
        png = make_png(np.zeros((1, 1), dtype=np.uint8))
        assert decode_frame(png).width == 1
        with pytest.raises(DecodeError):
            decode_frame(b"GIF89a....")


def fixed_crcs(data):
    """PNG bytes with the CRC of every complete chunk recomputed."""
    out = bytearray(data)
    pos = 8
    while pos + 8 <= len(out):
        end = pos + 8 + int.from_bytes(out[pos : pos + 4], "big")
        if end + 4 > len(out):
            break
        out[end : end + 4] = struct.pack(">I", zlib.crc32(out[pos + 4 : end]) & 0xFFFFFFFF)
        pos = end + 4
    return bytes(out)


def with_pixel_stream(png, raw):
    """make_png output with its one IDAT chunk holding `raw`, compressed."""
    idat_len = int.from_bytes(png[33:37], "big")
    stream = zlib.compress(raw)
    idat = (struct.pack(">I", len(stream)) + b"IDAT" + stream
            + struct.pack(">I", zlib.crc32(b"IDAT" + stream) & 0xFFFFFFFF))
    return png[:33] + idat + png[33 + 12 + idat_len :]


def fuzz_seeds():
    """Valid streams of every decoded form: PGM 8/16-bit, PNG gray/RGB 8/16-bit."""
    rng = np.random.default_rng(23)
    gray = rng.integers(0, 256, (4, 5), dtype=np.uint8)
    rgb16 = rng.integers(0, 65536, (3, 4, 3), dtype=np.uint16)
    return [
        b"P5\n5 4\n255\n" + gray.tobytes(),
        b"P5 # c\n2 2 1000 " + np.array([0, 999, 1000, 7], dtype=">u2").tobytes(),
        make_png(gray, filters=[0, 1, 2, 3]),
        make_png(rng.integers(0, 256, (5, 4, 3), dtype=np.uint8), color_type=2,
                 filters=[4, 3, 2, 1, 4]),
        make_png(rgb16, bit_depth=16, color_type=2, filters=[3, 4, 0]),
    ]


FUZZ_SEEDS = fuzz_seeds()


def mutated(data, draw):
    """data truncated, overwritten or with bytes inserted, at a drawn place."""
    op = draw(st.sampled_from(["truncate", "overwrite", "insert"]))
    at = draw(st.integers(0, len(data)))
    if op == "truncate":
        return data[:at]
    piece = draw(st.binary(min_size=1, max_size=8))
    return data[:at] + piece + data[at + len(piece) * (op == "overwrite") :]


class TestDecodeFuzz:
    @settings(max_examples=400, deadline=None)
    @given(seed=st.sampled_from(range(len(FUZZ_SEEDS))),
           target=st.sampled_from(["file", "pixels"]), data=st.data())
    def test_mutated_streams_decode_or_raise_decode_error(self, seed, target, data):
        stream = FUZZ_SEEDS[seed]
        png = stream.startswith(image.PNG_SIGNATURE)
        if png and target == "pixels":
            # past zlib: filter bytes and scanline lengths
            idat_len = int.from_bytes(stream[33:37], "big")
            raw = zlib.decompress(stream[41 : 41 + idat_len])
            stream = with_pixel_stream(stream, mutated(raw, data.draw))
        else:
            stream = mutated(stream, data.draw)
            if png:
                # recomputed CRCs let a mutation reach the chunk payloads
                stream = fixed_crcs(stream)
        try:
            frame = decode_frame(stream)
        except DecodeError:
            return
        assert isinstance(frame, Frame)


class TestGaussianBlur:
    def test_kernel_radius_and_normalization(self):
        # radius is ceil(3 * sigma): sigma 1.6 -> 5, sigma 1.0 -> 3
        assert len(gaussian_kernel_1d(1.6)) == 11
        assert len(gaussian_kernel_1d(1.0)) == 7
        assert gaussian_kernel_1d(2.3).sum() == pytest.approx(1.0)

    def test_impulse_response_is_kernel_outer_product(self):
        img = np.zeros((21, 21))
        img[10, 10] = 1.0
        out = gaussian_blur(Frame(img), 1.6).pixels
        k = gaussian_kernel_1d(1.6)
        np.testing.assert_allclose(out[5:16, 5:16], np.outer(k, k), atol=1e-15)
        assert out.sum() == pytest.approx(1.0)

    def test_constant_image_is_fixed_point(self):
        img = np.full((16, 16), 0.37)
        out = gaussian_blur(Frame(img), 2.0).pixels
        np.testing.assert_allclose(out, img, atol=1e-12)

    def test_preserves_shape(self):
        f = gaussian_blur(Frame(np.zeros((9, 13))), 1.1)
        assert (f.height, f.width) == (9, 13)

    def test_reflect_padding_oracle(self):
        # 1-D ramp row: scalar reference with explicit reflect indexing
        row = np.arange(8, dtype=float) / 10.0
        img = np.tile(row, (8, 1))
        sigma = 0.5
        k = gaussian_kernel_1d(sigma)
        r = len(k) // 2
        expected = np.empty(8)
        for j in range(8):
            acc = 0.0
            for m in range(-r, r + 1):
                idx = j + m
                if idx < 0:
                    idx = -idx
                elif idx > 7:
                    idx = 14 - idx
                acc += k[m + r] * row[idx]
            expected[j] = acc
        out = gaussian_blur(Frame(img), sigma).pixels
        np.testing.assert_allclose(out[4], expected, atol=1e-14)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            gaussian_blur(Frame(np.zeros((8, 8))), 0.0)


class TestSSIM:
    def test_identical_frames_score_one(self):
        rng = np.random.default_rng(0)
        f = Frame(rng.random((32, 32)))
        assert ssim(f, f) == pytest.approx(1.0)

    def test_frozen_scalar_loop_oracle(self):
        # reference value from an independent per-window scalar implementation
        a = Frame(np.random.default_rng(7).random((64, 64)))
        b = Frame(np.random.default_rng(8).random((64, 64)))
        assert ssim(a, b) == pytest.approx(-0.009422423069447534, abs=1e-12)

    def test_small_shift_scores_high(self):
        a = np.random.default_rng(7).random((64, 64))
        b = np.clip(a + 0.05, 0.0, 1.0)
        assert ssim(Frame(a), Frame(b)) == pytest.approx(0.9953845023525473, abs=1e-12)

    def test_symmetry(self):
        a = Frame(np.random.default_rng(1).random((24, 24)))
        b = Frame(np.random.default_rng(2).random((24, 24)))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ssim(Frame(np.zeros((16, 16))), Frame(np.zeros((16, 17))))

    def test_too_small(self):
        with pytest.raises(ValueError):
            ssim(Frame(np.zeros((10, 16))), Frame(np.zeros((10, 16))))

    def test_window_is_the_blur_kernel_of_sigma_1_5(self):
        assert len(image._SSIM_KERNEL) == image.SSIM_WINDOW == 11


class TestMotionLevel:
    def test_static_sequence_is_one(self):
        f = Frame(np.random.default_rng(5).random((32, 32)))
        assert motion_level([f, f, f, f]) == pytest.approx(1.0)

    def test_is_mean_over_later_frames(self):
        rng = np.random.default_rng(6)
        frames = [Frame(rng.random((32, 32))) for _ in range(4)]
        expected = np.mean([ssim(frames[0], f) for f in frames[1:]])
        assert motion_level(frames) == pytest.approx(expected, abs=1e-15)

    def test_equals_the_mean_of_one_ssim_call_per_later_frame(self, monkeypatch):
        rng = np.random.default_rng(16)
        frames = [Frame(rng.random((40, 52))) for _ in range(5)]
        expected = float(np.mean([ssim(frames[0], f) for f in frames[1:]]))
        calls = []

        def counting(a, b, **kwargs):
            calls.append(b)
            return ssim(a, b, **kwargs)

        monkeypatch.setattr(image, "ssim", counting)
        assert motion_level(frames) == expected
        assert len(calls) == len(frames) - 1
        assert all(seen is f for seen, f in zip(calls, frames[1:]))

    def test_later_frame_of_another_size_is_rejected(self):
        frames = [Frame(np.zeros((16, 16))), Frame(np.zeros((16, 17)))]
        with pytest.raises(ValueError, match="identical dimensions"):
            motion_level(frames)

    def test_frames_below_one_window_are_rejected(self):
        with pytest.raises(ValueError, match="min dimension"):
            motion_level([Frame(np.zeros((10, 16))), Frame(np.zeros((10, 16)))])

    def test_moving_scene_scores_lower(self):
        base = np.random.default_rng(9).random((48, 48))
        shifted = np.roll(base, 6, axis=1)
        static = motion_level([Frame(base), Frame(base)])
        moving = motion_level([Frame(base), Frame(shifted)])
        assert moving < static

    def test_needs_two_frames(self):
        with pytest.raises(ValueError):
            motion_level([Frame(np.zeros((16, 16)))])
