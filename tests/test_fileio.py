"""Hostile inputs to the PFM and PGM/PPM readers.

Round trips of drawn images, and files with fuzzed headers (magic, size,
PFM scale, maxval) and truncated bodies: each file either reads back as
the image it encodes or raises its documented error, a ValueError for a
malformed file and an OSError for one that cannot be read.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from degat_kit import fileio
from degat_kit.fileio import read_pfm, read_pnm, write_pfm, write_pnm

SIZE_TOKENS = st.one_of(
    st.integers(-2, 4).map(lambda v: str(v).encode()),
    st.sampled_from([b"+3", b"007", b"1_0", b"0x2", b"2.0", b"two", b"\xff\xfe",
                     b"99999999999", b"1" + b"0" * 18, b"9" * 5000]),
)
SCALE_TOKENS = st.one_of(
    st.floats().map(lambda v: repr(v).encode()),
    st.sampled_from([b"-1", b"1", b"-0", b"1e999", b"-1e-320", b"abc", b"--1", b"\xff"]),
)
MAXVAL_TOKENS = st.one_of(
    st.integers(-1, 300).map(lambda v: str(v).encode()),
    st.sampled_from([b"65535", b"65536", b"256", b"2.5", b"ff", b"1_0", b"0" * 19,
                     b"9" * 5000]),
)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile")


def _size(token):
    """The header's integer value of a size token, or None if it has none."""
    pattern = rb"[+-]?[0-9]{1,%d}" % fileio._HEADER_DIGITS
    return int(token) if re.fullmatch(pattern, token) else None


def _payload(data, w, h, channels, itemsize, extra):
    """Random payload bytes: ``extra`` bytes more (or fewer) than the size
    needs, or a short arbitrary body when the size is unusable."""
    need = w * h * channels * itemsize if w and h and w > 0 and h > 0 else 0
    if need > 4096:
        need = 0
    return data.draw(st.binary(min_size=max(0, need + extra), max_size=max(0, need + extra)))


def _expect_error(read, path, pattern):
    with pytest.raises(ValueError, match=pattern):
        read(path)


@settings(max_examples=60)
@given(arrays(np.float32, st.sampled_from([(1, 1), (3, 2), (2, 5), (4, 3, 3), (1, 2, 3)])))
def test_pfm_roundtrip(work, data):
    path = work / "round.pfm"
    write_pfm(path, data)
    np.testing.assert_array_equal(read_pfm(path), data.astype(np.float64))


@pytest.mark.parametrize("value, text", [(1e300, "1e+300"), (-1e39, "1e+39")])
def test_pfm_rejects_finite_values_beyond_float32(tmp_path, value, text):
    path = tmp_path / "big.pfm"
    with pytest.raises(ValueError, match=rf"largest finite \|value\| {re.escape(text)} exceeds 3\.40282e\+38"):
        write_pfm(path, [[1.0, value]])
    assert not path.exists()
    # non-finite values are stored as they are, and float32 max still fits
    write_pfm(path, [[np.nan, -np.inf, float(np.finfo(np.float32).max)]])
    back = read_pfm(path)
    assert np.isnan(back[0, 0]) and back[0, 1] == -np.inf
    assert back[0, 2] == np.finfo(np.float32).max


@settings(max_examples=60)
@given(arrays(np.uint8, st.sampled_from([(1, 1), (3, 2), (2, 5), (4, 3, 3), (1, 2, 3)])))
def test_pnm_roundtrip(work, levels):
    path = work / ("round.pgm" if levels.ndim == 2 else "round.ppm")
    data = levels / 255.0
    write_pnm(path, data)
    np.testing.assert_array_equal(read_pnm(path), data)


@settings(max_examples=300)
@given(magic=st.sampled_from([b"Pf", b"PF", b"P5", b"pf"]), w=SIZE_TOKENS, h=SIZE_TOKENS,
       scale=SCALE_TOKENS, extra=st.integers(-9, 3), data=st.data())
def test_pfm_fuzzed_header(work, magic, w, h, scale, extra, data):
    wi, hi = _size(w), _size(h)
    channels = 3 if magic == b"PF" else 1
    payload = _payload(data, wi, hi, channels, 4, extra)
    path = work / "fuzz.pfm"
    path.write_bytes(magic + b"\n" + w + b" " + h + b"\n" + scale + b"\n" + payload)
    if wi is None or hi is None:
        return _expect_error(read_pfm, path, "PFM (width|height) .* is not an integer")
    if wi < 1 or hi < 1:
        return _expect_error(read_pfm, path, "empty")
    if magic not in (b"Pf", b"PF"):
        return _expect_error(read_pfm, path, "not a PFM file")
    try:
        s = float(scale)
    except ValueError:
        return _expect_error(read_pfm, path, "PFM scale .* is not a number")
    if s == 0.0 or not np.isfinite(s):
        return _expect_error(read_pfm, path, "PFM scale .* must be finite and non-zero")
    count = wi * hi * channels
    if len(payload) < 4 * count:
        return _expect_error(read_pfm, path, "truncated PFM payload")
    expect = np.frombuffer(payload[:4 * count], ("<" if s < 0 else ">") + "f4")
    shape = (hi, wi) if channels == 1 else (hi, wi, 3)
    np.testing.assert_array_equal(read_pfm(path), np.flipud(expect.reshape(shape)))


@settings(max_examples=300)
@given(magic=st.sampled_from([b"P5", b"P6", b"P2", b"Pf"]), w=SIZE_TOKENS, h=SIZE_TOKENS,
       maxval=MAXVAL_TOKENS, extra=st.integers(-5, 3), data=st.data())
def test_pnm_fuzzed_header(work, magic, w, h, maxval, extra, data):
    wi, hi, mv = _size(w), _size(h), _size(maxval)
    channels = 3 if magic == b"P6" else 1
    itemsize = 2 if mv is not None and mv > 255 else 1
    payload = _payload(data, wi, hi, channels, itemsize, extra)
    path = work / "fuzz.pgm"
    path.write_bytes(magic + b"\n# comment\n" + w + b" " + h + b"\n" + maxval + b"\n" + payload)
    if wi is None or hi is None:
        return _expect_error(read_pnm, path, "PNM (width|height) .* is not an integer")
    if wi < 1 or hi < 1:
        return _expect_error(read_pnm, path, "empty")
    if mv is None:
        return _expect_error(read_pnm, path, "PNM maxval .* is not an integer")
    if magic not in (b"P5", b"P6"):
        return _expect_error(read_pnm, path, "unsupported PNM magic")
    if not 1 <= mv <= 65535:
        return _expect_error(read_pnm, path, r"maxval .* outside \[1, 65535\]")
    count = wi * hi * channels
    if len(payload) < count * itemsize:
        return _expect_error(read_pnm, path, "truncated PNM payload")
    samples = np.frombuffer(payload[:count * itemsize], np.uint8 if itemsize == 1 else ">u2")
    if samples.max() > mv:
        return _expect_error(read_pnm, path, "sample .* above maxval")
    shape = (hi, wi) if channels == 1 else (hi, wi, 3)
    np.testing.assert_array_equal(read_pnm(path), samples.reshape(shape) / float(mv))


@settings(max_examples=100)
@given(kind=st.sampled_from(["pfm", "pgm", "ppm"]), data=st.data())
def test_truncated_file(work, kind, data):
    """A valid file cut anywhere before its end: a truncated header, or a
    scale cut short, or a truncated payload, but never a read."""
    path = work / f"cut.{kind}"
    image = np.zeros((2, 3) if kind != "ppm" else (2, 3, 3))
    (write_pfm if kind == "pfm" else write_pnm)(path, image)
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    read = read_pfm if kind == "pfm" else read_pnm
    _expect_error(read, path, "truncated|PFM scale")


@pytest.mark.parametrize("read", [read_pfm, read_pnm])
def test_unreadable_path_is_os_error(tmp_path, read):
    with pytest.raises(OSError, match="failed to read"):
        read(tmp_path / "missing")
    with pytest.raises(OSError, match="failed to read"):
        read(tmp_path)  # a directory
