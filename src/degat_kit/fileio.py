"""Lossless image file I/O: PFM for floats, binary PPM/PGM for 8-bit.

PFM is written little-endian with scale -1.0. PPM/PGM use the binary
(P6/P5) variants with maxval 255; values round-trip as float arrays in
[0, 1]. Reading also accepts 16-bit PPM/PGM (maxval up to 65535).
"""

import re

import numpy as np

__all__ = ["read_pfm", "write_pfm", "read_pnm", "write_pnm", "read_image", "write_image"]

# digits of a header size or maxval; longer tokens are rejected before int(),
# which some interpreters cap at 4300 digits and others do not
_HEADER_DIGITS = 18


def _grid_size(data, kind):
    """(H, W) of an (H, W) or (H, W, 3) grid that the readers accept, with
    neither size empty."""
    if not (data.ndim == 2 or (data.ndim == 3 and data.shape[2] == 3)):
        raise ValueError(f"{kind} expects (H, W) or (H, W, 3), got {data.shape}")
    h, w = data.shape[:2]
    if h < 1 or w < 1:
        raise ValueError(f"{kind} size {w}x{h} is empty")
    return h, w


def write_pfm(path, data):
    """Write a float32/float64 grayscale or color grid as PFM.

    Values are stored as float32: NaN and inf pass through, and a finite
    value beyond the float32 range raises ValueError, as does an empty grid.
    """
    src = np.asarray(data, dtype=np.float64)
    h, w = _grid_size(src, "PFM")
    with np.errstate(over="ignore"):
        data = src.astype(np.float32)
    overflow = np.isinf(data) & np.isfinite(src)
    if overflow.any():
        raise ValueError(
            f"PFM stores float32: largest finite |value| {np.max(np.abs(src[overflow])):.6g} "
            f"exceeds {np.finfo(np.float32).max:.6g}"
        )
    header = b"Pf" if data.ndim == 2 else b"PF"
    try:
        with open(path, "wb") as fh:
            fh.write(header + b"\n")
            fh.write(f"{w} {h}\n".encode("ascii"))
            fh.write(b"-1.0\n")  # little-endian
            fh.write(np.flipud(data).astype("<f4").tobytes())
    except OSError as exc:
        raise OSError(f"failed to write PFM to {path}: {exc}") from exc


def _header_int(token, name, kind, path):
    """A header token's value as an ASCII decimal integer, optionally signed,
    of at most _HEADER_DIGITS digits."""
    if re.fullmatch(rb"[+-]?[0-9]{1,%d}" % _HEADER_DIGITS, token) is None:
        raise ValueError(f"{kind} {name} {token[:32]!r} is not an integer in {path}")
    return int(token)


def _read_header(path, kind, pattern=rb"\s*(\S+)"):
    """Read a Netpbm-style file: its bytes, magic, width, height, fourth header
    token and the offset of the payload, rejecting an empty size."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"failed to read {kind} from {path}: {exc}") from exc
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(pattern, raw[pos:])
        if m is None:
            raise ValueError(f"truncated {kind} header in {path}")
        tokens.append(m.group(1))
        pos += m.end()
    magic, last = tokens[0], tokens[3]
    w = _header_int(tokens[1], "width", kind, path)
    h = _header_int(tokens[2], "height", kind, path)
    if w < 1 or h < 1:
        raise ValueError(f"{kind} size {w}x{h} is empty in {path}")
    return raw, magic, w, h, last, pos + 1  # single whitespace after the last token


def read_pfm(path):
    """Read a PFM file into a float64 array (H, W) or (H, W, 3)."""
    raw, magic, w, h, scale, pos = _read_header(path, "PFM")
    if magic not in (b"Pf", b"PF"):
        raise ValueError(f"not a PFM file: {path}")
    channels = 3 if magic == b"PF" else 1
    # the scale's sign is the byte order: zero and nan have none
    try:
        scale = float(scale)
    except ValueError:
        raise ValueError(f"PFM scale {scale[:32]!r} is not a number in {path}") from None
    if scale == 0.0 or not np.isfinite(scale):
        raise ValueError(f"PFM scale {scale} must be finite and non-zero in {path}")
    endian = "<" if scale < 0 else ">"
    count = w * h * channels
    payload = raw[pos:pos + 4 * count]
    if len(payload) != 4 * count:
        raise ValueError(f"truncated PFM payload in {path}")
    data = np.frombuffer(payload, dtype=endian + "f4")
    shape = (h, w) if channels == 1 else (h, w, 3)
    with np.errstate(invalid="ignore"):  # a signalling NaN reads as a quiet one
        return np.flipud(data.reshape(shape)).astype(np.float64)


def write_pnm(path, data):
    """Write values in [0, 1] as binary PGM (2-D) or PPM (H, W, 3); values
    outside are clipped, and non-finite ones or an empty grid raise ValueError."""
    data = np.asarray(data, dtype=np.float64)
    h, w = _grid_size(data, "PNM")
    if not np.isfinite(data).all():
        raise ValueError("PNM pixels contain non-finite values")
    magic = b"P5" if data.ndim == 2 else b"P6"
    pixels = np.rint(np.clip(data, 0.0, 1.0) * 255.0).astype(np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    except OSError as exc:
        raise OSError(f"failed to write PNM to {path}: {exc}") from exc


def read_pnm(path):
    """Read binary PGM/PPM into a float64 array scaled to [0, 1]."""
    raw, magic, w, h, maxval, pos = _read_header(path, "PNM", rb"\s*(?:#[^\n]*\n\s*)*(\S+)")
    maxval = _header_int(maxval, "maxval", "PNM", path)
    if magic not in (b"P5", b"P6"):
        raise ValueError(f"unsupported PNM magic {magic!r} in {path}")
    if not 1 <= maxval <= 65535:
        raise ValueError(f"PNM maxval {maxval} outside [1, 65535] in {path}")
    channels = 3 if magic == b"P6" else 1
    count = w * h * channels
    # Netpbm: one byte per sample up to maxval 255, else two, big-endian
    dtype = np.dtype(np.uint8) if maxval <= 255 else np.dtype(">u2")
    payload = raw[pos:pos + count * dtype.itemsize]
    if len(payload) != count * dtype.itemsize:
        raise ValueError(f"truncated PNM payload in {path}")
    data = np.frombuffer(payload, dtype=dtype)
    if data.max() > maxval:
        # Netpbm samples are at most maxval; larger ones would read above 1
        raise ValueError(f"PNM sample {data.max()} above maxval {maxval} in {path}")
    shape = (h, w) if channels == 1 else (h, w, 3)
    return data.reshape(shape).astype(np.float64) / float(maxval)


def read_image(path):
    """Dispatch on extension: .pfm -> PFM, .pgm/.ppm/.pnm -> PNM."""
    p = str(path).lower()
    if p.endswith(".pfm"):
        return read_pfm(path)
    if p.endswith((".pgm", ".ppm", ".pnm")):
        return read_pnm(path)
    raise ValueError(f"unsupported image extension: {path}")


def write_image(path, data):
    p = str(path).lower()
    if p.endswith(".pfm"):
        write_pfm(path, data)
    elif p.endswith((".pgm", ".ppm", ".pnm")):
        write_pnm(path, data)
    else:
        raise ValueError(f"unsupported image extension: {path}")
