"""Lossless image file I/O: PFM for floats, binary PPM/PGM for 8-bit.

PFM is written little-endian with scale -1.0. PPM/PGM use the binary
(P6/P5) variants with maxval 255; values round-trip as float arrays in
[0, 1]. Reading also accepts 16-bit PPM/PGM (maxval up to 65535).
"""

import re

import numpy as np

__all__ = ["read_pfm", "write_pfm", "read_pnm", "write_pnm", "read_image", "write_image"]


def write_pfm(path, data):
    """Write a float32/float64 grayscale or color grid as PFM."""
    data = np.asarray(data, dtype=np.float32)
    if data.ndim == 2:
        header = b"Pf"
    elif data.ndim == 3 and data.shape[2] == 3:
        header = b"PF"
    else:
        raise ValueError(f"PFM expects (H, W) or (H, W, 3), got {data.shape}")
    h, w = data.shape[:2]
    try:
        with open(path, "wb") as fh:
            fh.write(header + b"\n")
            fh.write(f"{w} {h}\n".encode("ascii"))
            fh.write(b"-1.0\n")  # little-endian
            fh.write(np.flipud(data).astype("<f4").tobytes())
    except OSError as exc:
        raise OSError(f"failed to write PFM to {path}: {exc}") from exc


def read_pfm(path):
    """Read a PFM file into a float64 array (H, W) or (H, W, 3)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"failed to read PFM from {path}: {exc}") from exc
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"\s*(\S+)", raw[pos:])
        if m is None:
            raise ValueError(f"truncated PFM header in {path}")
        tokens.append(m.group(1))
        pos += m.end()
    pos += 1  # single whitespace after the scale line
    magic, w, h, scale = tokens[0], int(tokens[1]), int(tokens[2]), float(tokens[3])
    if magic not in (b"Pf", b"PF"):
        raise ValueError(f"not a PFM file: {path}")
    channels = 3 if magic == b"PF" else 1
    endian = "<" if scale < 0 else ">"
    count = w * h * channels
    data = np.frombuffer(raw[pos:pos + 4 * count], dtype=endian + "f4")
    if data.size != count:
        raise ValueError(f"truncated PFM payload in {path}")
    shape = (h, w) if channels == 1 else (h, w, 3)
    return np.flipud(data.reshape(shape)).astype(np.float64)


def write_pnm(path, data):
    """Write values in [0, 1] as binary PGM (2-D) or PPM (H, W, 3)."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        magic = b"P5"
    elif data.ndim == 3 and data.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"PNM expects (H, W) or (H, W, 3), got {data.shape}")
    h, w = data.shape[:2]
    pixels = np.rint(np.clip(data, 0.0, 1.0) * 255.0).astype(np.uint8)
    try:
        with open(path, "wb") as fh:
            fh.write(magic + b"\n" + f"{w} {h}\n255\n".encode("ascii"))
            fh.write(pixels.tobytes())
    except OSError as exc:
        raise OSError(f"failed to write PNM to {path}: {exc}") from exc


def read_pnm(path):
    """Read binary PGM/PPM into a float64 array scaled to [0, 1]."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise OSError(f"failed to read PNM from {path}: {exc}") from exc
    tokens = []
    pos = 0
    while len(tokens) < 4:
        m = re.match(rb"\s*(?:#[^\n]*\n\s*)*(\S+)", raw[pos:])
        if m is None:
            raise ValueError(f"truncated PNM header in {path}")
        tokens.append(m.group(1))
        pos += m.end()
    pos += 1  # single whitespace after maxval
    magic, w, h, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
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
