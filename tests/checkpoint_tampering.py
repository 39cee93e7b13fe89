"""Checkpoint edits shared by the harness and CLI tests.

A checkpoint's ``params.bin`` holds every parameter as little-endian
float64, concatenated in ``param_shapes(cfg)`` order; ``param_slice``
derives an array's place in it from that table alone.
"""

import json
import math
from dataclasses import fields

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from degat_kit.harness import save_checkpoint
from degat_kit.toy_model import ModelConfig, init_model_params, param_shapes

CFG = ModelConfig(
    image_h=16, image_w=16, patch_size=4, embed_dim=8, n_blocks=1, n_heads=2, k_neighbors=3,
    cond_hidden=4, bias_hidden=4, ffn_mult=2, cam_hidden=4, n_buckets=4,
)
PARAMS = init_model_params(CFG)
NAMES = sorted(PARAMS)


def param_slice(cfg, name):
    """The slice of ``params.bin``'s float64 values that holds ``name``."""
    start = 0
    for k, shape in param_shapes(cfg).items():
        if k == name:
            return slice(start, start + math.prod(shape))
        start += math.prod(shape)
    raise KeyError(name)


def edit_param(path, cfg, name, edit):
    """Replace the values of ``name`` in the checkpoint at ``path`` by
    ``edit(values)``."""
    blob = path / "params.bin"
    values = np.fromfile(blob, dtype="<f8")
    part = param_slice(cfg, name)
    values[part] = edit(values[part])
    values.tofile(blob)


CONFIG_INTS = [f.name for f in fields(ModelConfig) if f.type is int]
CONFIG_STRS = [f.name for f in fields(ModelConfig) if f.type is str]
NOT_INT = st.one_of(st.floats(), st.booleans(), st.text(max_size=3), st.none(),
                    st.lists(st.integers(0, 9), max_size=2))
NOT_STR = st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.just("other"),
                    st.lists(st.sampled_from(["none", "pre"]), max_size=2))
SHAPE = st.lists(st.integers(0, 40), max_size=3)
# (kind, *args) for the manifest edits, then for the params.bin edits
TAMPERING = st.one_of(
    st.tuples(st.just("missing"), st.sampled_from(NAMES)),
    st.tuples(st.just("extra"), st.text(min_size=1, max_size=6), SHAPE),
    st.tuples(st.just("reshaped"), st.sampled_from(NAMES), SHAPE),
    st.tuples(st.just("not_a_shape"), st.sampled_from(NAMES), st.one_of(
        st.integers(), st.none(), st.text(max_size=3),
        st.lists(st.one_of(st.floats(), st.booleans(), st.text(max_size=2)), min_size=1,
                 max_size=2))),
    st.tuples(st.just("separator"), st.sampled_from(["/", "\\"]), st.text(max_size=4)),
    st.tuples(st.just("config_value"), st.sampled_from(CONFIG_INTS), NOT_INT),
    st.tuples(st.just("config_value"), st.sampled_from(CONFIG_STRS), NOT_STR),
    st.tuples(st.just("non_finite"), st.sampled_from(NAMES),
              st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 10**6)),
    st.tuples(st.just("truncated"), st.sampled_from(NAMES), st.integers(1, 64)),
    st.tuples(st.just("extended"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("garbage"), st.binary(max_size=64)),  # far shorter than the blob
    st.tuples(st.just("no_blob")),  # a directory of the older one-file-per-name format too
)
BLOB_KINDS = {"truncated", "extended", "garbage", "no_blob"}


def tamper(path, tampering):
    """Save the ``CFG`` checkpoint at ``path``, apply one ``TAMPERING`` draw
    and return the error that loading it must raise: OSError for a bad or
    missing blob, ValueError for anything else."""
    kind, *args = tampering
    save_checkpoint(path, CFG, PARAMS)
    manifest = json.loads((path / "manifest.json").read_text())
    shapes, blob = manifest["params"], path / "params.bin"
    if kind == "missing":
        del shapes[args[0]]
    elif kind == "extra":
        assume(args[0] not in shapes)
        shapes[args[0]] = args[1]
    elif kind == "reshaped":
        assume(args[1] != shapes[args[0]])
        shapes[args[0]] = args[1]
    elif kind == "not_a_shape":  # [8.0] or [True] too, which compare equal to [8] or [1]
        shapes[args[0]] = args[1]
    elif kind == "separator":
        shapes[args[1] + args[0] + NAMES[0]] = shapes.pop(NAMES[0])
    elif kind == "config_value":
        manifest["config"][args[0]] = args[1]
    elif kind == "non_finite":
        edit_param(path, CFG, args[0],
                   lambda v: np.where(np.arange(v.size) == args[2] % v.size, args[1], v))
    elif kind == "truncated":  # the last bytes of that array's values
        stop = 8 * param_slice(CFG, args[0]).stop
        raw = blob.read_bytes()
        blob.write_bytes(raw[:stop - args[1]] + raw[stop:])
    elif kind == "extended":
        blob.write_bytes(blob.read_bytes() + args[0])
    elif kind == "garbage":
        blob.write_bytes(args[0])
    else:
        blob.unlink()
    (path / "manifest.json").write_text(json.dumps(manifest))
    return OSError if kind in BLOB_KINDS else ValueError
