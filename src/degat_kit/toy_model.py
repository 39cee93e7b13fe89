"""Toy patch-token transformer with selectable graph-attention integration.

The F frames run as one (F, L, C) batch of patch tokens: linear patch
embedding -> optional pre-transformer graph-attention hop -> camera-token
conditioning, one token per frame -> N self-attention blocks over each
frame's camera token and patches (optionally bias-injected, with the one
(F, 1 or H, L + 1, L + 1) bias that the bias kind returns, its
camera-token row and column 0: the log-affinity bias is one for all
heads, the bucket and MLP biases one per head) -> one global
block over the (F * (L + 1), C) tokens of all frames when several frames
are given -> optional post-transformer graph-attention hop -> linear
per-patch depth/confidence head and an MLP camera head. The hop takes the
batch too and builds each frame's own K-NN graph. ``loss_and_grads``
scores the stacked outputs with one call of each ``objective`` loss, and
``backward`` takes the losses' gradient dicts merged into one; ``loss``
scores them without a backward pass. Only ``forward`` unpacks the outputs
into one depth map and camera per frame.

Each of these steps is a stage, a (forward, backward) pair. A forward pass
given a tape, a list, appends one (backward, cache) entry per stage that
runs, and ``backward`` replays the tape in reverse; without a tape each
stage's cache is dropped by the time the next stage has run, which is how
``loss`` and ``forward`` keep their memory small. Each stage backward maps
one gradient to one; the blocks sum the gradient of a bias with parameters
(bucket, MLP) under a non-parameter key that the tokens stage pops, the
stop-gradient log-affinity bias gets none, and a bias-free variant
(``attention_bias="none"``) builds no bias at all.

A variant's parameters are those of the layers its stages read, and no
others: ``param_shapes(cfg)`` is assembled once per config from the
layers' own shape tables, the layers of a conditioning or bias kind being
named in the kind's own table entry, and the dicts of
``init_model_params``, ``backward`` and ``sgd_step`` keep its order.
``init_model_params`` draws every layer of every variant in one fixed
order and keeps the variant's, so a layer two variants share starts with
the same values in both. The parameter dict is checked once, when it
enters ``forward``: its names and shapes against ``param_shapes(cfg)`` and
its values for finiteness (``numerics.check_arrays``). Each layer then
reads its weights through ``_layer``, a plain tuple of the arrays under
its prefix. Gradients are allocated where they are first written; a
parameter that a call does not reach gets a zero gradient.

Every attention layer is ``conditioning.multi_head_attention``, and the
conditioning and bias kinds are the keys of two (forward, backward,
layers) tables. The stages look their layers up in ``conditioning`` and
``degat`` at call time, so a wrapper installed after import sees every
call. Forward and backward are written by hand against explicit caches,
and whole-model finite differences in the tests check every parameter
gradient.
"""

import functools
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import degat as dg
from . import conditioning as cond
from .geometry import CameraParams, DepthMap
from .graph import METRICS
from .numerics import check_arrays, fan_in_uniform
from .objective import LossWeights, camera_loss, depth_loss, depth_loss_backward

__all__ = [
    "ModelConfig",
    "param_shapes",
    "init_model_params",
    "forward",
    "backward",
    "loss",
    "loss_and_grads",
    "sgd_step",
]

PLACEMENTS = ("none", "pre", "post")

FOCAL_EPS = 1e-6

# output layers that start at zero, so that every variant is the identity
# at initialization; all biases start at zero too
ZERO_INIT = frozenset({
    "cond_add.w2", "cond_film.w2", "cond_xattn.w_o", "cond_xattn_ffn.w2",
    "bias_table", "bias_mlp.w2",
})


@dataclass(frozen=True)
class ModelConfig:
    image_h: int = 32
    image_w: int = 32
    patch_size: int = 8
    embed_dim: int = 32
    n_blocks: int = 2
    n_heads: int = 4
    k_neighbors: int = 9
    degat_placement: str = "none"
    token_conditioning: str = "none"
    attention_bias: str = "none"
    seed: int = 0
    knn_metric: str = "cosine"
    cond_hidden: int = 32
    bias_hidden: int = 32
    n_buckets: int = 8
    ffn_mult: int = 2
    cam_hidden: int = 32

    def __post_init__(self):
        sizes = ("image_h", "image_w", "patch_size", "embed_dim", "n_heads", "cond_hidden",
                 "bias_hidden", "n_buckets", "ffn_mult", "cam_hidden")
        not_int = [f"{name}={getattr(self, name)!r}"
                   for name in sizes + ("n_blocks", "k_neighbors", "seed")
                   if type(getattr(self, name)) is not int]
        if not_int:
            raise ValueError(f"model sizes, k_neighbors and seed must be integers: "
                             f"{', '.join(not_int)}")
        not_str = [name for name in ("degat_placement", "token_conditioning", "attention_bias",
                                     "knn_metric") if not isinstance(getattr(self, name), str)]
        if not_str:
            raise ValueError(f"model options must be strings: {', '.join(not_str)}")
        bad = [f"{name}={getattr(self, name)}" for name in sizes if getattr(self, name) < 1]
        if self.n_blocks < 0:
            bad.append(f"n_blocks={self.n_blocks}")
        if bad:
            raise ValueError(f"model sizes must be positive: {', '.join(bad)}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"model seed must be >= 0: seed={self.seed}")
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ValueError(
                f"patch size {self.patch_size} must divide image "
                f"{self.image_h}x{self.image_w}"
            )
        if self.embed_dim % self.n_heads:
            raise ValueError(
                f"heads {self.n_heads} must divide embed dim {self.embed_dim}"
            )
        if self.degat_placement not in PLACEMENTS:
            raise ValueError(f"degat_placement must be one of {PLACEMENTS}")
        if self.token_conditioning not in TOKEN_CONDITIONING:
            raise ValueError(f"token_conditioning must be one of {tuple(TOKEN_CONDITIONING)}")
        if self.attention_bias not in ATTENTION_BIAS:
            raise ValueError(f"attention_bias must be one of {tuple(ATTENTION_BIAS)}")
        if self.knn_metric not in METRICS:
            raise ValueError(f"knn_metric must be one of {METRICS}")
        if not 1 <= self.k_neighbors <= self.n_tokens - 1:
            raise ValueError(
                f"k_neighbors={self.k_neighbors} invalid for {self.n_tokens} tokens"
            )

    @property
    def grid_h(self):
        return self.image_h // self.patch_size

    @property
    def grid_w(self):
        return self.image_w // self.patch_size

    @property
    def n_tokens(self):
        return self.grid_h * self.grid_w


def _prefixed(prefix, layer_shapes):
    """A layer's field -> shape table under the layer's parameter names."""
    return {f"{prefix}.{w}": shape for w, shape in layer_shapes.items()}


def _layer_table(cfg):
    """Layer -> (parameter name -> shape) of every layer that any variant of
    the config's sizes has, in initialization order. A layer is named by its
    parameters' prefix, or is one parameter under its own name."""
    c, ch, n_heads = cfg.embed_dim, cfg.cond_hidden, cfg.n_heads
    p2, f = cfg.patch_size**2, cfg.ffn_mult * cfg.embed_dim
    layers = {
        "embed": {"embed.w": (c, p2), "embed.b": (c,)},
        "camera_token": {"camera_token": (c,)},
        "degat": _prefixed("degat", dg.degat_shapes(c)),
        "cond_add": _prefixed("cond_add", cond.mlp2_shapes(c, ch, c)),
        "cond_film": _prefixed("cond_film", cond.mlp2_shapes(c, ch, 2 * c)),
        "cond_xattn": _prefixed("cond_xattn", cond.attn_shapes(c)),
        "cond_xattn_ffn": _prefixed("cond_xattn_ffn", cond.mlp2_shapes(c, ch, c)),
        "bias_table": {"bias_table": (cfg.n_buckets, n_heads)},
        "bias_mlp": _prefixed("bias_mlp", cond.mlp2_shapes(1, cfg.bias_hidden, n_heads)),
    }
    for name in [f"block{i}" for i in range(cfg.n_blocks)] + ["global"]:
        layers[name] = _prefixed(name, cond.attn_shapes(c))
        layers[f"{name}_ffn"] = _prefixed(f"{name}_ffn", cond.mlp2_shapes(c, f, c))
    layers["depth_head"] = {"depth_head.w": (2 * p2, c), "depth_head.b": (2 * p2,)}
    layers["cam_head"] = _prefixed("cam_head", cond.mlp2_shapes(c, cfg.cam_hidden, 13))
    return layers


@functools.lru_cache(maxsize=256)  # the 48 variants at a few sizes
def _shapes_of(cfg):
    """``param_shapes(cfg)`` read-only, built once per frozen config:
    ``forward`` checks against it on every call."""
    reads = (("degat",) if cfg.degat_placement != "none" else ()) \
        + TOKEN_CONDITIONING[cfg.token_conditioning].layers \
        + ATTENTION_BIAS[cfg.attention_bias].layers
    return MappingProxyType({
        name: shape for layer, shapes in _layer_table(cfg).items()
        if layer not in _OPTIONAL_LAYERS or layer in reads for name, shape in shapes.items()
    })


def param_shapes(cfg):
    """Name -> shape of each parameter the variant's stages read, in
    initialization order.

    Every variant has the patch embedding, the camera token, the blocks, the
    global block (which any call on several frames runs) and the two heads.
    The DeGAT layer is added by a hop placement, and by the log-affinity bias,
    which runs a hop of its own when there is none; the conditioning and
    bias kinds add the layers their ``TOKEN_CONDITIONING`` and
    ``ATTENTION_BIAS`` entries name.
    """
    return dict(_shapes_of(cfg))


def init_model_params(cfg, rng=None):
    """Seeded parameter dict of the variant: uniform in +-1/sqrt(fan-in) over
    the last axis, a small normal camera token, and zeros for biases and
    ``ZERO_INIT``.

    Every layer of every variant is drawn, in one fixed order, and the
    variant keeps its own, so a layer that two variants of one config share
    has the same values in both.
    """
    rng = np.random.default_rng(cfg.seed if rng is None else rng)
    keep = _shapes_of(cfg)
    params = {}
    for shapes in _layer_table(cfg).values():
        for name, shape in shapes.items():
            if name == "camera_token":
                value = rng.normal(0.0, 0.02, size=shape)
            elif name in ZERO_INIT or name.rsplit(".", 1)[-1] in ("b", "b1", "b2"):
                value = None  # draws nothing
            else:
                value = fan_in_uniform(rng, shape)
            if name in keep:
                params[name] = np.zeros(shape) if value is None else value
    return params


def _layer(cls, params, prefix):
    """The ``cls`` weight tuple of the arrays under ``prefix``."""
    return cls._make([params[f"{prefix}.{w}"] for w in cls._fields])


def _store(grads, prefix, g):
    """Store a layer's gradient dict under the layer's parameter names."""
    for w, gw in g.items():
        grads[f"{prefix}.{w}"] = gw


# ---------------------------------------------------------------------------
# patchify / unpatchify


def _patchify(frames, cfg):
    """(F, H, W) frames -> (F, L, P^2) patch rows."""
    p = cfg.patch_size
    gh, gw = cfg.grid_h, cfg.grid_w
    f = np.asarray(frames, dtype=np.float64)
    if f.shape[1:] != (cfg.image_h, cfg.image_w):
        raise ValueError(f"frame shape {f.shape[1:]} != ({cfg.image_h}, {cfg.image_w})")
    return f.reshape(-1, gh, p, gw, p).transpose(0, 1, 3, 2, 4).reshape(-1, gh * gw, p * p)


def _unpatchify(tokens, cfg):
    """(F, L, P^2) patch rows -> (F, H, W) grids."""
    p = cfg.patch_size
    gh, gw = cfg.grid_h, cfg.grid_w
    return tokens.reshape(-1, gh, gw, p, p).transpose(0, 1, 3, 2, 4).reshape(-1, gh * p, gw * p)


# ---------------------------------------------------------------------------
# stages
#
# A stage's forward is (params, cfg, *inputs) -> (output, cache) and its
# backward (params, grads, cfg, cache, d_output) -> d_input; the backward
# stores its parameter gradients in grads. From the heads back to the tokens
# stage d_output is d(loss)/d of the (F, L + 1, C) token sequence. Each block
# given the (F, Hb, L + 1, L + 1) attention bias of a kind with a backward
# (bucket, MLP: Hb = H) sums d(loss)/d(bias) into grads[_D_BIAS], not a
# parameter name, which the tokens stage pops.
_D_BIAS = "d(attention bias)"


def _embed(params, cfg, frames):
    """(F, H, W) frames -> (F, L, C) patch embeddings; the cache is the patches."""
    patches = _patchify(frames, cfg)
    return patches @ params["embed.w"].T + params["embed.b"], patches


def _embed_backward(params, grads, cfg, patches, d_x0):
    flat_d_x0 = d_x0.reshape(-1, cfg.embed_dim)
    grads["embed.w"] = flat_d_x0.T @ patches.reshape(-1, patches.shape[-1])
    grads["embed.b"] = flat_d_x0.sum(axis=0)


def _hop(params, cfg, x):
    return dg.degat_forward(
        x, _layer(dg.DeGatParams, params, "degat"), cfg.k_neighbors, cfg.knn_metric
    )


def _hop_backward(params, grads, cfg, cache, d_out):
    g = dg.degat_backward(cache, _layer(dg.DeGatParams, params, "degat"), d_out)
    _store(grads, "degat", {"w_proj": g.d_w_proj, "a": g.d_a, "w_val": g.d_w_val})
    return g.d_x


def _pre_hop(params, cfg, x0):
    """The hop before the blocks; its cache is an output too, for the
    log-affinity bias."""
    x1, cache = _hop(params, cfg, x0)
    return (x1, cache), cache


def _tokens(params, cfg, x1, pre_degat):
    """The (F, L + 1, C) sequence of each frame's conditioned camera token and
    its patch tokens, and the bias kind's (F, Hb, L + 1, L + 1) attention
    bias, or None for ``attention_bias="none"``."""
    c_tok, cond_cache = TOKEN_CONDITIONING[cfg.token_conditioning].forward(params, cfg, x1)
    bias, bias_cache = ATTENTION_BIAS[cfg.attention_bias].forward(params, cfg, x1, pre_degat)
    seq = np.concatenate([c_tok[:, None], x1], axis=1)
    return (seq, bias), (cond_cache, bias_cache)


def _tokens_backward(params, grads, cfg, cache, d_seq):
    cond_cache, bias_cache = cache
    if _D_BIAS in grads:  # some block read the bias
        ATTENTION_BIAS[cfg.attention_bias].backward(
            params, grads, cfg, bias_cache, grads.pop(_D_BIAS)[:, :, 1:, 1:]
        )
    d_x1 = d_seq[:, 1:].copy()
    grads["camera_token"] = TOKEN_CONDITIONING[cfg.token_conditioning].backward(
        params, grads, cfg, cond_cache, d_seq[:, 0], d_x1
    )
    return d_x1


def _attn_ffn(params, cfg, x, name, bias=None):
    """Self-attention and FFN, each with a residual, over (..., N, C) tokens."""
    attn = _layer(cond.CrossAttnParams, params, name)
    ffn = _layer(cond.Mlp2, params, f"{name}_ffn")
    attn_out, attn_cache = cond.multi_head_attention(x, x, attn, cfg.n_heads, bias)
    y = x + attn_out
    ffn_out, ffn_cache = cond.mlp2_forward(ffn, y)
    # only a bias with a parameter path needs its gradient
    biased = bias is not None and ATTENTION_BIAS[cfg.attention_bias].backward is not None
    return y + ffn_out, (name, attn, attn_cache, ffn, ffn_cache, biased)


def _attn_ffn_backward(params, grads, cfg, cache, d_z):
    """d_x of ``_attn_ffn``; a block given a bias with a parameter path sums
    its d(bias) into grads[_D_BIAS]."""
    name, attn, attn_cache, ffn, ffn_cache, biased = cache
    ffn_grads, d_y_ffn = cond.mlp2_backward(ffn, ffn_cache, d_z)
    _store(grads, f"{name}_ffn", ffn_grads)
    d_y = d_z + d_y_ffn
    attn_grads, d_x_q, d_x_kv, d_bias = cond.multi_head_attention_backward(
        attn, attn_cache, d_y
    )
    _store(grads, name, attn_grads)
    if biased and _D_BIAS in grads:
        grads[_D_BIAS] += d_bias
    elif biased:
        grads[_D_BIAS] = d_bias
    return d_y + (d_x_q + d_x_kv)


def _global_block(params, cfg, seq):
    """The block over the tokens of all frames as one sequence."""
    flat, cache = _attn_ffn(params, cfg, seq.reshape(-1, cfg.embed_dim), "global")
    return flat.reshape(seq.shape), cache


def _global_backward(params, grads, cfg, cache, d_seq):
    d_flat = _attn_ffn_backward(params, grads, cfg, cache, d_seq.reshape(-1, cfg.embed_dim))
    return d_flat.reshape(d_seq.shape)


def _post_hop(params, cfg, seq):
    """The hop after the blocks, over the patch tokens of the sequence."""
    patches, cache = _hop(params, cfg, seq[:, 1:])
    return np.concatenate([seq[:, :1], patches], axis=1), cache


def _post_hop_backward(params, grads, cfg, cache, d_seq):
    d_patches = _hop_backward(params, grads, cfg, cache, d_seq[:, 1:])
    return np.concatenate([d_seq[:, :1], d_patches], axis=1)


class _Poses(NamedTuple):
    """The cameras of F frames stacked field by field, as ``camera_loss``
    takes them."""

    rotation: np.ndarray  # (F, 3, 3)
    translation: np.ndarray  # (F, 3)
    focal: np.ndarray  # (F,)


def _heads(params, cfg, seq):
    """The depth maps and cameras of the sequence's (F, L, C) patch and
    (F, C) camera tokens, stacked over the frames: (DepthMap, _Poses)."""
    patch_tokens, cam_tokens = seq[:, 1:], seq[:, 0]
    p2 = cfg.patch_size**2
    raw = patch_tokens @ params["depth_head.w"].T + params["depth_head.b"]
    depth = np.exp(_unpatchify(raw[..., :p2], cfg))
    conf = np.exp(_unpatchify(raw[..., p2:], cfg))

    y, cam_cache = cond.mlp2_forward(_layer(cond.Mlp2, params, "cam_head"), cam_tokens)
    poses = _Poses(
        rotation=y[:, :9].reshape(-1, 3, 3), translation=y[:, 9:12],
        focal=np.logaddexp(0.0, y[:, 12]) + FOCAL_EPS,  # softplus
    )
    return (DepthMap(depth, conf), poses), (patch_tokens, depth, conf, cam_cache, y[:, 12])


def _heads_backward(params, grads, cfg, cache, upstream):
    """upstream: the frame-stacked output gradients that ``backward`` takes."""
    patch_tokens, depth, conf, cam_cache, f_raw = cache
    up = _checked_upstream(upstream, cfg, len(depth))
    d_raw = np.concatenate(
        [_patchify(up["depth"] * depth, cfg), _patchify(up["confidence"] * conf, cfg)], axis=-1
    )
    flat_d_raw = d_raw.reshape(-1, d_raw.shape[-1])
    grads["depth_head.w"] = flat_d_raw.T @ patch_tokens.reshape(-1, cfg.embed_dim)
    grads["depth_head.b"] = flat_d_raw.sum(axis=0)
    d_patch = d_raw @ params["depth_head.w"]

    d_focal = up["focal"] * (0.5 * (1.0 + np.tanh(0.5 * f_raw)))  # softplus' = sigmoid
    d_y = np.concatenate(
        [up["rotation"].reshape(-1, 9), up["translation"], d_focal[:, None]], axis=1
    )
    cam_grads, d_cam_tok = cond.mlp2_backward(
        _layer(cond.Mlp2, params, "cam_head"), cam_cache, d_y
    )
    _store(grads, "cam_head", cam_grads)
    return np.concatenate([d_cam_tok[:, None], d_patch], axis=1)


def _checked_upstream(upstream, cfg, nf):
    """The upstream output gradients as float64 arrays, each shaped for nf frames."""
    if not isinstance(upstream, dict):
        raise ValueError(f"upstream must be a dict of frame-stacked arrays, got {type(upstream).__name__}")
    h, w = cfg.image_h, cfg.image_w
    want = {"depth": (nf, h, w), "confidence": (nf, h, w), "rotation": (nf, 3, 3),
            "translation": (nf, 3), "focal": (nf,)}
    up = {key: np.asarray(upstream.get(key), dtype=np.float64) for key in want}
    bad = sorted(key for key, shape in want.items() if up[key].shape != shape)
    if bad:
        raise ValueError(
            f"upstream {bad} not shaped for {nf} frames: expected "
            + ", ".join(f"{key} {want[key]}" for key in bad)
        )
    return up


# ---------------------------------------------------------------------------
# token conditioning and attention bias: one (forward, backward) pair per kind
#
# Conditioning: (params, cfg, x1) -> ((F, C) camera tokens, cache); the
# backward stores its parameter gradients, adds its token path into d_x1 in
# place and returns d(loss)/d(camera_token).
# Bias: (params, cfg, x1, pre-DeGAT cache) -> ((F, Hb, L + 1, L + 1) bias,
# or None for no bias; cache). Hb is the kind's own head axis: 1 for the
# head-shared log-affinity bias, which the attention kernel broadcasts over
# the heads, and H for the per-head bucket and MLP biases. The camera
# token's row and column are 0, and the patch block [:, :, 1:, 1:] is the
# kind's (F, Hb, L, L) bias of the patch tokens. The backward takes the (F,
# H, L, L) patch block of d(loss)/d(bias), in the bias's shape and summed over
# the blocks, and is None for a kind without parameters, which no block sums.


def _cond_none(params, cfg, x1):
    return np.broadcast_to(params["camera_token"], (len(x1), cfg.embed_dim)), None


def _cond_none_backward(params, grads, cfg, cache, d_cond, d_x1):
    return d_cond.sum(axis=0)


def _cond_prior(kind, prefix, params, cfg, x1):
    """Additive or FiLM conditioning on the pooled prior, with the MLP under
    ``prefix``; ``cond.condition_<kind>`` is looked up per call, where a
    wrapper installed after import is seen."""
    return getattr(cond, f"condition_{kind}")(
        params["camera_token"], dg.pooled_prior(x1), _layer(cond.Mlp2, params, prefix)
    )


def _cond_prior_backward(kind, prefix, params, grads, cfg, cache, d_cond, d_x1):
    mg, d_base, d_g = getattr(cond, f"condition_{kind}_backward")(
        _layer(cond.Mlp2, params, prefix), cache, d_cond
    )
    _store(grads, prefix, mg)
    d_x1 += d_g[:, None] / d_x1.shape[1]  # the pooled prior is the token mean
    return d_base


def _cond_cross_attn(params, cfg, x1):
    return cond.condition_cross_attention(
        params["camera_token"], x1, _layer(cond.CrossAttnParams, params, "cond_xattn"),
        _layer(cond.Mlp2, params, "cond_xattn_ffn"), cfg.n_heads,
    )


def _cond_cross_attn_backward(params, grads, cfg, cache, d_cond, d_x1):
    ag, fg, d_base, d_tokens = cond.condition_cross_attention_backward(
        _layer(cond.CrossAttnParams, params, "cond_xattn"),
        _layer(cond.Mlp2, params, "cond_xattn_ffn"), cache, d_cond,
    )
    _store(grads, "cond_xattn", ag)
    _store(grads, "cond_xattn_ffn", fg)
    d_x1 += d_tokens
    return d_base


def _padded(patch_bias):
    """The bias whose patch block is the (F, Hb, L, L) ``patch_bias``."""
    f, hb, n, _ = patch_bias.shape
    bias = np.zeros((f, hb, n + 1, n + 1))
    bias[:, :, 1:, 1:] = patch_bias
    return bias


def _bias_none(params, cfg, x1, pre_degat):
    return None, None


def _bias_bucket(params, cfg, x1, pre_degat):
    patch_bias, idx = cond.bucket_bias(x1, params["bias_table"])
    return _padded(patch_bias), idx


def _bias_bucket_backward(params, grads, cfg, idx, d_bias):
    grads["bias_table"] = cond.bias_table_gradient(d_bias, idx, cfg.n_buckets)


def _bias_mlp(params, cfg, x1, pre_degat):
    # the heads are written into the patch block, with no (F, H, L, L) copy
    n = cfg.n_tokens + 1
    bias = np.zeros((len(x1), cfg.n_heads, n, n))
    _, cache = cond.mlp_bias(x1, _layer(cond.Mlp2, params, "bias_mlp"), out=bias[:, :, 1:, 1:])
    return bias, cache


def _bias_mlp_backward(params, grads, cfg, cache, d_bias):
    bg = cond.mlp_bias_backward(_layer(cond.Mlp2, params, "bias_mlp"), cache, d_bias)
    _store(grads, "bias_mlp", bg)


def _bias_log_affinity(params, cfg, x1, pre_degat):
    # affinities of a DeGAT pass over the current tokens; treated as a
    # constant during backprop (parameter-free integration)
    cache = pre_degat
    if cache is None:
        degat = _layer(dg.DeGatParams, params, "degat")
        _, cache = dg.degat_forward(x1, degat, cfg.k_neighbors, cfg.knn_metric)
    return _padded(dg.affinity_to_log_bias(cache)[:, None]), None


class _Kind(NamedTuple):
    """A conditioning or bias kind: its forward, its backward, and the layers
    that the two read."""

    forward: object
    backward: object  # None for a bias without parameters
    layers: tuple


TOKEN_CONDITIONING = {
    "none": _Kind(_cond_none, _cond_none_backward, ()),
    "additive": _Kind(functools.partial(_cond_prior, "additive", "cond_add"),
                      functools.partial(_cond_prior_backward, "additive", "cond_add"),
                      ("cond_add",)),
    "film": _Kind(functools.partial(_cond_prior, "film", "cond_film"),
                  functools.partial(_cond_prior_backward, "film", "cond_film"), ("cond_film",)),
    "cross_attn": _Kind(_cond_cross_attn, _cond_cross_attn_backward,
                        ("cond_xattn", "cond_xattn_ffn")),
}

ATTENTION_BIAS = {
    "none": _Kind(_bias_none, None, ()),
    "bucket": _Kind(_bias_bucket, _bias_bucket_backward, ("bias_table",)),
    "mlp_bias": _Kind(_bias_mlp, _bias_mlp_backward, ("bias_mlp",)),
    # a stop-gradient bias, from the hop's affinities or a hop of its own
    "log_affinity": _Kind(_bias_log_affinity, None, ("degat",)),
}

# the layers that only some variants read: the hop's and the kinds' own
_OPTIONAL_LAYERS = frozenset(
    ["degat"]
    + [layer for kinds in (TOKEN_CONDITIONING, ATTENTION_BIAS) for kind in kinds.values()
       for layer in kind.layers]
)


# ---------------------------------------------------------------------------
# full model


# (forward, backward) of each stage, in the order ``_forward`` runs them
_EMBED = (_embed, _embed_backward)
_PRE_HOP = (_pre_hop, _hop_backward)
_TOKENS = (_tokens, _tokens_backward)
_BLOCK = (_attn_ffn, _attn_ffn_backward)
_GLOBAL = (_global_block, _global_backward)
_POST_HOP = (_post_hop, _post_hop_backward)
_HEADS = (_heads, _heads_backward)


def forward(params, cfg, frames, tape=None):
    """Run the model on a list of (H, W) grayscale frames.

    Returns (depth maps, camera params, tape), one map and camera per
    frame; depth and confidence are exp-parameterized and therefore
    strictly positive, the focal length is softplus-parameterized.
    ``tape`` is None, or an empty list that the pass fills with one
    (backward, cache) entry per stage, for ``backward``; it is returned as
    given. Without a tape no stage's cache outlives the stage after it.
    ``params`` is checked here (``numerics.check_arrays``), and nowhere
    else in the step.
    """
    pred, poses = _forward(params, cfg, frames, tape)
    principal = ((cfg.image_w - 1) / 2.0, (cfg.image_h - 1) / 2.0)
    cams = [CameraParams(r, t, float(f), principal) for r, t, f in zip(*poses)]
    return [DepthMap(d, c) for d, c in zip(pred.depth, pred.confidence)], cams, tape


def _forward(params, cfg, frames, tape=None):
    """The model's forward pass over the frames: the frame-stacked
    (DepthMap, _Poses) outputs that the losses score."""
    if len(frames) == 0:
        raise ValueError("forward requires at least one frame")
    if tape:
        raise ValueError(f"forward records on an empty tape, got {len(tape)} entries")
    check_arrays(params, _shapes_of(cfg))

    def run(stage, *inputs):
        stage_forward, stage_backward = stage
        out, cache = stage_forward(params, cfg, *inputs)
        if tape is not None:
            tape.append((stage_backward, cache))
        return out

    x0 = run(_EMBED, frames)
    x1, pre_degat = run(_PRE_HOP, x0) if cfg.degat_placement == "pre" else (x0, None)
    seq, bias = run(_TOKENS, x1, pre_degat)
    del pre_degat  # off the tape, the hop's cache ends with the tokens stage
    for i in range(cfg.n_blocks):
        seq = run(_BLOCK, seq, f"block{i}", bias)
    del bias  # (F, 1 or H, L + 1, L + 1): not held through the global block
    if len(seq) > 1:
        seq = run(_GLOBAL, seq)
    if cfg.degat_placement == "post":
        seq = run(_POST_HOP, seq)
    return run(_HEADS, seq)


def backward(params, cfg, tape, upstream):
    """Parameter gradients given frame-stacked upstream output gradients.

    ``tape`` is the one that ``forward`` filled, and is replayed in reverse.
    ``upstream`` is one dict with keys depth and confidence (F, H, W),
    rotation (F, 3, 3), translation (F, 3) and focal (F,), as the
    ``objective`` losses key their gradients. The result has a gradient
    for every parameter of the variant, ``param_shapes(cfg)``; it is zero
    for a layer the pass did not reach: the stop-gradient DeGAT layer of a
    log-affinity variant without a hop, the global block on one frame, and
    a bias layer with no block to read its bias.
    """
    if not tape:
        raise ValueError("backward needs the tape of a forward pass run with tape=[]")
    grads = {}  # stored by the stage that computes it; d(bias) summed over the blocks
    d = upstream
    for stage_backward, cache in reversed(tape):
        d = stage_backward(params, grads, cfg, cache, d)
    return {k: grads[k] if k in grads else np.zeros(v.shape) for k, v in params.items()}


def _scored(params, cfg, frames, gt_depths, gt_cams, weights, tape=None):
    """The ``LossBreakdown``, the depth loss's cache and the camera loss's
    gradients of one forward pass over the frames."""
    nf = len(frames)
    if len(gt_depths) != nf or len(gt_cams) != nf:
        raise ValueError(
            f"{len(gt_depths)} ground-truth depths and {len(gt_cams)} cameras for {nf} frames"
        )
    pred, poses = _forward(params, cfg, frames, tape)
    gt_poses = _Poses(*(np.array([getattr(c, f) for c in gt_cams]) for f in _Poses._fields))
    depth_part, depth_cache = depth_loss(pred, gt_depths, weights)
    cam, d_poses = camera_loss(poses, gt_poses)
    return replace(depth_part, cam=cam), depth_cache, d_poses


def loss(params, cfg, frames, gt_depths, gt_cams, weights=LossWeights()):
    """The ``LossBreakdown`` that ``loss_and_grads`` returns, from a forward
    pass that records no tape."""
    return _scored(params, cfg, frames, gt_depths, gt_cams, weights)[0]


def loss_and_grads(params, cfg, frames, gt_depths, gt_cams, weights=LossWeights()):
    """Mean-over-frames base loss (camera + depth) and its full gradient.

    ``gt_depths`` and ``gt_cams`` hold one entry per frame.
    """
    tape = []
    breakdown, depth_cache, d_poses = _scored(
        params, cfg, frames, gt_depths, gt_cams, weights, tape
    )
    return breakdown, backward(params, cfg, tape, {**depth_loss_backward(depth_cache), **d_poses})


def sgd_step(params, grads, lr):
    """Plain gradient-descent update; the result keeps the key order of
    ``params``, the ``param_shapes(cfg)`` order for ``init_model_params``'s."""
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    return {k: params[k] - lr * grads[k] for k in params}
