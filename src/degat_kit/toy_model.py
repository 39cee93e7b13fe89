"""Toy patch-token transformer with selectable graph-attention integration.

The F frames run as one (F, L, C) batch of patch tokens: linear patch
embedding -> optional pre-transformer graph-attention hop -> camera-token
conditioning, one token per frame -> N self-attention blocks over each
frame's camera token and patches (optionally bias-injected) -> one global
block over the (F * (L + 1), C) tokens of all frames when several frames
are given -> optional post-transformer graph-attention hop -> linear
per-patch depth/confidence head and an MLP camera head. The hop takes the
batch too and builds each frame's own K-NN graph. ``loss_and_grads``
scores the stacked outputs with one call of each ``objective`` loss, and
``backward`` takes the losses' gradient dicts merged into one; only
``forward`` unpacks the outputs into one depth map and camera per frame.

The parameter dict is checked once, when it enters ``forward``: its names
and shapes against ``param_shapes(cfg)``, which is assembled from the
layers' own shape tables, and its values for finiteness
(``numerics.check_arrays``). Each layer then reads its weights through
``_layer``, a plain tuple of the arrays under its prefix. Gradients are
allocated where they are first written; parameters a variant does not use
get zero gradients.

Every attention layer is ``conditioning.multi_head_attention``, and the
conditioning and bias kinds are the keys of two (forward, backward) tables.
Forward and backward are written by hand against explicit caches, and
whole-model finite differences in the tests check every parameter gradient.
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
    "ModelCache",
    "backward",
    "zero_grads",
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


@functools.lru_cache(maxsize=32)
def _shape_table(p2, c, n_heads, n_blocks, f, ch, bias_hidden, n_buckets, cam_hidden):
    shapes = {
        "embed.w": (c, p2), "embed.b": (c,), "camera_token": (c,),
        **_prefixed("degat", dg.degat_shapes(c)),
        **_prefixed("cond_add", cond.mlp2_shapes(c, ch, c)),
        **_prefixed("cond_film", cond.mlp2_shapes(c, ch, 2 * c)),
        **_prefixed("cond_xattn", cond.attn_shapes(c)),
        **_prefixed("cond_xattn_ffn", cond.mlp2_shapes(c, ch, c)),
        "bias_table": (n_buckets, n_heads),
        **_prefixed("bias_mlp", cond.mlp2_shapes(1, bias_hidden, n_heads)),
    }
    for name in [f"block{i}" for i in range(n_blocks)] + ["global"]:
        shapes.update(_prefixed(name, cond.attn_shapes(c)))
        shapes.update(_prefixed(f"{name}_ffn", cond.mlp2_shapes(c, f, c)))
    shapes.update({"depth_head.w": (2 * p2, c), "depth_head.b": (2 * p2,)})
    shapes.update(_prefixed("cam_head", cond.mlp2_shapes(c, cam_hidden, 13)))
    return MappingProxyType(shapes)


def _shapes_of(cfg):
    """``param_shapes(cfg)`` read-only, built once per distinct set of sizes:
    ``forward`` checks against it on every call."""
    return _shape_table(
        cfg.patch_size**2, cfg.embed_dim, cfg.n_heads, cfg.n_blocks, cfg.ffn_mult * cfg.embed_dim,
        cfg.cond_hidden, cfg.bias_hidden, cfg.n_buckets, cfg.cam_hidden,
    )


def param_shapes(cfg):
    """Name -> shape of every model parameter, in initialization order.

    Every component is listed whichever flags are enabled, so configs that
    differ only in flags share one parameter set.
    """
    return dict(_shapes_of(cfg))


def init_model_params(cfg, rng=None):
    """Seeded parameter dict: uniform in +-1/sqrt(fan-in) over the last axis,
    a small normal camera token, and zeros for biases and ``ZERO_INIT``."""
    rng = np.random.default_rng(cfg.seed if rng is None else rng)
    params = {}
    for name, shape in _shapes_of(cfg).items():
        if name == "camera_token":
            params[name] = rng.normal(0.0, 0.02, size=shape)
        elif name in ZERO_INIT or name.rsplit(".", 1)[-1] in ("b", "b1", "b2"):
            params[name] = np.zeros(shape)
        else:
            params[name] = fan_in_uniform(rng, shape)
    return params


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def _layer(cls, params, prefix):
    """The ``cls`` weight tuple of the arrays under ``prefix``."""
    return cls._make([params[f"{prefix}.{w}"] for w in cls._fields])


def _store(grads, prefix, g):
    """Store a layer's gradient dict under the layer's parameter names."""
    for w, gw in g.items():
        grads[f"{prefix}.{w}"] = gw


def _degat_backward(grads, degat_params, cache, d_out):
    g = dg.degat_backward(cache, degat_params, d_out)
    _store(grads, "degat", {"w_proj": g.d_w_proj, "a": g.d_a, "w_val": g.d_w_val})
    return g.d_x


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
# self-attention + FFN block


def _block_forward(params, name, x, n_heads, bias=None):
    attn = _layer(cond.CrossAttnParams, params, name)
    ffn = _layer(cond.Mlp2, params, f"{name}_ffn")
    attn_out, attn_cache = cond.multi_head_attention(x, x, attn, n_heads, bias)
    y = x + attn_out
    ffn_out, ffn_cache = cond.mlp2_forward(ffn, y)
    z = y + ffn_out
    return z, (attn, attn_cache, ffn, ffn_cache)


def _block_backward(grads, name, cache, d_z):
    attn, attn_cache, ffn, ffn_cache = cache
    ffn_grads, d_y_ffn = cond.mlp2_backward(ffn, ffn_cache, d_z)
    _store(grads, f"{name}_ffn", ffn_grads)
    d_y = d_z + d_y_ffn
    attn_grads, d_x_q, d_x_kv, d_bias = cond.multi_head_attention_backward(
        attn, attn_cache, d_y
    )
    _store(grads, name, attn_grads)
    return d_y + (d_x_q + d_x_kv), d_bias


# ---------------------------------------------------------------------------
# heads


class _Poses(NamedTuple):
    """The cameras of F frames stacked field by field, as ``camera_loss``
    takes them."""

    rotation: np.ndarray  # (F, 3, 3)
    translation: np.ndarray  # (F, 3)
    focal: np.ndarray  # (F,)


def _heads_forward(params, cfg, patch_tokens, cam_tokens):
    """The depth maps and cameras of the (F, L, C) patch and (F, C) camera
    tokens, stacked over the frames, and the head cache."""
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


def _heads_backward(params, grads, cfg, head_cache, up):
    """up: the frame-stacked output gradients that ``backward`` takes."""
    patch_tokens, depth, conf, cam_cache, f_raw = head_cache
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
    return d_patch, d_cam_tok


# ---------------------------------------------------------------------------
# token conditioning and attention bias: one (forward, backward) pair per kind
#
# Conditioning: (params, cfg, x1) -> ((F, C) camera tokens, cache); the
# backward stores its parameter gradients, adds its token path into d_x1 in
# place and returns d(loss)/d(camera_token).
# Bias: (params, cfg, x1, pre-DeGAT cache) -> (patch-block bias, broadcast
# to (F, H, L, L), cache); the backward takes the patch block of
# d(loss)/d(bias).


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


def _bias_none(params, cfg, x1, pre_degat):
    return 0.0, None


def _bias_bucket(params, cfg, x1, pre_degat):
    return cond.bucket_bias(x1, params["bias_table"])


def _bias_bucket_backward(params, grads, cfg, idx, d_bias):
    grads["bias_table"] = cond.bias_table_gradient(d_bias, idx, cfg.n_buckets)


def _bias_mlp(params, cfg, x1, pre_degat):
    return cond.mlp_bias(x1, _layer(cond.Mlp2, params, "bias_mlp"))


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
    return dg.affinity_to_log_bias(cache)[:, None], None


def _no_bias_gradient(params, grads, cfg, cache, d_bias):
    pass  # no bias, or a stop-gradient one: no parameter path


TOKEN_CONDITIONING = {
    "none": (_cond_none, _cond_none_backward),
    "additive": (functools.partial(_cond_prior, "additive", "cond_add"),
                 functools.partial(_cond_prior_backward, "additive", "cond_add")),
    "film": (functools.partial(_cond_prior, "film", "cond_film"),
             functools.partial(_cond_prior_backward, "film", "cond_film")),
    "cross_attn": (_cond_cross_attn, _cond_cross_attn_backward),
}

ATTENTION_BIAS = {
    "none": (_bias_none, _no_bias_gradient),
    "bucket": (_bias_bucket, _bias_bucket_backward),
    "mlp_bias": (_bias_mlp, _bias_mlp_backward),
    "log_affinity": (_bias_log_affinity, _no_bias_gradient),
}


# ---------------------------------------------------------------------------
# full model


@dataclass
class ModelCache:
    patches: np.ndarray  # (F, L, P^2)
    pre_degat: object  # DeGatCache of the (F, L, C) hop, or None
    cond_cache: object
    bias_cache: object
    block_caches: list
    global_cache: object  # block cache or None
    post_degat: object  # DeGatCache of the (F, L, C) hop, or None
    head_cache: tuple
    outputs: tuple  # (DepthMap over (F, H, W), _Poses): what the loss scores


def forward(params, cfg, frames):
    """Run the model on a list of (H, W) grayscale frames.

    Returns (depth maps, camera params, cache), one map and camera per
    frame; depth and confidence are exp-parameterized and therefore
    strictly positive, the focal length is softplus-parameterized.
    ``params`` is checked here (``numerics.check_arrays``), and nowhere
    else in the step.
    """
    cache = _forward(params, cfg, frames)
    pred, poses = cache.outputs
    principal = ((cfg.image_w - 1) / 2.0, (cfg.image_h - 1) / 2.0)
    cams = [CameraParams(r, t, float(f), principal) for r, t, f in zip(*poses)]
    return [DepthMap(d, c) for d, c in zip(pred.depth, pred.confidence)], cams, cache


def _forward(params, cfg, frames):
    """The model's forward pass over the frames, as one ``ModelCache``."""
    if len(frames) == 0:
        raise ValueError("forward requires at least one frame")
    check_arrays(params, _shapes_of(cfg))
    degat_params = _layer(dg.DeGatParams, params, "degat")
    condition, _ = TOKEN_CONDITIONING[cfg.token_conditioning]
    attention_bias, _ = ATTENTION_BIAS[cfg.attention_bias]
    patches = _patchify(frames, cfg)
    nf, n = len(patches), cfg.n_tokens + 1

    x1 = x0 = patches @ params["embed.w"].T + params["embed.b"]
    pre_degat = post_degat = global_cache = None
    if cfg.degat_placement == "pre":
        x1, pre_degat = dg.degat_forward(x0, degat_params, cfg.k_neighbors, cfg.knn_metric)

    c_tok, cond_cache = condition(params, cfg, x1)
    bias_patch, bias_cache = attention_bias(params, cfg, x1, pre_degat)
    bias = np.zeros((nf, cfg.n_heads, n, n))  # the camera token's row and column stay 0
    bias[:, :, 1:, 1:] = bias_patch

    seq = np.concatenate([c_tok[:, None], x1], axis=1)  # (F, L + 1, C)
    block_caches = []
    for i in range(cfg.n_blocks):
        seq, bc = _block_forward(params, f"block{i}", seq, cfg.n_heads, bias)
        block_caches.append(bc)

    if nf > 1:
        flat, global_cache = _block_forward(
            params, "global", seq.reshape(-1, cfg.embed_dim), cfg.n_heads
        )
        seq = flat.reshape(seq.shape)

    patch_out = seq[:, 1:]
    if cfg.degat_placement == "post":
        patch_out, post_degat = dg.degat_forward(
            patch_out, degat_params, cfg.k_neighbors, cfg.knn_metric
        )
    outputs, head_cache = _heads_forward(params, cfg, patch_out, seq[:, 0])

    return ModelCache(
        patches=patches, pre_degat=pre_degat, cond_cache=cond_cache, bias_cache=bias_cache,
        block_caches=block_caches, global_cache=global_cache, post_degat=post_degat,
        head_cache=head_cache, outputs=outputs,
    )


def backward(params, cfg, cache, upstream):
    """Parameter gradients given frame-stacked upstream output gradients.

    ``upstream`` is one dict with keys depth and confidence (F, H, W),
    rotation (F, 3, 3), translation (F, 3) and focal (F,), as the
    ``objective`` losses key their gradients. The result has
    a gradient for every parameter; those the variant does not use are
    zero.
    """
    if not isinstance(upstream, dict):
        raise ValueError(f"upstream must be a dict of frame-stacked arrays, got {type(upstream).__name__}")
    nf, h, w = len(cache.patches), cfg.image_h, cfg.image_w
    want = {"depth": (nf, h, w), "confidence": (nf, h, w), "rotation": (nf, 3, 3),
            "translation": (nf, 3), "focal": (nf,)}
    up = {key: np.asarray(upstream.get(key), dtype=np.float64) for key in want}
    bad = sorted(key for key, shape in want.items() if up[key].shape != shape)
    if bad:
        raise ValueError(
            f"upstream {bad} not shaped for {nf} frames: expected "
            + ", ".join(f"{key} {want[key]}" for key in bad)
        )
    grads = {}  # each gradient is stored once, by the layer that computes it
    degat_params = _layer(dg.DeGatParams, params, "degat")
    _, condition_backward = TOKEN_CONDITIONING[cfg.token_conditioning]
    _, bias_backward = ATTENTION_BIAS[cfg.attention_bias]

    d_patch, d_cam_tok = _heads_backward(params, grads, cfg, cache.head_cache, up)
    if cfg.degat_placement == "post":
        d_patch = _degat_backward(grads, degat_params, cache.post_degat, d_patch)
    d_seq = np.concatenate([d_cam_tok[:, None], d_patch], axis=1)

    if cache.global_cache is not None:
        d_flat, _ = _block_backward(
            grads, "global", cache.global_cache, d_seq.reshape(-1, cfg.embed_dim)
        )
        d_seq = d_flat.reshape(d_seq.shape)

    n = cfg.n_tokens + 1
    d_bias = np.zeros((nf, cfg.n_heads, n, n))
    for i in reversed(range(cfg.n_blocks)):
        d_seq, d_block_bias = _block_backward(grads, f"block{i}", cache.block_caches[i], d_seq)
        d_bias += d_block_bias
    bias_backward(params, grads, cfg, cache.bias_cache, d_bias[:, :, 1:, 1:])

    d_x1 = d_seq[:, 1:].copy()
    grads["camera_token"] = condition_backward(
        params, grads, cfg, cache.cond_cache, d_seq[:, 0], d_x1
    )

    d_x0 = d_x1
    if cfg.degat_placement == "pre":
        d_x0 = _degat_backward(grads, degat_params, cache.pre_degat, d_x1)

    flat_d_x0 = d_x0.reshape(-1, cfg.embed_dim)
    grads["embed.w"] = flat_d_x0.T @ cache.patches.reshape(-1, cache.patches.shape[-1])
    grads["embed.b"] = flat_d_x0.sum(axis=0)
    return {k: grads[k] if k in grads else np.zeros(v.shape) for k, v in params.items()}


def loss_and_grads(params, cfg, frames, gt_depths, gt_cams, weights=LossWeights()):
    """Mean-over-frames base loss (camera + depth) and its full gradient.

    ``gt_depths`` and ``gt_cams`` hold one entry per frame.
    """
    nf = len(frames)
    if len(gt_depths) != nf or len(gt_cams) != nf:
        raise ValueError(
            f"{len(gt_depths)} ground-truth depths and {len(gt_cams)} cameras for {nf} frames"
        )
    cache = _forward(params, cfg, frames)
    pred, poses = cache.outputs
    gt_poses = _Poses(*(np.array([getattr(c, f) for c in gt_cams]) for f in _Poses._fields))
    depth_part, depth_cache = depth_loss(pred, gt_depths, weights)
    cam, d_poses = camera_loss(poses, gt_poses)
    grads = backward(params, cfg, cache, {**depth_loss_backward(depth_cache), **d_poses})
    return replace(depth_part, cam=cam), grads


def sgd_step(params, grads, lr):
    """Plain gradient-descent update in a fixed key order."""
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    return {k: params[k] - lr * grads[k] for k in sorted(params)}
