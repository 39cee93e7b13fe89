"""Toy patch-token transformer with selectable graph-attention integration.

The F frames run as one (F, L, C) batch of patch tokens: linear patch
embedding -> optional pre-transformer graph-attention hop -> camera-token
conditioning, one token per frame -> N self-attention blocks over each
frame's camera token and patches (optionally bias-injected) -> one global
block over the (F * (L + 1), C) tokens of all frames when several frames
are given -> optional post-transformer graph-attention hop -> linear
per-patch depth/confidence head and an MLP camera head. Only the
graph-attention hop runs frame by frame, since each frame builds its own
K-NN graph. ``loss_and_grads`` scores the stacked outputs with one call of
each ``objective`` loss, and ``backward`` takes the frame-stacked output
gradients.

The parameter dict is checked once, when it enters ``forward``: its names
and shapes against ``param_shapes(cfg)``, and its values for finiteness.
The per-step parameter views skip their own validation after that.
Gradients are allocated where they are first written; parameters a
variant does not use get zero gradients.

Every attention layer is ``conditioning.multi_head_attention``, and the
conditioning and bias kinds are the keys of two (forward, backward) tables.
Forward and backward are written by hand against explicit caches; the
finite-difference checker validates every parameter gradient.
"""

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import degat as dg
from . import conditioning as cond
from .geometry import CameraParams
from .geometry import DepthMap
from .graph import METRICS
from .objective import LossBreakdown, LossWeights, camera_loss, depth_loss, depth_loss_backward

__all__ = [
    "ModelConfig",
    "param_shapes",
    "check_param_shapes",
    "check_params",
    "init_model_params",
    "forward",
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


def _uniform(rng, shape, fan_in):
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def _mlp_shapes(prefix, n_in, hidden, n_out):
    return {f"{prefix}.w1": (hidden, n_in), f"{prefix}.b1": (hidden,),
            f"{prefix}.w2": (n_out, hidden), f"{prefix}.b2": (n_out,)}


def _attn_shapes(prefix, c):
    return {f"{prefix}.{w}": (c, c) for w in ("w_q", "w_k", "w_v", "w_o")}


@functools.lru_cache(maxsize=32)
def _shape_table(p2, c, n_heads, n_blocks, f, ch, bias_hidden, n_buckets, cam_hidden):
    shapes = {
        "embed.w": (c, p2), "embed.b": (c,), "camera_token": (c,),
        "degat.w_proj": (c, 2 * c), "degat.a": (c,), "degat.w_val": (c, c),
        **_mlp_shapes("cond_add", c, ch, c),
        **_mlp_shapes("cond_film", c, ch, 2 * c),
        **_attn_shapes("cond_xattn", c),
        **_mlp_shapes("cond_xattn_ffn", c, ch, c),
        "bias_table": (n_buckets, n_heads),
        **_mlp_shapes("bias_mlp", 1, bias_hidden, n_heads),
    }
    for name in [f"block{i}" for i in range(n_blocks)] + ["global"]:
        shapes.update(_attn_shapes(name, c))
        shapes.update(_mlp_shapes(f"{name}_ffn", c, f, c))
    shapes.update({"depth_head.w": (2 * p2, c), "depth_head.b": (2 * p2,)})
    shapes.update(_mlp_shapes("cam_head", c, cam_hidden, 13))
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


def check_param_shapes(shapes, cfg):
    """Raise ValueError unless ``shapes`` (name -> shape) lists exactly the
    parameters of ``cfg``, each with its shape."""
    expected = _shapes_of(cfg)
    if shapes.keys() != expected.keys():
        missing = sorted(expected.keys() - shapes.keys())
        extra = sorted(shapes.keys() - expected.keys())
        raise ValueError(
            f"parameters do not match the config: missing {missing}, unexpected {extra}"
        )
    reshaped = sorted(k for k, shape in shapes.items() if tuple(shape) != expected[k])
    if reshaped:
        raise ValueError(f"parameter shapes do not match the config: {reshaped}")


def check_params(params, cfg):
    """Raise ValueError unless ``params`` holds exactly the parameters of
    ``cfg``, each with its shape and finite; the error names every
    offending key."""
    check_param_shapes({k: v.shape for k, v in params.items()}, cfg)
    if not np.isfinite(np.concatenate([v.ravel() for v in params.values()])).all():
        bad = sorted(k for k, v in params.items() if not np.isfinite(v).all())
        raise ValueError(f"parameters contain non-finite values: {bad}")


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
            params[name] = _uniform(rng, shape, shape[-1])
    return params


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def _view(cls, **fields):
    """A ``cls`` instance over parameter arrays that ``check_params`` has
    already checked, built without running the class's validation again;
    fields left out keep the class default."""
    view = object.__new__(cls)
    vars(view).update(fields)
    return view


def _mlp_view(params, prefix, activation):
    w1, b1, w2, b2 = (params[f"{prefix}.{w}"] for w in ("w1", "b1", "w2", "b2"))
    return _view(cond.Mlp2, w1=w1, b1=b1, w2=w2, b2=b2, activation=activation)


def _store_mlp(grads, prefix, g):
    for w in ("w1", "b1", "w2", "b2"):
        grads[f"{prefix}.{w}"] = getattr(g, f"d_{w}")


def _attn_view(params, prefix, n_heads):
    w_q, w_k, w_v, w_o = (params[f"{prefix}.{w}"] for w in ("w_q", "w_k", "w_v", "w_o"))
    return _view(cond.CrossAttnParams, w_q=w_q, w_k=w_k, w_v=w_v, w_o=w_o, n_heads=n_heads)


def _store_attn(grads, prefix, g):
    for w, gw in g.items():
        grads[f"{prefix}.{w}"] = gw


def _degat_view(params):
    w_proj, a, w_val = (params[f"degat.{w}"] for w in ("w_proj", "a", "w_val"))
    return _view(dg.DeGatParams, w_proj=w_proj, a=a, w_val=w_val)


def _degat_frames(x, degat_params, cfg):
    """One DeGAT hop per (L, C) frame of x, each over its own K-NN graph;
    returns (x_out, per-frame caches)."""
    hops = [dg.degat_forward(xf, degat_params, cfg.k_neighbors, cfg.knn_metric) for xf in x]
    return np.stack([x_out for x_out, _ in hops]), [cache for _, cache in hops]


def _degat_backward(grads, degat_params, caches, d_out):
    runs = [dg.degat_backward(cache, degat_params, d) for cache, d in zip(caches, d_out)]
    for w in ("w_proj", "a", "w_val"):
        grads[f"degat.{w}"] = sum(getattr(r, f"d_{w}") for r in runs)
    return np.stack([r.d_x for r in runs])


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


def _block_view(params, name, n_heads):
    """The block's (attention, FFN) weights, viewed once per forward pass."""
    return _attn_view(params, name, n_heads), _mlp_view(params, f"{name}_ffn", "gelu")


def _block_forward(x, view, bias=None):
    attn, ffn = view
    attn_out, attn_cache = cond.multi_head_attention(x, x, attn, bias)
    y = x + attn_out
    ffn_out, ffn_cache = cond.mlp2_forward(ffn, y)
    z = y + ffn_out
    return z, (attn, attn_cache, ffn, ffn_cache)


def _block_backward(grads, name, cache, d_z):
    attn, attn_cache, ffn, ffn_cache = cache
    ffn_grads, d_y_ffn = cond.mlp2_backward(ffn, ffn_cache, d_z)
    _store_mlp(grads, f"{name}_ffn", ffn_grads)
    d_y = d_z + d_y_ffn
    attn_grads, d_x_q, d_x_kv, d_bias = cond.multi_head_attention_backward(
        attn, attn_cache, d_y
    )
    _store_attn(grads, name, attn_grads)
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
    """Depth maps and cameras of the (F, L, C) patch and (F, C) camera tokens:
    per frame, then stacked over the frames, then the head cache."""
    p2 = cfg.patch_size**2
    raw = patch_tokens @ params["depth_head.w"].T + params["depth_head.b"]
    depth = np.exp(_unpatchify(raw[..., :p2], cfg))
    conf = np.exp(_unpatchify(raw[..., p2:], cfg))

    cam_mlp = _mlp_view(params, "cam_head", "gelu")
    y, cam_cache = cond.mlp2_forward(cam_mlp, cam_tokens)
    poses = _Poses(
        rotation=y[:, :9].reshape(-1, 3, 3), translation=y[:, 9:12],
        focal=np.logaddexp(0.0, y[:, 12]) + FOCAL_EPS,  # softplus
    )
    principal = ((cfg.image_w - 1) / 2.0, (cfg.image_h - 1) / 2.0)
    cams = [
        CameraParams(rotation=r, translation=t, focal=float(f), principal=principal)
        for r, t, f in zip(*poses)
    ]
    dms = [DepthMap(depth=d, confidence=c) for d, c in zip(depth, conf)]
    stacked = (DepthMap(depth=depth, confidence=conf), poses)
    return dms, cams, stacked, (patch_tokens, depth, conf, cam_cache, y[:, 12])


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
    cam_mlp = _mlp_view(params, "cam_head", "gelu")
    cam_grads, d_cam_tok = cond.mlp2_backward(cam_mlp, cam_cache, d_y)
    _store_mlp(grads, "cam_head", cam_grads)
    return d_patch, d_cam_tok


# ---------------------------------------------------------------------------
# token conditioning and attention bias: one (forward, backward) pair per kind
#
# Conditioning: (params, cfg, x1) -> ((F, C) camera tokens, cache); the
# backward stores its parameter gradients, adds its token path into d_x1 in
# place and returns d(loss)/d(camera_token).
# Bias: (params, cfg, x1, pre-DeGAT caches) -> (patch-block bias, broadcast
# to (F, H, L, L), cache); the backward takes the patch block of
# d(loss)/d(bias).


def _cond_none(params, cfg, x1):
    return np.broadcast_to(params["camera_token"], (len(x1), cfg.embed_dim)), None


def _cond_none_backward(params, grads, cfg, cache, d_cond, d_x1):
    return d_cond.sum(axis=0)


def _cond_additive(params, cfg, x1):
    tok, cache = cond.condition_additive(
        params["camera_token"], dg.pooled_prior(x1), _mlp_view(params, "cond_add", "gelu")
    )
    return tok.conditioned, cache


def _cond_additive_backward(params, grads, cfg, cache, d_cond, d_x1):
    mg, d_base, d_g = cond.condition_additive_backward(
        _mlp_view(params, "cond_add", "gelu"), cache, d_cond
    )
    _store_mlp(grads, "cond_add", mg)
    d_x1 += d_g[:, None] / d_x1.shape[1]  # the pooled prior is the token mean
    return d_base


def _cond_film(params, cfg, x1):
    tok, cache = cond.condition_film(
        params["camera_token"], dg.pooled_prior(x1), _mlp_view(params, "cond_film", "gelu")
    )
    return tok.conditioned, cache


def _cond_film_backward(params, grads, cfg, cache, d_cond, d_x1):
    mg, d_base, d_g = cond.condition_film_backward(
        _mlp_view(params, "cond_film", "gelu"), cache, params["camera_token"], d_cond
    )
    _store_mlp(grads, "cond_film", mg)
    d_x1 += d_g[:, None] / d_x1.shape[1]
    return d_base


def _cond_cross_attn(params, cfg, x1):
    tok, cache = cond.condition_cross_attention(
        params["camera_token"], x1, _attn_view(params, "cond_xattn", cfg.n_heads),
        _mlp_view(params, "cond_xattn_ffn", "gelu"),
    )
    return tok.conditioned, cache


def _cond_cross_attn_backward(params, grads, cfg, cache, d_cond, d_x1):
    ag, fg, d_base, d_tokens = cond.condition_cross_attention_backward(
        _attn_view(params, "cond_xattn", cfg.n_heads),
        _mlp_view(params, "cond_xattn_ffn", "gelu"), cache, d_cond,
    )
    _store_attn(grads, "cond_xattn", ag)
    _store_mlp(grads, "cond_xattn_ffn", fg)
    d_x1 += d_tokens
    return d_base


def _bias_none(params, cfg, x1, pre_caches):
    return 0.0, None


def _bias_bucket(params, cfg, x1, pre_caches):
    return cond.bucket_bias(x1, _view(cond.BiasTable, table=params["bias_table"]))


def _bias_bucket_backward(params, grads, cfg, idx, d_bias):
    grads["bias_table"] = cond.bias_table_gradient(d_bias, idx, cfg.n_buckets)


def _bias_mlp(params, cfg, x1, pre_caches):
    return cond.mlp_bias(x1, _mlp_view(params, "bias_mlp", "relu"))


def _bias_mlp_backward(params, grads, cfg, cache, d_bias):
    bg = cond.mlp_bias_backward(_mlp_view(params, "bias_mlp", "relu"), cache, d_bias)
    _store_mlp(grads, "bias_mlp", bg)


def _bias_log_affinity(params, cfg, x1, pre_caches):
    # affinities of a DeGAT pass over the current tokens; treated as a
    # constant during backprop (parameter-free integration)
    if pre_caches is None:
        pre_caches = []
        for x in x1:
            _, cache = dg.degat_forward(x, _degat_view(params), cfg.k_neighbors, cfg.knn_metric)
            pre_caches.append(cache)
    return np.stack([dg.affinity_to_log_bias(c) for c in pre_caches])[:, None], None


def _no_bias_gradient(params, grads, cfg, cache, d_bias):
    pass  # no bias, or a stop-gradient one: no parameter path


TOKEN_CONDITIONING = {
    "none": (_cond_none, _cond_none_backward),
    "additive": (_cond_additive, _cond_additive_backward),
    "film": (_cond_film, _cond_film_backward),
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
    pre_degat: object  # per-frame DeGatCaches or None
    cond_cache: object
    bias_cache: object
    block_caches: list
    global_cache: object  # block cache or None
    post_degat: object  # per-frame DeGatCaches or None
    head_cache: tuple
    outputs: tuple  # (DepthMap over (F, H, W), _Poses): what the loss scores


def forward(params, cfg, frames):
    """Run the model on a list of (H, W) grayscale frames.

    Returns (depth maps, camera params, cache), one map and camera per
    frame; depth and confidence are exp-parameterized and therefore
    strictly positive, the focal length is softplus-parameterized.
    ``params`` is checked here (``check_params``), and nowhere else in the
    step.
    """
    if len(frames) == 0:
        raise ValueError("forward requires at least one frame")
    check_params(params, cfg)
    degat_params = _degat_view(params)
    condition, _ = TOKEN_CONDITIONING[cfg.token_conditioning]
    attention_bias, _ = ATTENTION_BIAS[cfg.attention_bias]
    patches = _patchify(frames, cfg)
    nf, n = len(patches), cfg.n_tokens + 1

    x1 = x0 = patches @ params["embed.w"].T + params["embed.b"]
    pre_degat = post_degat = global_cache = None
    if cfg.degat_placement == "pre":
        x1, pre_degat = _degat_frames(x0, degat_params, cfg)

    c_tok, cond_cache = condition(params, cfg, x1)
    bias_patch, bias_cache = attention_bias(params, cfg, x1, pre_degat)
    bias = np.zeros((nf, cfg.n_heads, n, n))  # the camera token's row and column stay 0
    bias[:, :, 1:, 1:] = bias_patch

    seq = np.concatenate([c_tok[:, None], x1], axis=1)  # (F, L + 1, C)
    block_caches = []
    for i in range(cfg.n_blocks):
        seq, bc = _block_forward(seq, _block_view(params, f"block{i}", cfg.n_heads), bias)
        block_caches.append(bc)

    if nf > 1:
        flat, global_cache = _block_forward(
            seq.reshape(-1, cfg.embed_dim), _block_view(params, "global", cfg.n_heads)
        )
        seq = flat.reshape(seq.shape)

    patch_out = seq[:, 1:]
    if cfg.degat_placement == "post":
        patch_out, post_degat = _degat_frames(patch_out, degat_params, cfg)
    depth_maps, cams, outputs, head_cache = _heads_forward(params, cfg, patch_out, seq[:, 0])

    return depth_maps, cams, ModelCache(
        patches=patches, pre_degat=pre_degat, cond_cache=cond_cache, bias_cache=bias_cache,
        block_caches=block_caches, global_cache=global_cache, post_degat=post_degat,
        head_cache=head_cache, outputs=outputs,
    )


def backward(params, cfg, cache, upstream):
    """Parameter gradients given frame-stacked upstream output gradients.

    ``upstream`` is one dict with keys depth and confidence (F, H, W),
    rotation (F, 3, 3), translation (F, 3) and focal (F,). The result has
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
    degat_params = _degat_view(params)
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
    _, _, cache = forward(params, cfg, frames)
    pred, poses = cache.outputs
    gt_depths = np.asarray(gt_depths, dtype=np.float64)
    gt_poses = _Poses(*(np.array([getattr(c, f) for c in gt_cams]) for f in _Poses._fields))
    depth_part = depth_loss(pred, gt_depths, weights)
    d_depth, d_conf = depth_loss_backward(pred, gt_depths, weights)
    upstream = {"depth": d_depth, "confidence": d_conf}
    for field, p, g in zip(_Poses._fields, poses, gt_poses):  # the gradient of the mean L1
        upstream[field] = np.sign(p - g) / nf
    grads = backward(params, cfg, cache, upstream)
    breakdown = LossBreakdown(
        cam=camera_loss(poses, gt_poses), reg=depth_part.reg, unc=depth_part.unc,
        grad=depth_part.grad,
    )
    return breakdown, grads


def sgd_step(params, grads, lr):
    """Plain gradient-descent update in a fixed key order."""
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    return {k: params[k] - lr * grads[k] for k in sorted(params)}
