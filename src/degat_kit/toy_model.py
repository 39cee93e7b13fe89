"""Toy patch-token transformer with selectable graph-attention integration.

The F frames run as one (F, L, C) batch of patch tokens: linear patch
embedding -> optional pre-transformer graph-attention hop -> camera-token
conditioning, one token per frame -> N self-attention blocks over each
frame's camera token and patches (optionally bias-injected) -> one global
block over the (F * (L + 1), C) tokens of all frames when several frames
are given -> optional post-transformer graph-attention hop -> linear
per-patch depth/confidence head and an MLP camera head. Only the
graph-attention hop runs frame by frame, since each frame builds its own
K-NN graph.

Every attention layer is ``conditioning.multi_head_attention``, and the
conditioning and bias kinds are the keys of two (forward, backward) tables.
Forward and backward are written by hand against explicit caches; the
finite-difference checker validates every parameter gradient.
"""

from dataclasses import dataclass

import numpy as np

from . import degat as dg
from . import conditioning as cond
from .geometry import CameraParams
from .geometry import DepthMap
from .graph import METRICS
from .objective import LossBreakdown, LossWeights, camera_loss, depth_loss, depth_loss_backward

__all__ = [
    "ModelConfig",
    "init_model_params",
    "forward",
    "backward",
    "zero_grads",
    "loss_and_grads",
    "sgd_step",
]

PLACEMENTS = ("none", "pre", "post")

FOCAL_EPS = 1e-6


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


def init_model_params(cfg, rng=None):
    """Seeded parameter dict; every component is initialized regardless of
    which flags are enabled so configs differing only in flags share
    identical parameters."""
    rng = np.random.default_rng(cfg.seed if rng is None else rng)
    c = cfg.embed_dim
    p2 = cfg.patch_size**2
    ch = cfg.cond_hidden
    params = {}

    params["embed.w"] = _uniform(rng, (c, p2), p2)
    params["embed.b"] = np.zeros(c)
    params["camera_token"] = rng.normal(0.0, 0.02, size=c)

    params["degat.w_proj"] = _uniform(rng, (c, 2 * c), 2 * c)
    params["degat.a"] = _uniform(rng, (c,), c)
    params["degat.w_val"] = _uniform(rng, (c, c), c)

    # token-level conditioning heads; final layers zero so every variant
    # is exactly the identity at initialization
    params["cond_add.w1"] = _uniform(rng, (ch, c), c)
    params["cond_add.b1"] = np.zeros(ch)
    params["cond_add.w2"] = np.zeros((c, ch))
    params["cond_add.b2"] = np.zeros(c)
    params["cond_film.w1"] = _uniform(rng, (ch, c), c)
    params["cond_film.b1"] = np.zeros(ch)
    params["cond_film.w2"] = np.zeros((2 * c, ch))
    params["cond_film.b2"] = np.zeros(2 * c)
    params["cond_xattn.w_q"] = _uniform(rng, (c, c), c)
    params["cond_xattn.w_k"] = _uniform(rng, (c, c), c)
    params["cond_xattn.w_v"] = _uniform(rng, (c, c), c)
    params["cond_xattn.w_o"] = np.zeros((c, c))
    params["cond_xattn_ffn.w1"] = _uniform(rng, (ch, c), c)
    params["cond_xattn_ffn.b1"] = np.zeros(ch)
    params["cond_xattn_ffn.w2"] = np.zeros((c, ch))
    params["cond_xattn_ffn.b2"] = np.zeros(c)

    # attention-level bias generators start at zero bias
    params["bias_table"] = np.zeros((cfg.n_buckets, cfg.n_heads))
    params["bias_mlp.w1"] = _uniform(rng, (cfg.bias_hidden, 1), 1)
    params["bias_mlp.b1"] = np.zeros(cfg.bias_hidden)
    params["bias_mlp.w2"] = np.zeros((cfg.n_heads, cfg.bias_hidden))
    params["bias_mlp.b2"] = np.zeros(cfg.n_heads)

    f = cfg.ffn_mult * c
    for name in [f"block{i}" for i in range(cfg.n_blocks)] + ["global"]:
        for w in ("w_q", "w_k", "w_v", "w_o"):
            params[f"{name}.{w}"] = _uniform(rng, (c, c), c)
        params[f"{name}_ffn.w1"] = _uniform(rng, (f, c), c)
        params[f"{name}_ffn.b1"] = np.zeros(f)
        params[f"{name}_ffn.w2"] = _uniform(rng, (c, f), f)
        params[f"{name}_ffn.b2"] = np.zeros(c)

    params["depth_head.w"] = _uniform(rng, (2 * p2, c), c)
    params["depth_head.b"] = np.zeros(2 * p2)
    params["cam_head.w1"] = _uniform(rng, (cfg.cam_hidden, c), c)
    params["cam_head.b1"] = np.zeros(cfg.cam_hidden)
    params["cam_head.w2"] = _uniform(rng, (13, cfg.cam_hidden), cfg.cam_hidden)
    params["cam_head.b2"] = np.zeros(13)
    return params


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.items()}


def _mlp_view(params, prefix, activation):
    w1, b1, w2, b2 = (params[f"{prefix}.{w}"] for w in ("w1", "b1", "w2", "b2"))
    return cond.Mlp2(w1=w1, b1=b1, w2=w2, b2=b2, activation=activation)


def _accum_mlp(grads, prefix, g):
    for w in ("w1", "b1", "w2", "b2"):
        grads[f"{prefix}.{w}"] += getattr(g, f"d_{w}")


def _attn_view(params, prefix, n_heads):
    w_q, w_k, w_v, w_o = (params[f"{prefix}.{w}"] for w in ("w_q", "w_k", "w_v", "w_o"))
    return cond.CrossAttnParams(w_q=w_q, w_k=w_k, w_v=w_v, w_o=w_o, n_heads=n_heads)


def _accum_attn(grads, prefix, g):
    for w, gw in g.items():
        grads[f"{prefix}.{w}"] += gw


def _degat_view(params):
    w_proj, a, w_val = (params[f"degat.{w}"] for w in ("w_proj", "a", "w_val"))
    return dg.DeGatParams(w_proj=w_proj, a=a, w_val=w_val)


def _degat_frames(x, degat_params, cfg):
    """One DeGAT hop per (L, C) frame of x, each over its own K-NN graph;
    returns (x_out, per-frame caches)."""
    hops = [dg.degat_forward(xf, degat_params, cfg.k_neighbors, cfg.knn_metric) for xf in x]
    return np.stack([x_out for x_out, _ in hops]), [cache for _, cache in hops]


def _degat_backward(grads, degat_params, caches, d_out):
    runs = [dg.degat_backward(cache, degat_params, d) for cache, d in zip(caches, d_out)]
    for w in ("w_proj", "a", "w_val"):
        grads[f"degat.{w}"] += sum(getattr(r, f"d_{w}") for r in runs)
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
    _accum_mlp(grads, f"{name}_ffn", ffn_grads)
    d_y = d_z + d_y_ffn
    attn_grads, d_x_q, d_x_kv, d_bias = cond.multi_head_attention_backward(
        attn, attn_cache, d_y
    )
    _accum_attn(grads, name, attn_grads)
    return d_y + (d_x_q + d_x_kv), d_bias


# ---------------------------------------------------------------------------
# heads


def _heads_forward(params, cfg, patch_tokens, cam_tokens):
    """Depth maps and cameras of the (F, L, C) patch and (F, C) camera tokens."""
    p2 = cfg.patch_size**2
    raw = patch_tokens @ params["depth_head.w"].T + params["depth_head.b"]
    depth = np.exp(_unpatchify(raw[..., :p2], cfg))
    conf = np.exp(_unpatchify(raw[..., p2:], cfg))

    cam_mlp = _mlp_view(params, "cam_head", "gelu")
    y, cam_cache = cond.mlp2_forward(cam_mlp, cam_tokens)
    focal = np.logaddexp(0.0, y[:, 12]) + FOCAL_EPS  # softplus
    principal = ((cfg.image_w - 1) / 2.0, (cfg.image_h - 1) / 2.0)
    cams = [
        CameraParams(rotation=yf[:9].reshape(3, 3), translation=yf[9:12], focal=float(ff),
                     principal=principal)
        for yf, ff in zip(y, focal)
    ]
    dms = [DepthMap(depth=d, confidence=c) for d, c in zip(depth, conf)]
    return dms, cams, (patch_tokens, depth, conf, cam_cache, y[:, 12])


def _heads_backward(params, grads, cfg, head_cache, upstream):
    """upstream: one dict per frame with depth, confidence, rotation,
    translation and focal grads."""
    patch_tokens, depth, conf, cam_cache, f_raw = head_cache
    up = {
        key: np.array([u[key] for u in upstream], dtype=np.float64)
        for key in ("depth", "confidence", "rotation", "translation", "focal")
    }

    d_raw = np.concatenate(
        [_patchify(up["depth"] * depth, cfg), _patchify(up["confidence"] * conf, cfg)], axis=-1
    )
    flat_d_raw = d_raw.reshape(-1, d_raw.shape[-1])
    grads["depth_head.w"] += flat_d_raw.T @ patch_tokens.reshape(-1, cfg.embed_dim)
    grads["depth_head.b"] += flat_d_raw.sum(axis=0)
    d_patch = d_raw @ params["depth_head.w"]

    d_focal = up["focal"] * (0.5 * (1.0 + np.tanh(0.5 * f_raw)))  # softplus' = sigmoid
    d_y = np.concatenate(
        [up["rotation"].reshape(-1, 9), up["translation"], d_focal[:, None]], axis=1
    )
    cam_mlp = _mlp_view(params, "cam_head", "gelu")
    cam_grads, d_cam_tok = cond.mlp2_backward(cam_mlp, cam_cache, d_y)
    _accum_mlp(grads, "cam_head", cam_grads)
    return d_patch, d_cam_tok


# ---------------------------------------------------------------------------
# token conditioning and attention bias: one (forward, backward) pair per kind
#
# Conditioning: (params, cfg, x1) -> ((F, C) camera tokens, cache); the
# backward adds its token path into d_x1 in place and returns
# d(loss)/d(camera_token).
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
    _accum_mlp(grads, "cond_add", mg)
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
    _accum_mlp(grads, "cond_film", mg)
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
    _accum_attn(grads, "cond_xattn", ag)
    _accum_mlp(grads, "cond_xattn_ffn", fg)
    d_x1 += d_tokens
    return d_base


def _bias_none(params, cfg, x1, pre_caches):
    return 0.0, None


def _bias_bucket(params, cfg, x1, pre_caches):
    return cond.bucket_bias(x1, cond.BiasTable(table=params["bias_table"]))


def _bias_bucket_backward(params, grads, cfg, idx, d_bias):
    grads["bias_table"] += cond.bias_table_gradient(d_bias, idx, cfg.n_buckets)


def _bias_mlp(params, cfg, x1, pre_caches):
    return cond.mlp_bias(x1, _mlp_view(params, "bias_mlp", "relu"))


def _bias_mlp_backward(params, grads, cfg, cache, d_bias):
    bg = cond.mlp_bias_backward(_mlp_view(params, "bias_mlp", "relu"), cache, d_bias)
    _accum_mlp(grads, "bias_mlp", bg)


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


def forward(params, cfg, frames):
    """Run the model on a list of (H, W) grayscale frames.

    Returns (depth maps, camera params, cache); depth and confidence are
    exp-parameterized and therefore strictly positive, the focal length
    is softplus-parameterized.
    """
    if len(frames) == 0:
        raise ValueError("forward requires at least one frame")
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
    depth_maps, cams, head_cache = _heads_forward(params, cfg, patch_out, seq[:, 0])

    return depth_maps, cams, ModelCache(
        patches=patches, pre_degat=pre_degat, cond_cache=cond_cache, bias_cache=bias_cache,
        block_caches=block_caches, global_cache=global_cache, post_degat=post_degat,
        head_cache=head_cache,
    )


def backward(params, cfg, cache, upstream):
    """Parameter gradients given per-frame upstream output gradients.

    ``upstream`` is a list (one dict per frame) with keys depth,
    confidence (H x W grids), rotation (3x3), translation (3,), focal.
    """
    nf = len(cache.patches)
    if len(upstream) != nf:
        raise ValueError(f"{len(upstream)} upstream entries for {nf} frames")
    grads = zero_grads(params)
    degat_params = _degat_view(params)
    _, condition_backward = TOKEN_CONDITIONING[cfg.token_conditioning]
    _, bias_backward = ATTENTION_BIAS[cfg.attention_bias]

    d_patch, d_cam_tok = _heads_backward(params, grads, cfg, cache.head_cache, upstream)
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
    grads["camera_token"] += condition_backward(
        params, grads, cfg, cache.cond_cache, d_seq[:, 0], d_x1
    )

    d_x0 = d_x1
    if cfg.degat_placement == "pre":
        d_x0 = _degat_backward(grads, degat_params, cache.pre_degat, d_x1)

    flat_d_x0 = d_x0.reshape(-1, cfg.embed_dim)
    grads["embed.w"] += flat_d_x0.T @ cache.patches.reshape(-1, cache.patches.shape[-1])
    grads["embed.b"] += flat_d_x0.sum(axis=0)
    return grads


def loss_and_grads(params, cfg, frames, gt_depths, gt_cams, weights=LossWeights()):
    """Mean-over-frames base loss (camera + depth) and its full gradient."""
    depth_maps, cams, cache = forward(params, cfg, frames)
    nf = len(frames)
    cam_total = reg = unc = grad_term = 0.0
    upstream = []
    for dm, cam, gt_d, gt_c in zip(depth_maps, cams, gt_depths, gt_cams):
        cam_total += camera_loss(cam, gt_c)
        bd = depth_loss(dm, gt_d, weights)
        reg += bd.reg
        unc += bd.unc
        grad_term += bd.grad
        d_depth, d_conf = depth_loss_backward(dm, gt_d, weights)
        upstream.append(
            {
                "depth": d_depth / nf,
                "confidence": d_conf / nf,
                "rotation": np.sign(cam.rotation - gt_c.rotation) / nf,
                "translation": np.sign(cam.translation - gt_c.translation) / nf,
                "focal": float(np.sign(cam.focal - gt_c.focal)) / nf,
            }
        )
    grads = backward(params, cfg, cache, upstream)
    breakdown = LossBreakdown(
        cam=cam_total / nf, reg=reg / nf, unc=unc / nf, grad=grad_term / nf
    )
    return breakdown, grads


def sgd_step(params, grads, lr):
    """Plain gradient-descent update in a fixed key order."""
    if lr < 0.0:
        raise ValueError(f"learning rate must be >= 0, got {lr}")
    return {k: params[k] - lr * grads[k] for k in sorted(params)}
