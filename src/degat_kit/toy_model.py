"""Toy patch-token transformer with selectable graph-attention integration.

Pipeline per frame: linear patch embedding -> optional pre-transformer
graph-attention hop -> camera-token conditioning -> N self-attention
blocks (optionally bias-injected) -> one global cross-frame block when
several frames are given -> optional post-transformer graph-attention
hop -> linear per-patch depth/confidence head and an MLP camera head.

Forward and backward are written by hand against explicit caches; the
finite-difference checker validates every parameter gradient.
"""

from dataclasses import dataclass

import numpy as np

from . import degat as dg
from . import conditioning as cond
from .geometry import CameraParams
from .geometry import DepthMap
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
CONDITIONINGS = ("none", "additive", "film", "cross_attn")
BIASES = ("none", "bucket", "mlp_bias", "log_affinity")

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
        if self.token_conditioning not in CONDITIONINGS:
            raise ValueError(f"token_conditioning must be one of {CONDITIONINGS}")
        if self.attention_bias not in BIASES:
            raise ValueError(f"attention_bias must be one of {BIASES}")
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
    return cond.Mlp2(
        w1=params[f"{prefix}.w1"],
        b1=params[f"{prefix}.b1"],
        w2=params[f"{prefix}.w2"],
        b2=params[f"{prefix}.b2"],
        activation=activation,
    )


def _accum_mlp(grads, prefix, g):
    grads[f"{prefix}.w1"] += g.d_w1
    grads[f"{prefix}.b1"] += g.d_b1
    grads[f"{prefix}.w2"] += g.d_w2
    grads[f"{prefix}.b2"] += g.d_b2


def _degat_view(params):
    return dg.DeGatParams(
        w_proj=params["degat.w_proj"],
        a=params["degat.a"],
        w_val=params["degat.w_val"],
    )


# ---------------------------------------------------------------------------
# patchify / unpatchify


def _patchify(frame, cfg):
    p = cfg.patch_size
    gh, gw = cfg.grid_h, cfg.grid_w
    f = np.asarray(frame, dtype=np.float64)
    if f.shape != (cfg.image_h, cfg.image_w):
        raise ValueError(f"frame shape {f.shape} != ({cfg.image_h}, {cfg.image_w})")
    return (
        f.reshape(gh, p, gw, p).transpose(0, 2, 1, 3).reshape(gh * gw, p * p)
    )


def _unpatchify(tokens, cfg):
    p = cfg.patch_size
    gh, gw = cfg.grid_h, cfg.grid_w
    return (
        tokens.reshape(gh, gw, p, p).transpose(0, 2, 1, 3).reshape(gh * p, gw * p)
    )


# ---------------------------------------------------------------------------
# multi-head self-attention + FFN block


def _mha_forward(x, params, name, n_heads, bias=None):
    n, c = x.shape
    d = c // n_heads
    q = (x @ params[f"{name}.w_q"].T).reshape(n, n_heads, d).transpose(1, 0, 2)
    k = (x @ params[f"{name}.w_k"].T).reshape(n, n_heads, d).transpose(1, 0, 2)
    v = (x @ params[f"{name}.w_v"].T).reshape(n, n_heads, d).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(d)
    if bias is not None:
        scores = scores + bias
    scores -= scores.max(axis=2, keepdims=True)
    expv = np.exp(scores)
    attn = expv / expv.sum(axis=2, keepdims=True)  # (H, N, N)
    ctx = (attn @ v).transpose(1, 0, 2).reshape(n, c)
    out = ctx @ params[f"{name}.w_o"].T
    return out, (x, q, k, v, attn, ctx)


def _mha_backward(params, grads, name, n_heads, cache, d_out):
    x, q, k, v, attn, ctx = cache
    n, c = x.shape
    d = c // n_heads
    grads[f"{name}.w_o"] += d_out.T @ ctx
    d_ctx = (d_out @ params[f"{name}.w_o"]).reshape(n, n_heads, d).transpose(1, 0, 2)
    d_attn = d_ctx @ v.transpose(0, 2, 1)
    d_v = attn.transpose(0, 2, 1) @ d_ctx
    inner = np.sum(attn * d_attn, axis=2, keepdims=True)
    d_scores = attn * (d_attn - inner)
    d_bias = d_scores  # (H, N, N)
    d_q = d_scores @ k / np.sqrt(d)
    d_k = d_scores.transpose(0, 2, 1) @ q / np.sqrt(d)
    d_qm = d_q.transpose(1, 0, 2).reshape(n, c)
    d_km = d_k.transpose(1, 0, 2).reshape(n, c)
    d_vm = d_v.transpose(1, 0, 2).reshape(n, c)
    grads[f"{name}.w_q"] += d_qm.T @ x
    grads[f"{name}.w_k"] += d_km.T @ x
    grads[f"{name}.w_v"] += d_vm.T @ x
    d_x = (
        d_qm @ params[f"{name}.w_q"]
        + d_km @ params[f"{name}.w_k"]
        + d_vm @ params[f"{name}.w_v"]
    )
    return d_x, d_bias


def _block_forward(x, params, name, n_heads, bias=None):
    attn_out, attn_cache = _mha_forward(x, params, name, n_heads, bias)
    y = x + attn_out
    ffn = _mlp_view(params, f"{name}_ffn", "gelu")
    ffn_out, ffn_cache = cond.mlp2_forward(ffn, y)
    z = y + ffn_out
    return z, (attn_cache, ffn_cache)


def _block_backward(params, grads, name, n_heads, cache, d_z):
    attn_cache, ffn_cache = cache
    ffn = _mlp_view(params, f"{name}_ffn", "gelu")
    ffn_grads, d_y_ffn = cond.mlp2_backward(ffn, ffn_cache, d_z)
    _accum_mlp(grads, f"{name}_ffn", ffn_grads)
    d_y = d_z + d_y_ffn
    d_x_attn, d_bias = _mha_backward(params, grads, name, n_heads, attn_cache, d_y)
    return d_y + d_x_attn, d_bias


# ---------------------------------------------------------------------------
# heads


def _softplus(x):
    return np.logaddexp(0.0, x)


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _heads_forward(params, cfg, patch_tokens, cam_token):
    p2 = cfg.patch_size**2
    raw = patch_tokens @ params["depth_head.w"].T + params["depth_head.b"]
    depth_raw = _unpatchify(raw[:, :p2], cfg)
    conf_raw = _unpatchify(raw[:, p2:], cfg)
    depth = np.exp(depth_raw)
    conf = np.exp(conf_raw)

    cam_mlp = _mlp_view(params, "cam_head", "gelu")
    y, cam_cache = cond.mlp2_forward(cam_mlp, cam_token)
    rotation = y[:9].reshape(3, 3)
    translation = y[9:12]
    focal = float(_softplus(y[12]) + FOCAL_EPS)
    cam = CameraParams(
        rotation=rotation,
        translation=translation,
        focal=focal,
        principal=((cfg.image_w - 1) / 2.0, (cfg.image_h - 1) / 2.0),
    )
    dm = DepthMap(depth=depth, confidence=conf)
    head_cache = (patch_tokens, depth, conf, cam_cache, y[12])
    return dm, cam, head_cache


def _heads_backward(params, grads, cfg, head_cache, up):
    """up: dict with depth, confidence, rotation, translation, focal grads."""
    patch_tokens, depth, conf, cam_cache, f_raw = head_cache
    p2 = cfg.patch_size**2

    d_depth_raw = up["depth"] * depth
    d_conf_raw = up["confidence"] * conf
    d_raw = np.concatenate(
        [_patchify(d_depth_raw, cfg), _patchify(d_conf_raw, cfg)], axis=1
    )
    grads["depth_head.w"] += d_raw.T @ patch_tokens
    grads["depth_head.b"] += d_raw.sum(axis=0)
    d_patch = d_raw @ params["depth_head.w"]

    d_y = np.zeros(13)
    d_y[:9] = np.asarray(up["rotation"]).ravel()
    d_y[9:12] = np.asarray(up["translation"])
    d_y[12] = up["focal"] * _sigmoid(f_raw)
    cam_mlp = _mlp_view(params, "cam_head", "gelu")
    cam_grads, d_cam_tok = cond.mlp2_backward(cam_mlp, cam_cache, d_y)
    _accum_mlp(grads, "cam_head", cam_grads)
    return d_patch, d_cam_tok


# ---------------------------------------------------------------------------
# full model


@dataclass
class FrameCache:
    patches: np.ndarray
    x0: np.ndarray
    pre_degat: object  # DeGatCache or None
    x1: np.ndarray
    cond_kind: str
    cond_cache: object
    bias_kind: str
    bias_cache: object
    seq_caches: list
    post_degat: object
    head_cache: tuple


@dataclass
class ModelCache:
    frames: list  # FrameCache per frame
    global_cache: object  # block cache or None
    n_tokens: int


def forward(params, cfg, frames):
    """Run the model on a list of (H, W) grayscale frames.

    Returns (depth maps, camera params, cache); depth and confidence are
    exp-parameterized and therefore strictly positive, the focal length
    is softplus-parameterized.
    """
    if len(frames) == 0:
        raise ValueError("forward requires at least one frame")
    degat_params = _degat_view(params)
    frame_caches = []
    seqs = []
    for frame in frames:
        patches = _patchify(frame, cfg)
        x0 = patches @ params["embed.w"].T + params["embed.b"]

        pre_cache = None
        x1 = x0
        if cfg.degat_placement == "pre":
            x1, pre_cache = dg.degat_forward(
                x0, degat_params, cfg.k_neighbors, cfg.knn_metric
            )

        base = params["camera_token"]
        kind = cfg.token_conditioning
        if kind == "none":
            cond_cache = None
            c_tok = base
        elif kind == "additive":
            g = dg.pooled_prior(x1)
            tok, mcache = cond.condition_additive(
                base, g, _mlp_view(params, "cond_add", "gelu")
            )
            cond_cache = mcache
            c_tok = tok.conditioned
        elif kind == "film":
            g = dg.pooled_prior(x1)
            tok, fcache = cond.condition_film(
                base, g, _mlp_view(params, "cond_film", "gelu")
            )
            cond_cache = fcache
            c_tok = tok.conditioned
        else:  # cross_attn
            attn = cond.CrossAttnParams(
                w_q=params["cond_xattn.w_q"],
                w_k=params["cond_xattn.w_k"],
                w_v=params["cond_xattn.w_v"],
                w_o=params["cond_xattn.w_o"],
                n_heads=cfg.n_heads,
            )
            tok, xcache = cond.condition_cross_attention(
                base, x1, attn, _mlp_view(params, "cond_xattn_ffn", "gelu")
            )
            cond_cache = xcache
            c_tok = tok.conditioned

        bias_kind = cfg.attention_bias
        bias = None
        bias_cache = None
        if bias_kind == "bucket":
            table = cond.BiasTable(table=params["bias_table"])
            bias_patch, idx = cond.bucket_bias(x1, table)
            bias_cache = idx
        elif bias_kind == "mlp_bias":
            bias_patch, bias_cache = cond.mlp_bias(
                x1, _mlp_view(params, "bias_mlp", "relu")
            )
        elif bias_kind == "log_affinity":
            # affinities of a DeGAT pass over the current tokens; treated
            # as a constant during backprop (parameter-free integration)
            src = pre_cache
            if src is None:
                _, src = dg.degat_forward(
                    x1, degat_params, cfg.k_neighbors, cfg.knn_metric
                )
            shared = dg.affinity_to_log_bias(src)
            bias_patch = np.broadcast_to(
                shared, (cfg.n_heads,) + shared.shape
            ).copy()
        if bias_kind != "none":
            n = x1.shape[0] + 1
            bias = np.zeros((cfg.n_heads, n, n))
            bias[:, 1:, 1:] = bias_patch

        seq = np.vstack([c_tok, x1])
        seq_caches = []
        for i in range(cfg.n_blocks):
            seq, bc = _block_forward(seq, params, f"block{i}", cfg.n_heads, bias)
            seq_caches.append(bc)
        seqs.append(seq)
        frame_caches.append(
            FrameCache(
                patches=patches,
                x0=x0,
                pre_degat=pre_cache,
                x1=x1,
                cond_kind=kind,
                cond_cache=cond_cache,
                bias_kind=bias_kind,
                bias_cache=bias_cache,
                seq_caches=seq_caches,
                post_degat=None,
                head_cache=None,
            )
        )

    global_cache = None
    if len(frames) > 1:
        stacked = np.vstack(seqs)
        stacked, global_cache = _block_forward(stacked, params, "global", cfg.n_heads)
        n = cfg.n_tokens + 1
        seqs = [stacked[i * n:(i + 1) * n] for i in range(len(frames))]

    depth_maps = []
    cams = []
    for fc, seq in zip(frame_caches, seqs):
        cam_tok = seq[0]
        patch_out = seq[1:]
        if cfg.degat_placement == "post":
            patch_out, fc.post_degat = dg.degat_forward(
                patch_out, degat_params, cfg.k_neighbors, cfg.knn_metric
            )
        dm, cam, head_cache = _heads_forward(params, cfg, patch_out, cam_tok)
        fc.head_cache = head_cache
        depth_maps.append(dm)
        cams.append(cam)

    return depth_maps, cams, ModelCache(
        frames=frame_caches, global_cache=global_cache, n_tokens=cfg.n_tokens
    )


def backward(params, cfg, cache, upstream):
    """Parameter gradients given per-frame upstream output gradients.

    ``upstream`` is a list (one dict per frame) with keys depth,
    confidence (H x W grids), rotation (3x3), translation (3,), focal.
    """
    if len(upstream) != len(cache.frames):
        raise ValueError(
            f"{len(upstream)} upstream entries for {len(cache.frames)} frames"
        )
    grads = zero_grads(params)
    degat_params = _degat_view(params)
    n = cfg.n_tokens + 1

    # heads (and post-DeGAT) backward, producing per-frame sequence grads
    d_seqs = []
    for fc, up in zip(cache.frames, upstream):
        d_patch, d_cam_tok = _heads_backward(params, grads, cfg, fc.head_cache, up)
        if cfg.degat_placement == "post":
            dgrads = dg.degat_backward(fc.post_degat, degat_params, d_patch)
            grads["degat.w_proj"] += dgrads.d_w_proj
            grads["degat.a"] += dgrads.d_a
            grads["degat.w_val"] += dgrads.d_w_val
            d_patch = dgrads.d_x
        d_seq = np.vstack([d_cam_tok, d_patch])
        d_seqs.append(d_seq)

    if cache.global_cache is not None:
        d_stacked, _ = _block_backward(
            params, grads, "global", cfg.n_heads, cache.global_cache,
            np.vstack(d_seqs),
        )
        d_seqs = [d_stacked[i * n:(i + 1) * n] for i in range(len(cache.frames))]

    for fc, d_seq in zip(cache.frames, d_seqs):
        d_bias_total = None
        for i in reversed(range(cfg.n_blocks)):
            d_seq, d_bias = _block_backward(
                params, grads, f"block{i}", cfg.n_heads, fc.seq_caches[i], d_seq
            )
            if fc.bias_kind != "none":
                d_bias_total = d_bias if d_bias_total is None else d_bias_total + d_bias

        if fc.bias_kind == "bucket" and d_bias_total is not None:
            grads["bias_table"] += cond.bias_table_gradient(
                d_bias_total[:, 1:, 1:], fc.bias_cache, cfg.n_buckets
            )
        elif fc.bias_kind == "mlp_bias" and d_bias_total is not None:
            bg = cond.mlp_bias_backward(
                _mlp_view(params, "bias_mlp", "relu"),
                fc.bias_cache,
                d_bias_total[:, 1:, 1:],
            )
            _accum_mlp(grads, "bias_mlp", bg)
        # log_affinity is a stop-gradient input: no parameter path

        d_cond = d_seq[0]
        d_x1 = d_seq[1:].copy()
        kind = fc.cond_kind
        if kind == "none":
            grads["camera_token"] += d_cond
        elif kind == "additive":
            mg, d_base, d_g = cond.condition_additive_backward(
                _mlp_view(params, "cond_add", "gelu"), fc.cond_cache, d_cond
            )
            _accum_mlp(grads, "cond_add", mg)
            grads["camera_token"] += d_base
            d_x1 += d_g[None, :] / fc.x1.shape[0]
        elif kind == "film":
            mg, d_base, d_g = cond.condition_film_backward(
                _mlp_view(params, "cond_film", "gelu"),
                fc.cond_cache,
                params["camera_token"],
                d_cond,
            )
            _accum_mlp(grads, "cond_film", mg)
            grads["camera_token"] += d_base
            d_x1 += d_g[None, :] / fc.x1.shape[0]
        else:  # cross_attn
            attn = cond.CrossAttnParams(
                w_q=params["cond_xattn.w_q"],
                w_k=params["cond_xattn.w_k"],
                w_v=params["cond_xattn.w_v"],
                w_o=params["cond_xattn.w_o"],
                n_heads=cfg.n_heads,
            )
            ag, fg, d_base, d_tokens = cond.condition_cross_attention_backward(
                attn, _mlp_view(params, "cond_xattn_ffn", "gelu"),
                fc.cond_cache, d_cond,
            )
            for w, g in ag.items():
                grads[f"cond_xattn.{w}"] += g
            _accum_mlp(grads, "cond_xattn_ffn", fg)
            grads["camera_token"] += d_base
            d_x1 += d_tokens

        d_x0 = d_x1
        if cfg.degat_placement == "pre":
            dgrads = dg.degat_backward(fc.pre_degat, degat_params, d_x1)
            grads["degat.w_proj"] += dgrads.d_w_proj
            grads["degat.a"] += dgrads.d_a
            grads["degat.w_val"] += dgrads.d_w_val
            d_x0 = dgrads.d_x

        grads["embed.w"] += d_x0.T @ fc.patches
        grads["embed.b"] += d_x0.sum(axis=0)

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
