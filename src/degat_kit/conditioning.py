"""Camera-token conditioning and attention-level bias injection.

Token level: additive, FiLM, and cross-attention conditioning of the
camera token, each constructed so that zero-initialized output layers
make the conditioned token identical to the base token.

Attention level: a quantized bias table and a continuous MLP bias, both
derived from pairwise semantic distances, injected additively into
pre-softmax attention logits. The distance pipeline itself is treated as
a constant during backprop; only the table / MLP parameters receive
gradients.

Everything takes one frame or a leading frame axis: a prior g (F, C) or
tokens (F, L, C) give one conditioned token per frame, and the backward
passes sum d(base) over the frames; the bias generators normalise each
frame's distances by that frame's maximum and return (F, H, L, L).

All attention is ``multi_head_attention`` around the one kernel
``biased_attention``: self-attention in the model's blocks, and
cross-attention conditioning with the camera token as the single query.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .graph import pairwise_distances
from .numerics import as_finite, as_matrix, as_vector, softmax, softmax_backward

__all__ = [
    "Mlp2",
    "Mlp2Grads",
    "init_mlp2",
    "mlp2_forward",
    "mlp2_backward",
    "CameraToken",
    "condition_additive",
    "condition_film",
    "CrossAttnParams",
    "init_cross_attn",
    "multi_head_attention",
    "multi_head_attention_backward",
    "condition_cross_attention",
    "BiasTable",
    "bucket_indices",
    "bucket_bias",
    "bias_table_gradient",
    "mlp_bias",
    "mlp_bias_backward",
    "biased_attention",
    "biased_attention_backward",
]

BUCKET_RATIO_EPS = 1e-8  # paper writes "+ eps" in the ratio without a value


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _gelu_grad(x):
    phi = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    return 0.5 * (1.0 + erf(x / np.sqrt(2.0))) + x * phi


_ACTIVATIONS = {
    "relu": (lambda x: np.maximum(x, 0.0), lambda x: (x > 0.0).astype(np.float64)),
    "gelu": (_gelu, _gelu_grad),
}


def _rows(m):
    """All leading axes folded into one: (..., C) -> (N, C)."""
    return m.reshape(-1, m.shape[-1])


@dataclass
class Mlp2:
    """Two-layer perceptron y = W2 act(W1 x + b1) + b2."""

    w1: np.ndarray  # (M, in)
    b1: np.ndarray  # (M,)
    w2: np.ndarray  # (out, M)
    b2: np.ndarray  # (out,)
    activation: str = "gelu"

    def __post_init__(self):
        self.w1 = as_matrix(self.w1, "w1")
        self.b1 = as_vector(self.b1, "b1")
        self.w2 = as_matrix(self.w2, "w2")
        self.b2 = as_vector(self.b2, "b2")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        m = self.w1.shape[0]
        if self.b1.shape[0] != m or self.w2.shape[1] != m:
            raise ValueError("Mlp2 layer shapes are not composable")
        if self.b2.shape[0] != self.w2.shape[0]:
            raise ValueError("b2 length does not match w2 rows")

    @property
    def in_dim(self):
        return self.w1.shape[1]

    @property
    def out_dim(self):
        return self.w2.shape[0]


@dataclass
class Mlp2Grads:
    d_w1: np.ndarray
    d_b1: np.ndarray
    d_w2: np.ndarray
    d_b2: np.ndarray


def init_mlp2(in_dim, hidden, out_dim, activation="gelu", rng=None, zero_final=False):
    """Uniform 1/sqrt(fan-in) init; zero_final zeroes W2 and b2."""
    rng = np.random.default_rng(rng)
    s1 = 1.0 / np.sqrt(in_dim)
    s2 = 1.0 / np.sqrt(hidden)
    w2 = np.zeros((out_dim, hidden)) if zero_final else rng.uniform(-s2, s2, (out_dim, hidden))
    return Mlp2(
        w1=rng.uniform(-s1, s1, (hidden, in_dim)),
        b1=np.zeros(hidden),
        w2=w2,
        b2=np.zeros(out_dim),
        activation=activation,
    )


def mlp2_forward(mlp, x):
    """Apply the MLP to rows of x (or a single vector); returns (y, cache)."""
    x = np.asarray(x, dtype=np.float64)
    act, _ = _ACTIVATIONS[mlp.activation]
    pre = x @ mlp.w1.T
    pre += mlp.b1
    hid = act(pre)
    y = hid @ mlp.w2.T
    y += mlp.b2
    return y, (x, pre, hid)


def mlp2_backward(mlp, cache, d_y):
    """Gradients of the MLP parameters and its input given d(loss)/dy."""
    x, pre, hid = cache
    _, act_grad = _ACTIVATIONS[mlp.activation]
    d_y = np.asarray(d_y, dtype=np.float64)
    d_pre = (d_y @ mlp.w2) * act_grad(pre)
    # a single vector is one row: its outer products and sums are exact
    flat_dy, flat_dpre = _rows(d_y), _rows(d_pre)
    grads = Mlp2Grads(
        d_w1=flat_dpre.T @ _rows(x), d_b1=flat_dpre.sum(axis=0),
        d_w2=flat_dy.T @ _rows(hid), d_b2=flat_dy.sum(axis=0),
    )
    return grads, d_pre @ mlp.w1


@dataclass
class CameraToken:
    conditioned: np.ndarray  # (C,), or (F, C) with one token per frame


def condition_additive(base, g, mlp):
    """c' = c + MLP(g); returns (CameraToken, cache)."""
    base = as_vector(base, "base")
    g = as_finite(g, "g", (1, 2))
    if mlp.in_dim != g.shape[-1] or mlp.out_dim != base.shape[0]:
        raise ValueError(
            f"additive conditioning shape mismatch: mlp {mlp.in_dim}->{mlp.out_dim}, "
            f"g {g.shape[-1]}, base {base.shape[0]}"
        )
    delta, cache = mlp2_forward(mlp, g)
    return CameraToken(conditioned=base + delta), cache


def condition_additive_backward(mlp, cache, d_cond):
    """Returns (mlp grads, d_base, d_g)."""
    grads, d_g = mlp2_backward(mlp, cache, d_cond)
    return grads, _rows(d_cond).sum(axis=0), d_g


def condition_film(base, g, mlp):
    """c' = (1 + gamma) * c + beta with [gamma, beta] = MLP(g)."""
    base = as_vector(base, "base")
    g = as_finite(g, "g", (1, 2))
    if mlp.out_dim % 2 != 0:
        raise ValueError(f"FiLM MLP output length {mlp.out_dim} must be even")
    if mlp.out_dim != 2 * base.shape[0]:
        raise ValueError(
            f"FiLM MLP output {mlp.out_dim} != 2 * token dim {base.shape[0]}"
        )
    out, cache = mlp2_forward(mlp, g)
    c = base.shape[0]
    gamma, beta = out[..., :c], out[..., c:]
    return CameraToken(conditioned=base * (1.0 + gamma) + beta), (cache, gamma)


def condition_film_backward(mlp, film_cache, base, d_cond):
    mlp_cache, gamma = film_cache
    d_base = _rows(d_cond * (1.0 + gamma)).sum(axis=0)
    d_out = np.concatenate([d_cond * base, d_cond], axis=-1)
    grads, d_g = mlp2_backward(mlp, mlp_cache, d_out)
    return grads, d_base, d_g


@dataclass
class CrossAttnParams:
    """Multi-head attention projections: the camera-token cross-attention and
    the self-attention blocks."""

    w_q: np.ndarray  # (C, C)
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    n_heads: int

    def __post_init__(self):
        c = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            m = as_matrix(getattr(self, name), name)
            if m.shape != (c, c):
                raise ValueError(f"{name} must be ({c}, {c}), got {m.shape}")
            setattr(self, name, m)
        if c % self.n_heads != 0:
            raise ValueError(f"head count {self.n_heads} must divide dim {c}")

    @property
    def dim(self):
        return self.w_q.shape[0]


def init_cross_attn(c, n_heads, rng=None, zero_output=True):
    rng = np.random.default_rng(rng)
    s = 1.0 / np.sqrt(c)
    w_o = np.zeros((c, c)) if zero_output else rng.uniform(-s, s, (c, c))
    return CrossAttnParams(
        w_q=rng.uniform(-s, s, (c, c)),
        w_k=rng.uniform(-s, s, (c, c)),
        w_v=rng.uniform(-s, s, (c, c)),
        w_o=w_o,
        n_heads=n_heads,
    )


def _split_heads(m, n_heads):
    """(..., N, C) rows -> (..., H, N, C / H) per-head blocks."""
    *lead, n, c = m.shape
    return m.reshape(*lead, n, n_heads, c // n_heads).swapaxes(-2, -3)


def _merge_heads(m):
    """(..., H, N, d) per-head blocks -> (..., N, H * d) rows."""
    *lead, h, n, d = m.shape
    return m.swapaxes(-2, -3).reshape(*lead, n, h * d)


def multi_head_attention(x_q, x_kv, attn, bias=None):
    """W_o concat_h attention(x_q W_q^T, x_kv W_k^T, x_kv W_v^T)_h; returns (out, cache).

    x_q is (..., N, C), x_kv (..., M, C) and the optional bias (..., H, N, M),
    with the same leading (frame) axes on all of them.
    """
    h = attn.n_heads
    q = _split_heads(x_q @ attn.w_q.T, h)
    k = _split_heads(x_kv @ attn.w_k.T, h)
    v = _split_heads(x_kv @ attn.w_v.T, h)
    ctx, kernel_cache = biased_attention(q, k, v, bias)
    ctx = _merge_heads(ctx)
    return ctx @ attn.w_o.T, (x_q, x_kv, ctx, kernel_cache)


def multi_head_attention_backward(attn, cache, d_out):
    """Returns (weight grads dict, d_x_q, d_x_kv, d_bias)."""
    x_q, x_kv, ctx, kernel_cache = cache
    d_ctx = _split_heads(d_out @ attn.w_o, attn.n_heads)
    d_q, d_k, d_v, d_bias = biased_attention_backward(kernel_cache, d_ctx)
    d_q, d_k, d_v = _merge_heads(d_q), _merge_heads(d_k), _merge_heads(d_v)
    grads = {
        "w_q": _rows(d_q).T @ _rows(x_q), "w_k": _rows(d_k).T @ _rows(x_kv),
        "w_v": _rows(d_v).T @ _rows(x_kv), "w_o": _rows(d_out).T @ _rows(ctx),
    }
    return grads, d_q @ attn.w_q, d_k @ attn.w_k + d_v @ attn.w_v, d_bias


def condition_cross_attention(base, tokens, attn, ffn):
    """c' = c + MHA(q=c, kv=tokens); out = c' + FFN(c').

    tokens is (L, C), or (F, L, C) with the base token as one query per
    frame. With zero-initialized output projection and FFN final layer, the
    whole block is the identity on the base token.
    """
    base = as_vector(base, "base")
    tokens = as_finite(tokens, "tokens", (2, 3))
    if base.shape[0] != attn.dim or tokens.shape[-1] != attn.dim:
        raise ValueError("cross-attention dimension mismatch")
    query = np.broadcast_to(base, tokens.shape[:-2] + (1, attn.dim))
    attn_out, attn_cache = multi_head_attention(query, tokens, attn)
    c1 = base + attn_out[..., 0, :]
    ffn_out, ffn_cache = mlp2_forward(ffn, c1)
    return CameraToken(conditioned=c1 + ffn_out), (attn_cache, ffn_cache)


def condition_cross_attention_backward(attn, ffn, cache, d_out):
    """Returns (attn grads dict, ffn Mlp2Grads, d_base, d_tokens)."""
    attn_cache, ffn_cache = cache
    ffn_grads, d_c1_ffn = mlp2_backward(ffn, ffn_cache, d_out)
    d_c1 = d_out + d_c1_ffn
    attn_grads, d_query, d_tokens, _ = multi_head_attention_backward(
        attn, attn_cache, d_c1[..., None, :]
    )
    return attn_grads, ffn_grads, _rows(d_c1 + d_query[..., 0, :]).sum(axis=0), d_tokens


@dataclass
class BiasTable:
    """Learnable per-bucket, per-head attention bias embedding."""

    table: np.ndarray  # (K_b, H)

    def __post_init__(self):
        self.table = as_matrix(self.table, "table")
        if self.table.shape[0] < 1:
            raise ValueError("bias table needs at least one bucket")

    @property
    def n_buckets(self):
        return self.table.shape[0]

    @property
    def n_heads(self):
        return self.table.shape[1]


def bucket_indices(features, n_buckets, eps=BUCKET_RATIO_EPS):
    """Quantize log-scaled pairwise distances into [0, n_buckets - 1]."""
    d = pairwise_distances(features)
    dl = np.log1p(d)
    ratio = dl / (dl.max(axis=(-2, -1), keepdims=True) + eps)
    idx = np.clip(np.floor(ratio * n_buckets).astype(np.intp), 0, n_buckets - 1)
    return idx


def bucket_bias(features, table, eps=BUCKET_RATIO_EPS):
    """Per-head (..., H, L, L) bias looked up from the quantized distance bucket."""
    idx = bucket_indices(features, table.n_buckets, eps)
    bias = table.table[idx]  # (..., L, L, H)
    return np.ascontiguousarray(np.moveaxis(bias, -1, -3)), idx


def bias_table_gradient(delta, idx, n_buckets):
    """Sum per-pair bias gradients into their buckets.

    delta: (..., H, L, L) upstream gradient w.r.t. the injected bias;
    idx: (..., L, L) bucket index per pair. Returns (K_b, H).
    """
    delta = np.asarray(delta, dtype=np.float64)
    flat_idx = idx.ravel()
    per_head = [
        np.bincount(flat_idx, weights=delta[..., head, :, :].ravel(), minlength=n_buckets)
        for head in range(delta.shape[-3])
    ]
    return np.stack(per_head, axis=1)


def mlp_bias_coords(features):
    """Continuous distance coordinate x_ij in [-1, 1] (log-normalized)."""
    d = pairwise_distances(features)
    dl = np.log1p(d)
    d_max = d.max(axis=(-2, -1), keepdims=True)
    # a frame of identical tokens (d_max = 0) is defined as 0
    delta = np.divide(dl, np.log1p(d_max), out=np.zeros_like(dl), where=d_max > 0.0)
    return 2.0 * np.clip(delta, 0.0, 1.0) - 1.0


def mlp_bias(features, mlp):
    """Per-head (..., H, L, L) bias from a 1 -> H MLP of the distance coordinate."""
    if mlp.in_dim != 1:
        raise ValueError(f"bias MLP must map 1 -> H, got input dim {mlp.in_dim}")
    x = mlp_bias_coords(features)
    out, cache = mlp2_forward(mlp, x.reshape(-1, 1))  # (... * L * L, H)
    return np.moveaxis(out.reshape(*x.shape, mlp.out_dim), -1, -3), cache


def mlp_bias_backward(mlp, cache, delta):
    """MLP parameter gradients given (..., H, L, L) upstream bias gradient."""
    grads, _ = mlp2_backward(mlp, cache, _rows(np.moveaxis(delta, -3, -1)))
    return grads


def biased_attention(q, k, v, bias=None):
    """softmax(Q K^T / sqrt(d) + B) V over the last two axes; returns (out, cache).

    q is (..., N, d), k (..., M, d), v (..., M, d_v) and bias (..., N, M);
    the leading (head) axes must be the same on all of them.
    """
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    if (
        min(q.ndim, k.ndim, v.ndim) < 2
        or q.shape[-1] != k.shape[-1]
        or k.shape[-2] != v.shape[-2]
        or not q.shape[:-2] == k.shape[:-2] == v.shape[:-2]
    ):
        raise ValueError(
            f"attention shape mismatch: Q {q.shape}, K {k.shape}, V {v.shape}"
        )
    if not all(np.isfinite(a).all() for a in (q, k, v)):
        raise ValueError("attention Q, K or V contains non-finite entries")
    scores = q @ k.swapaxes(-1, -2) / np.sqrt(q.shape[-1])
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != scores.shape:
            raise ValueError(f"bias shape {bias.shape} != logits {scores.shape}")
        scores += bias
    attn_w = softmax(scores)
    return attn_w @ v, (q, k, v, attn_w)


def biased_attention_backward(cache, d_out):
    """Returns (d_q, d_k, d_v, d_bias), shaped like the forward inputs."""
    q, k, v, attn_w = cache
    scale = np.sqrt(q.shape[-1])
    d_v = attn_w.swapaxes(-1, -2) @ d_out
    d_scores = softmax_backward(attn_w, d_out @ v.swapaxes(-1, -2))
    d_q = d_scores @ k / scale
    d_k = d_scores.swapaxes(-1, -2) @ q / scale
    return d_q, d_k, d_v, d_scores
