"""Camera-token conditioning and attention-level bias injection.

Token level: additive, FiLM, and cross-attention conditioning of the
camera token, each constructed so that zero-initialized output layers
make the conditioned token identical to the base token.

Attention level: a quantized bias table and a continuous MLP bias, both
derived from pairwise semantic distances, injected additively into
pre-softmax attention logits. The distance pipeline itself is treated as
a constant during backprop; only the table / MLP parameters receive
gradients.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .numerics import as_matrix, as_vector

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

    def __call__(self, x):
        y, _ = mlp2_forward(self, x)
        return y


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
    pre = x @ mlp.w1.T + mlp.b1
    hid = act(pre)
    y = hid @ mlp.w2.T + mlp.b2
    return y, (x, pre, hid)


def mlp2_backward(mlp, cache, d_y):
    """Gradients of the MLP parameters and its input given d(loss)/dy."""
    x, pre, hid = cache
    _, act_grad = _ACTIVATIONS[mlp.activation]
    d_y = np.asarray(d_y, dtype=np.float64)
    if d_y.ndim == 1:
        d_w2 = np.outer(d_y, hid)
        d_b2 = d_y.copy()
        d_hid = d_y @ mlp.w2
    else:
        flat_dy = d_y.reshape(-1, mlp.out_dim)
        flat_hid = hid.reshape(-1, hid.shape[-1])
        d_w2 = flat_dy.T @ flat_hid
        d_b2 = flat_dy.sum(axis=0)
        d_hid = d_y @ mlp.w2
    d_pre = d_hid * act_grad(pre)
    if d_y.ndim == 1:
        d_w1 = np.outer(d_pre, x)
        d_b1 = d_pre.copy()
    else:
        flat_dpre = d_pre.reshape(-1, d_pre.shape[-1])
        flat_x = x.reshape(-1, x.shape[-1])
        d_w1 = flat_dpre.T @ flat_x
        d_b1 = flat_dpre.sum(axis=0)
    d_x = d_pre @ mlp.w1
    return Mlp2Grads(d_w1=d_w1, d_b1=d_b1, d_w2=d_w2, d_b2=d_b2), d_x


@dataclass
class CameraToken:
    base: np.ndarray
    conditioned: np.ndarray


def condition_additive(base, g, mlp):
    """c' = c + MLP(g); returns (CameraToken, cache)."""
    base = as_vector(base, "base")
    g = as_vector(g, "g")
    if mlp.in_dim != g.shape[0] or mlp.out_dim != base.shape[0]:
        raise ValueError(
            f"additive conditioning shape mismatch: mlp {mlp.in_dim}->{mlp.out_dim}, "
            f"g {g.shape[0]}, base {base.shape[0]}"
        )
    delta, cache = mlp2_forward(mlp, g)
    return CameraToken(base=base, conditioned=base + delta), cache


def condition_additive_backward(mlp, cache, d_cond):
    """Returns (mlp grads, d_base, d_g)."""
    grads, d_g = mlp2_backward(mlp, cache, d_cond)
    return grads, d_cond.copy(), d_g


def condition_film(base, g, mlp):
    """c' = (1 + gamma) * c + beta with [gamma, beta] = MLP(g)."""
    base = as_vector(base, "base")
    g = as_vector(g, "g")
    if mlp.out_dim % 2 != 0:
        raise ValueError(f"FiLM MLP output length {mlp.out_dim} must be even")
    if mlp.out_dim != 2 * base.shape[0]:
        raise ValueError(
            f"FiLM MLP output {mlp.out_dim} != 2 * token dim {base.shape[0]}"
        )
    out, cache = mlp2_forward(mlp, g)
    c = base.shape[0]
    gamma, beta = out[:c], out[c:]
    return CameraToken(base=base, conditioned=base * (1.0 + gamma) + beta), (cache, gamma)


def condition_film_backward(mlp, film_cache, base, d_cond):
    mlp_cache, gamma = film_cache
    d_base = d_cond * (1.0 + gamma)
    d_out = np.concatenate([d_cond * base, d_cond])
    grads, d_g = mlp2_backward(mlp, mlp_cache, d_out)
    return grads, d_base, d_g


@dataclass
class CrossAttnParams:
    """Multi-head cross-attention (camera token query over patch tokens)."""

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


def condition_cross_attention(base, tokens, attn, ffn):
    """c' = c + MHA(q=c, kv=tokens); out = c' + FFN(c').

    With zero-initialized output projection and FFN final layer, the
    whole block is the identity on the base token.
    """
    base = as_vector(base, "base")
    tokens = as_matrix(tokens, "tokens")
    c = attn.dim
    if base.shape[0] != c or tokens.shape[1] != c:
        raise ValueError("cross-attention dimension mismatch")
    h = attn.n_heads
    d = c // h

    q = (base @ attn.w_q.T).reshape(h, d)  # (H, d)
    k = (tokens @ attn.w_k.T).reshape(-1, h, d).transpose(1, 0, 2)  # (H, L, d)
    v = (tokens @ attn.w_v.T).reshape(-1, h, d).transpose(1, 0, 2)
    scores = np.einsum("hd,hld->hl", q, k) / np.sqrt(d)
    scores -= scores.max(axis=1, keepdims=True)
    expv = np.exp(scores)
    attn_w = expv / expv.sum(axis=1, keepdims=True)  # (H, L)
    ctx = np.einsum("hl,hld->hd", attn_w, v).reshape(c)
    attn_out = ctx @ attn.w_o.T
    c1 = base + attn_out
    ffn_out, ffn_cache = mlp2_forward(ffn, c1)
    out = c1 + ffn_out
    cache = (base, tokens, q, k, v, attn_w, ctx, c1, ffn_cache)
    return CameraToken(base=base, conditioned=out), cache


def condition_cross_attention_backward(attn, ffn, cache, d_out):
    """Returns (attn grads dict, ffn Mlp2Grads, d_base, d_tokens)."""
    base, tokens, q, k, v, attn_w, ctx, c1, ffn_cache = cache
    c = attn.dim
    h = attn.n_heads
    d = c // h

    ffn_grads, d_c1_ffn = mlp2_backward(ffn, ffn_cache, d_out)
    d_c1 = d_out + d_c1_ffn

    d_attn_out = d_c1
    d_w_o = np.outer(d_attn_out, ctx)
    d_ctx = (d_attn_out @ attn.w_o).reshape(h, d)

    d_attn_w = np.einsum("hd,hld->hl", d_ctx, v)
    d_v = attn_w[:, :, None] * d_ctx[:, None, :]  # (H, L, d)
    inner = np.sum(attn_w * d_attn_w, axis=1, keepdims=True)
    d_scores = attn_w * (d_attn_w - inner) / np.sqrt(d)
    d_q = np.einsum("hl,hld->hd", d_scores, k)
    d_k = d_scores[:, :, None] * q[:, None, :]

    d_base = d_c1.copy()
    d_base += d_q.reshape(c) @ attn.w_q
    d_w_q = np.outer(d_q.reshape(c), base)

    d_k_rows = d_k.transpose(1, 0, 2).reshape(-1, c)
    d_v_rows = d_v.transpose(1, 0, 2).reshape(-1, c)
    d_tokens = d_k_rows @ attn.w_k + d_v_rows @ attn.w_v
    d_w_k = d_k_rows.T @ tokens
    d_w_v = d_v_rows.T @ tokens

    attn_grads = {"w_q": d_w_q, "w_k": d_w_k, "w_v": d_w_v, "w_o": d_w_o}
    return attn_grads, ffn_grads, d_base, d_tokens


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


def _pairwise_distances(features):
    x = as_matrix(features, "features")
    sq = np.sum(x * x, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    d = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    return d


def bucket_indices(features, n_buckets, eps=BUCKET_RATIO_EPS):
    """Quantize log-scaled pairwise distances into [0, n_buckets - 1]."""
    d = _pairwise_distances(features)
    dl = np.log1p(d)
    ratio = dl / (dl.max() + eps)
    idx = np.clip(np.floor(ratio * n_buckets).astype(np.intp), 0, n_buckets - 1)
    return idx


def bucket_bias(features, table, eps=BUCKET_RATIO_EPS):
    """Per-head (H, L, L) bias looked up from the quantized distance bucket."""
    idx = bucket_indices(features, table.n_buckets, eps)
    bias = table.table[idx]  # (L, L, H)
    return np.ascontiguousarray(bias.transpose(2, 0, 1)), idx


def bias_table_gradient(delta, idx, n_buckets):
    """Sum per-pair bias gradients into their buckets.

    delta: (H, L, L) upstream gradient w.r.t. the injected bias;
    idx: (L, L) bucket index per pair. Returns (K_b, H).
    """
    delta = np.asarray(delta, dtype=np.float64)
    h = delta.shape[0]
    grad = np.zeros((n_buckets, h))
    flat_idx = idx.ravel()
    for head in range(h):
        np.add.at(grad[:, head], flat_idx, delta[head].ravel())
    return grad


def mlp_bias_coords(features):
    """Continuous distance coordinate x_ij in [-1, 1] (log-normalized)."""
    d = _pairwise_distances(features)
    dl = np.log1p(d)
    d_max = d.max()
    if d_max == 0.0:
        delta = np.zeros_like(dl)  # all tokens identical: defined as 0
    else:
        delta = dl / np.log1p(d_max)
    return 2.0 * np.clip(delta, 0.0, 1.0) - 1.0


def mlp_bias(features, mlp):
    """Per-head (H, L, L) bias from a 1 -> H MLP of the distance coordinate."""
    if mlp.in_dim != 1:
        raise ValueError(f"bias MLP must map 1 -> H, got input dim {mlp.in_dim}")
    x = mlp_bias_coords(features)
    n = x.shape[0]
    flat = x.reshape(-1, 1)
    out, cache = mlp2_forward(mlp, flat)  # (L*L, H)
    bias = out.T.reshape(mlp.out_dim, n, n)
    return bias, cache


def mlp_bias_backward(mlp, cache, delta):
    """MLP parameter gradients given (H, L, L) upstream bias gradient."""
    h = delta.shape[0]
    d_out = delta.reshape(h, -1).T  # (L*L, H)
    grads, _ = mlp2_backward(mlp, cache, d_out)
    return grads


def biased_attention(q, k, v, bias=None):
    """softmax(Q K^T / sqrt(d) + B) V for one head; returns (out, cache)."""
    q = as_matrix(q, "Q")
    k = as_matrix(k, "K")
    v = as_matrix(v, "V")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ValueError(
            f"attention shape mismatch: Q {q.shape}, K {k.shape}, V {v.shape}"
        )
    d = q.shape[1]
    scores = q @ k.T / np.sqrt(d)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != scores.shape:
            raise ValueError(f"bias shape {bias.shape} != logits {scores.shape}")
        scores = scores + bias
    scores_shifted = scores - scores.max(axis=1, keepdims=True)
    expv = np.exp(scores_shifted)
    attn_w = expv / expv.sum(axis=1, keepdims=True)
    out = attn_w @ v
    return out, (q, k, v, attn_w)


def biased_attention_backward(cache, d_out):
    """Returns (d_q, d_k, d_v, d_bias) for one head."""
    q, k, v, attn_w = cache
    d = q.shape[1]
    d_v = attn_w.T @ d_out
    d_attn = d_out @ v.T
    inner = np.sum(attn_w * d_attn, axis=1, keepdims=True)
    d_scores = attn_w * (d_attn - inner)
    d_q = d_scores @ k / np.sqrt(d)
    d_k = d_scores.T @ q / np.sqrt(d)
    return d_q, d_k, d_v, d_scores
