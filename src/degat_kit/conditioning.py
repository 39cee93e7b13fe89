"""Camera-token conditioning and attention-level bias injection.

Token level: additive, FiLM, and cross-attention conditioning of the
camera token, each constructed so that zero-initialized output layers
make the conditioned token identical to the base token; each returns the
conditioned token array with its cache.

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

A layer's weights are a field-only ``NamedTuple`` (``Mlp2``,
``CrossAttnParams``) named like the gradient dict its backward returns; the
bucket table is a bare (K_b, H) array. ``Mlp2`` is a GELU MLP; the bias MLP's
ReLU hidden layer is its own helper. The head count is an argument of the
forward call, and each backward reads it, and all else it needs, from its own
forward's cache. ``mlp2_shapes`` and ``attn_shapes`` give
the field shapes that the init constructors build and that
``numerics.check_arrays`` checks; the layer functions do not check weights.
"""

from typing import NamedTuple

import numpy as np
from scipy.special import erf

from .graph import _row_blocks, pairwise_distances
from .numerics import as_finite, as_vector, fan_in_uniform, softmax, softmax_backward

__all__ = [
    "Mlp2",
    "mlp2_shapes",
    "init_mlp2",
    "mlp2_forward",
    "mlp2_backward",
    "condition_additive",
    "condition_additive_backward",
    "condition_film",
    "condition_film_backward",
    "CrossAttnParams",
    "attn_shapes",
    "init_cross_attn",
    "multi_head_attention",
    "multi_head_attention_backward",
    "condition_cross_attention",
    "condition_cross_attention_backward",
    "bucket_indices",
    "bucket_bias",
    "bias_table_gradient",
    "mlp_bias_coords",
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


def _rows(m):
    """All leading axes folded into one: (..., C) -> (N, C)."""
    return m.reshape(-1, m.shape[-1])


class Mlp2(NamedTuple):
    """Two-layer perceptron y = W2 GELU(W1 x + b1) + b2."""

    w1: np.ndarray  # (M, in)
    b1: np.ndarray  # (M,)
    w2: np.ndarray  # (out, M)
    b2: np.ndarray  # (out,)


def mlp2_shapes(in_dim, hidden, out_dim):
    """Field -> shape of an ``Mlp2``."""
    return {"w1": (hidden, in_dim), "b1": (hidden,), "w2": (out_dim, hidden), "b2": (out_dim,)}


def init_mlp2(in_dim, hidden, out_dim, rng=None, zero_final=False):
    """Uniform 1/sqrt(fan-in) init; zero_final zeroes W2 and b2."""
    rng = np.random.default_rng(rng)
    shapes = mlp2_shapes(in_dim, hidden, out_dim)
    w2 = np.zeros(shapes["w2"]) if zero_final else fan_in_uniform(rng, shapes["w2"])
    return Mlp2(w1=fan_in_uniform(rng, shapes["w1"]), b1=np.zeros(shapes["b1"]), w2=w2,
                b2=np.zeros(shapes["b2"]))


def mlp2_forward(mlp, x):
    """Apply the MLP to rows of x (or a single vector); returns (y, cache)."""
    x = np.asarray(x, dtype=np.float64)
    pre = x @ mlp.w1.T
    pre += mlp.b1
    hid = _gelu(pre)
    y = hid @ mlp.w2.T
    y += mlp.b2
    return y, (x, pre, hid)


def _mlp2_weight_grads(x, hid, d_y, d_pre):
    """The weight grads dict from the layer input x, the hidden activations
    and d(loss)/d(output) and d(loss)/d(pre-activation) on the same rows."""
    # a single vector is one row: its outer products and sums are exact
    flat_dy, flat_dpre = _rows(d_y), _rows(d_pre)
    return {
        "w1": flat_dpre.T @ _rows(x), "b1": flat_dpre.sum(axis=0),
        "w2": flat_dy.T @ _rows(hid), "b2": flat_dy.sum(axis=0),
    }


def mlp2_backward(mlp, cache, d_y):
    """Returns (weight grads dict, d_x) given d(loss)/dy."""
    x, pre, hid = cache
    d_y = np.asarray(d_y, dtype=np.float64)
    d_pre = (d_y @ mlp.w2) * _gelu_grad(pre)
    return _mlp2_weight_grads(x, hid, d_y, d_pre), d_pre @ mlp.w1


def condition_additive(base, g, mlp):
    """c' = c + MLP(g); returns (c', cache), c' being (C,), or (F, C) with one
    token per frame of g."""
    base = as_vector(base, "base")
    g = as_finite(g, "g", (1, 2))
    if mlp.w1.shape[1] != g.shape[-1] or mlp.w2.shape[0] != base.shape[0]:
        raise ValueError(
            f"additive conditioning shape mismatch: mlp {mlp.w1.shape[1]}->{mlp.w2.shape[0]}, "
            f"g {g.shape[-1]}, base {base.shape[0]}"
        )
    delta, cache = mlp2_forward(mlp, g)
    return base + delta, cache


def condition_additive_backward(mlp, cache, d_cond):
    """Returns (mlp grads dict, d_base, d_g)."""
    grads, d_g = mlp2_backward(mlp, cache, d_cond)
    return grads, _rows(d_cond).sum(axis=0), d_g


def condition_film(base, g, mlp):
    """c' = (1 + gamma) * c + beta with [gamma, beta] = MLP(g)."""
    base = as_vector(base, "base")
    g = as_finite(g, "g", (1, 2))
    c = base.shape[0]
    if mlp.w2.shape[0] != 2 * c:
        raise ValueError(f"FiLM MLP output {mlp.w2.shape[0]} != 2 * token dim {c}")
    out, cache = mlp2_forward(mlp, g)
    gamma, beta = out[..., :c], out[..., c:]
    return base * (1.0 + gamma) + beta, (cache, base, gamma)


def condition_film_backward(mlp, cache, d_cond):
    """Returns (mlp grads dict, d_base, d_g)."""
    mlp_cache, base, gamma = cache
    d_base = _rows(d_cond * (1.0 + gamma)).sum(axis=0)
    d_out = np.concatenate([d_cond * base, d_cond], axis=-1)
    grads, d_g = mlp2_backward(mlp, mlp_cache, d_out)
    return grads, d_base, d_g


class CrossAttnParams(NamedTuple):
    """Multi-head attention projections: the camera-token cross-attention and
    the self-attention blocks."""

    w_q: np.ndarray  # (C, C)
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray


def attn_shapes(c):
    """Field -> shape of a ``CrossAttnParams`` over C channels."""
    return dict.fromkeys(CrossAttnParams._fields, (c, c))


def init_cross_attn(c, rng=None, zero_output=True):
    """Uniform 1/sqrt(C) init; zero_output zeroes W_o."""
    rng = np.random.default_rng(rng)
    w_o = np.zeros((c, c)) if zero_output else fan_in_uniform(rng, (c, c))
    return CrossAttnParams(w_q=fan_in_uniform(rng, (c, c)), w_k=fan_in_uniform(rng, (c, c)),
                           w_v=fan_in_uniform(rng, (c, c)), w_o=w_o)


def _split_heads(m, n_heads):
    """(..., N, C) rows -> (..., H, N, C / H) per-head blocks."""
    *lead, n, c = m.shape
    return m.reshape(*lead, n, n_heads, c // n_heads).swapaxes(-2, -3)


def _merge_heads(m):
    """(..., H, N, d) per-head blocks -> (..., N, H * d) rows."""
    *lead, h, n, d = m.shape
    return m.swapaxes(-2, -3).reshape(*lead, n, h * d)


def multi_head_attention(x_q, x_kv, attn, n_heads, bias=None):
    """W_o concat_h attention(x_q W_q^T, x_kv W_k^T, x_kv W_v^T)_h over
    ``n_heads`` heads, which must divide C; returns (out, cache).

    x_q is (..., N, C), x_kv (..., M, C) and the optional bias (..., H, N, M),
    with the same leading (frame) axes on all of them.
    """
    q = _split_heads(x_q @ attn.w_q.T, n_heads)
    k = _split_heads(x_kv @ attn.w_k.T, n_heads)
    v = _split_heads(x_kv @ attn.w_v.T, n_heads)
    ctx, kernel_cache = biased_attention(q, k, v, bias)
    ctx = _merge_heads(ctx)
    return ctx @ attn.w_o.T, (x_q, x_kv, ctx, kernel_cache, n_heads)


def multi_head_attention_backward(attn, cache, d_out):
    """Returns (weight grads dict, d_x_q, d_x_kv, d_bias)."""
    x_q, x_kv, ctx, kernel_cache, n_heads = cache
    d_ctx = _split_heads(d_out @ attn.w_o, n_heads)
    d_q, d_k, d_v, d_bias = biased_attention_backward(kernel_cache, d_ctx)
    d_q, d_k, d_v = _merge_heads(d_q), _merge_heads(d_k), _merge_heads(d_v)
    grads = {
        "w_q": _rows(d_q).T @ _rows(x_q), "w_k": _rows(d_k).T @ _rows(x_kv),
        "w_v": _rows(d_v).T @ _rows(x_kv), "w_o": _rows(d_out).T @ _rows(ctx),
    }
    return grads, d_q @ attn.w_q, d_k @ attn.w_k + d_v @ attn.w_v, d_bias


def condition_cross_attention(base, tokens, attn, ffn, n_heads):
    """c' = c + MHA(q=c, kv=tokens); out = c' + FFN(c'); returns (out, cache).

    tokens is (L, C), or (F, L, C) with the base token as one query per
    frame. With zero-initialized output projection and FFN final layer, the
    whole block is the identity on the base token.
    """
    base = as_vector(base, "base")
    tokens = as_finite(tokens, "tokens", (2, 3))
    c = attn.w_q.shape[0]
    if base.shape[0] != c or tokens.shape[-1] != c:
        raise ValueError("cross-attention dimension mismatch")
    query = np.broadcast_to(base, tokens.shape[:-2] + (1, c))
    attn_out, attn_cache = multi_head_attention(query, tokens, attn, n_heads)
    c1 = base + attn_out[..., 0, :]
    ffn_out, ffn_cache = mlp2_forward(ffn, c1)
    return c1 + ffn_out, (attn_cache, ffn_cache)


def condition_cross_attention_backward(attn, ffn, cache, d_out):
    """Returns (attn grads dict, ffn grads dict, d_base, d_tokens)."""
    attn_cache, ffn_cache = cache
    ffn_grads, d_c1_ffn = mlp2_backward(ffn, ffn_cache, d_out)
    d_c1 = d_out + d_c1_ffn
    attn_grads, d_query, d_tokens, _ = multi_head_attention_backward(
        attn, attn_cache, d_c1[..., None, :]
    )
    return attn_grads, ffn_grads, _rows(d_c1 + d_query[..., 0, :]).sum(axis=0), d_tokens


def bucket_indices(features, n_buckets, eps=BUCKET_RATIO_EPS):
    """Quantize log-scaled pairwise distances into [0, n_buckets - 1]."""
    d = pairwise_distances(features)
    dl = np.log1p(d)
    ratio = dl / (dl.max(axis=(-2, -1), keepdims=True) + eps)
    idx = np.clip(np.floor(ratio * n_buckets).astype(np.intp), 0, n_buckets - 1)
    return idx


def bucket_bias(features, table, eps=BUCKET_RATIO_EPS):
    """Per-head (..., H, L, L) bias looked up in the (K_b, H) table from the
    quantized distance bucket."""
    idx = bucket_indices(features, table.shape[0], eps)
    bias = table[idx]  # (..., L, L, H)
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


def _bias_hidden_blocks(mlp, x):
    """(rows, ReLU(x W1^T + b1) on those rows) for each row block of the
    (n, 1) coordinate column x; the blocks follow ``graph._row_blocks`` and
    write their hidden layers into the front of one buffer per call."""
    blocks = _row_blocks(len(x), mlp.w1.shape[0])
    buf = np.empty((min(blocks[0].stop, len(x)) if blocks else 0, mlp.w1.shape[0]))
    for rows in blocks:
        # one input coordinate: x @ W1^T is the (rows, 1) x (1, M) broadcast
        # product, which skips a matmul whose inner dimension is 1
        xb = x[rows]
        h = np.multiply(xb, mlp.w1.T, out=buf[: len(xb)])
        h += mlp.b1
        yield rows, np.maximum(h, 0.0, out=h)


def mlp_bias(features, mlp):
    """Per-head (..., H, L, L) bias from a 1 -> H ReLU MLP of the distance
    coordinate.

    The MLP runs over the flattened pairs in row blocks, so its hidden
    activations never exceed one block. Returns (bias, cache); the cache is
    the (... * L * L, 1) coordinate column alone.
    """
    coords = mlp_bias_coords(features)
    x = coords.reshape(-1, 1)
    heads = mlp.w2.shape[0]
    out = np.empty((x.shape[0], heads))
    for rows, h in _bias_hidden_blocks(mlp, x):
        np.matmul(h, mlp.w2.T, out=out[rows])
        out[rows] += mlp.b2
    return np.moveaxis(out.reshape(*coords.shape, heads), -1, -3), x


def mlp_bias_backward(mlp, cache, delta):
    """MLP weight grads dict given the (..., H, L, L) upstream bias gradient.

    Each block of rows recomputes only its hidden layer from the cached
    coordinates (the coordinates get no gradient); the blocks' weight
    gradients are summed.
    """
    d_y = _rows(np.moveaxis(delta, -3, -1))
    grads = None
    for rows, h in _bias_hidden_blocks(mlp, cache):
        dy = d_y[rows]
        d_pre = dy @ mlp.w2
        d_pre *= h > 0.0  # ReLU'
        block = _mlp2_weight_grads(cache[rows], h, dy, d_pre)
        grads = block if grads is None else {k: grads[k] + g for k, g in block.items()}
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
    # one (..., N, M) buffer: the scores are scaled, biased and normalised in place
    scores = q @ k.swapaxes(-1, -2)
    scores /= np.sqrt(q.shape[-1])
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if bias.shape != scores.shape:
            raise ValueError(f"bias shape {bias.shape} != logits {scores.shape}")
        scores += bias
    attn_w = softmax(scores, out=scores)
    return attn_w @ v, (q, k, v, attn_w)


def biased_attention_backward(cache, d_out):
    """Returns (d_q, d_k, d_v, d_bias), shaped like the forward inputs."""
    q, k, v, attn_w = cache
    scale = np.sqrt(q.shape[-1])
    d_v = attn_w.swapaxes(-1, -2) @ d_out
    d_scores = d_out @ v.swapaxes(-1, -2)  # d(loss)/d(weights), then d(loss)/d(scores)
    softmax_backward(attn_w, d_scores, out=d_scores)
    d_q = d_scores @ k / scale
    d_k = d_scores.swapaxes(-1, -2) @ q / scale
    return d_q, d_k, d_v, d_scores
