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
frame's distances by that frame's maximum and return (F, H, L, L), which
``bucket_bias`` and ``mlp_bias`` write one head at a time into a new array or
a given one.

All attention is ``multi_head_attention`` around the one kernel
``biased_attention``: self-attention in the model's blocks, and
cross-attention conditioning with the camera token as the single query.
The kernel takes a bias that broadcasts to its (..., H, N, M) scores, such
as one (F, 1, N, M) bias shared by every head, scales the queries rather
than the scores, and normalises its output rather than its weights. It runs
the query rows in the blocks of ``graph._row_blocks``, so it never holds the
whole score array: it caches the bias, the row sums, and the one block's
exponentiated scores or each row's shift, from which its backward rebuilds
each block's with the forward's own operations; only the backward forms the
weights; each block is written into the call's output and row sums. Each
gradient has its input's shape: the bias's is the score gradient summed over
the axes the bias broadcast, None without a bias or with ``bias_grad=False``.

A layer's weights are a field-only ``NamedTuple`` (``Mlp2``,
``CrossAttnParams``) named like the gradient dict its backward returns; the
bucket table is a bare (K_b, H) array. ``Mlp2`` is a GELU MLP; the ReLU bias
MLP is evaluated as its piecewise-linear function. The head count is an
argument of the forward call, and each backward reads it, and all else it
needs, from its own forward's cache. ``mlp2_shapes`` and ``attn_shapes`` give
the field shapes that the init constructors build and that
``numerics.check_arrays`` checks; the layer functions do not check weights.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.special import erf

from .graph import _row_blocks, pairwise_distances
from .numerics import as_finite, fan_in_uniform, softmax_backward

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
_SQRT2 = math.sqrt(2.0)  # the GELU's normal CDF is (1 + erf(x / sqrt 2)) / 2
_SQRT_2PI = math.sqrt(2.0 * math.pi)  # and its density exp(-x^2 / 2) / sqrt(2 pi)


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
    cdf = erf(pre / _SQRT2)  # the normal CDF, in place: GELU(pre) = pre cdf
    cdf += 1.0
    cdf *= 0.5
    y = (pre * cdf) @ mlp.w2.T
    y += mlp.b2
    # the cache holds cdf in place of GELU(pre), which the backward recomputes
    return y, (x, pre, cdf)


def mlp2_backward(mlp, cache, d_y):
    """Returns (weight grads dict, d_x) given d(loss)/dy."""
    x, pre, cdf = cache
    d_y = np.asarray(d_y, dtype=np.float64)
    d_pre = np.exp(-0.5 * pre * pre) / _SQRT_2PI  # the normal density phi, then
    d_pre *= pre  # GELU' = cdf + pre phi in place
    d_pre += cdf
    d_pre *= d_y @ mlp.w2
    # a single vector is one row: its outer products and sums are exact
    flat_dy, flat_dpre = _rows(d_y), _rows(d_pre)
    grads = {
        "w1": flat_dpre.T @ _rows(x), "b1": np.add.reduce(flat_dpre, axis=0),
        "w2": flat_dy.T @ _rows(pre * cdf), "b2": np.add.reduce(flat_dy, axis=0),
    }
    return grads, d_pre @ mlp.w1


def condition_additive(base, g, mlp):
    """c' = c + MLP(g); returns (c', cache), c' being (C,), or (F, C) with one
    token per frame of g."""
    base = as_finite(base, "base", (1,))
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
    base = as_finite(base, "base", (1,))
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

    x_q is (..., N, C) and x_kv (..., M, C), with the same leading (frame)
    axes. The optional bias has the axes of the (..., H, N, M) scores and
    broadcasts to them, as ``biased_attention`` takes it: (..., 1, N, M) is
    one bias for every head. The cache holds the kernel's, whose
    exponentiated scores and row sums stand in for the attention weights.
    """
    q = _split_heads(x_q @ attn.w_q.T, n_heads)
    k = _split_heads(x_kv @ attn.w_k.T, n_heads)
    v = _split_heads(x_kv @ attn.w_v.T, n_heads)
    ctx, kernel_cache = biased_attention(q, k, v, bias)
    ctx = _merge_heads(ctx)
    return ctx @ attn.w_o.T, (x_q, x_kv, ctx, kernel_cache, n_heads)


def multi_head_attention_backward(attn, cache, d_out, bias_grad=True):
    """Returns (weight grads dict, d_x_q, d_x_kv, d_bias), d_bias shaped like
    the forward's bias, or None without one or with ``bias_grad`` false."""
    x_q, x_kv, ctx, kernel_cache, n_heads = cache
    d_ctx = _split_heads(d_out @ attn.w_o, n_heads)
    d_q, d_k, d_v, d_bias = biased_attention_backward(kernel_cache, d_ctx, bias_grad)
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
    base = as_finite(base, "base", (1,))
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
    return attn_grads, ffn_grads, np.add.reduce(_rows(d_c1 + d_query[..., 0, :]), axis=0), d_tokens


def bucket_indices(features, n_buckets):
    """Quantize log-scaled pairwise distances into [0, n_buckets - 1]."""
    x = pairwise_distances(features)  # made the bucket positions in place
    np.log1p(x, out=x)
    x /= x.max(axis=(-2, -1), keepdims=True) + BUCKET_RATIO_EPS
    x *= n_buckets
    idx = np.floor(x, out=x).astype(np.intp)
    return np.clip(idx, 0, n_buckets - 1, out=idx)


def bucket_bias(features, table, out=None):
    """Per-head (..., H, L, L) bias looked up in the (K_b, H) table from the
    quantized distance bucket; returns (bias, idx). The bias is written one
    head at a time into a new array or ``out``, as in ``mlp_bias``."""
    idx = bucket_indices(features, table.shape[0])
    if out is None:
        out = np.empty(idx.shape[:-2] + table.shape[1:] + idx.shape[-2:])
    for h, column in enumerate(table.T):  # idx is in range: "clip" checks no bounds
        column.take(idx, out=out[..., h, :, :], mode="clip")
    return out, idx


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
    # one (..., L, L) buffer: the distances become the coordinates in place
    x = pairwise_distances(features)
    d_max = x.max(axis=(-2, -1), keepdims=True)
    np.log1p(x, out=x)
    # a frame of identical tokens (d_max = 0) is all 0 and is left so
    np.divide(x, np.log1p(d_max), out=x, where=d_max > 0.0)
    np.clip(x, 0.0, 1.0, out=x)
    x *= 2.0
    x -= 1.0
    return x


def _bias_segments(mlp, x):
    """(seg, act): each coordinate's segment of the line, which the M units'
    switch points cut into M + 1, and the (M + 1, M) 0/1 unit activity there.

    Unit m is on where w1_m x + b1_m > 0. A rising unit switches on at the
    float after its kink -b1_m / w1_m and a falling one off at it, so a
    coordinate on a kink finds the unit off (ReLU'(0) = 0); a unit with
    w1_m = 0 is the constant ReLU(b1_m) and never switches.
    """
    w1, b1 = mlp.w1[:, 0], mlp.b1
    with np.errstate(over="ignore"):  # a kink past float64 is past every coordinate too
        kink = np.divide(-b1, w1, out=np.full_like(b1, np.inf), where=w1 != 0.0)
    switch = np.where(w1 > 0.0, np.nextafter(kink, np.inf), kink)
    order = np.argsort(switch)
    before = np.where(w1 == 0.0, b1 > 0.0, w1 < 0.0)  # on left of all switch points
    act = np.empty((len(order) + 1, len(order)))
    act[:, order] = np.tri(*act.shape, -1, dtype=bool) != before[order]
    return np.searchsorted(switch[order], x, side="right"), act


def mlp_bias(features, mlp, out=None):
    """Per-head (..., H, L, L) bias from a 1 -> H ReLU MLP of the distance
    coordinate, evaluated as the piecewise-linear function it is: slope x +
    intercept, from (H, M + 1) tables for the segments of
    ``_bias_segments``, with no hidden layer. Returns (bias, cache); the
    cache is the (... * L * L, 1) coordinate column alone. The bias is a new
    array, or ``out`` when given, which may be a view such as the patch block
    of a padded bias; it is written one head at a time, so the call holds
    temporaries of one head, not of all H.
    """
    coords = mlp_bias_coords(features)
    seg, act = _bias_segments(mlp, coords)
    slope = (mlp.w2 * mlp.w1.T) @ act.T
    intercept = (mlp.w2 * mlp.b1) @ act.T + mlp.b2[:, None]
    if out is None:
        out = np.empty(coords.shape[:-2] + (len(slope),) + coords.shape[-2:])
    for h, (s, b) in enumerate(zip(slope, intercept)):
        # seg is in range, and mode="clip" skips the bounds check of "raise"
        head = np.multiply(np.take(s, seg, mode="clip"), coords, out=out[..., h, :, :])
        head += np.take(b, seg, mode="clip")
    return out, coords.reshape(-1, 1)


def mlp_bias_backward(mlp, cache, delta):
    """MLP weight grads dict given the (..., H, L, L) upstream bias gradient.

    Per segment of the cached coordinates x and head, ``bias_table_gradient``
    sums S0 = sum(d_y) and S1 = sum(x d_y); the activity table sums them over
    each unit's segments into U0 and U1, and d_w2 = w1 U1 + b1 U0,
    d_w1 = sum_h w2 U1, d_b1 = sum_h w2 U0 and d_b2 = sum S0.
    """
    x = cache.reshape(delta.shape[:-3] + (1,) + delta.shape[-2:])
    seg, act = _bias_segments(mlp, x[..., 0, :, :])
    s0 = bias_table_gradient(delta, seg, len(act))
    s1 = bias_table_gradient(delta * x, seg, len(act))
    u0, u1 = act.T @ s0, act.T @ s1  # (M, H)
    return {
        "w1": np.sum(mlp.w2.T * u1, axis=1, keepdims=True), "b1": np.sum(mlp.w2.T * u0, axis=1),
        "w2": (u1 * mlp.w1 + u0 * mlp.b1[:, None]).T, "b2": s0.sum(axis=0),
    }


def _query_blocks(q, k):
    """The row blocks of the (..., N, M) scores of q and k: ``graph._row_blocks``
    over the N query rows, each row being M entries in every leading slab. N
    = 0 is one empty block."""
    width = max(1, k.shape[-2] * math.prod(q.shape[:-2]))
    return _row_blocks(max(1, q.shape[-2]), width)[0]


def _bias_rows(bias, rows):
    """The rows ``rows`` of a bias or its gradient; all of a shared row axis."""
    return bias if bias.shape[-2] == 1 else bias[..., rows, :]


def _exp_scores(q, k, bias, rows, shift=None):
    """(e, shift): e = exp(q k^T + bias - shift) over the query rows ``rows``,
    in one new (..., rows, M) buffer, the shift being the rows' max unless
    given. The forward and the backward's rebuild both come here, so a
    rebuilt block has the bits of the forward's."""
    e = q[..., rows, :] @ k.swapaxes(-1, -2)
    if bias is not None:
        e += _bias_rows(bias, rows)
    if shift is None:
        shift = np.maximum.reduce(e, axis=-1, keepdims=True)
    e -= shift
    return np.exp(e, out=e), shift


def biased_attention(q, k, v, bias=None):
    """softmax(Q K^T / sqrt(d) + B) V over the last two axes; returns (out, cache).

    q is (..., N, d), k (..., M, d) and v (..., M, d_v); the leading (head)
    axes must be the same on all of them. The bias has as many axes as the
    (..., N, M) scores and broadcasts to them, so an axis of 1, such as a
    head axis shared by every head, is used for all its entries.

    The queries are scaled by 1/sqrt(d) before the product, and the rows are
    normalised at the output: with e = exp(scores - shift), the shift being
    each row's max, and its row sums ``total``, out = (e V) / total. The
    query rows run in the blocks of ``graph._row_blocks``: each block's
    scores are formed, biased, shifted, exponentiated, summed and multiplied
    by V into its rows of the output and row sums, then dropped, so a call
    never holds more than one block of scores.
    The cache is (q / sqrt(d), k, v, bias, kept, total): kept is the one
    block's e for a call whose scores fit one block, as that e costs nothing
    to keep, and each row's shift for a call in several blocks, from which
    the backward rebuilds each block's e.
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
    if not (np.isfinite(q).all() and np.isfinite(k).all() and np.isfinite(v).all()):
        raise ValueError("attention Q, K or V contains non-finite entries")
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        logits = q.shape[:-1] + k.shape[-2:-1]
        if bias.ndim != len(logits) or any(b not in (1, s) for b, s in zip(bias.shape, logits)):
            raise ValueError(f"bias shape {bias.shape} != logits {logits}")
    q = q / math.sqrt(q.shape[-1])
    blocks = _query_blocks(q, k)
    out, total = np.empty(q.shape[:-1] + v.shape[-1:]), np.empty(q.shape[:-1] + (1,))
    shift = None if len(blocks) == 1 else np.empty(total.shape)
    for rows in blocks:
        e, shift_rows = _exp_scores(q, k, bias, rows)
        np.matmul(e, v, out=out[..., rows, :])
        np.add.reduce(e, axis=-1, keepdims=True, out=total[..., rows, :])
        if shift is not None:
            shift[..., rows, :] = shift_rows
            del e  # before the next block's e is formed
    out /= total
    return out, (q, k, v, bias, e if shift is None else shift, total)


def biased_attention_backward(cache, d_out, bias_grad=True):
    """Returns (d_q, d_k, d_v, d_bias), each shaped like its forward input:
    d_bias is d(loss)/d(scores) summed over the axes the bias broadcast, so
    (..., 1, N, M) for a head-shared bias, or None without a bias or with
    ``bias_grad`` false.

    It runs the forward's query blocks, each block's weights p = e / total
    from the kept e of a one-block call or rebuilt by the forward's own
    operations. A block's d(scores) is written into d_bias when the bias
    shares no axis, and is otherwise one block-sized array summed into it;
    d_q is written, and d_k and d_v summed, block by block.
    """
    q, k, v, bias, kept, total = cache  # kept: the one block's e, or each row's shift
    blocks = _query_blocks(q, k)
    d_q = np.empty_like(q)
    d_k = d_v = d_bias = shared = None
    if bias is not None and bias_grad:  # shared: the axes it broadcast, over which d_bias sums
        d_bias = np.zeros(bias.shape)
        scores = q.shape[:-1] + k.shape[-2:-1]
        shared = tuple(i for i, (b, s) in enumerate(zip(bias.shape, scores)) if b < s)
    for rows in blocks:
        if len(blocks) == 1:
            p = kept / total  # the attention weights
        else:
            p, _ = _exp_scores(q, k, bias, rows, kept[..., rows, :])
            p /= total[..., rows, :]
        d_rows = d_out[..., rows, :]
        d_v_rows = p.swapaxes(-1, -2) @ d_rows
        # d(loss)/d(weights), then d(loss)/d(scores)
        d_bias_rows = None if d_bias is None else _bias_rows(d_bias, rows)
        d_s = np.matmul(d_rows, v.swapaxes(-1, -2), out=None if shared else d_bias_rows)
        softmax_backward(p, d_s, out=d_s)
        if shared:
            d_bias_rows += d_s.sum(axis=shared, keepdims=True)
        np.divide(d_s @ k, math.sqrt(q.shape[-1]), out=d_q[..., rows, :])
        d_k_rows = d_s.swapaxes(-1, -2) @ q[..., rows, :]  # q is the scaled queries
        if d_v is None:
            d_k, d_v = d_k_rows, d_v_rows
        else:
            d_k += d_k_rows
            d_v += d_v_rows
    return d_q, d_k, d_v, d_bias
