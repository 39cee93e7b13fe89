"""Single-hop graph attention over a dynamic feature-space K-NN graph.

Forward: per-node attention logits over Top-K neighbors, neighbor
softmax, value aggregation, ELU, residual update. Backward is derived by
hand from the cached forward activations; gradients do not flow through
the (non-differentiable) Top-K graph topology.

The hop takes one (L, C) frame or an (F, L, C) stack. Each frame gets its
own K-NN graph; its neighbors are then offset by f*L, so that the
projection, gather, softmax and backward run once over all F*L nodes.

The weights are the field-only ``DeGatParams``; ``degat_shapes`` gives their
shapes, which ``init_degat_params`` builds and ``numerics.check_arrays``
checks. The LeakyReLU slope is the module constant ``LEAKY_SLOPE``.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .graph import NeighborGraph, build_knn_graph
from .numerics import (
    as_finite, elu, elu_grad, fan_in_uniform, leaky_relu, leaky_relu_grad, softmax,
    softmax_backward,
)

__all__ = [
    "LEAKY_SLOPE",
    "DeGatParams",
    "degat_shapes",
    "DeGatCache",
    "DeGatGrads",
    "init_degat_params",
    "degat_forward",
    "degat_backward",
    "pooled_prior",
    "affinity_to_log_bias",
    "dense_affinity",
]


LEAKY_SLOPE = 0.2  # negative-side slope of the attention LeakyReLU


class DeGatParams(NamedTuple):
    w_proj: np.ndarray  # (C', 2C), applied to [x_i || x_j] as W_c x_i + W_n x_j
    a: np.ndarray  # (C',)
    w_val: np.ndarray  # (C, C)


def degat_shapes(c, c_proj=None):
    """Field -> shape of a ``DeGatParams`` over C channels; C' defaults to C."""
    cp = c if c_proj is None else c_proj
    return {"w_proj": (cp, 2 * c), "a": (cp,), "w_val": (c, c)}


def init_degat_params(c, c_proj=None, rng=None):
    """Uniform init scaled by 1/sqrt(fan-in); C' defaults to C."""
    rng = np.random.default_rng(rng)
    return DeGatParams(*(fan_in_uniform(rng, shape) for shape in degat_shapes(c, c_proj).values()))


@dataclass
class DeGatCache:
    x: np.ndarray  # (L, C) input features, or (F, L, C) with every field stacked alike
    graph: NeighborGraph  # neighbor indices local to their frame
    z: np.ndarray  # (..., L, K, C') pre-LeakyReLU, W_proj [x_i || x_j]
    e: np.ndarray  # (..., L, K, C') post-LeakyReLU
    alpha: np.ndarray  # (..., L, K)
    values: np.ndarray  # (..., L, C) v_j = W_val x_j per node
    messages: np.ndarray  # (..., L, C) pre-ELU m_i


@dataclass
class DeGatGrads:
    d_w_proj: np.ndarray
    d_a: np.ndarray
    d_w_val: np.ndarray
    d_x: np.ndarray


def _node_neighbors(graph):
    """Frame f's neighbor indices offset by f*L: rows of the (F*L, C) node
    matrix of all frames."""
    nb = graph.neighbors
    n, k = nb.shape[-2:]
    return nb + np.arange(0, nb.size // k, n).reshape(nb.shape[:-2] + (1, 1))


def degat_forward(tokens, params, k, metric="cosine"):
    """One DeGAT hop: x_i + ELU(sum_j alpha_ij W_val x_j) over Top-K neighbors,
    on one (L, C) frame or on each frame of an (F, L, C) stack."""
    g = build_knn_graph(tokens, k, metric)  # validates the tokens
    x = np.asarray(tokens, dtype=np.float64)
    c = x.shape[-1]
    if params.w_val.shape[0] != c:
        raise ValueError(f"params expect C={params.w_val.shape[0]}, tokens have C={c}")
    nb = _node_neighbors(g)
    xs = x.reshape(-1, c)  # the node rows of all frames

    # W_proj [x_i || x_j] = W_c x_i + W_n x_j: project the nodes, then gather
    w_c, w_n = params.w_proj[:, :c], params.w_proj[:, c:]
    z = (xs @ w_c.T).reshape(nb.shape[:-1] + (1, -1)) + (xs @ w_n.T)[nb]  # (..., L, K, C')
    e = leaky_relu(z, LEAKY_SLOPE)
    alpha = softmax(e @ params.a)  # (..., L, K)

    values = xs @ params.w_val.T  # row j is W_val x_j
    messages = np.einsum("...k,...kc->...c", alpha, values[nb])
    x_out = x + elu(messages)

    cache = DeGatCache(
        x=x, graph=g, z=z, e=e, alpha=alpha, values=values.reshape(x.shape), messages=messages,
    )
    return x_out, cache


def degat_backward(cache, params, upstream):
    """Gradients of a scalar loss given d(loss)/d(x_out), shaped like the
    forward's tokens; the weight gradients sum over the frames.

    Covers every path: residual, ELU, the alpha-weighted value sum, the
    neighbor softmax, LeakyReLU, and both halves of the projection
    (x as center, as neighbor value, and as neighbor inside z_ij).
    """
    upstream = as_finite(upstream, "upstream", (2, 3))
    if upstream.shape != cache.x.shape:
        raise ValueError(f"upstream shape {upstream.shape} != features {cache.x.shape}")
    k, c = cache.graph.neighbors.shape[-1], cache.x.shape[-1]
    nb = _node_neighbors(cache.graph).reshape(-1, k)
    n = nb.shape[0]
    x = cache.x.reshape(n, c)
    alpha = cache.alpha.reshape(n, k)
    # (F*L, F*L*K) incidence, one column per edge (i, k) with a 1 in row nb[i, k]:
    # to_neighbor @ per-edge rows sums them into their neighbor node
    to_neighbor = sp.csc_array(
        (np.ones(n * k), nb.ravel(), np.arange(n * k + 1)), shape=(n, n * k)
    )

    up = upstream.reshape(n, c)
    d_x = up.copy()  # residual path
    u = up * elu_grad(cache.messages.reshape(n, c))  # (F*L, C) = dL/dm_i

    v_nb = cache.values.reshape(n, c)[nb]  # (F*L, K, C)

    # value path: m_i = sum_j alpha_ij v_j
    d_alpha = np.einsum("lc,lkc->lk", u, v_nb)
    d_v = to_neighbor @ (alpha[:, :, None] * u[:, None, :]).reshape(n * k, c)
    d_w_val = d_v.T @ x
    d_x += d_v @ params.w_val

    d_logits = softmax_backward(alpha, d_alpha)  # (F*L, K), over the neighbor support

    # logits l_ij = a . LeakyReLU(W_c x_i + W_n x_j)
    d_a = d_logits.ravel() @ cache.e.reshape(n * k, -1)
    z = cache.z.reshape(n, k, -1)
    d_z = d_logits[:, :, None] * params.a * leaky_relu_grad(z, LEAKY_SLOPE)
    d_center = d_z.sum(axis=1)  # (F*L, C'), node i as center
    d_neighbor = to_neighbor @ d_z.reshape(n * k, -1)  # (F*L, C'), node j as neighbor
    d_w_proj = np.hstack([d_center.T @ x, d_neighbor.T @ x])
    d_x += d_center @ params.w_proj[:, :c] + d_neighbor @ params.w_proj[:, c:]

    return DeGatGrads(d_w_proj=d_w_proj, d_a=d_a, d_w_val=d_w_val, d_x=d_x.reshape(cache.x.shape))


def pooled_prior(x_out):
    """Global geometric prior: the mean of the refined (L, C) tokens of each frame."""
    x_out = as_finite(x_out, "x_out", (2, 3))
    if x_out.shape[-2] == 0:
        raise ValueError("pooled_prior requires at least one token")
    return x_out.mean(axis=-2)


def _on_edges(cache, values):
    """Zero (..., L, L) matrices holding ``values`` (..., L, K) on each frame's edges."""
    nb = cache.graph.neighbors
    out = np.zeros(nb.shape[:-1] + (nb.shape[-2],))
    np.put_along_axis(out, nb, values, axis=-1)
    return out


def affinity_to_log_bias(cache, eps=1e-12):
    """Log-affinity attention bias: ln(max(alpha_ij, eps)) on edges, 0 off-edge;
    (L, L), or (F, L, L) for a stacked hop."""
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    return _on_edges(cache, np.log(np.maximum(cache.alpha, eps)))


def dense_affinity(cache):
    """Dense L x L attention matrix with alpha on edges, 0 elsewhere, per frame."""
    return _on_edges(cache, cache.alpha)
