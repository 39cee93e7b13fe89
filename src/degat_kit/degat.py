"""Single-hop graph attention over a dynamic feature-space K-NN graph.

Forward: per-node attention logits over Top-K neighbors, neighbor
softmax, value aggregation, ELU, residual update. Backward is derived by
hand from the cached forward activations; gradients do not flow through
the (non-differentiable) Top-K graph topology.

The hop takes one (L, C) frame or an (F, L, C) stack. Each frame gets its
own K-NN graph; its neighbors are then offset by f*L, so that the
projection, gather, softmax and backward run once over all F*L nodes.

The pair terms z_ij = W_c x_i + W_n x_j and their LeakyReLU are (K, C')
per node. Both directions make them, and every other per-edge array, in
blocks of node rows under the K-NN build's block rule, ``graph._row_blocks``,
writing into three buffers that each call allocates once, sized by the
rule's longest block, so no (F*L, K, C') array is made: the
cache keeps the two (..., L, C') projections, and the backward rebuilds a
block's pairs from them. Each row's arithmetic does not depend on the
blocks, so outputs and alpha have the same bits at every block size; the
weight and input gradients are sums over the blocks, equal to
float-reordering tolerance, and a hop that fits in one block makes
exactly one incidence matrix and its two products.

The weights are the field-only ``DeGatParams``; ``degat_shapes`` gives their
shapes, which ``init_degat_params`` builds and ``numerics.check_arrays``
checks. The LeakyReLU slope is the module constant ``LEAKY_SLOPE``.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .graph import NeighborGraph, _row_blocks, build_knn_graph
from .numerics import (
    as_finite, elu, elu_grad, fan_in_uniform, leaky_relu, leaky_relu_grad, softmax,
    softmax_backward,
)

__all__ = [
    "LEAKY_SLOPE",
    "ALPHA_FLOOR",
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
ALPHA_FLOOR = 1e-12  # affinity_to_log_bias clips alpha here, so an edge's bias stays finite


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
    center: np.ndarray  # (..., L, C') W_c x_i, the center half of z_ij = W_proj [x_i || x_j]
    neighbor: np.ndarray  # (..., L, C') W_n x_j, the neighbor half
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


def _gather(a, nb, buf):
    """a[nb] for the (rows, K) node indices nb, into the front of ``buf``."""
    # the indices are in range; mode "raise" would copy the output first
    return np.take(a, nb, axis=0, out=buf[: len(nb)], mode="clip")


def _pairs(center, neighbor, nb, rows, z_buf, e_buf):
    """z = W_c x_i + W_n x_j and LeakyReLU(z), (rows, K, C'), for the node
    rows ``rows`` with neighbors nb, in the fronts of the two buffers."""
    z = _gather(neighbor, nb, z_buf)
    z += center[rows, None, :]
    return z, leaky_relu(z, LEAKY_SLOPE, out=e_buf[: len(nb)])  # the slope is read per call


def degat_forward(tokens, params, k, metric="cosine"):
    """One DeGAT hop: x_i + ELU(sum_j alpha_ij W_val x_j) over Top-K neighbors,
    on one (L, C) frame or on each frame of an (F, L, C) stack."""
    g = build_knn_graph(tokens, k, metric)  # validates the tokens
    x = np.asarray(tokens, dtype=np.float64)
    c = x.shape[-1]
    if params.w_val.shape[0] != c:
        raise ValueError(f"params expect C={params.w_val.shape[0]}, tokens have C={c}")
    nb = _node_neighbors(g).reshape(-1, k)
    xs = x.reshape(-1, c)  # the node rows of all frames
    n = xs.shape[0]

    # W_proj [x_i || x_j] = W_c x_i + W_n x_j: project the nodes once; each
    # block gathers its pairs from the projections
    center = xs @ params.w_proj[:, :c].T
    neighbor = xs @ params.w_proj[:, c:].T
    values = xs @ params.w_val.T  # row j is W_val x_j
    alpha = np.empty((n, k))
    messages = np.empty((n, c))
    cp = center.shape[1]
    # a block's (rows, K, max(C, C')) arrays hold as many entries as a key block
    blocks, longest = _row_blocks(n, k * max(c, cp))
    z_buf, e_buf, v_buf = (np.empty((longest, k, w)) for w in (cp, cp, c))
    for rows in blocks:
        nb_b = nb[rows]
        _, e = _pairs(center, neighbor, nb_b, rows, z_buf, e_buf)
        logits = np.matmul(e, params.a, out=alpha[rows])
        softmax(logits, out=logits)
        np.einsum("lk,lkc->lc", logits, _gather(values, nb_b, v_buf), out=messages[rows])
    x_out = x + elu(messages.reshape(x.shape))

    lead = x.shape[:-1]
    cache = DeGatCache(
        x=x, graph=g, center=center.reshape(lead + (-1,)), neighbor=neighbor.reshape(lead + (-1,)),
        alpha=alpha.reshape(lead + (k,)), values=values.reshape(x.shape),
        messages=messages.reshape(x.shape),
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
    values = cache.values.reshape(n, c)
    center, neighbor = cache.center.reshape(n, -1), cache.neighbor.reshape(n, -1)
    cp = center.shape[1]

    up = upstream.reshape(n, c)
    d_x = up.copy()  # residual path
    u = up * elu_grad(cache.messages.reshape(n, c))  # (F*L, C) = dL/dm_i

    d_a = np.zeros(cp)
    d_center = np.empty((n, cp))  # node i as center
    d_v, d_neighbor = np.zeros((n, c)), np.zeros((n, cp))  # node j as value, as neighbor
    blocks, longest = _row_blocks(n, k * max(c, cp))
    z_buf, e_buf, v_buf = (np.empty((longest, k, w)) for w in (cp, cp, c))
    for rows in blocks:
        nb_b, alpha_b, u_b = nb[rows], alpha[rows], u[rows]
        m = len(nb_b)
        # (F*L, m*K) incidence, one column per edge (i, k) of the block with a
        # 1 in row nb[i, k]: to_neighbor @ per-edge rows sums them into their
        # neighbor node
        to_neighbor = sp.csc_array(
            (np.ones(m * k), nb_b.ravel(), np.arange(m * k + 1)), shape=(n, m * k)
        )

        # value path: m_i = sum_j alpha_ij v_j
        v_nb = _gather(values, nb_b, v_buf)
        d_logits = np.einsum("lc,lkc->lk", u_b, v_nb)  # d(loss)/d(alpha) first
        edge_u = np.multiply(alpha_b[:, :, None], u_b[:, None, :], out=v_nb)  # alpha_ij u_i
        d_v += to_neighbor @ edge_u.reshape(m * k, c)
        softmax_backward(alpha_b, d_logits, out=d_logits)  # over the neighbor support

        # logits l_ij = a . LeakyReLU(z_ij)
        z, e = _pairs(center, neighbor, nb_b, rows, z_buf, e_buf)
        d_a += d_logits.ravel() @ e.reshape(m * k, -1)
        leaky_relu_grad(z, LEAKY_SLOPE, out=e)  # e is spent
        d_z = np.multiply(d_logits[:, :, None], params.a, out=z)  # z is spent
        d_z *= e
        np.sum(d_z, axis=1, out=d_center[rows])
        d_neighbor += to_neighbor @ d_z.reshape(m * k, -1)

    d_w_val = d_v.T @ x
    d_x += d_v @ params.w_val
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


def affinity_to_log_bias(cache):
    """Log-affinity attention bias: ln(max(alpha_ij, ALPHA_FLOOR)) on edges, 0
    off-edge; (L, L), or (F, L, L) for a stacked hop."""
    return _on_edges(cache, np.log(np.maximum(cache.alpha, ALPHA_FLOOR)))


def dense_affinity(cache):
    """Dense L x L attention matrix with alpha on edges, 0 elsewhere, per frame."""
    return _on_edges(cache, cache.alpha)
