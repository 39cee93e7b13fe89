"""Single-hop graph attention over a dynamic feature-space K-NN graph.

Forward: per-node attention logits over Top-K neighbors, neighbor
softmax, value aggregation, ELU, residual update. Backward is derived by
hand from the cached forward activations; gradients do not flow through
the (non-differentiable) Top-K graph topology.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import NeighborGraph, build_knn_graph
from .numerics import as_matrix, as_vector, elu, elu_grad, leaky_relu, leaky_relu_grad

__all__ = [
    "DeGatParams",
    "DeGatCache",
    "DeGatGrads",
    "init_degat_params",
    "degat_forward",
    "degat_backward",
    "pooled_prior",
    "affinity_to_log_bias",
    "dense_affinity",
]


@dataclass
class DeGatParams:
    w_proj: np.ndarray  # (C', 2C), applied to [x_i || x_j] as W_c x_i + W_n x_j
    a: np.ndarray  # (C',)
    w_val: np.ndarray  # (C, C)
    leaky_slope: float = 0.2

    def __post_init__(self):
        self.w_proj = as_matrix(self.w_proj, "w_proj")
        self.a = as_vector(self.a, "a")
        self.w_val = as_matrix(self.w_val, "w_val")
        cp, two_c = self.w_proj.shape
        if self.a.shape[0] != cp:
            raise ValueError(f"a has length {self.a.shape[0]}, expected {cp}")
        c = self.w_val.shape[0]
        if self.w_val.shape != (c, c) or two_c != 2 * c:
            raise ValueError(
                f"inconsistent shapes: w_proj {self.w_proj.shape}, w_val {self.w_val.shape}"
            )

    @property
    def dim(self):
        return self.w_val.shape[0]


def init_degat_params(c, c_proj=None, leaky_slope=0.2, rng=None):
    """Uniform init scaled by 1/sqrt(fan-in); C' defaults to C."""
    rng = np.random.default_rng(rng)
    cp = c if c_proj is None else c_proj
    s_proj = 1.0 / np.sqrt(2 * c)
    s_val = 1.0 / np.sqrt(c)
    s_a = 1.0 / np.sqrt(cp)
    return DeGatParams(
        w_proj=rng.uniform(-s_proj, s_proj, size=(cp, 2 * c)),
        a=rng.uniform(-s_a, s_a, size=cp),
        w_val=rng.uniform(-s_val, s_val, size=(c, c)),
        leaky_slope=leaky_slope,
    )


@dataclass
class DeGatCache:
    x: np.ndarray  # (L, C) input features
    graph: NeighborGraph
    z: np.ndarray  # (L, K, C') pre-LeakyReLU, W_proj [x_i || x_j]
    e: np.ndarray  # (L, K, C') post-LeakyReLU
    logits: np.ndarray  # (L, K)
    alpha: np.ndarray  # (L, K)
    values: np.ndarray  # (L, C) v_j = W_val x_j per node
    messages: np.ndarray  # (L, C) pre-ELU m_i


@dataclass
class DeGatGrads:
    d_w_proj: np.ndarray
    d_a: np.ndarray
    d_w_val: np.ndarray
    d_x: np.ndarray


def degat_forward(tokens, params, k, metric="cosine"):
    """One DeGAT hop: x_i + ELU(sum_j alpha_ij W_val x_j) over Top-K neighbors."""
    x = tokens.features if hasattr(tokens, "features") else as_matrix(tokens, "tokens")
    c = x.shape[1]
    if params.dim != c:
        raise ValueError(f"params expect C={params.dim}, tokens have C={c}")
    g = build_knn_graph(x, k, metric)
    nb = g.neighbors  # (L, K)

    # W_proj [x_i || x_j] = W_c x_i + W_n x_j: project the nodes, then gather
    w_c, w_n = params.w_proj[:, :c], params.w_proj[:, c:]
    z = (x @ w_c.T)[:, None, :] + (x @ w_n.T)[nb]  # (L, K, C')
    e = leaky_relu(z, params.leaky_slope)
    logits = e @ params.a  # (L, K)

    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    alpha = expv / expv.sum(axis=1, keepdims=True)

    values = x @ params.w_val.T  # row j is W_val x_j
    messages = np.einsum("lk,lkc->lc", alpha, values[nb])
    x_out = x + elu(messages)

    cache = DeGatCache(
        x=x, graph=g, z=z, e=e, logits=logits, alpha=alpha,
        values=values, messages=messages,
    )
    return x_out, cache


def degat_backward(cache, params, upstream):
    """Gradients of a scalar loss given d(loss)/d(x_out).

    Covers every path: residual, ELU, the alpha-weighted value sum, the
    neighbor softmax, LeakyReLU, and both halves of the projection
    (x as center, as neighbor value, and as neighbor inside z_ij).
    """
    upstream = as_matrix(upstream, "upstream")
    if upstream.shape != cache.x.shape:
        raise ValueError(
            f"upstream shape {upstream.shape} != features {cache.x.shape}"
        )
    x = cache.x
    nb = cache.graph.neighbors
    n, k = nb.shape
    c = x.shape[1]
    alpha = cache.alpha
    # (L, L*K) incidence, one column per edge (i, k) with a 1 in row nb[i, k]:
    # to_neighbor @ per-edge rows sums them into their neighbor node
    to_neighbor = sp.csc_array(
        (np.ones(n * k), nb.ravel(), np.arange(n * k + 1)), shape=(n, n * k)
    )

    d_x = upstream.copy()  # residual path
    u = upstream * elu_grad(cache.messages)  # (L, C) = dL/dm_i

    v_nb = cache.values[nb]  # (L, K, C)

    # value path: m_i = sum_j alpha_ij v_j
    d_alpha = np.einsum("lc,lkc->lk", u, v_nb)
    d_v = to_neighbor @ (alpha[:, :, None] * u[:, None, :]).reshape(n * k, c)
    d_w_val = d_v.T @ x
    d_x += d_v @ params.w_val

    # softmax over the neighbor support
    inner = np.sum(alpha * d_alpha, axis=1, keepdims=True)
    d_logits = alpha * (d_alpha - inner)  # (L, K)

    # logits l_ij = a . LeakyReLU(W_c x_i + W_n x_j)
    d_a = d_logits.ravel() @ cache.e.reshape(n * k, -1)
    d_z = d_logits[:, :, None] * params.a * leaky_relu_grad(cache.z, params.leaky_slope)
    d_center = d_z.sum(axis=1)  # (L, C'), node i as center
    d_neighbor = to_neighbor @ d_z.reshape(n * k, -1)  # (L, C'), node j as neighbor
    d_w_proj = np.hstack([d_center.T @ x, d_neighbor.T @ x])
    d_x += d_center @ params.w_proj[:, :c] + d_neighbor @ params.w_proj[:, c:]

    return DeGatGrads(d_w_proj=d_w_proj, d_a=d_a, d_w_val=d_w_val, d_x=d_x)


def pooled_prior(x_out):
    """Global geometric prior: column-wise mean of the refined tokens."""
    x_out = as_matrix(x_out, "x_out")
    if x_out.shape[0] == 0:
        raise ValueError("pooled_prior requires at least one token")
    return x_out.mean(axis=0)


def affinity_to_log_bias(cache, eps=1e-12):
    """Log-affinity attention bias: ln(max(alpha_ij, eps)) on edges, 0 off-edge."""
    if eps <= 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    n = cache.x.shape[0]
    b = np.zeros((n, n))
    rows = np.repeat(np.arange(n), cache.graph.k)
    b[rows, cache.graph.neighbors.ravel()] = np.log(
        np.maximum(cache.alpha.ravel(), eps)
    )
    return b


def dense_affinity(cache):
    """Dense L x L attention matrix with alpha on edges, 0 elsewhere."""
    n = cache.x.shape[0]
    a = np.zeros((n, n))
    rows = np.repeat(np.arange(n), cache.graph.k)
    a[rows, cache.graph.neighbors.ravel()] = cache.alpha.ravel()
    return a
