"""Dynamic K-nearest-neighbor graphs over token features.

The graph is rebuilt from the current features on every forward pass; an
(F, L, C) stack gives every frame its own graph in one batched build.
Each frame is scored in blocks of rows, and a block's Top-K is selected
while its scores are in cache, so a build never holds an L x L score
matrix. A block's scores are one matrix product, a gemm; a frame that
fits in one block is scored as x times its own transpose, a syrk.

Selection avoids sorting whole rows. A partition finds each row's K-th
key kth, and the near-tie rule picks the K survivors: with
tau = 1e-12 * (1 + |kth|), every key below kth - tau is kept, and the
keys within tau of kth fill the remaining places, lowest node index
first. The survivors are then sorted stably by key, so neighbors are
ordered by descending similarity or ascending distance. Exact ties go to
the lower node index, and so do keys that differ only in the last bits,
which BLAS kernels, thread counts and block shapes round differently.
Cosine sets therefore do not depend on any of them, and neither do
euclidean sets, except among rows that are near-duplicates but not exact
ones: there the euclidean key's cancellation error, about sqrt(eps)
times the row norm, exceeds tau (ROADMAP item 2). The order within a
set and the last bits of the scores may differ. The Top-K operator is
deterministic on one machine; the permutation-equivariance property
relies on that rule.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import as_finite, as_matrix

__all__ = [
    "TokenGrid", "NeighborGraph", "pairwise_distances", "build_knn_graph", "edge_count",
    "dump_neighbors",
]

METRICS = ("cosine", "euclidean")
# entries in one row block of every blocked loop (the K-NN build, the DeGAT
# hop, the bias MLP): 1 MB of float64, 128 key rows at L = 1024 or 4096 bias
# pairs at hidden = 32; a block stays in cache from its product on, and a
# loop holds O(block) entries instead of the whole (rows, width) array
_BLOCK_ENTRIES = 1 << 17
# near-tie tolerance relative to 1 + |K-th key|, some 1e4 times the last-bit
# differences (~1e-16) between BLAS kernels' roundings of one dot product
_TIE_RTOL = 1e-12


@dataclass(frozen=True)
class TokenGrid:
    """Per-frame patch tokens plus their normalized grid coordinates."""

    features: np.ndarray  # (L, C)
    grid_h: int
    grid_w: int

    def __post_init__(self):
        feats = as_matrix(self.features, "features")
        object.__setattr__(self, "features", feats)
        if self.grid_h * self.grid_w != feats.shape[0]:
            raise ValueError(
                f"token count {feats.shape[0]} != grid {self.grid_h}x{self.grid_w}"
            )

    def coord(self, i):
        """Normalized (u, v) center of token i in [0, 1]^2."""
        row, col = divmod(int(i), self.grid_w)
        return ((col + 0.5) / self.grid_w, (row + 0.5) / self.grid_h)


@dataclass(frozen=True)
class NeighborGraph:
    """Directed Top-K neighbor lists with their similarity scores.

    ``similarities`` holds cosine similarities (non-increasing per row)
    for the cosine metric, or Euclidean distances (non-decreasing per
    row) for the euclidean metric. A stacked build keeps a leading frame
    axis, and its indices are local to their frame.
    """

    neighbors: np.ndarray  # (L, K) or (F, L, K) int
    similarities: np.ndarray  # same shape as neighbors
    metric: str = "cosine"

    @property
    def n_nodes(self):
        return self.neighbors.shape[-2]  # per frame


def pairwise_distances(tokens):
    """(..., L, L) Euclidean distances between feature rows, with a zero diagonal.

    Computed as sqrt(max(|x_i|^2 + |x_j|^2 - 2 x_i . x_j, 0)) for each
    (L, C) frame of ``tokens``, in the row blocks of the euclidean K-NN
    build, so the bias generators and the graph share these exact values.
    """
    x = as_finite(tokens, "features", (2, 3))
    n = x.shape[-2]
    if n == 0:
        return np.empty(x.shape[:-1] + (0,))
    sq = np.add.reduce(x * x, axis=-1)
    d = np.empty(x.shape[:-1] + (n,))
    for rows in _row_blocks(n, n):
        _distance_rows(x, sq, rows, out=d[..., rows, :])
    d.reshape(-1, n * n)[:, :: n + 1] = 0.0
    return d


def _row_blocks(n, width):
    """Slices of _BLOCK_ENTRIES // width rows (at least one) covering n
    rows of ``width`` entries each; the last may reach past n.

    The one block rule of the package. A K-NN build's rows are a frame's n
    keys. There, a block of every row, x[..., 0:n, :], is a view with the
    data and strides of x, so its product with x's transpose is the syrk
    that x @ x.swapaxes(-1, -2) makes; a smaller block's product is a gemm.
    The DeGAT hop blocks its node rows of (K, C') pair terms, and the bias
    MLP its pair rows of hidden activations, by the same rule.
    """
    step = max(1, _BLOCK_ENTRIES // width)
    return [slice(s, s + step) for s in range(0, n, step)]


def _distance_rows(x, sq, rows, out=None):
    """Euclidean distances of the rows ``rows`` of each frame to all its rows,
    given the squared row norms ``sq``, diagonal left as computed."""
    d = np.add(sq[..., rows, None], sq[..., None, :], out=out)
    d -= 2.0 * (x[..., rows, :] @ x.swapaxes(-1, -2))
    np.maximum(d, 0.0, out=d)
    np.sqrt(d, out=d)
    return d


def _select_top_k(key, k):
    """The k smallest entries of each row of ``key`` under the near-tie rule,
    as (columns, keys) sorted stably by key.

    With kth the row's k-th smallest key and tau = 1e-12 * (1 + |kth|), a
    key below kth - tau is always kept, and the keys within tau of kth fill
    the remaining places, lowest column first. Exact ties thus go to the
    lower column, and so do keys that differ from kth only in the last bits,
    which BLAS kernels, thread counts and block shapes round differently:
    the chosen columns do not depend on them, as long as the keys' rounding
    errors stay below tau. Euclidean keys between near-duplicate rows err
    by far more (ROADMAP item 2).
    """
    n_rows, n = key.shape
    kth = np.partition(key, k - 1, axis=1)[:, k - 1]
    if not np.isfinite(kth).all():
        # finite features give inf or NaN keys off the diagonal only when
        # their distances overflow; such a row would pick itself or nothing
        raise ValueError("features too large: pairwise distances overflow float64")
    tau = _TIE_RTOL * (1.0 + np.abs(kth))
    at = (key <= (kth + tau)[:, None]).ravel().nonzero()[0]  # row-major, ascending columns
    vals = key.ravel()[at]
    if at.size > n_rows * k:
        # Some rows have more candidates than places: ties near the K-th key.
        # Every row keeps its keys below kth - tau and as many of its ties,
        # lowest index first, as fill its K places (a row with exactly K
        # candidates keeps them all).
        rows = at // n  # candidates are grouped by row, ascending columns
        counts = np.bincount(rows, minlength=n_rows)
        first = np.cumsum(counts) - counts  # offset of each row's first candidate
        tied = vals >= (kth - tau)[rows]
        tied_upto = np.cumsum(tied)  # ties up to and including each candidate
        tied_before_row = tied_upto[first] - tied[first]
        tied_in_row = tied_upto[first + counts - 1] - tied_before_row
        room = k - (counts - tied_in_row)  # places left for tied entries
        rank = tied_upto - tied_before_row[rows]  # 1-based among the row's ties
        keep = ~tied | (rank <= room[rows])
        at, vals = at[keep], vals[keep]
    order = np.argsort(vals.reshape(n_rows, k), axis=1, kind="stable")
    order += np.arange(0, n_rows * k, k)[:, None]  # positions in the flat candidates
    return at[order] % n, vals[order]


def build_knn_graph(tokens, k, metric="cosine"):
    """Select the Top-K neighbors of every node, excluding the node itself,
    within each (L, C) frame of ``tokens``.

    Ordering is by descending similarity (cosine) or ascending distance
    (euclidean); ties, exact or within the near-tie tolerance of the K-th
    score, are resolved toward the lower node index.
    """
    x = tokens.features if isinstance(tokens, TokenGrid) else as_finite(tokens, "features", (2, 3))
    n = x.shape[-2]
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"k={k} must be < number of nodes {n} (self is excluded)")

    sq = np.add.reduce(x * x, axis=-1)  # np.sum's reduction, without its wrapper
    if metric == "cosine":
        norms = np.sqrt(sq)  # the bits of np.linalg.norm(x, axis=-1)
        norms[norms == 0.0] = 1.0
        x = x / norms[..., None]  # zero rows give similarity 0 with everyone
    parts = []
    for rows in _row_blocks(n, n):
        if metric == "cosine":
            key = x[..., rows, :] @ x.swapaxes(-1, -2)
            np.negative(key, out=key)  # ascending key = descending similarity
        else:
            # select on the distance itself: sqrt can merge distinct d^2
            # values, and those merged keys must tie exactly as they always have
            key = _distance_rows(x, sq, rows)
        key.reshape(-1, key.shape[-2] * n)[:, rows.start :: n + 1] = np.inf  # self sorts last
        parts.append(_select_top_k(key.reshape(-1, n), k))  # every frame's rows at once
    cols, vals = zip(*parts)
    shape = x.shape[:-1] + (k,)
    nb, sims = _join_blocks(cols, shape), _join_blocks(vals, shape)
    if metric == "cosine":
        np.negative(sims, out=sims)
    return NeighborGraph(nb, sims, metric)


def _join_blocks(blocks, shape):
    """The (..., L, K) result from its row blocks, each (F * rows, K)."""
    if len(blocks) == 1:
        return blocks[0].reshape(shape)
    return np.concatenate([b.reshape(shape[:-2] + (-1, shape[-1])) for b in blocks], axis=-2)


def edge_count(g):
    """Number of directed edges: exactly L*K per frame."""
    return g.neighbors.size


def dump_neighbors(g, tokens, query):
    """JSON-serializable record of one node's neighborhood.

    Coordinates are the normalized patch-grid centers; scores are taken
    verbatim from the graph.
    """
    if not isinstance(tokens, TokenGrid):
        raise TypeError("dump_neighbors requires a TokenGrid")
    if not 0 <= query < g.n_nodes:
        raise ValueError(f"query {query} out of range [0, {g.n_nodes})")
    return {
        "query": int(query),
        "coord": list(tokens.coord(query)),
        "neighbors": [
            {
                "index": int(j),
                "coord": list(tokens.coord(int(j))),
                "score": float(s),
            }
            for j, s in zip(g.neighbors[query], g.similarities[query])
        ],
    }
