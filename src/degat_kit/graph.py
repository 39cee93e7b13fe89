"""Dynamic K-nearest-neighbor graphs over token features.

The graph is rebuilt from the current features on every forward pass
from the full L x L score matrix. Top-K selection avoids sorting whole
rows: a partition finds each row's K-th key, every entry at or below it
is a candidate, and rows with more candidates than places keep only the
lowest-index entries tied at the K-th key. The K survivors are then
sorted stably by key. Neighbors are ordered by descending similarity or
ascending distance, and exact ties go to the lower node index, so the
Top-K operator is deterministic; the permutation-equivariance property
relies on that rule.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix

__all__ = ["TokenGrid", "NeighborGraph", "build_knn_graph", "edge_count", "dump_neighbors"]

METRICS = ("cosine", "euclidean")


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

    @property
    def n_tokens(self):
        return self.features.shape[0]

    def coord(self, i):
        """Normalized (u, v) center of token i in [0, 1]^2."""
        row, col = divmod(int(i), self.grid_w)
        return ((col + 0.5) / self.grid_w, (row + 0.5) / self.grid_h)


@dataclass(frozen=True)
class NeighborGraph:
    """Directed Top-K neighbor lists with their similarity scores.

    ``similarities`` holds cosine similarities (non-increasing per row)
    for the cosine metric, or Euclidean distances (non-decreasing per
    row) for the euclidean metric.
    """

    neighbors: np.ndarray  # (L, K) int
    similarities: np.ndarray  # (L, K)
    metric: str = "cosine"

    @property
    def n_nodes(self):
        return self.neighbors.shape[0]

    @property
    def k(self):
        return self.neighbors.shape[1]


def _features_of(tokens):
    if isinstance(tokens, TokenGrid):
        return tokens.features
    return as_matrix(tokens, "features")


def _select_top_k(key, k):
    """The k smallest entries of each row of ``key`` in stable-argsort order
    (ascending key, ties toward the lower column), as (columns, keys).
    """
    n = key.shape[0]
    kth = np.partition(key, k - 1, axis=1)[:, k - 1]
    if not np.isfinite(kth).all():
        # finite features give inf or NaN keys off the diagonal only when
        # their distances overflow; such a row would pick itself or nothing
        raise ValueError("features too large: pairwise distances overflow float64")
    rows, cols = np.nonzero(key <= kth[:, None])  # row-major, ascending columns
    vals = key[rows, cols]
    if rows.size > n * k:
        # Rows with more candidates than places tie at the K-th key; they
        # keep every smaller key and only their lowest-index tied entries.
        counts = np.bincount(rows, minlength=n)
        over = counts > k
        at = np.flatnonzero(over[rows])  # candidates of those rows, grouped by row
        per_row = counts[over]
        first = np.cumsum(per_row) - per_row  # offset of each row's first candidate
        tied = vals[at] == kth[rows[at]]
        tied_upto = np.cumsum(tied)  # ties up to and including each candidate
        tied_before_row = tied_upto[first] - tied[first]
        tied_in_row = tied_upto[first + per_row - 1] - tied_before_row
        room = k - (per_row - tied_in_row)  # places left for tied entries
        rank = tied_upto - np.repeat(tied_before_row, per_row)  # 1-based among ties
        keep = np.ones(rows.size, dtype=bool)
        keep[at] = ~tied | (rank <= np.repeat(room, per_row))
        cols, vals = cols[keep], vals[keep]
    cols, vals = cols.reshape(n, k), vals.reshape(n, k)
    order = np.argsort(vals, axis=1, kind="stable")
    r = np.arange(n)[:, None]
    return cols[r, order], vals[r, order]


def build_knn_graph(tokens, k, metric="cosine"):
    """Select the Top-K neighbors of every node, excluding the node itself.

    Ordering is by descending similarity (cosine) or ascending distance
    (euclidean); exact ties are resolved toward the lower node index.
    """
    x = _features_of(tokens)
    n = x.shape[0]
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"k={k} must be < number of nodes {n} (self is excluded)")

    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        xn = x / safe[:, None]
        key = xn @ xn.T  # zero rows give similarity 0 with everyone
        np.negative(key, out=key)  # ascending key = descending similarity
    else:
        sq = np.sum(x * x, axis=1)
        key = sq[:, None] + sq[None, :]
        key -= 2.0 * (x @ x.T)
        np.maximum(key, 0.0, out=key)
        # select on the distance itself: sqrt can merge distinct d^2 values,
        # and those merged keys must tie exactly as they always have
        np.sqrt(key, out=key)

    np.fill_diagonal(key, np.inf)  # self always sorts last
    nb, sims = _select_top_k(key, k)
    if metric == "cosine":
        np.negative(sims, out=sims)
    return NeighborGraph(neighbors=nb, similarities=sims, metric=metric)


def edge_count(g):
    """Number of directed edges: exactly L*K."""
    return g.n_nodes * g.k


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
