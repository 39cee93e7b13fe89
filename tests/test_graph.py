import math

import numpy as np
import pytest

from degat_kit import graph
from degat_kit.graph import (
    TokenGrid, build_knn_graph, dump_neighbors, edge_count, pairwise_distances,
)


def brute_force_topk(features, k, metric):
    """Full-sort oracle with the same tie rule (lower index wins)."""
    n = features.shape[0]
    nb = []
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            if metric == "cosine":
                ni = np.linalg.norm(features[i])
                nj = np.linalg.norm(features[j])
                s = 0.0 if ni == 0 or nj == 0 else float(features[i] @ features[j] / (ni * nj))
                scored.append((-s, j))
            else:
                scored.append((float(np.linalg.norm(features[i] - features[j])), j))
        scored.sort()
        nb.append([j for _, j in scored[:k]])
    return nb


def argsort_top_k(features, k, metric):
    """The first selection, kept as the reference: a full stable argsort of
    every row of the same key matrix."""
    x = np.asarray(features, dtype=np.float64)
    if metric == "cosine":
        norms = np.linalg.norm(x, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        xn = x / safe[:, None]
        score = xn @ xn.T
        key = -score
    else:
        sq = np.sum(x * x, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        np.maximum(d2, 0.0, out=d2)
        key = np.sqrt(d2)
        score = key
    np.fill_diagonal(key, np.inf)
    nb = np.argsort(key, axis=1, kind="stable")[:, :k]
    return nb, np.take_along_axis(score, nb, axis=1)


def oracle_inputs(n, rng):
    """Random rows; patch-like rows with a block of up to 128 exact
    duplicates, like the occluder bar in patch tokens, where most cosine
    rows tie at the K-th key; scattered all-zero rows; constant features;
    rows drawn from a few integer points, where a tie group at the K-th key
    follows smaller keys."""
    c = 64
    random_rows = rng.standard_normal((n, c))
    # equal mean and spread in every row: the duplicated flat rows then
    # outscore the noisy rows in cosine similarity
    noise = rng.standard_normal((n, c))
    noise -= noise.mean(axis=1, keepdims=True)
    noise /= noise.std(axis=1, keepdims=True)
    patches = 0.55 + 0.05 * noise
    start = n // 4
    patches[start:start + min(128, n // 2)] = 0.95
    zeros = random_rows.copy()
    zeros[rng.choice(n, size=max(2, n // 8), replace=False)] = 0.0
    return {
        "random": random_rows,
        "duplicate_block": patches,
        "zero_rows": zeros,
        "constant": np.full((n, c), 0.95),
        "few_points": rng.integers(0, 3, size=(n, 3)).astype(np.float64),
    }


class TestBuildKnnGraph:
    def test_three_token_tie_break(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [1.0 / math.sqrt(2)] * 2])
        g = build_knn_graph(feats, 1, "cosine")
        # node 2 ties between 0 and 1 at 1/sqrt(2); lower index wins
        assert g.neighbors[:, 0].tolist() == [2, 2, 0]
        assert g.similarities[2, 0] == pytest.approx(1.0 / math.sqrt(2), abs=1e-12)

    def test_full_neighborhood(self):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((6, 3))
        g = build_knn_graph(feats, 5, "cosine")
        for i in range(6):
            assert sorted(g.neighbors[i].tolist()) == sorted(set(range(6)) - {i})

    def test_identical_rows_euclidean(self):
        feats = np.array([[1.0, 2.0], [1.0, 2.0], [9.0, 9.0]])
        g = build_knn_graph(feats, 1, "euclidean")
        assert g.neighbors[0, 0] == 1
        assert g.neighbors[1, 0] == 0
        assert g.similarities[0, 0] == 0.0

    def test_k_bounds(self):
        feats = np.zeros((4, 2))
        with pytest.raises(ValueError):
            build_knn_graph(feats, 0)
        with pytest.raises(ValueError):
            build_knn_graph(feats, 4)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_matches_brute_force(self, metric):
        rng = np.random.default_rng(1)
        for _ in range(25):
            n = int(rng.integers(4, 65))
            c = int(rng.integers(2, 17))
            k = int(rng.integers(1, n))
            feats = rng.standard_normal((n, c))
            g = build_knn_graph(feats, k, metric)
            assert g.neighbors.tolist() == brute_force_topk(feats, k, metric)

    def test_self_exclusion(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((20, 4))
        g = build_knn_graph(feats, 7)
        for i in range(20):
            assert i not in g.neighbors[i]

    def test_similarity_ordering(self):
        rng = np.random.default_rng(3)
        feats = rng.standard_normal((15, 5))
        gc = build_knn_graph(feats, 6, "cosine")
        assert np.all(np.diff(gc.similarities, axis=1) <= 1e-15)
        ge = build_knn_graph(feats, 6, "euclidean")
        assert np.all(np.diff(ge.similarities, axis=1) >= -1e-15)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((12, 6))
        g = build_knn_graph(feats, 4)
        perm = rng.permutation(12)
        g2 = build_knn_graph(feats[perm], 4)
        inv = np.argsort(perm)
        for i in range(12):
            assert set(g2.neighbors[inv[i]].tolist()) == {
                int(inv[j]) for j in g.neighbors[i]
            }

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("n", [8, 64, 65, 300, 1024])
    def test_bit_identical_to_argsort(self, n, metric):
        rng = np.random.default_rng(n)
        for name, feats in oracle_inputs(n, rng).items():
            for k in (1, 5, n - 2):
                g = build_knn_graph(feats, k, metric)
                nb, sims = argsort_top_k(feats, k, metric)
                assert np.array_equal(g.neighbors, nb), (name, k)
                assert np.array_equal(g.similarities, sims), (name, k)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("n", [8, 65, 300, 1024])
    def test_stacked_frames_bit_identical_to_argsort(self, n, metric):
        """Every frame of a stack gets the graph it gets alone: the four
        64-column oracle inputs stacked as four frames, and the few-points
        input stacked with its rows reversed."""
        inputs = oracle_inputs(n, np.random.default_rng(n))
        few = inputs.pop("few_points")
        for frames in (np.stack(list(inputs.values())), np.stack([few, few[::-1]])):
            for k in (1, 5, n - 2):
                g = build_knn_graph(frames, k, metric)
                assert g.neighbors.shape == g.similarities.shape == (len(frames), n, k)
                for f, feats in enumerate(frames):
                    nb, sims = argsort_top_k(feats, k, metric)
                    assert np.array_equal(g.neighbors[f], nb), (f, k)
                    assert np.array_equal(g.similarities[f], sims), (f, k)

    def test_stacked_frames_exclude_self_and_check_k(self):
        frames = np.zeros((3, 5, 2))  # every key ties: only the self rule keeps i out
        g = build_knn_graph(frames, 4, "euclidean")
        for nb in g.neighbors:
            assert nb.tolist() == [[j for j in range(5) if j != i] for i in range(5)]
        assert edge_count(g) == 3 * 5 * 4
        with pytest.raises(ValueError, match="k=5"):
            build_knn_graph(frames, 5)
        with pytest.raises(ValueError, match="2-D or 3-D"):
            build_knn_graph(np.zeros((2, 3, 5, 2)), 1)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("shape", [(9, 4), (3, 9, 4)])
    def test_tokens_validated_once(self, monkeypatch, metric, shape):
        calls = []
        for name in ("as_finite", "as_matrix"):
            def counting(*args, _check=getattr(graph, name), **kwargs):
                calls.append(name)
                return _check(*args, **kwargs)
            monkeypatch.setattr(graph, name, counting)
        build_knn_graph(np.random.default_rng(0).standard_normal(shape), 3, metric)
        assert len(calls) == 1, calls

    def test_duplicate_block_exercises_tie_path(self):
        # in the oracle input above, most cosine rows have more entries
        # tied at the K-th key than places left
        feats = oracle_inputs(1024, np.random.default_rng(1024))["duplicate_block"]
        xn = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        key = -(xn @ xn.T)
        np.fill_diagonal(key, np.inf)
        kth = np.partition(key, 8, axis=1)[:, 8:9]
        assert np.mean(np.count_nonzero(key <= kth, axis=1) > 9) > 0.9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_distances_rejected(self):
        # squared norms overflow to inf: the keys turn inf or NaN, and a row
        # would otherwise select itself
        feats = np.array([[1e200, 0.0], [0.0, 1e200], [1e200, 1e200], [1.0, 1.0]])
        with pytest.raises(ValueError, match="overflow"):
            build_knn_graph(feats, 1, "euclidean")
        build_knn_graph(feats, 1, "cosine")

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            build_knn_graph(np.zeros((3, 2)), 1, "manhattan")


class TestPairwiseDistances:
    def test_hand_value(self):
        d = pairwise_distances([[1.0, 1.0], [4.0, 5.0], [1.0, 1.0]])
        np.testing.assert_array_equal(d, [[0.0, 5.0, 0.0], [5.0, 0.0, 5.0], [0.0, 5.0, 0.0]])

    def test_matches_norm_with_zero_diagonal(self):
        x = np.random.default_rng(30).standard_normal((9, 4)) * 3.0
        d = pairwise_distances(x)
        assert np.all(np.diag(d) == 0.0)
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_allclose(
            d, np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2), rtol=0, atol=1e-12
        )

    def test_frame_axis_matches_per_frame_calls(self):
        rng = np.random.default_rng(32)
        x0 = rng.standard_normal((7, 3))
        frames = np.stack([x0, 10.0 * x0, rng.standard_normal((7, 3))])
        d = pairwise_distances(frames)
        np.testing.assert_array_equal(d, np.stack([pairwise_distances(f) for f in frames]))
        assert np.all(np.diagonal(d, axis1=1, axis2=2) == 0.0)
        with pytest.raises(ValueError, match="2-D or 3-D"):
            pairwise_distances(np.zeros(3))

    def test_euclidean_graph_uses_the_same_values(self):
        x = np.random.default_rng(31).standard_normal((12, 3))
        g = build_knn_graph(x, 4, "euclidean")
        rows = np.arange(12)[:, None]
        np.testing.assert_array_equal(g.similarities, pairwise_distances(x)[rows, g.neighbors])


class TestEdgeCount:
    @pytest.mark.parametrize("l,k,expect", [(196, 9, 1764), (2, 1, 2), (64, 9, 576)])
    def test_counts(self, l, k, expect):
        rng = np.random.default_rng(l)
        g = build_knn_graph(rng.standard_normal((l, 3)), k)
        assert edge_count(g) == expect


class TestDumpNeighbors:
    def _grid(self, rng, gh=2, gw=2, c=4):
        return TokenGrid(features=rng.standard_normal((gh * gw, c)), grid_h=gh, grid_w=gw)

    def test_record_shape(self):
        rng = np.random.default_rng(5)
        tokens = self._grid(rng, 3, 3)
        g = build_knn_graph(tokens, 4)
        rec = dump_neighbors(g, tokens, 5)
        assert rec["query"] == 5
        assert len(rec["neighbors"]) == 4

    def test_2x2_full(self):
        rng = np.random.default_rng(6)
        tokens = self._grid(rng)
        g = build_knn_graph(tokens, 3)
        rec = dump_neighbors(g, tokens, 0)
        assert sorted(n["index"] for n in rec["neighbors"]) == [1, 2, 3]
        assert rec["coord"] == [0.25, 0.25]

    def test_scores_match_graph(self):
        rng = np.random.default_rng(7)
        tokens = self._grid(rng, 4, 4)
        g = build_knn_graph(tokens, 5)
        rec = dump_neighbors(g, tokens, 9)
        for entry, sim in zip(rec["neighbors"], g.similarities[9]):
            assert entry["score"] == sim

    def test_out_of_range(self):
        rng = np.random.default_rng(8)
        tokens = self._grid(rng)
        g = build_knn_graph(tokens, 2)
        with pytest.raises(ValueError):
            dump_neighbors(g, tokens, 4)

    def test_coords_invariant(self):
        tokens = TokenGrid(features=np.eye(6), grid_h=2, grid_w=3)
        assert tokens.coord(0) == (0.5 / 3, 0.25)
        assert tokens.coord(5) == (2.5 / 3, 0.75)
