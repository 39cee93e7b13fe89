import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from degat_kit import graph
from degat_kit.graph import build_knn_graph, dump_neighbors, pairwise_distances


TAU = 1e-12  # the near-tie tolerance, relative to 1 + |K-th key|


def near_tie_top_k(key):
    """Each row's Top-K under the near-tie rule, for every K from one full
    stable sort of ``key``.

    With kth the row's K-th smallest key and tau = TAU * (1 + |kth|): every
    key below kth - tau, then the lowest-index keys within tau of kth up to
    K places. Returns a function of K that gives the chosen columns in
    stable-argsort order and each row's tau.
    """
    ranked = np.argsort(key, axis=1, kind="stable")

    def top_k(k):
        kth = np.take_along_axis(key, ranked[:, k - 1:k], axis=1)
        tau = TAU * (1.0 + np.abs(kth))
        below = key < kth - tau
        near = (key >= kth - tau) & (key <= kth + tau)
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        chosen = below | (near & (np.cumsum(near, axis=1) <= room))
        in_order = np.take_along_axis(chosen, ranked, axis=1)
        return ranked[in_order].reshape(len(key), k), tau[:, 0]

    return top_k


def exact_scores(features, metric):
    """Cosine similarities or euclidean distances computed without BLAS:
    math.fsum sums below 300 rows, an np.longdouble einsum Gram matrix from
    300 rows on."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if n < 300:
        if metric == "euclidean":
            return np.array([[math.sqrt(math.fsum((x[i] - x[j]) ** 2)) for j in range(n)]
                             for i in range(n)])
        gram = np.array([[math.fsum(x[i] * x[j]) for j in range(n)] for i in range(n)])
    else:
        xl = x.astype(np.longdouble)
        gram = np.einsum("ik,jk->ij", xl, xl)
        if metric == "euclidean":
            sq = np.diagonal(gram)  # the Gram's own diagonal: duplicates stay at 0
            return np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * gram, 0.0)).astype(np.float64)
    norms = np.sqrt(np.diagonal(gram))
    denom = norms[:, None] * norms[None, :]
    return np.where(denom == 0.0, 0.0, gram / np.where(denom == 0.0, 1.0, denom)).astype(np.float64)


def topk_oracle(score, metric):
    """The near-tie rule applied to exact_scores: a function of K that gives
    (neighbor lists, each row's tau)."""
    key = -score if metric == "cosine" else score.copy()
    np.fill_diagonal(key, np.inf)
    return near_tie_top_k(key)


def argsort_top_k(features, metric):
    """Reference selection: the near-tie rule by a full stable argsort of the
    key matrix a build scores in one block (x times its own transpose). Returns
    a function of K that gives the neighbor lists and their scores."""
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
    top_k = near_tie_top_k(key)

    def select(k):
        nb, _ = top_k(k)
        return nb, np.take_along_axis(score, nb, axis=1)

    return select


def assert_matches_oracle(g, score, oracle, label):
    """Neighbor sets equal the oracle's; similarities within tau of its scores."""
    nb, taus = oracle
    assert np.array_equal(np.sort(g.neighbors, axis=1), np.sort(nb, axis=1)), label
    rows = np.arange(len(nb))[:, None]
    assert np.all(np.abs(g.similarities - score[rows, g.neighbors]) <= taus[:, None]), label


def one_block(n):
    """A block size at which a build scores each n-row frame in one block."""
    return n * n


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
            nb, _ = topk_oracle(exact_scores(feats, metric), metric)(k)
            assert g.neighbors.tolist() == nb.tolist()

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
    def test_matches_top_k_oracle(self, n, metric, monkeypatch):
        """Neighbor sets are the near-tie rule's on exactly computed scores,
        and similarities are within tau of those scores, whether the build
        scores the frame in its default row blocks or in blocks of 7 rows."""
        default = graph._BLOCK_ENTRIES
        for name, feats in oracle_inputs(n, np.random.default_rng(n)).items():
            score = exact_scores(feats, metric)
            top_k = topk_oracle(score, metric)
            for k in (1, 5, n - 2):
                oracle = top_k(k)
                for entries in (default, 7 * n):
                    monkeypatch.setattr(graph, "_BLOCK_ENTRIES", entries)
                    g = build_knn_graph(feats, k, metric)
                    assert_matches_oracle(g, score, oracle, (name, k, entries))

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("n", [8, 64, 65, 300, 1024])
    def test_bit_identical_to_argsort(self, n, metric, monkeypatch):
        """Scored in one block, a build selects exactly what the reference
        full stable argsort selects from the same keys, bit for bit."""
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", one_block(n))
        rng = np.random.default_rng(n)
        for name, feats in oracle_inputs(n, rng).items():
            reference = argsort_top_k(feats, metric)
            for k in (1, 5, n - 2):
                g = build_knn_graph(feats, k, metric)
                nb, sims = reference(k)
                assert np.array_equal(g.neighbors, nb), (name, k)
                assert np.array_equal(g.similarities, sims), (name, k)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("n", [8, 65, 300, 1024])
    def test_stacked_frames_bit_identical_to_argsort(self, n, metric, monkeypatch):
        """Every frame of a stack gets the graph it gets alone, bit for bit,
        in the default row blocks; scored in one block, that graph is the
        reference argsort's. The stacks: the four 64-column oracle inputs as
        four frames, and the few-points input with its rows reversed."""
        inputs = oracle_inputs(n, np.random.default_rng(n))
        few = inputs.pop("few_points")
        stacks = (np.stack(list(inputs.values())), np.stack([few, few[::-1]]))
        for frames in stacks:
            for k in (1, 5, n - 2):
                g = build_knn_graph(frames, k, metric)
                assert g.neighbors.shape == g.similarities.shape == (len(frames), n, k)
                for f, feats in enumerate(frames):
                    alone = build_knn_graph(feats, k, metric)
                    assert np.array_equal(g.neighbors[f], alone.neighbors), (f, k)
                    assert np.array_equal(g.similarities[f], alone.similarities), (f, k)
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", one_block(n))
        for frames in stacks:
            references = [argsort_top_k(feats, metric) for feats in frames]
            for k in (1, 5, n - 2):
                g = build_knn_graph(frames, k, metric)
                for f, reference in enumerate(references):
                    nb, sims = reference(k)
                    assert np.array_equal(g.neighbors[f], nb), (f, k)
                    assert np.array_equal(g.similarities[f], sims), (f, k)

    def test_neighbor_sets_independent_of_blas_threads(self):
        """The oracle inputs get the same neighbor sets under 1 and under 2
        BLAS threads, set in the environment of two child processes only."""
        src = os.path.dirname(os.path.dirname(graph.__file__))
        path = [src, os.path.dirname(__file__)]
        path += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        code = (
            "import hashlib, numpy as np\n"
            "from test_graph import oracle_inputs\n"
            "from degat_kit.graph import build_knn_graph\n"
            "for n in (65, 300, 1024):\n"
            "    for name, feats in oracle_inputs(n, np.random.default_rng(n)).items():\n"
            "        for metric in ('cosine', 'euclidean'):\n"
            "            for k in (1, 9, n - 1):\n"
            "                nb = np.sort(build_knn_graph(feats, k, metric).neighbors, axis=1)\n"
            "                print(n, name, metric, k, hashlib.sha256(nb.tobytes()).hexdigest())\n"
        )
        # both children start before either is waited on: they are independent
        children = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            children.append(subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                                              stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        runs = []
        try:
            for child in children:
                out, err = child.communicate(timeout=300)
                if child.returncode:
                    raise subprocess.CalledProcessError(child.returncode, child.args, out, err)
                runs.append(out.splitlines())
        finally:
            for child in children:
                child.kill()
                child.wait()
        assert len(runs[0]) == len(runs[1]) == 90
        assert [a for a, b in zip(*runs) if a != b] == []

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_memory_bounded_by_block(self, metric):
        # the L^2 keys of one L = 4096 frame alone would be 128 MB
        x = np.random.default_rng(40).standard_normal((4096, 64))
        tracemalloc.start()
        try:
            build_knn_graph(x, 9, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_stacked_frames_exclude_self_and_check_k(self):
        frames = np.zeros((3, 5, 2))  # every key ties: only the self rule keeps i out
        g = build_knn_graph(frames, 4, "euclidean")
        for nb in g.neighbors:
            assert nb.tolist() == [[j for j in range(5) if j != i] for i in range(5)]
        assert g.neighbors.size == 3 * 5 * 4
        with pytest.raises(ValueError, match="k=5"):
            build_knn_graph(frames, 5)
        with pytest.raises(ValueError, match="2-D or 3-D"):
            build_knn_graph(np.zeros((2, 3, 5, 2)), 1)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("shape", [(9, 4), (3, 9, 4)])
    def test_tokens_validated_once(self, monkeypatch, metric, shape):
        calls = []

        def counting(*args, _check=graph.as_finite, **kwargs):  # the module's one validator
            calls.append(args[1:])
            return _check(*args, **kwargs)
        monkeypatch.setattr(graph, "as_finite", counting)
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

    @pytest.mark.parametrize("shape", [(0, 4), (2, 0, 4), (0, 0, 4), (0, 3, 4)])
    def test_empty_frames(self, shape):
        expect = shape[:-1] + shape[-2:-1]
        d = pairwise_distances(np.zeros(shape))
        assert d.shape == expect
        assert np.all(d == 0.0)

    def test_euclidean_graph_uses_the_same_values(self, monkeypatch):
        x = np.random.default_rng(31).standard_normal((12, 3))
        rows = np.arange(12)[:, None]
        full = pairwise_distances(x)
        for entries in (graph._BLOCK_ENTRIES, 5 * 12):  # one block, then blocks of 5 rows
            monkeypatch.setattr(graph, "_BLOCK_ENTRIES", entries)
            g = build_knn_graph(x, 4, "euclidean")
            d = pairwise_distances(x)
            np.testing.assert_array_equal(g.similarities, d[rows, g.neighbors])
            np.testing.assert_allclose(d, full, rtol=0, atol=1e-12)


class TestEdgeCount:
    @pytest.mark.parametrize("l,k,expect", [(196, 9, 1764), (2, 1, 2), (64, 9, 576)])
    def test_counts(self, l, k, expect):
        rng = np.random.default_rng(l)
        g = build_knn_graph(rng.standard_normal((l, 3)), k)
        assert g.neighbors.size == expect


class TestRowBlocks:
    @pytest.mark.parametrize("width", [1, 3, graph._BLOCK_ENTRIES])
    def test_rows_is_longest_block(self, width):
        step = max(1, graph._BLOCK_ENTRIES // width)
        for n in sorted({0, 1, step - 1, step, step + 1}):
            blocks, rows = graph._row_blocks(n, width)
            assert [i for b in blocks for i in range(n)[b]] == list(range(n))
            assert rows == max((len(range(n)[b]) for b in blocks), default=0)
        assert graph._row_blocks(0, width) == ((), 0)

    def test_cached_rule_follows_block_entries(self, monkeypatch):
        """The rule is cached, yet a patched ``_BLOCK_ENTRIES`` still sets the
        blocks, of ``_row_blocks`` and of a build made after it."""
        n = 40
        one = ((slice(0, graph._BLOCK_ENTRIES // n),), n)
        assert graph._row_blocks(n, n) == one  # now cached
        calls = []
        select = graph._select_top_k
        monkeypatch.setattr(graph, "_select_top_k",
                            lambda key, k: calls.append(len(key)) or select(key, k))
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 5 * n)
        blocks, rows = graph._row_blocks(n, n)
        assert (len(blocks), rows) == (8, 5)
        build_knn_graph(np.random.default_rng(8).standard_normal((2, n, 3)), 3)
        assert calls == [2 * 5] * 8  # each block's rows of both frames
        monkeypatch.undo()
        assert graph._row_blocks(n, n) == one


class TestDumpNeighbors:
    def _grid(self, rng, gh=2, gw=2, c=4):
        return rng.standard_normal((gh * gw, c)), gw

    def test_record_shape(self):
        rng = np.random.default_rng(5)
        tokens, gw = self._grid(rng, 3, 3)
        g = build_knn_graph(tokens, 4)
        rec = dump_neighbors(g, gw, 5)
        assert rec["query"] == 5
        assert len(rec["neighbors"]) == 4

    def test_2x2_full(self):
        rng = np.random.default_rng(6)
        tokens, gw = self._grid(rng)
        g = build_knn_graph(tokens, 3)
        rec = dump_neighbors(g, gw, 0)
        assert sorted(n["index"] for n in rec["neighbors"]) == [1, 2, 3]
        assert rec["coord"] == [0.25, 0.25]

    def test_scores_match_graph(self):
        rng = np.random.default_rng(7)
        tokens, gw = self._grid(rng, 4, 4)
        g = build_knn_graph(tokens, 5)
        rec = dump_neighbors(g, gw, 9)
        for entry, sim in zip(rec["neighbors"], g.similarities[9]):
            assert entry["score"] == sim

    def test_out_of_range(self):
        rng = np.random.default_rng(8)
        tokens, gw = self._grid(rng)
        g = build_knn_graph(tokens, 2)
        with pytest.raises(ValueError, match=r"query 4 out of range \[0, 4\)"):
            dump_neighbors(g, gw, 4)

    def test_coords_invariant(self):
        g = build_knn_graph(np.eye(6), 5)
        rec = dump_neighbors(g, 3, 0)
        assert rec["coord"] == [0.5 / 3, 0.25]
        assert {n["index"]: n["coord"] for n in rec["neighbors"]}[5] == [2.5 / 3, 0.75]
        assert dump_neighbors(g, 3, 5)["coord"] == [2.5 / 3, 0.75]

    @pytest.mark.parametrize("grid_w", [0, 4, 7])
    def test_width_must_divide_tokens(self, grid_w):
        g = build_knn_graph(np.eye(6), 2)
        with pytest.raises(ValueError, match=f"grid width {grid_w} does not divide token count 6"):
            dump_neighbors(g, grid_w, 0)

    def test_stacked_graph_rejected(self):
        g = build_knn_graph(np.random.default_rng(9).standard_normal((2, 6, 3)), 2)
        with pytest.raises(ValueError, match="one frame, got a stack of 2"):
            dump_neighbors(g, 3, 0)
