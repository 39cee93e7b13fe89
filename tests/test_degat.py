import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from degat_kit import degat, graph
from degat_kit.degat import (
    DeGatGrads,
    DeGatParams,
    affinity_to_log_bias,
    degat_backward,
    degat_forward,
    dense_affinity,
    init_degat_params,
    pooled_prior,
)
from degat_kit.graph import build_knn_graph
from degat_kit.numerics import elu, elu_grad, leaky_relu
from degat_kit.properties import GRADIENT_CHECKS, finite_diff_error, finite_diff_grad


def slow_forward(x, params, k, metric="cosine"):
    """Scalar-loop reference: explicit edges, explicit softmax."""
    n, c = x.shape
    out = np.empty_like(x)
    dense = np.zeros((n, n))
    for i in range(n):
        scored = []
        for j in range(n):
            if j == i:
                continue
            if metric == "cosine":
                ni, nj = np.linalg.norm(x[i]), np.linalg.norm(x[j])
                s = 0.0 if ni == 0 or nj == 0 else x[i] @ x[j] / (ni * nj)
                scored.append((-s, j))
            else:
                scored.append((np.linalg.norm(x[i] - x[j]), j))
        scored.sort()
        nbrs = [j for _, j in scored[:k]]
        logits = []
        for j in nbrs:
            h = np.concatenate([x[i], x[j]])
            z = params.w_proj @ h
            e = np.where(z > 0, z, degat.LEAKY_SLOPE * z)
            logits.append(params.a @ e)
        logits = np.asarray(logits)
        w = np.exp(logits - logits.max())
        alpha = w / w.sum()
        m = np.zeros(c)
        for a_ij, j in zip(alpha, nbrs):
            dense[i, j] = a_ij
            m += a_ij * (params.w_val @ x[j])
        out[i] = x[i] + np.where(m > 0, m, np.expm1(m))
    return out, dense


def concat_hop(x, params, k, metric, upstream):
    """Forward and backward of the first vectorised hop, kept as a reference:
    the (L, K, 2C) concatenated pair tensor h, einsum contractions and
    np.add.at scatters."""
    g = build_knn_graph(x, k, metric)
    nb = g.neighbors
    c = x.shape[1]
    h = np.concatenate([np.broadcast_to(x[:, None, :], (x.shape[0], k, c)), x[nb]], axis=2)
    z = h @ params.w_proj.T
    e = leaky_relu(z, degat.LEAKY_SLOPE)
    logits = e @ params.a
    expv = np.exp(logits - logits.max(axis=1, keepdims=True))
    alpha = expv / expv.sum(axis=1, keepdims=True)
    values = x @ params.w_val.T
    messages = np.einsum("lk,lkc->lc", alpha, values[nb])
    x_out = x + elu(messages)

    d_x = upstream.copy()
    u = upstream * elu_grad(messages)
    d_alpha = np.einsum("lc,lkc->lk", u, values[nb])
    d_v = np.zeros_like(values)
    np.add.at(d_v, nb, alpha[:, :, None] * u[:, None, :])
    d_w_val = d_v.T @ x
    d_x += d_v @ params.w_val
    d_logits = alpha * (d_alpha - np.sum(alpha * d_alpha, axis=1, keepdims=True))
    d_a = np.einsum("lk,lkp->p", d_logits, e)
    d_z = d_logits[:, :, None] * params.a * np.where(z >= 0.0, 1.0, degat.LEAKY_SLOPE)
    d_w_proj = np.einsum("lkp,lkq->pq", d_z, h)
    d_h = d_z @ params.w_proj
    d_x += d_h[:, :, :c].sum(axis=1)
    np.add.at(d_x, nb, d_h[:, :, c:])
    return x_out, DeGatGrads(d_w_proj=d_w_proj, d_a=d_a, d_w_val=d_w_val, d_x=d_x)


class TestForward:
    def test_zero_weights_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 4))
        params = DeGatParams(w_proj=np.zeros((4, 8)), a=np.zeros(4), w_val=np.zeros((4, 4)))
        out, _ = degat_forward(x, params, 3)
        np.testing.assert_array_equal(out, x)

    def test_hand_example_uniform_attention(self):
        # a = 0 forces uniform alpha; W_val = I passes neighbors through.
        x = np.array([[1.0, 0.1], [2.0, 0.0], [0.0, 2.0]])
        params = DeGatParams(w_proj=np.zeros((2, 4)), a=np.zeros(2), w_val=np.eye(2))
        out, cache = degat_forward(x, params, 2)
        np.testing.assert_allclose(cache.alpha, 0.5, atol=1e-15)
        # node 0 message: 0.5*(2,0) + 0.5*(0,2) = (1,1); ELU(1)=1
        np.testing.assert_allclose(out[0], [2.0, 1.1], atol=1e-14)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_matches_scalar_reference(self, metric):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(4, 20))
            c = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            x = rng.standard_normal((n, c))
            params = init_degat_params(c, rng=trial)
            out, cache = degat_forward(x, params, k, metric)
            ref, dense = slow_forward(x, params, k, metric)
            np.testing.assert_allclose(out, ref, atol=1e-12)
            np.testing.assert_allclose(dense_affinity(cache), dense, atol=1e-13)

    def test_row_stochastic(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((12, 5))
        _, cache = degat_forward(x, init_degat_params(5, rng=2), 6)
        np.testing.assert_allclose(cache.alpha.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(cache.alpha >= 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            degat_forward(np.zeros((4, 3)), init_degat_params(5), 2)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((10, 4))
        params = init_degat_params(4, rng=3)
        out, _ = degat_forward(x, params, 4)
        perm = rng.permutation(10)
        out_p, _ = degat_forward(x[perm], params, 4)
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)


class TestBackward:
    def test_upstream_shape_check(self):
        x = np.random.default_rng(5).standard_normal((5, 3))
        params = init_degat_params(3, rng=5)
        _, cache = degat_forward(x, params, 2)
        with pytest.raises(ValueError):
            degat_backward(cache, params, np.zeros((4, 3)))

    def test_residual_only_when_zero_upstream_elsewhere(self):
        # zero weights: out = x exactly, so d_x must equal upstream
        x = np.random.default_rng(6).standard_normal((5, 3))
        params = DeGatParams(w_proj=np.zeros((3, 6)), a=np.zeros(3), w_val=np.zeros((3, 3)))
        _, cache = degat_forward(x, params, 2)
        up = np.random.default_rng(7).standard_normal((5, 3))
        grads = degat_backward(cache, params, up)
        np.testing.assert_array_equal(grads.d_x, up)
        np.testing.assert_array_equal(grads.d_a, np.zeros(3))


def hub_tokens(n, c, rng):
    """Token 0 is a hub: every other token sits at the same small offset
    from it in a spread-out direction, so each one's nearest neighbor is
    the hub and its in-degree is far above K. The last token is a far
    outlier that no token picks (in-degree 0). Tokens 1 and 2 are an exact
    duplicate pair and token n-2 is a zero row."""
    e = np.zeros(c)
    e[0] = 1.0
    q = rng.standard_normal((n, c))
    q[:, 0] = 0.0
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    x = e + 0.1 * q
    x[0] = e
    x[2] = x[1]
    x[-2] = 0.0
    x[-1] = -100.0 * e
    return x


class TestMatchesConcatReference:
    """The split projection and the sparse scatters against the concatenated
    h / einsum / np.add.at hop, to float-reordering tolerance."""

    @staticmethod
    def assert_close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("n,c,cp,k", [(6, 3, 3, 1), (24, 8, 6, 5), (300, 16, 8, 9)])
    def test_forward_and_grads(self, metric, n, c, cp, k, monkeypatch):
        monkeypatch.setattr(degat, "LEAKY_SLOPE", 0.1)  # the hop and the reference read it
        rng = np.random.default_rng(n + k)
        x = hub_tokens(n, c, rng)
        params = init_degat_params(c, c_proj=cp, rng=n)
        params.w_proj[...] *= 4.0  # peaked attention, both LeakyReLU branches
        up = rng.standard_normal((n, c))

        x_out, cache = degat_forward(x, params, k, metric)
        grads = degat_backward(cache, params, up)
        ref_out, ref = concat_hop(x, params, k, metric, up)

        in_degree = np.bincount(cache.graph.neighbors.ravel(), minlength=n)
        assert in_degree[-1] == 0 and in_degree[0] >= min(3 * k, n - 4)
        self.assert_close(x_out, ref_out)
        for name in ("d_w_proj", "d_a", "d_w_val", "d_x"):
            self.assert_close(getattr(grads, name), getattr(ref, name))


class TestStackedFrames:
    """An (F, L, C) stack against one hop per frame."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("frames", [1, 2, 4])
    def test_matches_per_frame_hops(self, metric, frames, monkeypatch):
        monkeypatch.setattr(degat, "LEAKY_SLOPE", 0.1)
        rng = np.random.default_rng(frames)
        n, c, k = 24, 8, 5
        # hub tokens, each frame scaled and shuffled: duplicate and zero rows,
        # and in-degrees far from K
        x = np.stack([rng.uniform(0.5, 2.0) * hub_tokens(n, c, rng)[rng.permutation(n)]
                      for _ in range(frames)])
        params = init_degat_params(c, c_proj=6, rng=frames)
        params.w_proj[...] *= 4.0
        up = rng.standard_normal(x.shape)

        x_out, cache = degat_forward(x, params, k, metric)
        grads = degat_backward(cache, params, up)
        hops = [degat_forward(xf, params, k, metric) for xf in x]
        runs = [degat_backward(cf, params, u) for (_, cf), u in zip(hops, up)]

        assert cache.graph.neighbors.shape == (frames, n, k)
        for got, want in [
            (x_out, [out for out, _ in hops]),
            (cache.graph.neighbors, [cf.graph.neighbors for _, cf in hops]),
            (cache.alpha, [cf.alpha for _, cf in hops]),
            (affinity_to_log_bias(cache), [affinity_to_log_bias(cf) for _, cf in hops]),
            (dense_affinity(cache), [dense_affinity(cf) for _, cf in hops]),
            (grads.d_x, [r.d_x for r in runs]),
        ]:
            np.testing.assert_array_equal(got, np.stack(want))
        for name in ("d_w_proj", "d_a", "d_w_val"):
            want = sum(getattr(r, name) for r in runs)
            assert np.max(np.abs(getattr(grads, name) - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    @pytest.mark.parametrize("rows", [None, 1, 5], ids=["one-block", "rows-1", "rows-5"])
    def test_one_frame_bits_equal_its_stack(self, metric, rows, monkeypatch):
        """An (L, C) frame, whose hop joins and offsets nothing, and the same
        frame as a (1, L, C) stack give the same bytes, in one block and in
        blocks of ``rows`` node rows."""
        monkeypatch.setattr(degat, "LEAKY_SLOPE", 0.1)
        rng = np.random.default_rng(26)
        n, c, cp, k = 23, 6, 5, 4
        x = hub_tokens(n, c, rng)[rng.permutation(n)]
        params = init_degat_params(c, c_proj=cp, rng=26)
        params.w_proj[...] *= 4.0
        up = rng.standard_normal(x.shape)
        if rows is not None:
            monkeypatch.setattr(graph, "_BLOCK_ENTRIES", rows * k * max(c, cp))
        out, cache = degat_forward(x, params, k, metric)
        grads = degat_backward(cache, params, up)
        out_s, cache_s = degat_forward(x[None], params, k, metric)
        grads_s = degat_backward(cache_s, params, up[None])
        pairs = [(out, out_s[0]), (cache.alpha, cache_s.alpha[0]),
                 (cache.graph.neighbors, cache_s.graph.neighbors[0]),
                 (cache.graph.similarities, cache_s.graph.similarities[0]),
                 (grads.d_x, grads_s.d_x[0])]
        pairs += [(getattr(grads, w), getattr(grads_s, w)) for w in ("d_w_proj", "d_a", "d_w_val")]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("frames", [None, 2])
    def test_backward_leaves_the_graph(self, frames):
        """The backward indexes with a one-frame graph's own neighbor array,
        and writes into no neighbor array, one frame or a stack."""
        rng = np.random.default_rng(27)
        x = rng.standard_normal((12, 4) if frames is None else (frames, 12, 4))
        params = init_degat_params(4, rng=27)
        _, cache = degat_forward(x, params, 3)
        before = cache.graph.neighbors.copy()
        cache.graph.neighbors.flags.writeable = False
        degat_backward(cache, params, rng.standard_normal(x.shape))
        assert cache.graph.neighbors.tobytes() == before.tobytes()

    def test_upstream_shape_check(self):
        rng = np.random.default_rng(11)
        params = init_degat_params(3, rng=11)
        _, cache = degat_forward(rng.standard_normal((2, 6, 3)), params, 2)
        for bad in ((6, 3), (1, 6, 3), (2, 6, 4), (2, 6, 3, 1)):
            with pytest.raises(ValueError):
                degat_backward(cache, params, np.zeros(bad))
        assert degat_backward(cache, params, np.zeros((2, 6, 3))).d_x.shape == (2, 6, 3)


def hop_in_blocks(monkeypatch, rows, x, params, k, metric, up):
    """Forward and backward of the hop with node-row blocks of ``rows`` rows;
    the K-NN build's blocks shrink alike."""
    c = x.shape[-1]
    width = k * max(c, params.w_proj.shape[0])
    monkeypatch.setattr(graph, "_BLOCK_ENTRIES", rows * width)
    out, cache = degat_forward(x, params, k, metric)
    return out, cache, degat_backward(cache, params, up)


class TestRowBlocks:
    """The hop over node-row blocks against the same hop in one block."""

    @pytest.mark.parametrize("metric", ["cosine", "euclidean"])
    def test_blocks_match_one_block(self, metric, monkeypatch):
        monkeypatch.setattr(degat, "LEAKY_SLOPE", 0.1)
        rng = np.random.default_rng(21)
        n, c, cp, k = 37, 6, 5, 4
        x = rng.standard_normal((2, n, c))  # 74 node rows
        params = init_degat_params(c, c_proj=cp, rng=21)
        params.w_proj[...] *= 4.0  # peaked attention, both LeakyReLU branches
        up = rng.standard_normal(x.shape)
        one = hop_in_blocks(monkeypatch, 2 * n, x, params, k, metric, up)
        for rows in (1, 2, 5):  # 74, 37 and 15 blocks, the last 5-row block cut to 4
            out, cache, grads = hop_in_blocks(monkeypatch, rows, x, params, k, metric, up)
            np.testing.assert_array_equal(cache.graph.neighbors, one[1].graph.neighbors)
            np.testing.assert_array_equal(out, one[0])
            np.testing.assert_array_equal(cache.alpha, one[1].alpha)
            np.testing.assert_array_equal(cache.messages, one[1].messages)
            for name in ("d_w_proj", "d_a", "d_w_val", "d_x"):
                got, want = getattr(grads, name), getattr(one[2], name)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name

    @pytest.mark.parametrize("slope", [0.2, 0.1, 1 / 3, 0.7, 2**-54])
    def test_backward_leaky_slope_bits(self, monkeypatch, slope):
        """With ``LEAKY_SLOPE`` monkeypatched, the backward's branch-free
        LeakyReLU' gives the bits of the two-branch factor, also on the pairs
        whose z is exactly 0 (a zero row of W_proj); ``numerics`` tests -0.0."""
        monkeypatch.setattr(degat, "LEAKY_SLOPE", slope)
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 12, 4))
        params = init_degat_params(4, c_proj=5, rng=24)
        params.w_proj[...] *= 4.0  # both LeakyReLU branches
        params.w_proj[0] = 0.0  # z = 0.0 on every pair of that channel
        up = rng.standard_normal(x.shape)
        _, cache = degat_forward(x, params, 3, "cosine")
        got = degat_backward(cache, params, up)

        def where_grad(z, slope, out):
            out[...] = np.where(z < 0.0, slope, 1.0)
            return out

        monkeypatch.setattr(degat, "leaky_relu_grad", where_grad)
        want = degat_backward(cache, params, up)
        for name in ("d_w_proj", "d_a", "d_w_val", "d_x"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    def test_finite_differences_in_blocks(self, monkeypatch):
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", 2 * 3 * 4)  # 2 of the 18 node rows
        loss, pairs = GRADIENT_CHECKS["degat"](np.random.default_rng(22), l=9, c=4, k=3, frames=2)
        assert finite_diff_error(loss, pairs) < 1e-7

    def test_peak_memory_at_1024_tokens(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((1024, 64))
        params = init_degat_params(64, rng=23)
        up = rng.standard_normal(x.shape)
        tracemalloc.start()
        try:
            degat_backward(degat_forward(x, params, 9)[1], params, up)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 4.5 MiB per whole (L, K, C') pair tensor: a hop that makes them peaks near 27 MiB
        assert peak < 16 * 2**20

    def test_cache_keeps_no_pair_tensor(self):
        rng = np.random.default_rng(24)
        f, n, c, cp, k = 2, 11, 3, 5, 7  # every size distinct
        _, cache = degat_forward(rng.standard_normal((f, n, c)),
                                 init_degat_params(c, c_proj=cp, rng=24), k)
        arrays = [v for v in vars(cache).values() if isinstance(v, np.ndarray)]
        arrays += [v for v in vars(cache.graph).values() if isinstance(v, np.ndarray)]
        assert len(arrays) == 8
        for a in arrays:
            assert not (k in a.shape and {c, cp} & set(a.shape)), a.shape


class TestDerivedQuantities:
    def test_pooled_prior_is_column_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 6.0]])
        np.testing.assert_array_equal(pooled_prior(x), [2.0, 4.0])

    def test_pooled_prior_per_frame(self):
        rng = np.random.default_rng(40)
        x0 = rng.standard_normal((5, 3))
        frames = np.stack([x0, 10.0 * x0])
        np.testing.assert_array_equal(pooled_prior(frames), [pooled_prior(f) for f in frames])
        with pytest.raises(ValueError):
            pooled_prior(np.zeros((2, 0, 3)))

    def test_pooled_prior_empty(self):
        with pytest.raises(ValueError):
            pooled_prior(np.zeros((0, 3)))

    def test_log_bias_on_and_off_edges(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 4))
        _, cache = degat_forward(x, init_degat_params(4, rng=8), 3)
        b = affinity_to_log_bias(cache)
        dense = dense_affinity(cache)
        on = dense > 0
        np.testing.assert_allclose(b[on], np.log(dense[on]), atol=1e-15)
        assert np.all(b[~on] == 0.0)

    def test_log_bias_floor(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((6, 3))
        _, cache = degat_forward(x, init_degat_params(3, rng=9), 2)
        cache.alpha[0, 0] = 0.0
        b = affinity_to_log_bias(cache)
        j = cache.graph.neighbors[0, 0]
        assert b[0, j] == pytest.approx(np.log(1e-12))

    def test_norm_bound(self):
        # per-node message is a convex combination; ELU is non-expansive
        rng = np.random.default_rng(10)
        x = rng.standard_normal((20, 6))
        params = init_degat_params(6, rng=10)
        out, cache = degat_forward(x, params, 5)
        v_norm_max = np.max(np.linalg.norm(cache.values, axis=1))
        delta = np.linalg.norm(out - x, axis=1)
        assert np.all(delta <= np.sqrt(6) * v_norm_max + 1e-9)


@st.composite
def hop_inputs(draw):
    """Features on a coarse grid, so exact ties are common, with one row
    copied onto another and one row zeroed."""
    n = draw(st.integers(3, 12))
    c = draw(st.integers(1, 4))
    x = draw(arrays(np.float64, (n, c), elements=st.integers(-4, 4).map(lambda v: v / 2.0)))
    x[draw(st.integers(0, n - 1))] = x[draw(st.integers(0, n - 1))]
    x[draw(st.integers(0, n - 1))] = 0.0
    k = draw(st.integers(1, n - 1))
    metric = draw(st.sampled_from(["cosine", "euclidean"]))
    return x, k, metric, draw(st.integers(0, 2**16))


class TestHopProperties:
    @settings(max_examples=40)
    @given(hop_inputs())
    def test_row_stochastic_and_gradients(self, inputs):
        x, k, metric, seed = inputs
        rng = np.random.default_rng(seed)
        params = init_degat_params(x.shape[1], rng=rng)
        upstream = rng.standard_normal(x.shape)
        _, cache = degat_forward(x, params, k, metric)
        assert np.all(cache.alpha >= 0.0)
        np.testing.assert_allclose(dense_affinity(cache).sum(axis=1), 1.0, atol=1e-12)

        grads = degat_backward(cache, params, upstream)
        for g in (grads.d_w_proj, grads.d_a, grads.d_w_val, grads.d_x):
            assert np.all(np.isfinite(g))

        def loss():
            out, _ = degat_forward(x, params, k, metric)
            return float(np.sum(upstream * out))

        # Top-K is piecewise constant in x and the duplicate rows sit on its
        # ties, so the finite differences are taken in the parameters
        for analytic, arr in [
            (grads.d_w_proj, params.w_proj), (grads.d_a, params.a), (grads.d_w_val, params.w_val)
        ]:
            numeric = finite_diff_grad(loss, arr, step=1e-6)
            np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)
