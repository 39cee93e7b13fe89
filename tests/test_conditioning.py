import tracemalloc

import numpy as np
import pytest

from degat_kit import graph
from degat_kit.conditioning import (
    Mlp2,
    bias_table_gradient,
    biased_attention,
    biased_attention_backward,
    bucket_bias,
    bucket_indices,
    condition_additive,
    condition_additive_backward,
    condition_cross_attention,
    condition_cross_attention_backward,
    condition_film,
    condition_film_backward,
    init_cross_attn,
    init_mlp2,
    mlp2_backward,
    mlp2_forward,
    mlp2_shapes,
    mlp_bias,
    mlp_bias_backward,
    mlp_bias_coords,
    multi_head_attention,
    multi_head_attention_backward,
)
from degat_kit.numerics import check_arrays
from degat_kit.properties import finite_diff_grad

# the bias MLP's row blocks, as _BLOCK_ENTRIES for the tests' 4-wide hidden
# layer: the default (one block for every small test) and 7 rows, under which
# a 25-pair frame spans four blocks
BIAS_BLOCKS = (graph._BLOCK_ENTRIES, 7 * 4)


def assert_blocks_agree(runs):
    """Bit-identical biases and gradients within 1e-13 * max|g| across blocks."""
    (bias, grads), *others = runs
    for other_bias, other_grads in others:
        np.testing.assert_array_equal(other_bias, bias)
        for name, g in grads.items():
            np.testing.assert_allclose(other_grads[name], g, rtol=0.0,
                                       atol=1e-13 * np.max(np.abs(g)))


class TestMlp2:
    def test_gelu_value(self):
        mlp = init_mlp2(1, 1, 1, rng=1)._replace(w1=np.array([[1.0]]), w2=np.array([[1.0]]))
        y, _ = mlp2_forward(mlp, np.array([1.0]))
        # exact GELU(1) = 0.5 * (1 + erf(1/sqrt(2)))
        assert y[0] == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_zero_final_is_zero_map(self):
        mlp = init_mlp2(3, 5, 2, rng=2, zero_final=True)
        y, _ = mlp2_forward(mlp, np.array([1.0, -2.0, 0.5]))
        np.testing.assert_array_equal(y, np.zeros(2))

    def test_batched_matches_rows(self):
        mlp = init_mlp2(4, 6, 3, rng=3)
        x = np.random.default_rng(3).standard_normal((5, 4))
        y, _ = mlp2_forward(mlp, x)
        for i in range(5):
            yi, _ = mlp2_forward(mlp, x[i])
            np.testing.assert_allclose(y[i], yi, atol=1e-14)

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(4)
        mlp = init_mlp2(3, 4, 2, rng=4)
        x = rng.standard_normal(3) + 0.1
        w = rng.standard_normal(2)
        _, cache = mlp2_forward(mlp, x)
        grads, d_x = mlp2_backward(mlp, cache, w)

        def loss():
            y, _ = mlp2_forward(mlp, x)
            return float(w @ y)

        for analytic, arr in [
            (grads["w1"], mlp.w1), (grads["b1"], mlp.b1),
            (grads["w2"], mlp.w2), (grads["b2"], mlp.b2), (d_x, x),
        ]:
            numeric = finite_diff_grad(loss, arr, step=1e-6)
            assert np.max(np.abs(analytic - numeric)) < 1e-7


class TestTokenConditioning:
    def test_additive_identity_at_init(self):
        mlp = init_mlp2(4, 8, 4, rng=5, zero_final=True)
        base = np.random.default_rng(5).standard_normal(4)
        tok, _ = condition_additive(base, np.ones(4), mlp)
        np.testing.assert_array_equal(tok, base)

    def test_additive_hand_value(self):
        # the conditioning MLPs are GELU, and GELU(10) = 10 in float64
        mlp = init_mlp2(1, 1, 2, rng=6)._replace(w1=np.array([[1.0]]), w2=np.array([[1.0], [2.0]]))
        tok, _ = condition_additive(np.array([10.0, 20.0]), np.array([10.0]), mlp)
        np.testing.assert_allclose(tok, [20.0, 40.0])

    def test_film_identity_at_init(self):
        mlp = init_mlp2(4, 8, 6, rng=7, zero_final=True)
        base = np.random.default_rng(7).standard_normal(3)
        tok, _ = condition_film(base, np.ones(4), mlp)
        np.testing.assert_array_equal(tok, base)

    def test_film_scale_and_shift(self):
        mlp = init_mlp2(1, 1, 4, rng=8)._replace(
            w1=np.array([[1.0]]), w2=np.array([[1.0], [0.0], [0.0], [5.0]])
        )  # gamma=(g,0), beta=(0,5g) with GELU(g) = g at g = 10
        tok, _ = condition_film(np.array([2.0, 3.0]), np.array([10.0]), mlp)
        np.testing.assert_allclose(tok, [22.0, 53.0])

    def test_film_requires_even_output(self):
        mlp = init_mlp2(2, 3, 3, rng=9)
        with pytest.raises(ValueError):
            condition_film(np.zeros(2), np.zeros(2), mlp)

    def test_cross_attention_identity_at_init(self):
        attn = init_cross_attn(8, rng=10, zero_output=True)
        ffn = init_mlp2(8, 16, 8, rng=10, zero_final=True)
        rng = np.random.default_rng(10)
        base = rng.standard_normal(8)
        tokens = rng.standard_normal((5, 8))
        tok, _ = condition_cross_attention(base, tokens, attn, ffn, 2)
        np.testing.assert_array_equal(tok, base)

class TestBucketBias:
    def test_indices_range_and_diagonal(self):
        rng = np.random.default_rng(14)
        feats = rng.standard_normal((10, 4))
        idx = bucket_indices(feats, 8)
        assert idx.min() >= 0 and idx.max() <= 7
        assert np.all(np.diag(idx) == 0)
        assert np.array_equal(idx, idx.T)

    def test_two_point_extremes(self):
        feats = np.array([[0.0, 0.0], [3.0, 4.0]])
        idx = bucket_indices(feats, 8)
        # max-distance pair lands just below ratio 1 -> bucket 7
        assert idx[0, 1] == 7
        assert idx[0, 0] == 0

    def test_lookup_matches_table(self):
        rng = np.random.default_rng(15)
        feats = rng.standard_normal((6, 3))
        table = rng.standard_normal((8, 2))
        bias, idx = bucket_bias(feats, table)
        assert bias.shape == (2, 6, 6)
        for h in range(2):
            np.testing.assert_array_equal(bias[h], table[idx, h])

    def test_gradient_sums_per_bucket(self):
        idx = np.array([[0, 1], [1, 0]])
        delta = np.array([[[1.0, 2.0], [3.0, 4.0]]])  # one head
        grad = bias_table_gradient(delta, idx, 3)
        np.testing.assert_array_equal(grad[:, 0], [5.0, 5.0, 0.0])

class TestMlpBias:
    def test_coords_range_and_degenerate(self):
        rng = np.random.default_rng(17)
        x = mlp_bias_coords(rng.standard_normal((8, 3)))
        assert x.min() >= -1.0 and x.max() <= 1.0
        assert np.all(np.diag(x) == -1.0)
        # identical tokens: d_max = 0 convention gives coordinate -1 everywhere
        np.testing.assert_array_equal(mlp_bias_coords(np.ones((4, 2))), -np.ones((4, 4)))
        # ... also for one frame of identical tokens next to a frame that is not
        frames = np.stack([np.ones((4, 2)), rng.standard_normal((4, 2))])
        x = mlp_bias_coords(frames)
        np.testing.assert_array_equal(x[0], -np.ones((4, 4)))
        np.testing.assert_array_equal(x[1], mlp_bias_coords(frames[1]))

    def test_hand_relu_values(self):
        # two tokens: coordinate +1 off the diagonal and -1 on it
        mlp = Mlp2(w1=np.array([[1.0], [-1.0]]), b1=np.array([0.0, 0.0]),
                   w2=np.array([[2.0, 3.0]]), b2=np.array([0.5]))
        bias, _ = mlp_bias(np.array([[0.0, 0.0], [3.0, 4.0]]), mlp)
        # 2*relu(1) + 3*relu(-1) + 0.5 off the diagonal, 2*relu(-1) + 3*relu(1) + 0.5 on it
        np.testing.assert_array_equal(bias, [[[3.5, 2.5], [2.5, 3.5]]])

    def test_zero_final_gives_zero_bias(self):
        mlp = init_mlp2(1, 4, 3, rng=18, zero_final=True)
        bias, _ = mlp_bias(np.random.default_rng(18).standard_normal((5, 2)), mlp)
        np.testing.assert_array_equal(bias, np.zeros((3, 5, 5)))

    def test_backward_fd(self, monkeypatch):
        rng = np.random.default_rng(19)
        feats = rng.standard_normal((5, 3))
        mlp = init_mlp2(1, 4, 2, rng=19)
        w = rng.standard_normal((2, 5, 5))

        def loss():
            b, _ = mlp_bias(feats, mlp)
            return float(np.sum(w * b))

        runs = []
        for block in BIAS_BLOCKS:
            monkeypatch.setattr(graph, "_BLOCK_ENTRIES", block)
            bias, cache = mlp_bias(feats, mlp)
            grads = mlp_bias_backward(mlp, cache, w)
            runs.append((bias, grads))
            for analytic, arr in [
                (grads["w1"], mlp.w1), (grads["b1"], mlp.b1),
                (grads["w2"], mlp.w2), (grads["b2"], mlp.b2),
            ]:
                numeric = finite_diff_grad(loss, arr, step=1e-6)
                np.testing.assert_allclose(analytic, numeric, atol=1e-7)
        assert_blocks_agree(runs)

    def test_memory_bounded_by_block(self):
        # eval size: two frames of L = 256 are 131072 pairs; one (pairs, 32)
        # activation is 33.5 MB, the coordinate column 1.0 MB
        rng = np.random.default_rng(34)
        feats = rng.standard_normal((2, 256, 32))
        mlp = init_mlp2(1, 32, 4, rng=34)
        delta = rng.standard_normal((2, 4, 256, 256))
        tracemalloc.start()
        try:
            _, cache = mlp_bias(feats, mlp)
            _, fwd_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            mlp_bias_backward(mlp, cache, delta)
            _, bwd_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(cache, mlp_bias_coords(feats).reshape(-1, 1))
        assert fwd_peak < 16e6 and bwd_peak - held < 16e6

    def test_requires_scalar_input(self):
        # the bias MLP maps 1 -> H: the shared check rejects a 2-input one
        mlp = init_mlp2(2, 3, 2, rng=20)
        with pytest.raises(ValueError, match=r"shapes do not match the config: \['w1'\]"):
            check_arrays(mlp._asdict(), mlp2_shapes(1, 3, 2))


class TestBiasedAttention:
    def test_zero_bias_matches_plain_softmax(self):
        rng = np.random.default_rng(21)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        out0, _ = biased_attention(q, k, v)
        outb, _ = biased_attention(q, k, v, np.zeros((3, 5)))
        np.testing.assert_allclose(out0, outb, atol=1e-15)

    def test_large_bias_selects_key(self):
        rng = np.random.default_rng(22)
        q = rng.standard_normal((1, 3))
        k = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 3))
        bias = np.full((1, 4), -1e9)
        bias[0, 2] = 0.0
        out, _ = biased_attention(q, k, v, bias)
        np.testing.assert_allclose(out[0], v[2], atol=1e-12)

    def test_backward_fd(self):
        rng = np.random.default_rng(23)
        for heads in [(), (2,)]:  # one head, then a leading head axis
            q = rng.standard_normal(heads + (3, 4))
            k = rng.standard_normal(heads + (5, 4))
            v = rng.standard_normal(heads + (5, 4))
            bias = rng.standard_normal(heads + (3, 5))
            w = rng.standard_normal(heads + (3, 4))
            _, cache = biased_attention(q, k, v, bias)
            d_q, d_k, d_v, d_bias = biased_attention_backward(cache, w)

            def loss():
                out, _ = biased_attention(q, k, v, bias)
                return float(np.sum(w * out))

            for analytic, arr in [(d_q, q), (d_k, k), (d_v, v), (d_bias, bias)]:
                numeric = finite_diff_grad(loss, arr, step=1e-6)
                np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_head_axis_matches_per_head_calls(self):
        rng = np.random.default_rng(24)
        h, n, m, d = 3, 4, 6, 5
        q, k, v = (rng.standard_normal((h, rows, d)) for rows in (n, m, m))
        bias = rng.standard_normal((h, n, m))
        w = rng.standard_normal((h, n, d))
        out, cache = biased_attention(q, k, v, bias)
        grads = biased_attention_backward(cache, w)
        assert out.shape == (h, n, d)
        for i in range(h):
            out_i, cache_i = biased_attention(q[i], k[i], v[i], bias[i])
            np.testing.assert_allclose(out[i], out_i, rtol=0, atol=1e-15)
            for g, g_i in zip(grads, biased_attention_backward(cache_i, w[i])):
                np.testing.assert_allclose(g[i], g_i, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs(self, which, bad):
        qkv = [np.ones((2, 3, 4)), np.ones((2, 5, 4)), np.ones((2, 5, 4))]
        qkv[which][1, 2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            biased_attention(*qkv)

    def test_leading_axis_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            biased_attention(np.zeros((2, 3, 4)), np.zeros((3, 5, 4)), np.zeros((3, 5, 4)))
        with pytest.raises(ValueError, match="shape mismatch"):
            biased_attention(np.zeros((2, 3, 4)), np.zeros((2, 5, 4)), np.zeros((5, 4)))
        with pytest.raises(ValueError, match="bias shape"):
            biased_attention(np.zeros((2, 3, 4)), np.zeros((2, 5, 4)), np.zeros((2, 5, 4)),
                             np.zeros((3, 5)))

    def test_bias_shape_check(self):
        with pytest.raises(ValueError):
            biased_attention(np.zeros((2, 3)), np.zeros((4, 3)), np.zeros((4, 3)),
                             np.zeros((2, 5)))


def three_frames(rng, shape):
    """Frames at different scales (frame 1 is 10 x frame 0), so that a max or
    mean taken over the whole batch instead of per frame shows."""
    x0 = rng.standard_normal(shape)
    return np.stack([x0, 10.0 * x0, rng.standard_normal(shape)])


def assert_close(batched, per_frame):
    np.testing.assert_allclose(batched, per_frame, rtol=1e-13, atol=1e-14)


class TestFrameAxis:
    """A leading frame axis gives the stacked per-frame calls, and weight
    and base gradients summed over the frames."""

    def test_multi_head_attention(self):
        rng = np.random.default_rng(30)
        attn = init_cross_attn(6, rng=30, zero_output=False)
        x = three_frames(rng, (5, 6))
        bias = three_frames(rng, (2, 5, 5))
        d_out = three_frames(rng, (5, 6))
        out, cache = multi_head_attention(x, x, attn, 2, bias)
        grads, d_q, d_kv, d_bias = multi_head_attention_backward(attn, cache, d_out)
        runs = []
        for f in range(3):
            out_f, cache_f = multi_head_attention(x[f], x[f], attn, 2, bias[f])
            runs.append((out_f, *multi_head_attention_backward(attn, cache_f, d_out[f])))
        for i, batched in [(0, out), (2, d_q), (3, d_kv), (4, d_bias)]:
            assert_close(batched, np.stack([r[i] for r in runs]))
        for w in ("w_q", "w_k", "w_v", "w_o"):
            assert_close(grads[w], sum(r[1][w] for r in runs))

    @pytest.mark.parametrize("kind", ["additive", "film", "cross_attn"])
    def test_conditioning(self, kind):
        rng = np.random.default_rng(31)
        c = 4
        base = rng.standard_normal(c)
        attn = init_cross_attn(c, rng=31, zero_output=False)
        mlp = init_mlp2(c, 6, 2 * c if kind == "film" else c, rng=31)
        prior = three_frames(rng, (5, c) if kind == "cross_attn" else (c,))
        d_cond = three_frames(rng, (c,))

        def run(prior, d_cond):
            if kind == "additive":
                tok, cache = condition_additive(base, prior, mlp)
                grads, d_base, d_prior = condition_additive_backward(mlp, cache, d_cond)
                return tok, d_base, d_prior, grads
            if kind == "film":
                tok, cache = condition_film(base, prior, mlp)
                grads, d_base, d_prior = condition_film_backward(mlp, cache, d_cond)
                return tok, d_base, d_prior, grads
            tok, cache = condition_cross_attention(base, prior, attn, mlp, 2)
            ag, fg, d_base, d_prior = condition_cross_attention_backward(attn, mlp, cache, d_cond)
            return tok, d_base, d_prior, {**ag, **fg}

        cond, d_base, d_prior, grads = run(prior, d_cond)
        runs = [run(prior[f], d_cond[f]) for f in range(3)]
        assert cond.shape == (3, c) and d_base.shape == base.shape
        assert_close(cond, np.stack([r[0] for r in runs]))
        assert_close(d_base, sum(r[1] for r in runs))
        assert_close(d_prior, np.stack([r[2] for r in runs]))
        for name, g in grads.items():
            assert_close(g, sum(r[3][name] for r in runs))

    def test_bias_generators(self, monkeypatch):
        rng = np.random.default_rng(32)
        feats = three_frames(rng, (6, 3))
        table = rng.standard_normal((8, 2))
        mlp = init_mlp2(1, 4, 2, rng=32)
        delta = three_frames(rng, (2, 6, 6))

        idx = bucket_indices(feats, 8)
        np.testing.assert_array_equal(idx, np.stack([bucket_indices(f, 8) for f in feats]))
        assert len(np.unique(idx[0])) > 1  # frame 0 is not squeezed by frame 1's scale
        bias, idx = bucket_bias(feats, table)
        np.testing.assert_array_equal(bias, np.stack([bucket_bias(f, table)[0] for f in feats]))
        assert_close(
            bias_table_gradient(delta, idx, 8),
            sum(bias_table_gradient(d, i, 8) for d, i in zip(delta, idx)),
        )

        assert_close(mlp_bias_coords(feats), np.stack([mlp_bias_coords(f) for f in feats]))
        blocked = []
        for block in BIAS_BLOCKS:  # the tiny block splits the 36-pair frames mid-row
            monkeypatch.setattr(graph, "_BLOCK_ENTRIES", block)
            bias, cache = mlp_bias(feats, mlp)
            grads = mlp_bias_backward(mlp, cache, delta)
            blocked.append((bias, grads))
            runs = [mlp_bias(f, mlp) for f in feats]
            assert_close(bias, np.stack([b for b, _ in runs]))
            for name, g in grads.items():
                per_frame = [mlp_bias_backward(mlp, c, d) for (_, c), d in zip(runs, delta)]
                assert_close(g, sum(p[name] for p in per_frame))
        assert_blocks_agree(blocked)

    def test_rejects_frames_of_unsupported_rank(self):
        mlp = init_mlp2(2, 3, 2, rng=33)
        with pytest.raises(ValueError, match="g must be 1-D or 2-D"):
            condition_additive(np.zeros(2), np.zeros((1, 2, 2)), mlp)
        with pytest.raises(ValueError, match="tokens must be 2-D or 3-D"):
            condition_cross_attention(np.zeros(2), np.zeros(2), init_cross_attn(2, rng=33), mlp, 1)
