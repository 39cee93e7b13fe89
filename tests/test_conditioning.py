import tracemalloc

import numpy as np
import pytest

from degat_kit import graph, harness, toy_model
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
from degat_kit.numerics import check_arrays, softmax, softmax_backward
from degat_kit.properties import finite_diff_grad

# block rules, as _BLOCK_ENTRIES: the default (one block for every small test)
# and 28 entries, 4-row distance blocks in ``mlp_bias_coords`` at L = 6; the
# bias MLP itself has no blocks, so its outputs must not depend on either
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

def assert_dense_relu_mlp(feats, mlp, delta, bias, grads):
    """The bias and weight gradients agree, within 1e-12 * max|array|, with the
    plain ReLU MLP run over every pair, one frame at a time, where a unit is
    on where w1 x + b1 > 0."""
    dense_bias, dense_grads = [], {name: 0.0 for name in mlp._fields}
    coords = mlp_bias_coords(feats)
    for coords, d_bias in zip(coords.reshape(-1, *coords.shape[-2:]),
                              delta.reshape(-1, *delta.shape[-3:])):
        x = coords.reshape(-1, 1)
        pre = x @ mlp.w1.T + mlp.b1
        hid = np.maximum(pre, 0.0)
        dense_bias.append(np.moveaxis((hid @ mlp.w2.T + mlp.b2).reshape(*coords.shape, -1), -1, 0))
        d_y = np.moveaxis(d_bias, 0, -1).reshape(-1, len(mlp.b2))
        d_pre = (d_y @ mlp.w2) * (pre > 0.0)
        for name, g in (("w1", d_pre.T @ x), ("b1", d_pre.sum(axis=0)),
                        ("w2", d_y.T @ hid), ("b2", d_y.sum(axis=0))):
            dense_grads[name] = dense_grads[name] + g
    for got, want in [(bias, np.reshape(dense_bias, bias.shape))] + [
            (grads[name], dense_grads[name]) for name in mlp._fields]:
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


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

    # two tokens: coordinate -1 on the diagonal (upstream 1 and 5) and +1 off
    # it (upstream 2 and 3)
    KINK_TOKENS = np.array([[0.0, 0.0], [3.0, 4.0]])
    KINK_DELTA = np.array([[[1.0, 2.0], [3.0, 5.0]]])

    def test_pair_on_a_kink_is_inactive(self):
        # unit 0 rises through 0 at x = +1, unit 1 falls through 0 at x = -1,
        # and unit 2 (kink -0.25) is on at +1 only: on a kink, ReLU'(0) = 0
        mlp = Mlp2(w1=np.array([[1.0], [-1.0], [2.0]]), b1=np.array([-1.0, -1.0, 0.5]),
                   w2=np.array([[1.0, 2.0, 3.0]]), b2=np.array([0.25]))
        bias, cache = mlp_bias(self.KINK_TOKENS, mlp)
        np.testing.assert_array_equal(bias, [[[0.25, 7.75], [7.75, 0.25]]])
        grads = mlp_bias_backward(mlp, cache, self.KINK_DELTA)
        np.testing.assert_array_equal(grads["w1"], [[0.0], [0.0], [15.0]])
        np.testing.assert_array_equal(grads["b1"], [0.0, 0.0, 15.0])
        np.testing.assert_array_equal(grads["w2"], [[0.0, 0.0, 12.5]])
        np.testing.assert_array_equal(grads["b2"], [11.0])

    def test_flat_unit_is_constant_relu_of_b1(self):
        # w1 = 0: only b1 > 0 is on, at every coordinate
        mlp = Mlp2(w1=np.zeros((3, 1)), b1=np.array([0.5, -0.5, 0.0]),
                   w2=np.array([[2.0, 3.0, 5.0]]), b2=np.array([0.0]))
        bias, cache = mlp_bias(self.KINK_TOKENS, mlp)
        np.testing.assert_array_equal(bias, np.ones((1, 2, 2)))
        grads = mlp_bias_backward(mlp, cache, self.KINK_DELTA)
        # d_w1 = w2 * sum(x d_y) = 2 * (5 - 6) over the pairs where unit 0 is on
        np.testing.assert_array_equal(grads["w1"], [[-2.0], [0.0], [0.0]])
        np.testing.assert_array_equal(grads["b1"], [22.0, 0.0, 0.0])
        np.testing.assert_array_equal(grads["w2"], [[5.5, 0.0, 0.0]])
        np.testing.assert_array_equal(grads["b2"], [11.0])

    def test_kink_past_float64(self):
        # -b1 / w1 = 1e310 overflows to inf: the rising unit is never on and
        # the falling one always, as w1 x + b1 says
        mlp = Mlp2(w1=np.array([[1e-300], [-1e-300]]), b1=np.array([-1e10, 1e10]),
                   w2=np.array([[1.0, 2e-10]]), b2=np.array([0.0]))
        bias, cache = mlp_bias(self.KINK_TOKENS, mlp)
        assert_dense_relu_mlp(self.KINK_TOKENS, mlp, self.KINK_DELTA, bias,
                              mlp_bias_backward(mlp, cache, self.KINK_DELTA))

    def test_init_kinks_all_at_zero(self):
        # init_mlp2's b1 = 0 puts all 32 kinks at +-0.0; tokens 0, 1 and 3 on a
        # line give the pairs (0, 1) and (1, 0) the coordinate 0.0 exactly,
        # where every unit is off
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        zero = mlp_bias_coords(feats) == 0.0
        assert zero.sum() == 2
        rng = np.random.default_rng(35)
        mlp = init_mlp2(1, 32, 4, rng=35)._replace(b2=rng.standard_normal(4))
        bias, cache = mlp_bias(feats, mlp)
        np.testing.assert_array_equal(bias[:, zero], np.repeat(mlp.b2[:, None], 2, axis=1))
        delta = rng.standard_normal((4, 3, 3))
        grads = mlp_bias_backward(mlp, cache, delta)
        # the zero-coordinate pairs reach only d_b2
        without = mlp_bias_backward(mlp, cache, np.where(zero, 0.0, delta))
        for name in ("w1", "b1", "w2"):
            np.testing.assert_array_equal(without[name], grads[name])
        assert_dense_relu_mlp(feats, mlp, delta, bias, grads)

    @pytest.mark.parametrize("frames, tokens", [(2, 257), (4, 17)])
    def test_matches_dense_relu_mlp(self, frames, tokens):
        rng = np.random.default_rng(tokens)
        feats = rng.standard_normal((frames, tokens, 8))
        mlp = Mlp2(*(rng.standard_normal(shape) for shape in mlp2_shapes(1, 32, 4).values()))
        delta = rng.standard_normal((frames, 4, tokens, tokens))
        bias, cache = mlp_bias(feats, mlp)
        assert_dense_relu_mlp(feats, mlp, delta, bias, mlp_bias_backward(mlp, cache, delta))

    def test_zero_final_gives_zero_bias(self):
        mlp = init_mlp2(1, 4, 3, rng=18, zero_final=True)
        bias, _ = mlp_bias(np.random.default_rng(18).standard_normal((5, 2)), mlp)
        np.testing.assert_array_equal(bias, np.zeros((3, 5, 5)))

    def test_backward_fd(self):
        rng = np.random.default_rng(19)
        feats = rng.standard_normal((5, 3))
        mlp = init_mlp2(1, 4, 2, rng=19)
        w = rng.standard_normal((2, 5, 5))

        def loss():
            b, _ = mlp_bias(feats, mlp)
            return float(np.sum(w * b))

        _, cache = mlp_bias(feats, mlp)
        grads = mlp_bias_backward(mlp, cache, w)
        for analytic, arr in [
            (grads["w1"], mlp.w1), (grads["b1"], mlp.b1),
            (grads["w2"], mlp.w2), (grads["b2"], mlp.b2),
        ]:
            numeric = finite_diff_grad(loss, arr, step=1e-6)
            np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    def test_backward_without_pairs_is_zero(self):
        mlp = init_mlp2(1, 4, 2, rng=21)
        bias, cache = mlp_bias(np.zeros((0, 5, 3)), mlp)
        assert bias.shape == (0, 2, 5, 5)
        grads = mlp_bias_backward(mlp, cache, np.zeros((0, 2, 5, 5)))
        assert set(grads) == set(mlp._fields)
        for name, w in zip(mlp._fields, mlp):
            np.testing.assert_array_equal(grads[name], np.zeros_like(w))

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

    def test_out_bits_equal_the_returned_bias(self):
        """``out=`` the patch block of a padded bias writes the returned
        form's bits there, and nothing outside it."""
        rng = np.random.default_rng(35)
        feats = three_frames(rng, (6, 3))
        mlp = init_mlp2(1, 5, 2, rng=35)
        mlp = mlp._replace(b1=rng.standard_normal(5), b2=rng.standard_normal(2))
        bias, cache = mlp_bias(feats, mlp)
        padded = np.full((3, 2, 7, 7), np.nan)
        written, out_cache = mlp_bias(feats, mlp, out=padded[:, :, 1:, 1:])
        assert np.shares_memory(written, padded) and written.shape == bias.shape
        assert padded[:, :, 1:, 1:].tobytes() == bias.tobytes()
        assert np.isnan(padded[:, :, 0]).all() and np.isnan(padded[:, :, :, 0]).all()
        assert out_cache.tobytes() == cache.tobytes()

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

    @pytest.mark.parametrize("n, m", [(257, 257), (33, 70)])
    def test_matches_softmax_of_scaled_biased_scores(self, n, m):
        """(F, H) = (2, 4) at N = M = 257, the block shape of a 128x128 frame
        with 8x8 patches, and at N != M."""
        rng = np.random.default_rng(25)
        f, h, d = 2, 4, 16
        q, k, v = (rng.standard_normal((f, h, rows, d)) for rows in (n, m, m))
        bias = 3.0 * rng.standard_normal((f, h, n, m))
        out, _ = biased_attention(q, k, v, bias)
        ref = softmax(q @ k.swapaxes(-1, -2) / np.sqrt(d) + bias) @ v
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-14 * np.max(np.abs(ref)))

    def test_head_shared_bias_bits_equal_its_copy(self):
        rng = np.random.default_rng(26)
        f, h, n, m, d = 2, 4, 9, 11, 6
        q, k, v = (rng.standard_normal((f, h, rows, d)) for rows in (n, m, m))
        shared = rng.standard_normal((f, 1, n, m))
        w = rng.standard_normal((f, h, n, d))
        out, cache = biased_attention(q, k, v, shared)
        out_copy, cache_copy = biased_attention(q, k, v, np.broadcast_to(shared, (f, h, n, m)).copy())
        assert out.tobytes() == out_copy.tobytes()
        grads = biased_attention_backward(cache, w)
        grads_copy = biased_attention_backward(cache_copy, w)
        for g, g_copy in zip(grads[:3], grads_copy[:3]):  # d_q, d_k and d_v
            assert g.tobytes() == g_copy.tobytes()
        # the shared bias's gradient is the copy's summed over the heads
        assert grads[3].shape == (f, 1, n, m) and grads_copy[3].shape == (f, h, n, m)
        assert grads[3].tobytes() == grads_copy[3].sum(axis=1, keepdims=True).tobytes()

    @pytest.mark.parametrize("bias_shape", [(2, 3, 5, 7), (1, 2, 4, 5, 7), (4, 5, 7)],
                             ids=["three-heads", "extra-axis", "no-frame-axis"])
    def test_bias_that_does_not_broadcast_is_one_line_error(self, bias_shape):
        q, k, v = np.zeros((2, 4, 5, 3)), np.zeros((2, 4, 7, 3)), np.zeros((2, 4, 7, 3))
        with pytest.raises(ValueError, match=r"^bias shape \(.*\) != logits \(2, 4, 5, 7\)$"):
            biased_attention(q, k, v, np.zeros(bias_shape))

    def test_wide_logit_span_stays_finite(self):
        """Logits spanning 1440 overflow exp without the row-max shift."""
        rng = np.random.default_rng(27)
        q, k, v = np.zeros((2, 3)), rng.standard_normal((4, 3)), rng.standard_normal((4, 3))
        bias = np.array([[720.0, -720.0, 0.0, 600.0], [-720.0, 0.0, 720.0, 1.0]])
        out, _ = biased_attention(q, k, v, bias)
        assert np.all(np.isfinite(out))
        weights = biased_attention(q, k, np.eye(4), bias)[0]  # V = I gives the weights
        assert weights[0, 0] == 1.0 and weights[1, 2] == 1.0
        np.testing.assert_allclose(out, v[[0, 2]], rtol=0.0, atol=1e-15)

    def test_minus_inf_bias_gets_zero_weight(self):
        rng = np.random.default_rng(28)
        q, k, v = (rng.standard_normal((2, rows, 3)) for rows in (3, 5, 5))
        bias = rng.standard_normal((2, 3, 5))
        bias[0, 1, [0, 2, 3, 4]] = -np.inf  # one entry of the row stays finite
        bias[1, 2, 3] = -np.inf
        out, _ = biased_attention(q, k, v, bias)
        assert np.all(np.isfinite(out))
        weights = biased_attention(q, k, np.broadcast_to(np.eye(5), (2, 5, 5)), bias)[0]
        assert np.all(weights[np.isneginf(bias)] == 0.0)
        assert weights[0, 1, 1] == 1.0
        np.testing.assert_allclose(out[0, 1], v[0, 1], rtol=0.0, atol=1e-15)


def unblocked_attention(q, k, v, bias=None):
    """The kernel's arithmetic before its query blocks: one (..., N, M)
    buffer, and the cache (q / sqrt(d), k, v, bias, e, total)."""
    q = q / np.sqrt(q.shape[-1])
    scores = q @ k.swapaxes(-1, -2)
    if bias is not None:
        scores += bias
    e = np.subtract(scores, scores.max(axis=-1, keepdims=True), out=scores)
    np.exp(e, out=e)
    total = e.sum(axis=-1, keepdims=True)
    out = e @ v
    out /= total
    return out, (q, k, v, bias, e, total)


def unblocked_attention_backward(cache, d_out):
    """The backward before the query blocks: the whole (..., N, M) score
    gradient, summed over the axes that the bias broadcast for d_bias."""
    q, k, v, bias, e, total = cache
    p = e / total
    d_v = p.swapaxes(-1, -2) @ d_out
    d_scores = d_out @ v.swapaxes(-1, -2)
    softmax_backward(p, d_scores, out=d_scores)
    d_q = d_scores @ k / np.sqrt(q.shape[-1])
    d_k = d_scores.swapaxes(-1, -2) @ q
    if bias is None:
        return d_q, d_k, d_v, None
    shared = tuple(i for i, n in enumerate(bias.shape) if n < d_scores.shape[i])
    return d_q, d_k, d_v, d_scores.sum(axis=shared, keepdims=True) if shared else d_scores


def assert_equal_or_none(got, want):
    """Both None, or arrays of one shape that ``np.array_equal`` finds equal."""
    assert (got is None) == (want is None)
    if want is not None:
        assert got.shape == want.shape and np.array_equal(got, want)


# (leading axes, N, M, bias shape or None, -inf bias entries): a (F, H) = (2,
# 3) stack of N x M scores, and a bias that may share axes of 1
BLOCK_CASES = {
    "short-last-block": ((2, 3), 7, 5, (2, 3, 7, 5), False),
    "head-shared-bias": ((2, 3), 7, 5, (2, 1, 7, 5), False),
    "row-shared-bias": ((2, 3), 7, 5, (2, 3, 1, 5), False),
    "minus-inf-bias": ((2, 3), 7, 5, (2, 3, 7, 5), True),
    "no-bias": ((2, 3), 7, 5, None, False),
    "n-ne-m": ((2, 3), 10, 4, (2, 3, 10, 4), False),
    "n-1": ((2, 3), 1, 6, (2, 3, 1, 6), False),
}


def block_case(rng, lead, n, m, bias_shape, minus_inf):
    q = rng.standard_normal(lead + (n, 4))
    k = rng.standard_normal(lead + (m, 4))
    v = rng.standard_normal(lead + (m, 3))
    bias = None
    if bias_shape is not None:
        bias = 2.0 * rng.standard_normal(bias_shape)
        if minus_inf:  # every row keeps its first entry finite
            bias[..., 1:][rng.uniform(size=bias[..., 1:].shape) < 0.4] = -np.inf
    return q, k, v, bias, rng.standard_normal(lead + (n, 3))


class TestQueryBlocks:
    """``biased_attention`` in query-row blocks: a call in several blocks
    matches one in one block, and a one-block call keeps the bits of the
    arithmetic before the blocks."""

    @staticmethod
    def block_rows(monkeypatch, q, k, rows):
        """Set the block rule to ``rows`` query rows of these scores."""
        width = k.shape[-2] * int(np.prod(q.shape[:-2]))
        monkeypatch.setattr(graph, "_BLOCK_ENTRIES", rows * width)

    @pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_blocks_match_one_block(self, monkeypatch, case):
        rng = np.random.default_rng(36)
        q, k, v, bias, w = block_case(rng, *case)
        out, cache = biased_attention(q, k, v, bias)
        grads = biased_attention_backward(cache, w)
        m = k.shape[-2]
        assert cache[4].shape[-1] == m  # the default rule: one block, e kept
        self.block_rows(monkeypatch, q, k, 3)  # 3 + 3 + 1 rows at N = 7
        out_b, cache_b = biased_attention(q, k, v, bias)
        grads_b = biased_attention_backward(cache_b, w)
        # e kept, or each row's shift, from which the backward rebuilds e
        assert cache_b[4].shape[-1] == (m if q.shape[-2] <= 3 else 1)
        for got, ref in zip((out_b,) + grads_b, (out,) + grads):
            if ref is None:  # d_bias without a bias
                assert got is None
                continue
            assert got.shape == ref.shape
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-14 * np.max(np.abs(ref)))
        if bias is not None and np.isneginf(bias).any():
            assert np.all(grads_b[3][np.isneginf(bias)] == 0.0)

    @pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_one_block_bits_equal_unblocked(self, case):
        rng = np.random.default_rng(37)
        q, k, v, bias, w = block_case(rng, *case)
        out, cache = biased_attention(q, k, v, bias)
        ref, ref_cache = unblocked_attention(q, k, v, bias)
        assert len(cache) == 6
        for got, want in zip((out,) + cache, (ref,) + ref_cache):
            assert_equal_or_none(got, want)
        grads = biased_attention_backward(cache, w)
        for got, want in zip(grads, unblocked_attention_backward(ref_cache, w)):
            assert_equal_or_none(got, want)

    def test_backward_fd_across_block_boundaries(self, monkeypatch):
        rng = np.random.default_rng(38)
        q, k, v, bias, w = block_case(rng, (2, 2), 5, 4, (2, 1, 5, 4), False)
        self.block_rows(monkeypatch, q, k, 2)  # blocks of rows 0-1, 2-3 and 4
        _, cache = biased_attention(q, k, v, bias)
        assert cache[4].shape == (2, 2, 5, 1)  # each row's shift: several blocks
        d_q, d_k, d_v, d_bias = biased_attention_backward(cache, w)
        assert d_bias.shape == bias.shape  # summed over the heads that share it

        def loss():
            out, _ = biased_attention(q, k, v, bias)
            return float(np.sum(w * out))

        for analytic, arr in [(d_q, q), (d_k, k), (d_v, v), (d_bias, bias)]:
            numeric = finite_diff_grad(loss, arr, step=1e-6)
            np.testing.assert_allclose(analytic, numeric, atol=1e-7)

    @pytest.mark.parametrize("rows", [None, 3], ids=["one-block", "3-row-blocks"])
    @pytest.mark.parametrize("case", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
    def test_d_bias_has_the_bias_shape(self, monkeypatch, case, rows):
        rng = np.random.default_rng(40)
        q, k, v, bias, w = block_case(rng, *case)
        if rows is not None:
            self.block_rows(monkeypatch, q, k, rows)
        d_bias = biased_attention_backward(biased_attention(q, k, v, bias)[1], w)[3]
        if bias is None:
            assert d_bias is None
        else:
            assert d_bias.shape == bias.shape

    def test_bias_free_backward_memory_bounded_by_block(self):
        """The backward at (4, 514, 514), d = 8, the global block's shape on
        two 128x128 frames, in its 9 blocks of 63 rows: without a bias it holds
        blocks of about 1.0 MB, no whole 8.5 MB score gradient."""
        rng = np.random.default_rng(41)
        q, k, v, w = (rng.standard_normal((4, 514, 8)) for _ in range(4))
        _, cache = biased_attention(q, k, v)
        assert cache[4].shape == (4, 514, 1)  # each row's shift: several blocks
        tracemalloc.start()
        try:
            d_bias = biased_attention_backward(cache, w)[3]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert d_bias is None
        assert peak < 5e6

    @pytest.mark.parametrize("variant, bound", [
        (("pre", "cross_attn", "log_affinity"), 16e6),
        (("post", "film", "none"), 14e6),
    ], ids=["log_affinity", "none"])
    def test_training_step_memory(self, variant, bound):
        """``loss_and_grads`` on two 128x128 frames: the bias-free global block
        and cross-attention return no score gradient, and the head-shared
        blocks one summed over the heads, not (2, 4, 257, 257)."""
        placement, conditioning, bias = variant
        cfg = toy_model.ModelConfig(image_h=128, image_w=128, degat_placement=placement,
                                    token_conditioning=conditioning, attention_bias=bias)
        params = toy_model.init_model_params(cfg)
        scene = harness.generate_scene(3, n_frames=2, h=128, w=128)
        tracemalloc.start()
        try:
            toy_model.loss_and_grads(params, cfg, scene.frames, scene.gt_depth, scene.gt_cameras)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_memory_bounded_by_block(self):
        """A tapeless call at (2, 4, 257, 257), the eval block shape, holds
        one row block of scores (1.0 MB), not the whole 4.2 MB array."""
        rng = np.random.default_rng(39)
        q, k, v = (rng.standard_normal((2, 4, 257, 16)) for _ in range(3))
        bias = rng.standard_normal((2, 1, 257, 257))
        tracemalloc.start()
        try:
            biased_attention(q, k, v, bias)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    @pytest.mark.parametrize("variant, bound", [
        (("pre", "cross_attn", "log_affinity"), 6e6),
        (("post", "film", "mlp_bias"), 9e6),
    ], ids=["log_affinity", "mlp_bias"])
    def test_eval_forward_memory(self, variant, bound):
        """``toy_model.forward`` on two 128x128 frames, the eval-export
        variants: no (F, H, 257, 257) or (4, 514, 514) score array is held,
        and the MLP bias is written into its padded array."""
        placement, conditioning, bias = variant
        cfg = toy_model.ModelConfig(image_h=128, image_w=128, degat_placement=placement,
                                    token_conditioning=conditioning, attention_bias=bias)
        params = toy_model.init_model_params(cfg)
        frames = harness.generate_scene(3, n_frames=2, h=128, w=128).frames
        tracemalloc.start()
        try:
            toy_model.forward(params, cfg, frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


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
