import math

import numpy as np
import pytest

from degat_kit.numerics import (
    as_finite, elu, elu_grad, leaky_relu, leaky_relu_grad, softmax, softmax_backward,
)
from degat_kit.properties import finite_diff_grad


class TestValidation:
    def test_ranks(self):
        assert as_finite([[1, 2]], "x", (2, 3)).dtype == np.float64
        assert as_finite(np.zeros((1, 2, 3)), "x", (2, 3)).shape == (1, 2, 3)
        with pytest.raises(ValueError, match="x must be 2-D or 3-D, got shape"):
            as_finite(np.zeros(3), "x", (2, 3))
        with pytest.raises(ValueError, match="m must be 2-D, got shape"):
            as_finite(np.zeros((1, 2, 3)), "m", (2,))
        with pytest.raises(ValueError, match="v must be 1-D, got shape"):
            as_finite(np.zeros((2, 2)), "v", (1,))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite(self, bad):
        with pytest.raises(ValueError, match="x contains non-finite entries"):
            as_finite(np.array([[[0.0, bad]]]), "x", (2, 3))


class TestActivations:
    def test_elu_values(self):
        assert elu(0.0) == 0.0
        assert elu(2.0) == 2.0
        assert elu(-1.0) == pytest.approx(math.exp(-1.0) - 1.0, abs=1e-15)

    def test_elu_nonexpansive(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-50.0, 50.0, 10000)
        assert np.all(np.abs(elu(z)) <= np.abs(z))

    def test_leaky_relu(self):
        assert leaky_relu(3.0, 0.2) == 3.0
        assert leaky_relu(-2.0, 0.2) == pytest.approx(-0.4, abs=1e-15)
        assert leaky_relu(0.0, 0.7) == 0.0

    def test_leaky_relu_bits_match_where(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 3.5, -3.5, 1e-310, -1e-310, 1e308, -1e308])
        for slope in (0.2, 0.1, 0.7):
            want = np.where(x >= 0.0, x, slope * x)
            assert leaky_relu(x, slope).tobytes() == want.tobytes()  # -0.0 stays -0.0
            out = np.full_like(x, np.nan)
            assert leaky_relu(x, slope, out=out) is out
            assert out.tobytes() == want.tobytes()

    def test_leaky_relu_slope_range(self):
        with pytest.raises(ValueError):
            leaky_relu(1.0, 1.5)
        for slope in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="slope must be in"):
                leaky_relu_grad(1.0, slope)

    SIGNED = np.array([0.0, -0.0, np.inf, -np.inf, 3.5, -3.5, 5e-324, -5e-324, 1e-310, -1e-310,
                       1e308, -1e308, 709.0, -745.0, -40.0])

    def test_elu_bits_match_where_but_negative_zero(self):
        # expm1(min(x, 0)) + max(x, 0): one term is an exact 0, so every value
        # keeps the bits of the two-branch form, save -0.0, which becomes +0.0
        x = np.concatenate([self.SIGNED, np.random.default_rng(1).normal(0.0, 3.0, 1000)])
        want = np.where(x >= 0.0, x, np.expm1(np.minimum(x, 0.0)))
        got = elu(x)
        assert np.delete(got, 1).tobytes() == np.delete(want, 1).tobytes()
        assert x[1] == 0.0 and np.signbit(x[1]) and np.signbit(want[1])
        assert got[1] == 0.0 and not np.signbit(got[1])  # the one flipped sign
        grad_want = np.where(x >= 0.0, 1.0, np.exp(np.minimum(x, 0.0)))
        assert elu_grad(x).tobytes() == grad_want.tobytes()  # exp(0) is exactly 1

    def test_leaky_relu_grad_bits_match_where(self):
        # slope + (1 - slope) [x >= 0] is exactly 1 or slope, -0.0 on the 1 side
        rng = np.random.default_rng(2)
        x = np.concatenate([self.SIGNED, rng.standard_normal(1000)])
        slopes = [0.2, 0.1, 1 / 3, 0.5, 0.7, 1e-300, 5e-324, 2**-54, 1 - 2**-53]
        for slope in slopes + list(rng.uniform(0.0, 1.0, 200)):
            want = np.where(x < 0.0, slope, 1.0)
            assert leaky_relu_grad(x, slope).tobytes() == want.tobytes(), slope
            out = np.full_like(x, np.nan)
            assert leaky_relu_grad(x, slope, out=out) is out
            assert out.tobytes() == want.tobytes()
        assert leaky_relu_grad(-0.0, 0.2) == 1.0 and leaky_relu_grad(0.0, 0.2) == 1.0


class TestSoftmaxMasked:
    """numerics.softmax; an entry is masked out by giving it a -inf logit."""

    def test_single_support(self):
        out = softmax(np.array([-np.inf, -1.0, -np.inf]))
        np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])

    def test_equal_logits(self):
        out = softmax(np.array([2.0, 2.0, -np.inf]))
        np.testing.assert_allclose(out[:2], [0.5, 0.5], atol=1e-15)
        assert out[2] == 0.0

    def test_derived_quarter_three_quarters(self):
        out = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-15)

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = rng.integers(2, 20)
            logits = rng.uniform(-500.0, 500.0, (3, n))
            for row in logits:  # mask a random subset, keeping at least one
                row[rng.choice(n, size=rng.integers(0, n), replace=False)] = -np.inf
            out = softmax(logits)
            assert np.all(out >= 0.0)
            assert np.all(out[np.isneginf(logits)] == 0.0)
            assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)

    def test_overflow_safe(self):
        out = softmax(np.array([[1e4, 1e4 - 1.0], [-1e4, -1e4 - 1.0]]))
        assert np.all(np.isfinite(out))
        assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-12)
        np.testing.assert_allclose(out[0], out[1], atol=1e-15)

    def test_in_place_matches_default(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-50.0, 50.0, (2, 4, 7))
        logits[0, 1, :3] = -np.inf
        kept = logits.copy()
        fresh = softmax(logits)
        np.testing.assert_array_equal(logits, kept)  # the default leaves its input alone
        assert softmax(logits, out=logits) is logits
        np.testing.assert_array_equal(logits, fresh)

    def test_softmax_is_its_parts_divided(self):
        rng = np.random.default_rng(5)
        logits = rng.uniform(-800.0, 800.0, (3, 4, 9))
        logits[1, 2, :4] = -np.inf
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        total = e.sum(axis=-1, keepdims=True)
        assert total.shape == (3, 4, 1)
        assert np.all(e <= 1.0) and np.all(total >= 1.0)  # the row-max shift
        assert softmax(logits).tobytes() == (e / total).tobytes()

    def test_backward_finite_difference(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((2, 3, 5))
        w = rng.standard_normal((2, 3, 5))
        analytic = softmax_backward(softmax(logits), w)
        numeric = finite_diff_grad(lambda: np.sum(w * softmax(logits)), logits, step=1e-6)
        np.testing.assert_allclose(analytic, numeric, atol=1e-9)
        # the gradient of a softmax is orthogonal to the all-ones direction
        np.testing.assert_allclose(analytic.sum(axis=-1), 0.0, atol=1e-15)

    def test_backward_in_place(self):
        rng = np.random.default_rng(4)
        p = softmax(rng.standard_normal((3, 4, 6)))
        d_p = rng.standard_normal((3, 4, 6))
        kept = d_p.copy()
        fresh = softmax_backward(p, d_p)
        np.testing.assert_array_equal(d_p, kept)  # the default leaves d_p alone
        assert softmax_backward(p, d_p, out=d_p) is d_p
        assert d_p.tobytes() == fresh.tobytes()
        assert fresh.tobytes() == (p * (kept - np.sum(p * kept, axis=-1, keepdims=True))).tobytes()
