import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degat_kit import conditioning
from degat_kit.properties import GRADIENT_CHECKS, finite_diff_error, finite_diff_grad


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", list(GRADIENT_CHECKS))
def test_backward_matches_finite_difference(name, seed):
    loss, pairs = GRADIENT_CHECKS[name](np.random.default_rng(seed))
    assert finite_diff_error(loss, pairs) < 1e-7


@pytest.mark.parametrize("mutate", [
    lambda grads: grads.pop("b2"),
    lambda grads: grads.update({"w3": grads["w2"]}),
], ids=["dropped", "extra"])
def test_row_pairs_come_from_the_layer_fields(mutate, monkeypatch):
    """A backward that drops a weight's gradient, or adds one for no field,
    fails the row instead of leaving that weight unchecked."""
    backward = conditioning.mlp2_backward

    def mutant(*args):
        grads, d_x = backward(*args)
        mutate(grads)
        return grads, d_x

    monkeypatch.setattr(conditioning, "mlp2_backward", mutant)
    with pytest.raises(ValueError, match="but the fields are \\['b1', 'b2', 'w1', 'w2'\\]"):
        GRADIENT_CHECKS["mlp2"](np.random.default_rng(0))


# keyword sizes of the table rows whose shapes carry a head or frame axis
ROW_SIZES = {
    "degat": st.fixed_dictionaries({"frames": st.integers(1, 3)}),
    "multi_head_attention": st.integers(1, 4).flatmap(lambda heads: st.fixed_dictionaries({
        "heads": st.just(heads), "c": st.integers(1, 3).map(lambda d: heads * d),
        "n": st.integers(1, 5), "m": st.integers(1, 5),
    })),
    "depth_loss": st.fixed_dictionaries(
        {"frames": st.integers(1, 3), "h": st.integers(2, 5), "w": st.integers(2, 5)}
    ),
    "camera_loss": st.fixed_dictionaries({"frames": st.integers(1, 3)}),
}


@pytest.mark.parametrize("name", list(ROW_SIZES))
@settings(max_examples=50)
@given(data=st.data())
def test_backward_matches_finite_difference_over_sizes(name, data):
    sizes = data.draw(ROW_SIZES[name], label="sizes")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    loss, pairs = GRADIENT_CHECKS[name](np.random.default_rng(seed), **sizes)
    assert finite_diff_error(loss, pairs) <= 1e-7


# seeds whose draw put a residual difference within a finite-difference step
# of |.|'s kink before the draw kept neighbouring residuals apart
KINK_SEEDS = [140, 330, 467, 546, 609, 658, 817, 850, 897, 994, 999, 1043, 1162, 1685, 1780,
              1830, 1962, 1963]


@pytest.mark.parametrize("seed", KINK_SEEDS)
def test_depth_loss_draw_clears_the_kink(seed):
    loss, pairs = GRADIENT_CHECKS["depth_loss"](np.random.default_rng(seed), frames=3, h=5, w=5)
    assert finite_diff_error(loss, pairs) <= 1e-7


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        a = np.array([[2.0, 0.5], [0.5, 3.0]])
        x = np.array([1.0, -2.0])
        g = finite_diff_grad(lambda: 0.5 * x @ a @ x, x)
        np.testing.assert_allclose(g, a @ x, atol=1e-8)

    def test_check_flags_wrong_gradient(self):
        x = np.array([1.0, 2.0])
        f = lambda: float(np.sum(x**2))
        assert finite_diff_error(f, [(x, 2.0 * x)]) < 1e-9
        assert finite_diff_error(f, [(x, 2.0 * x + 0.5)]) > 0.1
        with pytest.raises(ValueError, match="gradient shape"):
            finite_diff_error(f, [(x, 2.0 * x[:1])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_flags_nonfinite_gradient(self, bad):
        x = np.array([1.0, 2.0])
        f = lambda: float(np.sum(x**2))
        assert finite_diff_error(f, [(x, np.array([bad, 4.0]))]) == np.inf
        # a later finite pair cannot hide it
        assert finite_diff_error(f, [(x, np.array([bad, 4.0])), (x, 2.0 * x)]) == np.inf

    def test_nonfinite_evaluation(self):
        x = np.array([0.0])
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            finite_diff_grad(lambda: float(np.log(x[0])), x)
        assert x[0] == 0.0

    def test_restores_array_bit_for_bit(self):
        x = np.random.default_rng(0).standard_normal((3, 4)) * 1e3
        before = x.tobytes()
        finite_diff_grad(lambda: float(np.sum(np.sin(x))), x)
        assert x.tobytes() == before

        calls = []

        def failing():
            calls.append(None)
            if len(calls) == 6:  # the minus evaluation of the third entry
                raise RuntimeError("loss failed")
            return float(np.sum(x))

        with pytest.raises(RuntimeError, match="loss failed"):
            finite_diff_grad(failing, x)
        assert x.tobytes() == before

    def test_non_contiguous_view(self):
        rng = np.random.default_rng(1)
        base = rng.standard_normal((4, 6))
        weight = rng.standard_normal((4, 6))
        before = base.copy()
        view = base[::2, 1::3]  # perturbing a copy of it would leave the loss unchanged
        assert not view.flags.contiguous
        g = finite_diff_grad(lambda: float(np.sum(weight * base)), view)
        np.testing.assert_allclose(g, weight[::2, 1::3], atol=1e-9)
        np.testing.assert_array_equal(base, before)

    @pytest.mark.parametrize("make", [
        lambda: np.broadcast_to(np.ones(3), (2, 3)),
        lambda: np.frombuffer(np.ones(3).tobytes()),
        lambda: np.arange(3),
        lambda: [1.0, 2.0],
    ], ids=["broadcast", "read-only-buffer", "integer", "list"])
    def test_rejects_arrays_it_cannot_perturb(self, make):
        with pytest.raises(ValueError, match="writeable float64"):
            finite_diff_grad(lambda: 0.0, make())
