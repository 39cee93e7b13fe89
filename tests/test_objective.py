import math
from types import SimpleNamespace

import numpy as np
import pytest

from degat_kit import objective
from degat_kit.geometry import CameraParams, DepthMap
from degat_kit.objective import (
    LossBreakdown,
    LossWeights,
    camera_loss,
    confidence_objective,
    depth_loss,
    depth_loss_backward,
    marginal_penalty,
    optimal_confidence,
    spatial_gradient,
)
from degat_kit.properties import finite_diff_grad


class TestCameraLoss:
    def test_zero_for_identical(self):
        cam = CameraParams(np.eye(3), [1.0, 2.0, 3.0], 1.5)
        assert camera_loss(cam, cam)[0] == 0.0

    def test_hand_value(self):
        a = CameraParams(np.eye(3), np.zeros(3), 1.0)
        b = CameraParams(np.eye(3) * 2.0, np.ones(3) * 0.5, 1.25)
        # rotation: 3 diagonal entries differ by 1; translation: 3 * 0.5; focal: 0.25
        assert camera_loss(a, b)[0] == pytest.approx(3.0 + 1.5 + 0.25, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a = CameraParams(rng.standard_normal((3, 3)), rng.standard_normal(3), 2.0)
        b = CameraParams(rng.standard_normal((3, 3)), rng.standard_normal(3), 0.5)
        assert camera_loss(a, b)[0] == pytest.approx(camera_loss(b, a)[0], abs=1e-15)

    def test_gradient_hand_value(self):
        a = CameraParams(np.eye(3), np.zeros(3), 1.0)
        b = CameraParams(np.eye(3) * 2.0, np.ones(3) * 0.5, 1.25)
        _, grads = camera_loss(a, b)
        assert sorted(grads) == ["focal", "rotation", "translation"]
        np.testing.assert_array_equal(grads["rotation"], -np.eye(3))  # sign(0) = 0 off the diagonal
        np.testing.assert_array_equal(grads["translation"], -np.ones(3))
        assert grads["focal"] == -1.0


class TestSpatialGradient:
    def test_hand_values(self):
        d = np.array([[0.0, 1.0], [3.0, 7.0]])
        gx, gy = spatial_gradient(d)
        np.testing.assert_array_equal(gx, [[1.0, 0.0], [4.0, 0.0]])
        np.testing.assert_array_equal(gy, [[3.0, 6.0], [0.0, 0.0]])

    def test_constant_image(self):
        gx, gy = spatial_gradient(np.full((4, 5), 2.5))
        assert np.all(gx == 0.0) and np.all(gy == 0.0)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            spatial_gradient(np.ones((1, 5)))


class TestDepthLoss:
    def test_perfect_prediction(self):
        gt = np.random.default_rng(1).uniform(0.5, 2.0, (4, 4))
        pred = DepthMap(gt.copy(), np.ones_like(gt))
        w = LossWeights()
        lb, _ = depth_loss(pred, gt, w)
        assert lb.reg == 0.0 and lb.grad == 0.0
        # C = 1: unc = mean(gamma*0*1 - alpha*log 1) = 0
        assert lb.unc == 0.0

    def test_hand_values(self):
        gt = np.zeros((2, 2))
        pred = DepthMap(np.full((2, 2), 2.0), np.full((2, 2), math.e))
        w = LossWeights(alpha=0.5, gamma=1.0)
        lb, _ = depth_loss(pred, gt, w)
        assert lb.reg == pytest.approx(4.0)
        # unc per pixel: 1*4*e - 0.5*1
        assert lb.unc == pytest.approx(4.0 * math.e - 0.5, abs=1e-12)
        assert lb.grad == 0.0

    def test_requires_positive_confidence(self):
        with pytest.raises(ValueError):
            depth_loss(DepthMap(np.ones((2, 2)), np.zeros((2, 2))), np.ones((2, 2)),
                       LossWeights())

    def test_backward_reads_its_cache_only(self, monkeypatch):
        gt = np.random.default_rng(2).uniform(0.5, 2.0, (2, 4, 5))
        _, cache = depth_loss(DepthMap(gt + 0.1, np.ones_like(gt)), gt, LossWeights())

        def no_call(d):
            raise AssertionError("depth_loss_backward recomputed a spatial gradient")

        monkeypatch.setattr(objective, "spatial_gradient", no_call)
        grads = depth_loss_backward(cache)
        assert {k: v.shape for k, v in grads.items()} == {"depth": gt.shape, "confidence": gt.shape}

    def test_total_sums_parts(self):
        lb = LossBreakdown(cam=1.0, reg=2.0, unc=0.5, grad=0.25)
        assert lb.total == 3.75


class TestFrameAxis:
    """F frames stacked on a leading axis give the mean of the per-frame
    losses; frame 1 is 10 x frame 0, so any mixing across frames shows, and
    F = 3 is no power of two, so dividing by F rounds."""

    @staticmethod
    def stacked(frame0):
        return np.stack([frame0, 10.0 * frame0, frame0**2])

    def test_spatial_gradient(self):
        d = np.random.default_rng(4).standard_normal((5, 6))
        gx, gy = spatial_gradient(self.stacked(d))
        per_frame = [spatial_gradient(f) for f in self.stacked(d)]
        np.testing.assert_array_equal(gx, np.stack([g for g, _ in per_frame]))
        np.testing.assert_array_equal(gy, np.stack([g for _, g in per_frame]))
        with pytest.raises(ValueError):
            spatial_gradient(np.ones((2, 1, 5)))

    def test_depth_loss_and_backward(self):
        rng = np.random.default_rng(5)
        depth, conf, gt = (self.stacked(rng.uniform(0.5, 2.0, (5, 6))) for _ in range(3))
        w = LossWeights(alpha=0.3, gamma=1.7)
        frames = [DepthMap(d, c) for d, c in zip(depth, conf)]
        parts = [depth_loss(f, g, w)[0] for f, g in zip(frames, gt)]
        got, cache = depth_loss(DepthMap(depth, conf), gt, w)
        for name in ("reg", "unc", "grad"):
            assert getattr(got, name) == pytest.approx(
                np.mean([getattr(p, name) for p in parts]), rel=1e-14
            )
        grads = depth_loss_backward(cache)
        per_frame = [depth_loss_backward(depth_loss(f, g, w)[1]) for f, g in zip(frames, gt)]
        for name in ("depth", "confidence"):
            np.testing.assert_array_equal(
                grads[name], np.stack([p[name] for p in per_frame]) / 3
            )

    def test_camera_loss(self):
        rng = np.random.default_rng(6)
        pred = [CameraParams(rng.standard_normal((3, 3)), rng.standard_normal(3), 0.7)]
        gt = [CameraParams(rng.standard_normal((3, 3)), rng.standard_normal(3), 1.3)]
        for cams in (pred, gt):
            c = cams[0]
            cams.append(CameraParams(10.0 * c.rotation, 10.0 * c.translation, 10.0 * c.focal))

        def stack(cams):
            return SimpleNamespace(**{
                f: np.array([getattr(c, f) for c in cams])
                for f in ("rotation", "translation", "focal")
            })

        runs = [camera_loss(p, g) for p, g in zip(pred, gt)]
        loss, grads = camera_loss(stack(pred), stack(gt))
        assert loss == pytest.approx(np.mean([r[0] for r in runs]), rel=1e-14)
        for name, g in grads.items():  # the gradient of the mean over frames
            np.testing.assert_array_equal(g, np.stack([r[1][name] for r in runs]) / 2)
        with pytest.raises(ValueError, match="camera shapes differ"):
            camera_loss(stack(pred), stack(gt[:1]))


class TestOptimalConfidence:
    def test_closed_form(self):
        w = LossWeights(alpha=0.2, gamma=1.0)
        assert optimal_confidence(0.04, w) == pytest.approx(5.0, abs=1e-12)
        w2 = LossWeights(alpha=1.0, gamma=4.0)
        assert optimal_confidence(0.25, w2) == pytest.approx(1.0, abs=1e-12)

    def test_is_a_minimum(self):
        rng = np.random.default_rng(3)
        w = LossWeights(alpha=0.7, gamma=2.0)
        for _ in range(50):
            r_sq = rng.uniform(1e-3, 10.0)
            c_star = optimal_confidence(r_sq, w)
            j_star = confidence_objective(c_star, r_sq, w)
            for factor in (0.5, 0.9, 1.1, 2.0):
                assert confidence_objective(c_star * factor, r_sq, w) > j_star

    def test_marginal_penalty_consistent(self):
        w = LossWeights(alpha=0.2, gamma=1.0)
        r_sq = 0.3
        c_star = optimal_confidence(r_sq, w)
        assert marginal_penalty(r_sq, w) == pytest.approx(
            confidence_objective(c_star, r_sq, w), abs=1e-12
        )

    def test_zero_residual_rejected(self):
        w = LossWeights()
        with pytest.raises(ValueError):
            optimal_confidence(0.0, w)
        with pytest.raises(ValueError):
            marginal_penalty(-1.0, w)

    def test_stationarity(self):
        w = LossWeights(alpha=0.4, gamma=3.0)
        r_sq = 0.8
        c_star = optimal_confidence(r_sq, w)
        c = np.array([c_star])
        g = finite_diff_grad(lambda: confidence_objective(float(c[0]), r_sq, w), c)
        assert abs(g[0]) < 1e-8


class TestLossWeights:
    def test_positivity(self):
        with pytest.raises(ValueError):
            LossWeights(alpha=0.0)
        with pytest.raises(ValueError):
            LossWeights(gamma=-1.0)

    @pytest.mark.parametrize("field", ["alpha", "gamma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.3", 10**400],
                             ids=["nan", "inf", "True", "str", "int-past-float64"])
    def test_not_a_finite_number_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^bad loss weights: {field}=") as exc:
            LossWeights(**{field: value})
        assert len(str(exc.value).splitlines()) == 1

    def test_ints_and_numpy_floats_accepted(self):
        assert LossWeights(alpha=2, gamma=np.float64(0.5)) == LossWeights(alpha=2.0, gamma=0.5)
