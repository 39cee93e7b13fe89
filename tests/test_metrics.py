import math

import numpy as np
import pytest
from scipy.signal import correlate2d

from degat_kit.metrics import SsimConfig, mse, psnr, ssim


def slow_mse(a, b):
    total = 0.0
    for x, y in zip(np.ravel(a), np.ravel(b)):
        total += (x - y) ** 2
    return total / a.size


def slow_ssim_gray(x, y, cfg):
    """Window-by-window scalar reference."""
    half = cfg.window // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(coords**2) / (2.0 * cfg.sigma**2))
    win = np.outer(g, g)
    win /= win.sum()
    c1 = (cfg.k1 * cfg.dynamic_range) ** 2
    c2 = (cfg.k2 * cfg.dynamic_range) ** 2
    h, w = x.shape
    scores = []
    for i in range(h - cfg.window + 1):
        for j in range(w - cfg.window + 1):
            px = x[i:i + cfg.window, j:j + cfg.window]
            py = y[i:i + cfg.window, j:j + cfg.window]
            mx = float(np.sum(win * px))
            my = float(np.sum(win * py))
            sxx = float(np.sum(win * px * px)) - mx * mx
            syy = float(np.sum(win * py * py)) - my * my
            sxy = float(np.sum(win * px * py)) - mx * my
            scores.append(
                ((2 * mx * my + c1) * (2 * sxy + c2))
                / ((mx * mx + my * my + c1) * (sxx + syy + c2))
            )
    return float(np.mean(scores))


def correlate2d_ssim(a, b, cfg):
    """SSIM by 2-D correlation with the outer-product Gaussian window: the
    oracle for the separable filter in ``metrics``."""
    half = cfg.window // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(coords**2) / (2.0 * cfg.sigma**2))
    win = np.outer(g, g)
    win /= win.sum()
    c1 = (cfg.k1 * cfg.dynamic_range) ** 2
    c2 = (cfg.k2 * cfg.dynamic_range) ** 2
    a = a.reshape(a.shape[0], a.shape[1], -1)
    b = b.reshape(a.shape)
    scores = []
    for c in range(a.shape[2]):
        x, y = a[:, :, c], b[:, :, c]
        mu_x = correlate2d(x, win, mode="valid")
        mu_y = correlate2d(y, win, mode="valid")
        sig_xx = correlate2d(x * x, win, mode="valid") - mu_x**2
        sig_yy = correlate2d(y * y, win, mode="valid") - mu_y**2
        sig_xy = correlate2d(x * y, win, mode="valid") - mu_x * mu_y
        score = ((2 * mu_x * mu_y + c1) * (2 * sig_xy + c2)) / (
            (mu_x**2 + mu_y**2 + c1) * (sig_xx + sig_yy + c2)
        )
        scores.append(float(score.mean()))
    return float(np.mean(scores))


class TestMse:
    def test_hand_value(self):
        assert mse([[0.0, 2.0]], [[1.0, 0.0]]) == pytest.approx(2.5)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(0, 1, (6, 7))
            b = rng.uniform(0, 1, (6, 7))
            assert mse(a, b) == pytest.approx(slow_mse(a, b), abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((2, 2)), np.zeros((3, 2)))


class TestPsnr:
    def test_identical_is_infinite(self):
        a = np.random.default_rng(1).uniform(0, 1, (4, 4))
        assert psnr(a, a) == float("inf")

    def test_twenty_db_construction(self):
        # MSE = 0.01 with max_val 1 gives exactly 20 dB
        a = np.zeros((10, 10))
        b = np.full((10, 10), 0.1)
        assert psnr(a, b) == pytest.approx(20.0, abs=1e-12)

    def test_formula(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 255, (5, 5))
        b = rng.uniform(0, 255, (5, 5))
        expect = 10.0 * math.log10(255.0**2 / slow_mse(a, b))
        assert psnr(a, b, 255.0) == pytest.approx(expect, abs=1e-12)

    def test_max_val_validation(self):
        with pytest.raises(ValueError):
            psnr(np.zeros((2, 2)), np.ones((2, 2)), 0.0)
        for bad in (np.nan, np.inf, -1.0):
            with pytest.raises(ValueError, match="max_val"):
                psnr(np.zeros((2, 2)), np.ones((2, 2)), bad)

    @pytest.mark.parametrize("max_val", [1e-200, 1e154, 1e155])
    def test_max_val_whose_square_leaves_float64(self, max_val):
        # 1e-200**2 underflows to 0 and log10 would give -inf; 1e154**2 / MSE
        # overflows to inf; Python's 1e155**2 raises OverflowError
        with pytest.raises(ValueError, match=r"^max_val .* out of range"):
            psnr(np.zeros((16, 16)), np.full((16, 16), 0.5), max_val)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pixels(self, bad):
        a = np.zeros((12, 12))
        b = a.copy()
        b[3, 4] = bad
        for fn in (mse, psnr, ssim):
            with pytest.raises(ValueError, match="non-finite"):
                fn(a, b)
            with pytest.raises(ValueError, match="non-finite"):
                fn(b, a)


    @pytest.mark.parametrize("shape", [(0, 0), (0, 12), (12, 0, 3)])
    def test_rejects_empty_images(self, shape):
        for fn in (mse, psnr, ssim):
            with pytest.raises(ValueError, match="empty"):
                fn(np.zeros(shape), np.zeros(shape))


class TestSsim:
    def test_identical_images(self):
        a = np.random.default_rng(3).uniform(0, 1, (16, 16))
        assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(4)
        cfg = SsimConfig()
        for _ in range(5):
            a = rng.uniform(0, 1, (14, 15))
            b = np.clip(a + rng.normal(0, 0.1, (14, 15)), 0, 1)
            assert ssim(a, b, cfg) == pytest.approx(slow_ssim_gray(a, b, cfg), abs=1e-9)

    def test_small_window_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        cfg = SsimConfig(window=5, sigma=1.0)
        a = rng.uniform(0, 1, (8, 9))
        b = rng.uniform(0, 1, (8, 9))
        assert ssim(a, b, cfg) == pytest.approx(slow_ssim_gray(a, b, cfg), abs=1e-9)

    def test_multichannel_is_channel_mean(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0, 1, (12, 12, 3))
        b = rng.uniform(0, 1, (12, 12, 3))
        per = [ssim(a[:, :, c], b[:, :, c]) for c in range(3)]
        assert ssim(a, b) == pytest.approx(np.mean(per), abs=1e-12)

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.uniform(0, 1, (13, 13))
            b = rng.uniform(0, 1, (13, 13))
            s = ssim(a, b)
            assert -1.0 <= s <= 1.0
            assert s == pytest.approx(ssim(b, a), abs=1e-12)

    @pytest.mark.parametrize("shape", [(11, 11), (14, 15), (128, 128), (20, 17, 3)])
    @pytest.mark.parametrize("window,sigma", [(3, 0.8), (5, 1.0), (11, 1.5)])
    def test_matches_correlate2d(self, shape, window, sigma):
        rng = np.random.default_rng(sum(shape) + window)
        cfg = SsimConfig(window=window, sigma=sigma, dynamic_range=2.0)
        for noise in (0.02, 0.5):
            a = rng.uniform(0, 2, shape)
            b = np.clip(a + rng.normal(0, noise, shape), 0, 2)
            assert abs(ssim(a, b, cfg) - correlate2d_ssim(a, b, cfg)) <= 1e-12

    def test_image_too_small(self):
        with pytest.raises(ValueError):
            ssim(np.zeros((8, 8)), np.zeros((8, 8)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SsimConfig(window=4)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="k1 and k2"):
                SsimConfig(k1=bad)
            with pytest.raises(ValueError, match="k1 and k2"):
                SsimConfig(k2=bad)
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="dynamic_range"):
                SsimConfig(dynamic_range=bad)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(ValueError, match="^sigma must be finite and > 0"):
            SsimConfig(sigma=sigma)

    @pytest.mark.parametrize("window", [5.5, True])
    def test_window_must_be_an_integer(self, window):
        with pytest.raises(ValueError, match="^window must be an integer"):
            SsimConfig(window=window)

    @pytest.mark.parametrize("dynamic_range", [1e-200, 1e154, 1e155])
    def test_dynamic_range_whose_constants_leave_float64(self, dynamic_range):
        # c1 = (k1 R)^2 underflows to 0 at 1e-200; c1 * c2 overflows at 1e154
        with pytest.raises(ValueError, match=r"^dynamic_range .* out of range"):
            SsimConfig(dynamic_range=dynamic_range)
