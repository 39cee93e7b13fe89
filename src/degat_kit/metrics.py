"""Image-fidelity metrics: MSE, PSNR, and Gaussian-windowed SSIM.

The SSIM window is the outer product of a normalised 1-D Gaussian with
itself (Wang et al., 2004), so it is applied as two 1-D passes, one along
each image axis, rather than as a 2-D correlation.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["SsimConfig", "mse", "psnr", "ssim"]


@dataclass(frozen=True)
class SsimConfig:
    window: int = 11
    sigma: float = 1.5
    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 1.0

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if self.k1 <= 0.0 or self.k2 <= 0.0:
            raise ValueError("k1 and k2 must be positive")
        if not 0.0 < self.dynamic_range < np.inf:
            raise ValueError(f"dynamic_range must be finite and > 0, got {self.dynamic_range}")


def _check_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image shape mismatch: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("images contain non-finite pixels")
    return a, b


def mse(a, b):
    """Mean squared difference over all pixels and channels."""
    a, b = _check_pair(a, b)
    return float(np.mean((a - b) ** 2))


def psnr(a, b, max_val=1.0):
    """10 log10(MAX^2 / MSE); identical images give +inf."""
    if not 0.0 < max_val < np.inf:
        raise ValueError(f"max_val must be finite and > 0, got {max_val}")
    err = mse(a, b)
    if err == 0.0:
        return float("inf")
    return float(10.0 * np.log10(max_val**2 / err))


def _gaussian_taps(size, sigma):
    half = size // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(coords**2) / (2.0 * sigma**2))
    return g / g.sum()


def _ssim_channel(x, y, cfg):
    c1 = (cfg.k1 * cfg.dynamic_range) ** 2
    c2 = (cfg.k2 * cfg.dynamic_range) ** 2
    taps = _gaussian_taps(cfg.window, cfg.sigma)
    # Gaussian-weighted means of x, y, x^2, y^2 and xy at every valid window
    # position: shifted multiply-adds along W, then along H.
    moments = np.stack([x, y, x * x, y * y, x * y])
    n = taps.size
    ow = x.shape[1] - n + 1
    rows = taps[0] * moments[:, :, :ow]
    for t in range(1, n):
        rows += taps[t] * moments[:, :, t:t + ow]
    oh = x.shape[0] - n + 1
    means = taps[0] * rows[:, :oh]
    for t in range(1, n):
        means += taps[t] * rows[:, t:t + oh]
    mu_x, mu_y, e_xx, e_yy, e_xy = means
    sig_xx = e_xx - mu_x**2
    sig_yy = e_yy - mu_y**2
    sig_xy = e_xy - mu_x * mu_y
    score = ((2 * mu_x * mu_y + c1) * (2 * sig_xy + c2)) / (
        (mu_x**2 + mu_y**2 + c1) * (sig_xx + sig_yy + c2)
    )
    return float(score.mean())


def ssim(a, b, cfg=SsimConfig()):
    """Mean SSIM over all valid Gaussian-weighted window positions.

    Multi-channel inputs are scored per channel and averaged.
    """
    a, b = _check_pair(a, b)
    if a.shape[0] < cfg.window or a.shape[1] < cfg.window:
        raise ValueError(
            f"image {a.shape[:2]} smaller than the {cfg.window}x{cfg.window} window"
        )
    if a.ndim == 2:
        return _ssim_channel(a, b, cfg)
    if a.ndim == 3:
        return float(
            np.mean([_ssim_channel(a[:, :, c], b[:, :, c], cfg) for c in range(a.shape[2])])
        )
    raise ValueError(f"expected 2-D or 3-D image, got shape {a.shape}")
