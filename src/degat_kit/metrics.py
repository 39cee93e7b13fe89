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
        if isinstance(self.window, bool) or not isinstance(self.window, (int, np.integer)):
            raise ValueError(f"window must be an integer, got {self.window!r}")
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError(f"window must be odd and >= 3, got {self.window}")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be finite and > 0, got {self.sigma!r}")
        if not (0.0 < self.k1 < np.inf and 0.0 < self.k2 < np.inf):
            raise ValueError("k1 and k2 must be finite and positive")
        if not 0.0 < self.dynamic_range < np.inf:
            raise ValueError(f"dynamic_range must be finite and > 0, got {self.dynamic_range}")
        # c1 * c2 is what the SSIM products of flat windows reach
        c1, c2 = _square(self.k1 * self.dynamic_range), _square(self.k2 * self.dynamic_range)
        _check_range("dynamic_range", self.dynamic_range, "c1 * c2", c1 * c2)


def _square(v):
    """float(v) ** 2, or inf where that overflows and Python floats raise."""
    try:
        return float(v) ** 2
    except OverflowError:
        return np.inf


def _check_range(name, value, label, derived):
    """Raise unless ``derived``, computed from the argument ``name``, is finite and > 0."""
    if not 0.0 < derived < np.inf:
        raise ValueError(f"{name} {value!r} out of range: {label} = {derived!r} leaves float64")


def _check_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError(f"images are empty: shape {a.shape}")
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
    peak = _square(max_val)
    _check_range("max_val", max_val, "max_val**2", peak)
    err = mse(a, b)
    if err == 0.0:
        return float("inf")
    ratio = peak / err
    _check_range("max_val", max_val, "max_val**2 / MSE", ratio)
    return float(10.0 * np.log10(ratio))


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
