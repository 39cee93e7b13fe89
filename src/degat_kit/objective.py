"""Training objective: L1 camera loss, three-part depth loss, and the
closed-form optimal-confidence utilities.

All pixel losses are means over pixels so the loss scale is independent
of resolution. The camera and depth losses take one frame or F frames
stacked on a leading axis: depth grids (F, H, W), and rotations (F, 3, 3),
translations (F, 3) and focals (F,). A stack gives the mean over frames of
the per-frame losses, and its gradients are those of that mean. Each
gradient is a dict keyed by the field of the prediction it belongs to.
"""

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "camera_loss",
    "spatial_gradient",
    "depth_loss",
    "depth_loss_backward",
    "optimal_confidence",
    "marginal_penalty",
    "confidence_objective",
]


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.2
    gamma: float = 1.0

    def __post_init__(self):
        # a finite int or float > 0, bools excluded; nan and an int past float64 fail
        bad = [f"{k}={v!r}" for k, v in (("alpha", self.alpha), ("gamma", self.gamma))
               if isinstance(v, bool) or not isinstance(v, (int, float))
               or not 0 < v <= sys.float_info.max]
        if bad:
            raise ValueError(f"bad loss weights: {', '.join(bad)} (must be a finite number > 0)")


@dataclass(frozen=True)
class LossBreakdown:
    cam: float
    reg: float
    unc: float
    grad: float

    @property
    def total(self):
        return self.cam + self.reg + self.unc + self.grad


def _frame_average(per_frame):
    """Mean of per-frame values, or the value itself for one frame."""
    return float(per_frame.sum() / per_frame.size)


def camera_loss(pred, gt):
    """L1 over translation (3), flattened rotation (9), and focal (1).

    ``pred`` and ``gt`` are ``CameraParams``, or objects with the same
    fields stacked over a leading frame axis; a stack gives the mean over
    frames. Returns (loss, gradient w.r.t. ``pred`` keyed by field), where
    the gradient is sign(pred - gt) / F.
    """
    if np.shape(pred.rotation) != np.shape(gt.rotation):
        raise ValueError(
            f"camera shapes differ: {np.shape(pred.rotation)} vs {np.shape(gt.rotation)}"
        )
    diff = {f: getattr(pred, f) - getattr(gt, f) for f in ("rotation", "translation", "focal")}
    per_frame = (
        np.abs(diff["translation"]).sum(axis=-1)
        + np.abs(diff["rotation"]).sum(axis=(-2, -1))
        + np.abs(diff["focal"])
    )
    return _frame_average(per_frame), {f: np.sign(d) / per_frame.size for f, d in diff.items()}


def spatial_gradient(d):
    """Forward differences in x and y over the last two axes; the replicated
    edge has gradient 0."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim < 2 or d.shape[-2] < 2 or d.shape[-1] < 2:
        raise ValueError(f"spatial_gradient needs an H>=2, W>=2 grid, got {d.shape}")
    gx = np.zeros(d.shape)
    gy = np.zeros(d.shape)
    gx[..., :-1] = d[..., 1:] - d[..., :-1]
    gy[..., :-1, :] = d[..., 1:, :] - d[..., :-1, :]
    return gx, gy


def depth_loss(pred, gt_depth, weights):
    """Regression, confidence-weighted uncertainty, and gradient terms.

    reg  = mean (Dhat - D)^2
    unc  = mean (gamma (Dhat - D)^2 * C - alpha log C)
    grad = mean (|dx Dhat - dx D| + |dy Dhat - dy D|)

    Each mean is over one frame's pixels; with (F, H, W) grids each term is
    the mean of the F per-frame values. Returns (LossBreakdown, cache) with
    ``cam`` = 0; the cache is what ``depth_loss_backward`` takes.
    """
    d_hat = pred.depth
    conf = pred.confidence
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    if d_hat.shape != gt_depth.shape:
        raise ValueError(f"depth shape {d_hat.shape} != gt shape {gt_depth.shape}")
    if np.any(conf <= 0.0):
        raise ValueError("confidence map must be strictly positive")
    resid = d_hat - gt_depth
    r_sq = resid**2
    reg = _frame_average(r_sq.mean(axis=(-2, -1)))
    unc = _frame_average(
        (weights.gamma * r_sq * conf - weights.alpha * np.log(conf)).mean(axis=(-2, -1))
    )
    gx_p, gy_p = spatial_gradient(d_hat)
    gx_g, gy_g = spatial_gradient(gt_depth)
    dx, dy = gx_p - gx_g, gy_p - gy_g
    grad = _frame_average((np.abs(dx) + np.abs(dy)).mean(axis=(-2, -1)))
    return LossBreakdown(cam=0.0, reg=reg, unc=unc, grad=grad), (resid, conf, dx, dy, weights)


def depth_loss_backward(cache):
    """Gradients of (reg + unc + grad) from ``depth_loss``'s cache, keyed
    depth and confidence and shaped like them."""
    resid, conf, dx, dy, weights = cache
    n = resid.shape[-2] * resid.shape[-1]  # pixels per frame

    d_depth = 2.0 * resid / n  # reg
    d_depth += 2.0 * weights.gamma * resid * conf / n  # unc through residual
    d_conf = (weights.gamma * resid**2 - weights.alpha / conf) / n

    sx = np.sign(dx) / n
    sy = np.sign(dy) / n
    # adjoint of the forward-difference operators
    d_depth[..., 1:] += sx[..., :-1]
    d_depth[..., :-1] -= sx[..., :-1]
    d_depth[..., 1:, :] += sy[..., :-1, :]
    d_depth[..., :-1, :] -= sy[..., :-1, :]
    n_frames = resid.size // n
    if n_frames > 1:  # the gradient of the mean over frames
        d_depth /= n_frames
        d_conf /= n_frames
    return {"depth": d_depth, "confidence": d_conf}


def confidence_objective(conf, r_sq, weights):
    """Per-pixel uncertainty objective J(C) = gamma r^2 C - alpha log C."""
    if conf <= 0.0:
        raise ValueError(f"confidence must be > 0, got {conf}")
    return weights.gamma * r_sq * conf - weights.alpha * np.log(conf)


def optimal_confidence(r_sq, weights):
    """Unique minimizer of J: alpha / (gamma r^2); requires r^2 > 0."""
    if r_sq <= 0.0:
        raise ValueError(
            f"optimal confidence is undefined for r^2={r_sq}; "
            "a zero residual drives confidence to infinity"
        )
    return weights.alpha / (weights.gamma * r_sq)


def marginal_penalty(r_sq, weights):
    """min_C J(C) = alpha - alpha log(alpha / (gamma r^2))."""
    if r_sq <= 0.0:
        raise ValueError(f"marginal penalty is undefined for r^2={r_sq}")
    return weights.alpha - weights.alpha * np.log(
        weights.alpha / (weights.gamma * r_sq)
    )

