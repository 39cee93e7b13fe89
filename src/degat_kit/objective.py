"""Training objective: L1 camera loss, three-part depth loss, and the
closed-form optimal-confidence utilities, plus a generic central
finite-difference gradient checker.

All pixel losses are means over pixels so the loss scale is independent
of resolution. The camera and depth losses take one frame or F frames
stacked on a leading axis: depth grids (F, H, W), and rotations (F, 3, 3),
translations (F, 3) and focals (F,). A stack gives the mean over frames of
the per-frame losses, and its gradients are those of that mean.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "camera_loss",
    "spatial_gradient",
    "depth_loss",
    "optimal_confidence",
    "marginal_penalty",
    "confidence_objective",
    "finite_diff_grad",
    "finite_diff_check",
]


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 0.2
    gamma: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0.0 or self.gamma <= 0.0:
            raise ValueError(f"loss weights must be positive: {self}")


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
    frames.
    """
    if np.shape(pred.rotation) != np.shape(gt.rotation):
        raise ValueError(
            f"camera shapes differ: {np.shape(pred.rotation)} vs {np.shape(gt.rotation)}"
        )
    per_frame = (
        np.abs(pred.translation - gt.translation).sum(axis=-1)
        + np.abs(pred.rotation - gt.rotation).sum(axis=(-2, -1))
        + np.abs(pred.focal - gt.focal)
    )
    return _frame_average(per_frame)


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
    the mean of the F per-frame values.
    """
    d_hat = pred.depth
    conf = pred.confidence
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    if d_hat.shape != gt_depth.shape:
        raise ValueError(f"depth shape {d_hat.shape} != gt shape {gt_depth.shape}")
    if np.any(conf <= 0.0):
        raise ValueError("confidence map must be strictly positive")
    r_sq = (d_hat - gt_depth) ** 2
    reg = _frame_average(r_sq.mean(axis=(-2, -1)))
    unc = _frame_average(
        (weights.gamma * r_sq * conf - weights.alpha * np.log(conf)).mean(axis=(-2, -1))
    )
    gx_p, gy_p = spatial_gradient(d_hat)
    gx_g, gy_g = spatial_gradient(gt_depth)
    grad = _frame_average((np.abs(gx_p - gx_g) + np.abs(gy_p - gy_g)).mean(axis=(-2, -1)))
    return LossBreakdown(cam=0.0, reg=reg, unc=unc, grad=grad)


def depth_loss_backward(pred, gt_depth, weights):
    """Gradients of (reg + unc + grad) w.r.t. predicted depth and confidence,
    shaped like them."""
    d_hat = pred.depth
    conf = pred.confidence
    gt_depth = np.asarray(gt_depth, dtype=np.float64)
    n = d_hat.shape[-2] * d_hat.shape[-1]  # pixels per frame
    resid = d_hat - gt_depth

    d_depth = 2.0 * resid / n  # reg
    d_depth += 2.0 * weights.gamma * resid * conf / n  # unc through residual
    d_conf = (weights.gamma * resid**2 - weights.alpha / conf) / n

    gx_p, gy_p = spatial_gradient(d_hat)
    gx_g, gy_g = spatial_gradient(gt_depth)
    sx = np.sign(gx_p - gx_g) / n
    sy = np.sign(gy_p - gy_g) / n
    # adjoint of the forward-difference operators
    d_depth[..., 1:] += sx[..., :-1]
    d_depth[..., :-1] -= sx[..., :-1]
    d_depth[..., 1:, :] += sy[..., :-1, :]
    d_depth[..., :-1, :] -= sy[..., :-1, :]
    n_frames = d_hat.size // n
    if n_frames > 1:  # the gradient of the mean over frames
        d_depth /= n_frames
        d_conf /= n_frames
    return d_depth, d_conf


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


def finite_diff_grad(f, point, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    flat = grad.ravel()
    p = point.copy().ravel()
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + step
        f_plus = f(p.reshape(point.shape))
        p[i] = orig - step
        f_minus = f(p.reshape(point.shape))
        p[i] = orig
        if not np.isfinite(f_plus) or not np.isfinite(f_minus):
            raise FloatingPointError(f"non-finite evaluation at coordinate {i}")
        flat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def finite_diff_check(f, analytic_grad, point, step=1e-5):
    """Max relative error of an analytic gradient vs central differences.

    Error is measured relative to max(1, |analytic|) per coordinate.
    """
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    numeric = finite_diff_grad(f, point, step)
    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))
