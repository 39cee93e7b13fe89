"""Synthetic deformable scenes, the training/evaluation loop, config I/O,
and checkpoints of two files: a JSON manifest and one float64 blob.

The scene generator stands in for real endoscopic footage at desk scale:
a smooth random depth surface, small rigid per-frame camera motion,
depth-correlated shading, and a moving bright bar that overwrites both
color and depth like an instrument occluder. Everything is deterministic
per seed.
"""

import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .geometry import CameraParams
from .metrics import SsimConfig, psnr, ssim
from .numerics import check_arrays, check_shapes
from .objective import LossWeights, camera_loss
from .toy_model import (
    ModelConfig, forward, init_model_params, loss_and_grads, param_shapes, sgd_step,
)

__all__ = [
    "SyntheticScene",
    "RunReport",
    "NumericAbort",
    "generate_scene",
    "train",
    "evaluate",
    "ablate_k",
    "load_config",
    "save_checkpoint",
    "load_checkpoint",
]

TRAINER_KEYS = {"steps", "lr", "n_frames", "scene_seed"}
WEIGHT_KEYS = {"alpha", "gamma"}
MODEL_KEYS = {f.name for f in fields(ModelConfig)}

DEFAULT_TRAINER = {"steps": 300, "lr": 0.02, "n_frames": 4, "scene_seed": 0}


# trainer key -> (what its value must be, test); bools are not integers here
CONFIG_VALUE_CHECKS = {
    "steps": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    "n_frames": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "scene_seed": ("an integer >= 0", lambda v: type(v) is int and v >= 0),
    # an int past float64 compares exactly, so it fails here rather than overflow
    "lr": ("a finite number >= 0",
           lambda v: type(v) in (int, float) and 0 <= v <= sys.float_info.max),
}


class NumericAbort(RuntimeError):
    """Raised when a training step produces a non-finite loss or gradient."""

    def __init__(self, step, what):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step


@dataclass
class SyntheticScene:
    frames: list  # (H, W) float grids in [0, 1]
    gt_depth: list  # (H, W) positive depth grids
    gt_cameras: list  # CameraParams with orthonormal rotations
    occluder_masks: list  # (H, W) bool grids


@dataclass
class RunReport:
    history: list  # LossBreakdown per step
    initial_metrics: dict
    final_metrics: dict
    wall_time: float
    config: dict


def _rodrigues(axis, angle):
    axis = axis / np.linalg.norm(axis)
    kx, ky, kz = axis
    k_cross = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + np.sin(angle) * k_cross + (1.0 - np.cos(angle)) * (k_cross @ k_cross)


def generate_scene(seed, n_frames=4, h=32, w=32):
    """Deterministic synthetic deformable scene with an occluding bar."""
    if h < 16 or w < 16:
        raise ValueError(f"scene must be at least 16x16, got {h}x{w}")
    if n_frames < 1:
        raise ValueError("need at least one frame")
    rng = np.random.default_rng(seed)

    yy, xx = np.meshgrid(
        np.linspace(0.0, 1.0, h), np.linspace(0.0, 1.0, w), indexing="ij"
    )
    n_bumps = 4
    amps = rng.uniform(-0.3, 0.3, n_bumps)
    cxs = rng.uniform(0.1, 0.9, n_bumps)
    cys = rng.uniform(0.1, 0.9, n_bumps)
    sig = rng.uniform(0.1, 0.25, n_bumps)
    base = np.full((h, w), 1.5)
    for a, cx, cy, s in zip(amps, cxs, cys, sig):
        base = base + a * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * s**2))

    bar_w = max(2, w // 8)
    focal_gt = 1.2
    frames, depths, cams, masks = [], [], [], []
    for t in range(n_frames):
        # small smooth per-frame deformation of the surface
        phase = rng.uniform(0.0, 2.0 * np.pi)
        deform = 0.02 * np.sin(2.0 * np.pi * xx + phase) * np.cos(2.0 * np.pi * yy)
        depth = base + deform

        norm = (depth - depth.min()) / max(depth.max() - depth.min(), 1e-12)
        frame = 0.3 + 0.5 * (1.0 - norm) + 0.05 * rng.standard_normal((h, w))

        # instrument bar sweeping across the view
        col = int(round((t / max(n_frames - 1, 1)) * (w - bar_w)))
        mask = np.zeros((h, w), dtype=bool)
        mask[:, col:col + bar_w] = True
        frame = np.where(mask, 0.95, frame)
        depth = np.where(mask, 0.6, depth)

        axis = rng.standard_normal(3)
        angle = 0.03 * t + rng.uniform(-0.005, 0.005)
        rotation = _rodrigues(axis, angle)
        translation = 0.02 * t * rng.standard_normal(3)
        cams.append(
            CameraParams(
                rotation=rotation,
                translation=translation,
                focal=focal_gt,
                principal=((w - 1) / 2.0, (h - 1) / 2.0),
            )
        )
        frames.append(np.clip(frame, 0.0, 1.0))
        depths.append(depth)
        masks.append(mask)
    return SyntheticScene(
        frames=frames, gt_depth=depths, gt_cameras=cams, occluder_masks=masks
    )


def _normalized(depth):
    lo, hi = depth.min(), depth.max()
    if hi - lo <= 0.0:
        return np.zeros_like(depth)
    return (depth - lo) / (hi - lo)


def evaluate(params, cfg, scene):
    """Depth error, camera loss, and PSNR/SSIM on normalized depth images;
    PSNR and SSIM read nan when a predicted depth map is not finite."""
    depth_maps, cams, _ = forward(params, cfg, scene.frames)
    abs_err = float(
        np.mean([np.abs(dm.depth - gt).mean() for dm, gt in zip(depth_maps, scene.gt_depth)])
    )
    cam_err = float(
        np.mean([camera_loss(c, gt)[0] for c, gt in zip(cams, scene.gt_cameras)])
    )
    ssim_cfg = SsimConfig(dynamic_range=1.0)
    psnrs, ssims = [], []
    for dm, gt in zip(depth_maps, scene.gt_depth):
        a = _normalized(dm.depth)
        b = _normalized(np.asarray(gt))
        finite = np.isfinite(a).all()  # an overflowed prediction has no fidelity score
        psnrs.append(psnr(a, b, 1.0) if finite else np.nan)
        if min(a.shape) >= ssim_cfg.window:
            ssims.append(ssim(a, b, ssim_cfg) if finite else np.nan)
    out = {
        "mean_abs_depth_error": abs_err,
        "camera_loss": cam_err,
        "psnr": float(np.mean(psnrs)),
    }
    if ssims:
        out["ssim"] = float(np.mean(ssims))
    return out


def train(cfg, scene, steps, lr, weights=LossWeights(), params=None):
    """Plain gradient descent on the base loss; aborts on a non-finite loss
    or gradient."""
    t0 = time.perf_counter()
    if params is None:
        params = init_model_params(cfg)
    initial_metrics = evaluate(params, cfg, scene)
    history = []
    for step in range(steps):
        breakdown, grads = loss_and_grads(
            params, cfg, scene.frames, scene.gt_depth, scene.gt_cameras, weights
        )
        if not np.isfinite(breakdown.total):
            raise NumericAbort(step, f"loss {breakdown.total}")
        bad = sorted(k for k, g in grads.items() if not np.isfinite(g).all())
        if bad:
            raise NumericAbort(step, f"gradient for {bad}")
        history.append(breakdown)
        params = sgd_step(params, grads, lr)
    final_metrics = evaluate(params, cfg, scene)
    report = RunReport(
        history=history,
        initial_metrics=initial_metrics,
        final_metrics=final_metrics,
        wall_time=time.perf_counter() - t0,
        config={**asdict(cfg), "steps": steps, "lr": lr,
                "alpha": weights.alpha, "gamma": weights.gamma},
    )
    return report, params


def ablate_k(cfg, scene, k_values, steps, lr, weights=LossWeights()):
    """One train+evaluate run per neighbor count, same seed throughout."""
    rows = []
    for k in k_values:
        cfg_k = ModelConfig(**{**asdict(cfg), "k_neighbors": int(k)})
        report, _ = train(cfg_k, scene, steps, lr, weights)
        final = report.history[-1] if report.history else None
        rows.append(
            {
                "k": int(k),
                "final_total": final.total if final else None,
                "final_cam": final.cam if final else None,
                "final_reg": final.reg if final else None,
                **{f"metric_{m}": v for m, v in report.final_metrics.items()},
            }
        )
    return rows


# ---------------------------------------------------------------------------
# config and checkpoint I/O


def load_config(path):
    """Read a flat JSON config; unknown keys are errors (catches typos), and so
    are trainer values that ``CONFIG_VALUE_CHECKS`` rejects and loss weights
    that ``LossWeights`` rejects."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must hold a JSON object, got {type(raw).__name__}")
    allowed = MODEL_KEYS | WEIGHT_KEYS | TRAINER_KEYS
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    bad = [f"{k}={raw[k]!r} (must be {what})"
           for k, (what, ok) in CONFIG_VALUE_CHECKS.items() if k in raw and not ok(raw[k])]
    if bad:
        raise ValueError(f"bad config values: {', '.join(bad)}")
    cfg = ModelConfig(**{k: v for k, v in raw.items() if k in MODEL_KEYS})
    weights = LossWeights(**{k: raw[k] for k in WEIGHT_KEYS if k in raw})
    trainer = {**DEFAULT_TRAINER, **{k: raw[k] for k in TRAINER_KEYS if k in raw}}
    return cfg, weights, trainer


def save_checkpoint(path, cfg, params):
    """Write ``manifest.json`` (the config and each parameter's shape) and
    ``params.bin`` (each array of the config's variant as ``<f8``, concatenated
    in ``param_shapes(cfg)`` order). Params that ``check_arrays`` rejects raise
    ValueError unwritten."""
    expected = param_shapes(cfg)
    check_arrays(params, expected)
    os.makedirs(path, exist_ok=True)
    manifest = {"config": asdict(cfg), "params": {k: list(s) for k, s in expected.items()}}
    with open(os.path.join(path, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    blob = np.concatenate([np.ravel(params[k]) for k in expected]).astype("<f8", copy=False)
    blob.tofile(os.path.join(path, "params.bin"))


def load_checkpoint(path):
    """Read a checkpoint written by ``save_checkpoint``: the arrays are views
    of one array, cut in ``param_shapes`` order whatever the manifest's order.

    The manifest must hold a config of known keys and list exactly the
    parameters, with the shapes, that ``param_shapes`` gives for that
    config, and every value must be finite; anything else raises
    ValueError, which names the missing and unexpected keys of a manifest
    that lists other layers than the variant's. A ``params.bin`` that is
    missing (as in the older format of one file per parameter) or of the
    wrong size raises OSError.
    """
    with open(os.path.join(path, "manifest.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest = manifest if isinstance(manifest, dict) else {}
    config, shapes = manifest.get("config"), manifest.get("params")
    if not isinstance(shapes, dict) or not isinstance(config, dict):
        raise ValueError(f"checkpoint manifest in {path} lacks 'config' or 'params'")
    unknown = sorted(set(config) - MODEL_KEYS)
    if unknown:
        raise ValueError(f"unknown checkpoint config keys: {unknown}")
    cfg = ModelConfig(**config)
    not_shapes = sorted(k for k, shape in shapes.items()
                        if not (isinstance(shape, list) and all(type(d) is int for d in shape)))
    if not_shapes:
        raise ValueError(f"checkpoint parameter shapes are not lists of integers: {not_shapes}")
    expected = param_shapes(cfg)
    check_shapes(shapes, expected)
    sizes = [math.prod(shape) for shape in expected.values()]
    blob_path = os.path.join(path, "params.bin")
    size, need = os.path.getsize(blob_path), 8 * sum(sizes)
    if size != need:
        raise OSError(f"{blob_path} has {size} bytes, {len(sizes)} parameters need {need}")
    blob = np.fromfile(blob_path, dtype="<f8").astype(np.float64, copy=False)
    parts = np.split(blob, np.cumsum(sizes)[:-1])
    params = {k: part.reshape(shape) for (k, shape), part in zip(expected.items(), parts)}
    check_arrays(params, expected)
    return cfg, params
