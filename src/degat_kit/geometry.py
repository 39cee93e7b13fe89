"""Depth back-projection, forward projection, and point-cloud export.

Back-projection follows X_cam = depth * K^{-1} (u, v, 1)^T followed by
the rigid transform X_world = R X_cam + T. Forward projection is the
exact inverse, used for round-trip verification, and requires an
orthonormal rotation. PLY export writes a binary little-endian body: the
points as the float32 its header declares, and uint8 colors; it rejects
a point that float32 cannot hold.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import as_finite

__all__ = [
    "CameraParams",
    "DepthMap",
    "PointCloud",
    "intrinsic_matrix",
    "backproject_pixel",
    "depth_to_pointcloud",
    "project_point",
    "write_ply",
]


@dataclass
class CameraParams:
    """Pose and shared-focal intrinsics.

    Orthonormality of ``rotation`` is deliberately not enforced:
    predicted rotations from an unconstrained head may be arbitrary
    matrices under the L1 pose loss.
    """

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)
    focal: float
    principal: tuple = (0.0, 0.0)  # (cx, cy) in pixels

    def __post_init__(self):
        self.rotation = as_finite(self.rotation, "rotation", (2,))
        if self.rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {self.rotation.shape}")
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        self.focal = float(self.focal)
        if self.focal <= 0.0:
            raise ValueError(f"focal must be > 0, got {self.focal}")
        self.principal = (float(self.principal[0]), float(self.principal[1]))


@dataclass
class DepthMap:
    """Per-pixel depth with its paired positive confidence map, for one
    frame or for F frames stacked on a leading axis."""

    depth: np.ndarray  # (H, W) or (F, H, W)
    confidence: np.ndarray  # same shape as depth

    def __post_init__(self):
        self.depth = np.asarray(self.depth, dtype=np.float64)
        self.confidence = np.asarray(self.confidence, dtype=np.float64)
        if self.depth.shape != self.confidence.shape or self.depth.ndim not in (2, 3):
            raise ValueError(
                f"depth {self.depth.shape} and confidence {self.confidence.shape} "
                "must be matching 2-D grids or (F, H, W) stacks"
            )

    @property
    def shape(self):
        return self.depth.shape


@dataclass
class PointCloud:
    points: np.ndarray  # (N, 3)
    colors: np.ndarray = None  # optional (N, 3) in [0, 1]
    skipped: int = 0  # pixels dropped for non-positive depth


def intrinsic_matrix(f, cx=0.0, cy=0.0):
    """Pinhole intrinsic matrix with a single shared focal length."""
    if f <= 0.0:
        raise ValueError(f"focal length must be > 0, got {f}")
    return np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])


def backproject_pixel(u, v, depth, cam):
    """World-frame 3-D point of one pixel at the given finite depth."""
    if not 0.0 < depth < np.inf:
        raise ValueError(f"depth must be finite and > 0, got {depth}")
    f = cam.focal
    cx, cy = cam.principal
    x_cam = depth * np.array([(u - cx) / f, (v - cy) / f, 1.0])
    return cam.rotation @ x_cam + cam.translation


def depth_to_pointcloud(depth_map, cam, image=None):
    """One world point per valid pixel, in row-major pixel order.

    Pixels with non-positive depth are skipped (counted, not errored) so
    occluder-invalidated depth can pass through unharmed. Non-finite depth
    or image values, and a camera that maps a pixel past the float64 range,
    raise ValueError.
    """
    d = depth_map.depth if isinstance(depth_map, DepthMap) else np.asarray(depth_map, dtype=np.float64)
    if d.ndim != 2:
        raise ValueError(f"depth_to_pointcloud takes one (H, W) depth grid, got {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("depth contains non-finite values")
    h, w = d.shape
    f = cam.focal
    cx, cy = cam.principal
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    valid = d > 0.0
    dv = d[valid]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        x_cam = np.stack(
            [dv * (uu[valid] - cx) / f, dv * (vv[valid] - cy) / f, dv], axis=1
        )
        points = x_cam @ cam.rotation.T + cam.translation
    if not np.isfinite(points).all():
        raise ValueError("camera maps a pixel past the float64 range")
    colors = None
    if image is not None:
        img = np.asarray(image, dtype=np.float64)
        if not np.isfinite(img).all():
            raise ValueError("image contains non-finite values")
        if img.ndim == 2:
            img = np.repeat(img[:, :, None], 3, axis=2)
        if img.shape[:2] != (h, w):
            raise ValueError(f"image shape {img.shape[:2]} != depth shape {(h, w)}")
        colors = img[valid]
    return PointCloud(points=points, colors=colors, skipped=int((~valid).sum()))


def project_point(p_world, cam, tol=1e-9):
    """Inverse of backproject_pixel; requires an orthonormal rotation."""
    r = cam.rotation
    if np.max(np.abs(r.T @ r - np.eye(3))) > tol:
        raise ValueError("project_point requires an orthonormal rotation")
    p_world = np.asarray(p_world, dtype=np.float64).reshape(3)
    x_cam = r.T @ (p_world - cam.translation)
    z = x_cam[2]
    if z <= 0.0:
        raise ValueError(f"point is behind the camera (z={z})")
    f = cam.focal
    cx, cy = cam.principal
    return (f * x_cam[0] / z + cx, f * x_cam[1] / z + cy, z)


def write_ply(cloud, path):
    """Binary little-endian PLY 1.0 export: each vertex is x/y/z as the
    float32 its header declares, then, if the cloud has colors, uint8
    red/green/blue; 12 or 15 bytes a vertex after an ASCII header.

    The points must be an (N, 3) array that float32 can hold, and the
    colors, if given, a finite (N, 3) array, clipped to [0, 1]. Anything
    else raises a one-line ValueError before the file is opened.
    """
    points = np.asarray(cloud.points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"PLY points must be an (N, 3) array, got shape {points.shape}")
    n = points.shape[0]
    fields = [("xyz", "<f4", 3)]
    properties = ["float x", "float y", "float z"]
    if cloud.colors is not None:
        colors = np.asarray(cloud.colors, dtype=np.float64)
        if colors.shape != (n, 3):
            raise ValueError(f"PLY colors must be ({n}, 3) like the points, got shape {colors.shape}")
        if not np.isfinite(colors).all():
            raise ValueError("PLY colors contain non-finite values")
        fields.append(("rgb", "u1", 3))
        properties += ["uchar red", "uchar green", "uchar blue"]
    vertex = np.empty(n, dtype=fields)  # packed: no padding between records
    with np.errstate(over="ignore"):
        vertex["xyz"] = points
    if not np.isfinite(vertex["xyz"]).all():
        raise ValueError(
            f"point cloud does not fit the PLY float32 type: largest |coordinate| "
            f"{np.max(np.abs(points)):.6g} exceeds {np.finfo(np.float32).max:.6g}"
        )
    if cloud.colors is not None:
        vertex["rgb"] = np.rint(np.clip(colors, 0.0, 1.0) * 255.0)
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header += [f"property {p}" for p in properties] + ["end_header\n"]
    try:
        with open(path, "wb") as fh:
            fh.write("\n".join(header).encode("ascii"))
            fh.write(vertex.tobytes())
    except OSError as exc:
        raise OSError(f"failed to write PLY to {path}: {exc}") from exc
