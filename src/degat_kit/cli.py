"""Command-line harness.

Exit codes: 0 ok, 1 validation failure, 2 I/O error, 3 numeric abort.
"""

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import fileio
from .geometry import CameraParams, DepthMap, depth_to_pointcloud, write_ply
from .graph import build_knn_graph, dump_neighbors
from .harness import (
    NumericAbort,
    ablate_k,
    generate_scene,
    load_checkpoint,
    load_config,
    save_checkpoint,
    train,
    evaluate,
)
from .metrics import SsimConfig, mse, psnr, ssim
from .properties import run_property_suite

__all__ = ["build_parser", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


def _cmd_check(args):
    results = run_property_suite(fast=args.fast)
    if args.json:
        print(json.dumps([asdict(r) for r in results], indent=2))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"[{status}] {r.name}: {r.detail}")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def _cmd_graph(args):
    img = fileio.read_image(args.input)
    if img.ndim == 3:
        img = img.mean(axis=2)
    h, w = img.shape
    p = args.patch_size
    if p < 1:
        print(f"error: patch size must be >= 1, got {p}", file=sys.stderr)
        return EXIT_VALIDATION
    if h % p or w % p:
        print(f"error: patch size {p} does not divide image {h}x{w}", file=sys.stderr)
        return EXIT_VALIDATION
    gh, gw = h // p, w // p
    feats = img.reshape(gh, p, gw, p).transpose(0, 2, 1, 3).reshape(gh * gw, p * p)
    g = build_knn_graph(feats, args.k, args.metric)
    record = dump_neighbors(g, gw, args.query)
    print(json.dumps(record, indent=2))
    return EXIT_OK


def _cmd_train(args):
    cfg, weights, trainer = load_config(args.config)
    scene = generate_scene(
        trainer["scene_seed"], trainer["n_frames"], cfg.image_h, cfg.image_w
    )
    report, params = train(cfg, scene, trainer["steps"], trainer["lr"], weights)
    os.makedirs(args.out, exist_ok=True)
    out = {
        "config": report.config,
        "initial_metrics": report.initial_metrics,
        "final_metrics": report.final_metrics,
        "wall_time": report.wall_time,
        "history": [
            {"cam": b.cam, "reg": b.reg, "unc": b.unc, "grad": b.grad, "total": b.total}
            for b in report.history
        ],
    }
    with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2)
    save_checkpoint(os.path.join(args.out, "checkpoint"), cfg, params)
    print(json.dumps({"final_metrics": report.final_metrics,
                      "steps": trainer["steps"],
                      "final_total": out["history"][-1]["total"] if out["history"] else None}))
    return EXIT_OK


def _cmd_eval(args):
    cfg, params = load_checkpoint(args.checkpoint)
    scene = generate_scene(args.scene_seed, args.n_frames, cfg.image_h, cfg.image_w)
    with np.errstate(all="ignore"):  # an overflowed prediction is reported below
        scores = evaluate(params, cfg, scene)
    # PSNR is +inf for an exact prediction; any other inf, and any nan, is not a score
    bad = sorted(k for k, v in scores.items() if np.isnan(v) or (np.isinf(v) and k != "psnr"))
    if bad:
        print(f"error: non-finite scores {bad}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(scores, indent=2))
    return EXIT_OK


POSE_KEYS = ("R", "T", "f", "cx", "cy")


def _read_pose(path):
    """The camera of a pose JSON object (see README): every key present and
    every value finite, since a nan or inf pose back-projects to nan points."""
    with open(path, "r", encoding="utf-8") as fh:
        pose = json.load(fh)
    if not isinstance(pose, dict):
        raise ValueError(f"pose {path} must hold a JSON object, got {type(pose).__name__}")
    missing = [key for key in POSE_KEYS if key not in pose]
    if missing:
        raise ValueError(f"pose {path} lacks keys {missing}")
    values = {key: np.asarray(pose[key], dtype=np.float64) for key in POSE_KEYS}
    bad = [key for key, v in values.items() if not np.isfinite(v).all()]
    if bad:
        raise ValueError(f"pose {path} has non-finite values in {bad}")
    return CameraParams(
        rotation=values["R"].reshape(3, 3), translation=values["T"],
        focal=float(values["f"]), principal=(float(values["cx"]), float(values["cy"])),
    )


def _cmd_backproject(args):
    depth = fileio.read_pfm(args.depth)
    cam = _read_pose(args.pose)
    image = fileio.read_image(args.image) if args.image else None
    dm = DepthMap(depth=depth, confidence=np.ones_like(depth))
    cloud = depth_to_pointcloud(dm, cam, image)
    write_ply(cloud, args.out)
    print(json.dumps({"points": int(cloud.points.shape[0]), "skipped": cloud.skipped}))
    return EXIT_OK


def _cmd_metrics(args):
    a = fileio.read_image(args.a)
    b = fileio.read_image(args.b)
    out = {"mse": mse(a, b), "psnr": psnr(a, b, args.max_val)}
    cfg = SsimConfig(dynamic_range=args.max_val)
    if min(a.shape[:2]) >= cfg.window:
        out["ssim"] = ssim(a, b, cfg)
    print(json.dumps(out, indent=2))
    return EXIT_OK


def _cmd_ablate_k(args):
    cfg, weights, trainer = load_config(args.config)
    scene = generate_scene(
        trainer["scene_seed"], trainer["n_frames"], cfg.image_h, cfg.image_w
    )
    try:
        ks = [int(s) for s in args.ks.split(",")]
    except ValueError:
        raise ValueError(f"--ks must be comma-separated integers, got {args.ks!r}") from None
    rows = ablate_k(cfg, scene, ks, trainer["steps"], trainer["lr"], weights)
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="degat-kit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run the full property suite")
    c.add_argument("--json", action="store_true")
    c.add_argument("--fast", action="store_true")
    c.set_defaults(func=_cmd_check)

    g = sub.add_parser("graph", help="emit a neighbor-dump JSON record")
    g.add_argument("--input", required=True)
    g.add_argument("--k", type=int, default=9)
    g.add_argument("--metric", choices=("cosine", "euclidean"), default="cosine")
    g.add_argument("--query", type=int, default=0)
    g.add_argument("--patch-size", type=int, default=8)
    g.set_defaults(func=_cmd_graph)

    t = sub.add_parser("train", help="train on a synthetic scene")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a seeded scene")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--scene-seed", type=int, default=0)
    e.add_argument("--n-frames", type=int, default=4)
    e.set_defaults(func=_cmd_eval)

    b = sub.add_parser("backproject", help="depth map to PLY point cloud")
    b.add_argument("--depth", required=True)
    b.add_argument("--pose", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--image", default=None)
    b.set_defaults(func=_cmd_backproject)

    m = sub.add_parser("metrics", help="MSE/PSNR/SSIM between two images")
    m.add_argument("--a", required=True)
    m.add_argument("--b", required=True)
    m.add_argument("--max-val", type=float, default=1.0)
    m.set_defaults(func=_cmd_metrics)

    a = sub.add_parser("ablate-k", help="sweep neighbor counts, emit CSV")
    a.add_argument("--config", required=True)
    a.add_argument("--ks", default="2,5,9,14,18")
    a.set_defaults(func=_cmd_ablate_k)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, json.JSONDecodeError, RecursionError) as exc:  # JSON nested too deep
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError, OverflowError) as exc:  # a JSON int past float64
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # a last resort: no command bounds what its input allocates
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
