"""The benchmark's four workloads.

Each workload builds all of its inputs from the seed in its constructor
(set-up), runs one op per ``op(i)`` call, and checks an op's output in
``check(i, out)`` outside the timed region. ``cycle`` is the number of ops
after which the inputs repeat; the runner stops only on a cycle boundary so
that per-op averages always cover the same input mix. README.md records why
each workload exists and what each per-layer metric should move.
"""

import itertools
import os

import numpy as np

from degat_kit import degat, fileio, geometry, harness, properties, toy_model

PLACEMENTS = ("none", "pre", "post")
CONDITIONINGS = ("none", "additive", "film", "cross_attn")
BIASES = ("none", "bucket", "mlp_bias", "log_affinity")
TRAIN_LR = 0.02
TOL = 1e-12


def _patch_tokens(frame, p):
    h, w = frame.shape
    return frame.reshape(h // p, p, w // p, p).transpose(0, 2, 1, 3).reshape(-1, p * p)


def _elu(m):
    return np.where(m >= 0.0, m, np.expm1(np.minimum(m, 0.0)))


class TrainGrid:
    """One training step (loss_and_grads + sgd_step), round-robin over all
    48 model variants at the default config (4 frames of 32x32, L=16)."""

    def __init__(self, seed, smoke, workdir):
        size, k, n_frames = (16, 3, 2) if smoke else (32, 9, 4)
        self.scene = harness.generate_scene(seed, n_frames=n_frames, h=size, w=size)
        self.configs = [
            toy_model.ModelConfig(
                image_h=size, image_w=size, k_neighbors=k, seed=seed,
                degat_placement=p, token_conditioning=c, attention_bias=b,
            )
            for p, c, b in itertools.product(PLACEMENTS, CONDITIONINGS, BIASES)
        ]
        self.params = [toy_model.init_model_params(cfg) for cfg in self.configs]
        self.cycle = len(self.configs)
        self.min_cycles = 2  # every variant needs a first and a last loss
        self.tokens_per_op = n_frames * self.configs[0].n_tokens
        self.first_loss = {}
        self.last_loss = {}

    def _step(self, i):
        v = i % self.cycle
        s = self.scene
        breakdown, grads = toy_model.loss_and_grads(
            self.params[v], self.configs[v], s.frames, s.gt_depth, s.gt_cameras
        )
        return v, breakdown.total, toy_model.sgd_step(self.params[v], grads, TRAIN_LR)

    def warm_up(self):
        for i in range(self.cycle):
            self._step(i)

    def op(self, i):
        v, loss, new_params = self._step(i)
        self.params[v] = new_params
        return v, loss

    def check(self, i, out):
        v, loss = out
        self.first_loss.setdefault(v, loss)
        self.last_loss[v] = loss
        return bool(np.isfinite(loss))

    def final_failures(self):
        """Variants whose last loss is not below their first."""
        return sum(1 for v, first in self.first_loss.items() if not self.last_loss[v] < first)


class HopLarge:
    """One DeGAT hop forward + backward on L=1024 patch tokens (C=64, K=9),
    alternating cosine and euclidean over three seeded 256x256 frames."""

    METRICS = ("cosine", "euclidean")
    K = 9
    PATCH = 8

    def __init__(self, seed, smoke, workdir):
        size = 64 if smoke else 256
        scene = harness.generate_scene(seed, n_frames=3, h=size, w=size)
        self.tokens = [_patch_tokens(f, self.PATCH) for f in scene.frames]
        rng = np.random.default_rng(seed)
        c = self.PATCH * self.PATCH
        self.params = degat.init_degat_params(c, rng=rng)
        self.upstream = [rng.standard_normal(t.shape) for t in self.tokens]
        self.cycle = 6  # every (frame, metric) pair once
        self.min_cycles = 1
        self.tokens_per_op = self.tokens[0].shape[0]

    def _inputs(self, i):
        f = i % len(self.tokens)
        return f, self.METRICS[i % 2]

    def warm_up(self):
        for i in range(2):
            self.op(i)

    def op(self, i):
        f, metric = self._inputs(i)
        x_out, cache = degat.degat_forward(self.tokens[f], self.params, self.K, metric)
        grads = degat.degat_backward(cache, self.params, self.upstream[f])
        return x_out, cache.graph.neighbors, cache.alpha, grads

    def check(self, i, out):
        from scipy.spatial.distance import cdist

        x_out, nb, alpha, grads = out
        f, metric = self._inputs(i)
        x = self.tokens[f]
        n = x.shape[0]
        rows = np.arange(n)
        if nb.shape != (n, self.K) or np.any(nb == rows[:, None]):
            return False
        srt = np.sort(nb, axis=1)
        if np.any(srt[:, 1:] == srt[:, :-1]):
            return False

        # Top-K against keys computed independently of the graph module.
        key = cdist(x, x, metric)  # cosine distance = 1 - cosine similarity
        key[np.isnan(key)] = 1.0  # zero rows: similarity 0 with everyone
        np.fill_diagonal(key, np.inf)
        sel = np.take_along_axis(key, nb, axis=1)
        if np.any(np.diff(sel, axis=1) < -TOL):
            return False
        key[rows[:, None], nb] = np.inf
        if np.any(key.min(axis=1) < sel[:, -1] - TOL):
            return False

        # Sparse hop equals the dense form x + ELU(A x W_val^T).
        a = np.zeros((n, n))
        a[rows[:, None], nb] = alpha
        dense = x + _elu(a @ (x @ self.params.w_val.T))
        if np.max(np.abs(x_out - dense)) > TOL:
            return False
        return all(
            np.all(np.isfinite(g))
            for g in (grads.d_w_proj, grads.d_a, grads.d_w_val, grads.d_x)
        )

    def final_failures(self):
        return 0


class EvalExport:
    """Load a checkpoint, evaluate a 2-frame 128x128 scene (L=256), run one
    frame forward, export a PLY point cloud and round-trip PFM/PGM files,
    alternating two perturbed checkpoints."""

    CHECKPOINTS = (("pre", "cross_attn", "log_affinity"), ("post", "film", "mlp_bias"))
    PERTURB = 0.05

    def __init__(self, seed, smoke, workdir):
        size = 32 if smoke else 128
        self.scene = harness.generate_scene(seed, n_frames=2, h=size, w=size)
        rng = np.random.default_rng(seed)
        self.paths, self.saved = [], []
        for placement, cond, bias in self.CHECKPOINTS:
            cfg = toy_model.ModelConfig(
                image_h=size, image_w=size, seed=seed, degat_placement=placement,
                token_conditioning=cond, attention_bias=bias,
            )
            params = {
                k: v + self.PERTURB * rng.standard_normal(v.shape)
                for k, v in sorted(toy_model.init_model_params(cfg).items())
            }
            path = os.path.join(workdir, f"ckpt-{placement}-{cond}-{bias}")
            harness.save_checkpoint(path, cfg, params)
            self.paths.append(path)
            self.saved.append(params)
        self.ply = os.path.join(workdir, "cloud.ply")
        self.pfm = os.path.join(workdir, "depth.pfm")
        self.pgm = os.path.join(workdir, "frame.pgm")
        self.cycle = len(self.CHECKPOINTS)
        self.min_cycles = 1
        self.tokens_per_op = 3 * cfg.n_tokens  # two evaluated frames + one forward

    def warm_up(self):
        for i in range(self.cycle):
            self.op(i)

    def op(self, i):
        j = i % self.cycle
        cfg, params = harness.load_checkpoint(self.paths[j])
        scores = harness.evaluate(params, cfg, self.scene)
        frame = self.scene.frames[0]
        depth_maps, cams, _ = toy_model.forward(params, cfg, [frame])
        depth = depth_maps[0].depth
        cloud = geometry.depth_to_pointcloud(depth_maps[0], cams[0], image=frame)
        geometry.write_ply(cloud, self.ply)
        fileio.write_pfm(self.pfm, depth)
        depth_back = fileio.read_pfm(self.pfm)
        fileio.write_pnm(self.pgm, frame)
        frame_back = fileio.read_pnm(self.pgm)
        return j, params, scores, depth, cloud.skipped, depth_back, frame_back

    def check(self, i, out):
        j, params, scores, depth, skipped, depth_back, frame_back = out
        saved = self.saved[j]
        if sorted(params) != sorted(saved) or not all(
            np.array_equal(params[k], saved[k]) for k in saved
        ):
            return False
        if not all(np.isfinite(v) for v in scores.values()):
            return False
        with open(self.ply, "rb") as fh:
            header = fh.read(512).split(b"end_header")[0].decode("ascii")
        vertices = [int(ln.split()[2]) for ln in header.splitlines() if ln.startswith("element vertex")]
        if vertices != [depth.size - skipped]:
            return False
        if not np.array_equal(depth_back, depth.astype(np.float32).astype(np.float64)):
            return False
        frame = self.scene.frames[0]
        return np.array_equal(frame_back, np.rint(np.clip(frame, 0.0, 1.0) * 255.0) / 255.0)

    def final_failures(self):
        return 0


class Verify:
    """``properties.run_property_suite(fast=True)``, the work behind
    ``degat-kit check --fast``. The suite draws its instances from its own
    fixed seeds, so the benchmark seed does not change this workload."""

    def __init__(self, seed, smoke, workdir):
        self.cycle = 1
        self.min_cycles = 1
        self.tokens_per_op = None  # measured: the suite's hops vary in size

    def warm_up(self):
        self.op(0)

    def op(self, i):
        return properties.run_property_suite(fast=True)

    def check(self, i, out):
        return bool(out) and all(r.passed for r in out)

    def final_failures(self):
        return 0


WORKLOADS = {
    "train-grid": TrainGrid,
    "hop-large": HopLarge,
    "eval-export": EvalExport,
    "verify": Verify,
}
