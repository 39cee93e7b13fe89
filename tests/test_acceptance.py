"""Acceptance gate: twelve pinned criteria with stated tolerances.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s or in the
captured output) and asserts the same condition.
"""

import math
import time

import numpy as np
import pytest

from degat_kit import conditioning as cond
from degat_kit import degat as dg
from degat_kit import properties as props
from degat_kit.geometry import CameraParams, backproject_pixel, project_point
from degat_kit.harness import ablate_k, generate_scene, train
from degat_kit.metrics import SsimConfig, mse, psnr, ssim
from degat_kit.objective import LossWeights
from degat_kit.toy_model import ModelConfig, init_model_params, loss, loss_and_grads


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {num:2d} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_row_stochastic():
    t0 = time.perf_counter()
    r = props.check_row_stochastic(n_instances=1000, tol=1e-12)
    elapsed = time.perf_counter() - t0
    report(1, "row-stochastic attention", r.passed and elapsed < 10.0,
           f"{r.detail}, {elapsed:.1f}s over 1000 instances")


def test_criterion_02_convex_hull():
    r = props.check_convex_hull(n_instances=1000, tol=1e-12)
    report(2, "convex-hull message bounds", r.passed, r.detail)


def test_criterion_03_norm_bound():
    r1 = props.check_norm_bound(n_instances=1000, tol=1e-9)
    r2 = props.check_elu_nonexpansive(n=10000)
    report(3, "norm bound + ELU non-expansive", r1.passed and r2.passed,
           f"{r1.detail}; {r2.detail}")


def test_criterion_04_permutation_equivariance():
    r = props.check_permutation_equivariance(n_perms=100, tol=1e-9)
    report(4, "permutation equivariance", r.passed, r.detail)


def _whole_model_fd_error(cfg, seed, step=1e-5):
    """Full central-difference check of every parameter coordinate."""
    rng = np.random.default_rng(seed)
    params = init_model_params(cfg)
    params = {k: v + 0.05 * rng.standard_normal(v.shape) for k, v in params.items()}
    frames = [rng.uniform(0.0, 1.0, (cfg.image_h, cfg.image_w))]
    gt_depths = [rng.uniform(0.8, 1.5, (cfg.image_h, cfg.image_w))]
    gt_cams = [CameraParams(np.eye(3) + 0.4, rng.uniform(0.5, 1.0, 3), 2.0,
                            ((cfg.image_w - 1) / 2, (cfg.image_h - 1) / 2))]
    weights = LossWeights()

    _, grads = loss_and_grads(params, cfg, frames, gt_depths, gt_cams, weights)
    keys = sorted(params)
    theta = np.concatenate([params[k].ravel() for k in keys])
    analytic = np.concatenate([grads[k].ravel() for k in keys])

    def unflatten(t):
        out = {}
        pos = 0
        for k in keys:
            size = params[k].size
            out[k] = t[pos:pos + size].reshape(params[k].shape)
            pos += size
        return out

    def f(t):
        return loss(unflatten(t), cfg, frames, gt_depths, gt_cams, weights).total

    worst = 0.0
    for i in range(theta.size):
        t = theta.copy()
        t[i] += step
        fp = f(t)
        t[i] -= 2 * step
        fm = f(t)
        num = (fp - fm) / (2 * step)
        worst = max(worst, abs(num - analytic[i]) / max(1.0, abs(analytic[i])))
    return worst


def test_criterion_05_gradient_fidelity():
    t0 = time.perf_counter()
    module = props.check_gradients(tol=1e-4)
    small = dict(image_h=16, image_w=16, patch_size=8, embed_dim=8, n_blocks=1,
                 n_heads=2, k_neighbors=2, cond_hidden=4, bias_hidden=4,
                 ffn_mult=2, cam_hidden=4, n_buckets=4)
    whole = max(
        _whole_model_fd_error(
            ModelConfig(**small, degat_placement="pre",
                        token_conditioning="film", attention_bias="bucket"),
            seed=0,
        ),
        _whole_model_fd_error(
            ModelConfig(**small, degat_placement="post",
                        token_conditioning="cross_attn", attention_bias="mlp_bias"),
            seed=1,
        ),
    )
    elapsed = time.perf_counter() - t0
    passed = module.passed and whole <= 1e-3 and elapsed < 120.0
    report(5, "gradient fidelity",
           passed, f"modules: {module.detail}; whole model: {whole:.2e}; {elapsed:.0f}s")


def test_criterion_06_optimal_confidence():
    r = props.check_optimal_confidence(n=100, tol=1e-6, exact_tol=1e-12)
    report(6, "optimal confidence closed form", r.passed, r.detail)


def test_criterion_07_geometry_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        cam = CameraParams(
            rotation=q,
            translation=rng.uniform(-5.0, 5.0, 3),
            focal=float(rng.uniform(0.2, 10.0)),
            principal=tuple(rng.uniform(-3.0, 3.0, 2)),
        )
        u, v = rng.uniform(-20.0, 20.0, 2)
        d = float(rng.uniform(1e-2, 1e2))
        u2, v2, d2 = project_point(backproject_pixel(u, v, d, cam), cam)
        worst = max(worst, abs(u2 - u), abs(v2 - v), abs(d2 - d) / d)
    report(7, "projection round trip", worst <= 1e-9,
           f"max deviation {worst:.2e} over 1000 poses")


def _oracle_mse(a, b):
    total = 0.0
    for x, y in zip(a.ravel(), b.ravel()):
        total += (x - y) ** 2
    return total / a.size


def _oracle_ssim(x, y, cfg):
    half = cfg.window // 2
    coords = np.arange(-half, half + 1, dtype=np.float64)
    g = np.exp(-(coords**2) / (2.0 * cfg.sigma**2))
    win = np.outer(g, g)
    win /= win.sum()
    c1 = (cfg.k1 * cfg.dynamic_range) ** 2
    c2 = (cfg.k2 * cfg.dynamic_range) ** 2
    scores = []
    for i in range(x.shape[0] - cfg.window + 1):
        for j in range(x.shape[1] - cfg.window + 1):
            px = x[i:i + cfg.window, j:j + cfg.window]
            py = y[i:i + cfg.window, j:j + cfg.window]
            mx = float(np.sum(win * px))
            my = float(np.sum(win * py))
            sxx = float(np.sum(win * px * px)) - mx * mx
            syy = float(np.sum(win * py * py)) - my * my
            sxy = float(np.sum(win * px * py)) - mx * my
            scores.append(((2 * mx * my + c1) * (2 * sxy + c2))
                          / ((mx * mx + my * my + c1) * (sxx + syy + c2)))
    return float(np.mean(scores))


def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(8)
    cfg = SsimConfig()
    worst_mse = worst_psnr = worst_ssim = 0.0
    for _ in range(50):
        a = rng.uniform(0.0, 1.0, (16, 16))
        b = np.clip(a + rng.normal(0.0, 0.1, (16, 16)), 0.0, 1.0)
        m_ref = _oracle_mse(a, b)
        worst_mse = max(worst_mse, abs(mse(a, b) - m_ref))
        worst_psnr = max(worst_psnr, abs(psnr(a, b) - 10.0 * math.log10(1.0 / m_ref)))
        worst_ssim = max(worst_ssim, abs(ssim(a, b, cfg) - _oracle_ssim(a, b, cfg)))
    exact_20db = abs(psnr(np.zeros((10, 10)), np.full((10, 10), 0.1)) - 20.0)
    passed = (worst_mse <= 1e-9 and worst_psnr <= 1e-9
              and worst_ssim <= 1e-6 and exact_20db <= 1e-12)
    report(8, "metric oracles", passed,
           f"mse {worst_mse:.1e}, psnr {worst_psnr:.1e}, "
           f"ssim {worst_ssim:.1e}, 20dB {exact_20db:.1e}")


def test_criterion_09_sparse_dense():
    r = props.check_sparse_dense(n_instances=100, tol=1e-12)
    report(9, "sparse-dense equivalence", r.passed, r.detail)


def test_criterion_10_training_convergence():
    cfg = ModelConfig(degat_placement="pre")  # 32x32, P=8, C=32, 2 blocks, K=9
    scene = generate_scene(0, 4, cfg.image_h, cfg.image_w)
    t0 = time.perf_counter()
    r1, _ = train(cfg, scene, 300, 0.02)
    elapsed = time.perf_counter() - t0
    totals = [b.total for b in r1.history]
    ratio = totals[-1] / totals[0]
    finite = all(np.isfinite(t) for t in totals)
    r2, _ = train(cfg, scene, 300, 0.02)
    deterministic = totals == [b.total for b in r2.history]
    passed = ratio <= 0.5 and finite and deterministic and elapsed < 180.0
    report(10, "training convergence", passed,
           f"final/initial = {ratio:.3f}, finite={finite}, "
           f"deterministic={deterministic}, {elapsed:.0f}s for 300 steps")


def test_criterion_11_zero_init_identity():
    rng = np.random.default_rng(11)
    c = 32
    base = rng.standard_normal(c)
    g = rng.standard_normal(c)
    tokens = rng.standard_normal((16, c))

    add, _ = cond.condition_additive(base, g, cond.init_mlp2(c, 32, c, rng=0, zero_final=True))
    film, _ = cond.condition_film(base, g, cond.init_mlp2(c, 32, 2 * c, rng=1, zero_final=True))
    xatt, _ = cond.condition_cross_attention(
        base, tokens,
        cond.init_cross_attn(c, rng=2, zero_output=True),
        cond.init_mlp2(c, 32, c, rng=3, zero_final=True), 4,
    )
    passed = (np.array_equal(add, base)
              and np.array_equal(film, base)
              and np.array_equal(xatt, base))
    report(11, "zero-init conditioning identity", passed,
           "additive/FiLM/cross-attention all bit-exact")


def test_criterion_12_k_sweep():
    # 8x8 patch grid (64 tokens) so k up to 18 is valid
    cfg = ModelConfig(image_h=32, image_w=32, patch_size=4, embed_dim=16,
                      n_blocks=1, n_heads=2, k_neighbors=9, cond_hidden=8,
                      bias_hidden=8, cam_hidden=8, degat_placement="pre")
    scene = generate_scene(0, 1, 32, 32)
    ks = [2, 5, 9, 14, 18]
    rows = ablate_k(cfg, scene, ks, steps=2, lr=0.01)
    passed = ([r["k"] for r in rows] == ks
              and all(np.isfinite(r["final_total"]) for r in rows))
    report(12, "neighbor-count sweep", passed,
           f"{len(rows)} rows for K in {ks}")
