"""The whole model against the attention code it had before the shared
kernel, and against the graph-attention hop run once per frame.

The references below are the earlier implementations: the per-model
multi-head self-attention with its own softmax and softmax backward, and
the einsum cross-attention conditioning. Patched in for the shared
``multi_head_attention`` layer, they must give the same outputs, loss and
parameter gradients on every model variant. The model runs its frames as
one batch, so per-frame adapters call the 2-D references once per frame.
In the same way, per-frame adapters of the DeGAT hop run the (L, C) hop on
each frame for the stacked one.
"""

import itertools

import numpy as np
import pytest

from degat_kit import conditioning as cond
from degat_kit import degat as dg
from degat_kit import toy_model
from degat_kit.geometry import CameraParams

TOL = 1e-12


def ref_mha_forward(x_q, x_kv, attn, h, bias=None):
    n, c = x_q.shape
    m = x_kv.shape[0]
    d = c // h
    q = (x_q @ attn.w_q.T).reshape(n, h, d).transpose(1, 0, 2)
    k = (x_kv @ attn.w_k.T).reshape(m, h, d).transpose(1, 0, 2)
    v = (x_kv @ attn.w_v.T).reshape(m, h, d).transpose(1, 0, 2)
    scores = q @ k.transpose(0, 2, 1) / np.sqrt(d)
    if bias is not None:
        scores = scores + bias
    scores -= scores.max(axis=2, keepdims=True)
    expv = np.exp(scores)
    probs = expv / expv.sum(axis=2, keepdims=True)  # (H, N, M)
    ctx = (probs @ v).transpose(1, 0, 2).reshape(n, c)
    return ctx @ attn.w_o.T, (x_q, x_kv, q, k, v, probs, ctx)


def ref_mha_backward(attn, cache, d_out):
    x_q, x_kv, q, k, v, probs, ctx = cache
    n, c = x_q.shape
    m = x_kv.shape[0]
    h = probs.shape[0]
    d = c // h
    d_ctx = (d_out @ attn.w_o).reshape(n, h, d).transpose(1, 0, 2)
    d_probs = d_ctx @ v.transpose(0, 2, 1)
    d_v = probs.transpose(0, 2, 1) @ d_ctx
    inner = np.sum(probs * d_probs, axis=2, keepdims=True)
    d_scores = probs * (d_probs - inner)
    d_q = d_scores @ k / np.sqrt(d)
    d_k = d_scores.transpose(0, 2, 1) @ q / np.sqrt(d)
    d_qm = d_q.transpose(1, 0, 2).reshape(n, c)
    d_km = d_k.transpose(1, 0, 2).reshape(m, c)
    d_vm = d_v.transpose(1, 0, 2).reshape(m, c)
    grads = {
        "w_q": d_qm.T @ x_q, "w_k": d_km.T @ x_kv, "w_v": d_vm.T @ x_kv,
        "w_o": d_out.T @ ctx,
    }
    return grads, d_qm @ attn.w_q, d_km @ attn.w_k + d_vm @ attn.w_v, d_scores


def ref_cross_attention(base, tokens, attn, ffn, h):
    c = attn.w_q.shape[0]
    d = c // h
    q = (base @ attn.w_q.T).reshape(h, d)
    k = (tokens @ attn.w_k.T).reshape(-1, h, d).transpose(1, 0, 2)
    v = (tokens @ attn.w_v.T).reshape(-1, h, d).transpose(1, 0, 2)
    scores = np.einsum("hd,hld->hl", q, k) / np.sqrt(d)
    scores -= scores.max(axis=1, keepdims=True)
    expv = np.exp(scores)
    attn_w = expv / expv.sum(axis=1, keepdims=True)
    ctx = np.einsum("hl,hld->hd", attn_w, v).reshape(c)
    c1 = base + ctx @ attn.w_o.T
    ffn_out, ffn_cache = cond.mlp2_forward(ffn, c1)
    cache = (base, tokens, q, k, v, attn_w, ctx, ffn_cache)
    return c1 + ffn_out, cache


def ref_cross_attention_backward(attn, ffn, cache, d_out):
    base, tokens, q, k, v, attn_w, ctx, ffn_cache = cache
    c = attn.w_q.shape[0]
    h = attn_w.shape[0]
    d = c // h
    ffn_grads, d_c1_ffn = cond.mlp2_backward(ffn, ffn_cache, d_out)
    d_c1 = d_out + d_c1_ffn
    d_w_o = np.outer(d_c1, ctx)
    d_ctx = (d_c1 @ attn.w_o).reshape(h, d)
    d_attn_w = np.einsum("hd,hld->hl", d_ctx, v)
    d_v = attn_w[:, :, None] * d_ctx[:, None, :]
    inner = np.sum(attn_w * d_attn_w, axis=1, keepdims=True)
    d_scores = attn_w * (d_attn_w - inner) / np.sqrt(d)
    d_q = np.einsum("hl,hld->hd", d_scores, k)
    d_k = d_scores[:, :, None] * q[:, None, :]
    d_base = d_c1 + d_q.reshape(c) @ attn.w_q
    d_k_rows = d_k.transpose(1, 0, 2).reshape(-1, c)
    d_v_rows = d_v.transpose(1, 0, 2).reshape(-1, c)
    d_tokens = d_k_rows @ attn.w_k + d_v_rows @ attn.w_v
    attn_grads = {
        "w_q": np.outer(d_q.reshape(c), base), "w_k": d_k_rows.T @ tokens,
        "w_v": d_v_rows.T @ tokens, "w_o": d_w_o,
    }
    return attn_grads, ffn_grads, d_base, d_tokens


def per_frame_mha_forward(x_q, x_kv, attn, h, bias=None):
    """ref_mha_forward over a leading frame axis; 2-D inputs go straight through."""
    if x_q.ndim == 2:
        return ref_mha_forward(x_q, x_kv, attn, h, bias)
    biases = [None] * len(x_q) if bias is None else bias
    runs = [ref_mha_forward(q, kv, attn, h, b) for q, kv, b in zip(x_q, x_kv, biases)]
    return np.stack([out for out, _ in runs]), [cache for _, cache in runs]


def per_frame_mha_backward(attn, cache, d_out):
    if d_out.ndim == 2:
        return ref_mha_backward(attn, cache, d_out)
    runs = [ref_mha_backward(attn, c, d) for c, d in zip(cache, d_out)]
    grads = {w: sum(r[0][w] for r in runs) for w in runs[0][0]}
    return (grads, *(np.stack([r[i] for r in runs]) for i in (1, 2, 3)))


def per_frame_cross_attention(base, tokens, attn, ffn, h):
    runs = [ref_cross_attention(base, t, attn, ffn, h) for t in tokens]
    return np.stack([tok for tok, _ in runs]), [cache for _, cache in runs]


def per_frame_cross_attention_backward(attn, ffn, cache, d_out):
    runs = [ref_cross_attention_backward(attn, ffn, c, d) for c, d in zip(cache, d_out)]
    attn_grads = {w: sum(r[0][w] for r in runs) for w in runs[0][0]}
    ffn_grads = {w: sum(r[1][w] for r in runs) for w in runs[0][1]}
    return attn_grads, ffn_grads, sum(r[2] for r in runs), np.stack([r[3] for r in runs])


# the hop itself, bound before a test patches the module
hop_forward, hop_backward = dg.degat_forward, dg.degat_backward
hop_log_bias = dg.affinity_to_log_bias


def per_frame_degat_forward(tokens, params, k, metric="cosine"):
    runs = [hop_forward(x, params, k, metric) for x in tokens]
    return np.stack([out for out, _ in runs]), [cache for _, cache in runs]


def per_frame_degat_backward(caches, params, upstream):
    runs = [hop_backward(c, params, u) for c, u in zip(caches, upstream)]
    return dg.DeGatGrads(
        *(sum(getattr(r, g) for r in runs) for g in ("d_w_proj", "d_a", "d_w_val")),
        d_x=np.stack([r.d_x for r in runs]),
    )


def per_frame_affinity_to_log_bias(caches):
    return np.stack([hop_log_bias(c) for c in caches])


VARIANTS = list(itertools.product(
    toy_model.PLACEMENTS, toy_model.TOKEN_CONDITIONING, toy_model.ATTENTION_BIAS
))


def run_model(cfg, seed=0, n_frames=2):
    rng = np.random.default_rng(seed)
    params = {
        k: v + 0.05 * rng.standard_normal(v.shape)
        for k, v in sorted(toy_model.init_model_params(cfg).items())
    }
    frames = [rng.uniform(0.0, 1.0, (cfg.image_h, cfg.image_w)) for _ in range(n_frames)]
    depths = [rng.uniform(0.8, 1.5, (cfg.image_h, cfg.image_w)) for _ in range(n_frames)]
    cams = [
        CameraParams(np.eye(3), rng.standard_normal(3) * 0.1, 1.2,
                     ((cfg.image_w - 1) / 2, (cfg.image_h - 1) / 2))
        for _ in range(n_frames)
    ]
    depth_maps, out_cams, _ = toy_model.forward(params, cfg, frames)
    outputs = {}
    for i, (dm, cam) in enumerate(zip(depth_maps, out_cams)):
        outputs[f"depth{i}"] = dm.depth
        outputs[f"confidence{i}"] = dm.confidence
        outputs[f"rotation{i}"] = cam.rotation
        outputs[f"translation{i}"] = cam.translation
        outputs[f"focal{i}"] = np.array([cam.focal])
    breakdown, grads = toy_model.loss_and_grads(params, cfg, frames, depths, cams)
    outputs["loss"] = np.array([breakdown.cam, breakdown.reg, breakdown.unc, breakdown.grad])
    return outputs, grads


def small_cfg(placement, conditioning, bias):
    return toy_model.ModelConfig(
        image_h=16, image_w=24, patch_size=8, embed_dim=8, n_blocks=2, n_heads=2,
        k_neighbors=3, cond_hidden=4, bias_hidden=4, n_buckets=4, cam_hidden=4,
        degat_placement=placement, token_conditioning=conditioning, attention_bias=bias,
    )


def run_with_references(monkeypatch, cfg, module, refs, n_frames=2):
    """``run_model`` with each function ``refs`` names patched into ``module``;
    returns the outputs, the gradients and the names that were called."""
    used = set()

    def spy(name, ref):
        def call(*args):
            used.add(name)
            return ref(*args)
        return call

    with monkeypatch.context() as mp:
        for name, ref in refs.items():
            mp.setattr(module, name, spy(name, ref))
        return (*run_model(cfg, n_frames=n_frames), used)


def assert_same(got, want):
    for new, ref in zip(got, want):
        assert sorted(new) == sorted(ref)
        for name in ref:
            scale = max(np.max(np.abs(ref[name])), np.finfo(float).tiny)
            assert np.max(np.abs(new[name] - ref[name])) <= TOL * scale, name


@pytest.mark.parametrize("placement,conditioning,bias", VARIANTS)
def test_matches_pre_kernel_attention(monkeypatch, placement, conditioning, bias):
    cfg = small_cfg(placement, conditioning, bias)
    *ref, used = run_with_references(monkeypatch, cfg, cond, {
        "multi_head_attention": per_frame_mha_forward,
        "multi_head_attention_backward": per_frame_mha_backward,
        "condition_cross_attention": per_frame_cross_attention,
        "condition_cross_attention_backward": per_frame_cross_attention_backward,
    })
    expect_used = {"multi_head_attention", "multi_head_attention_backward"}
    if conditioning == "cross_attn":
        expect_used |= {"condition_cross_attention", "condition_cross_attention_backward"}
    assert used == expect_used
    assert_same(run_model(cfg), ref)


@pytest.mark.parametrize("n_frames", [1, 2, 4])
@pytest.mark.parametrize("placement,conditioning,bias", VARIANTS)
def test_matches_per_frame_hop(monkeypatch, placement, conditioning, bias, n_frames):
    cfg = small_cfg(placement, conditioning, bias)
    *ref, used = run_with_references(monkeypatch, cfg, dg, {
        "degat_forward": per_frame_degat_forward,
        "degat_backward": per_frame_degat_backward,
        "affinity_to_log_bias": per_frame_affinity_to_log_bias,
    }, n_frames)
    expect_used = set()
    if placement != "none":
        expect_used |= {"degat_forward", "degat_backward"}
    if bias == "log_affinity":
        expect_used |= {"degat_forward", "affinity_to_log_bias"}
    assert used == expect_used
    assert_same(run_model(cfg, n_frames=n_frames), ref)
