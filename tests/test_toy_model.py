import numpy as np
import pytest

from degat_kit import conditioning as cond
from degat_kit import degat as dg
from degat_kit.geometry import CameraParams
from degat_kit.objective import LossWeights, finite_diff_check
from degat_kit.toy_model import (
    ModelConfig,
    backward,
    forward,
    init_model_params,
    loss_and_grads,
    param_shapes,
    sgd_step,
    zero_grads,
)


def small_cfg(**kw):
    base = dict(
        image_h=16, image_w=16, patch_size=8, embed_dim=8, n_blocks=1,
        n_heads=2, k_neighbors=2, cond_hidden=4, bias_hidden=4,
        ffn_mult=2, cam_hidden=4, n_buckets=4,
    )
    base.update(kw)
    return ModelConfig(**base)


def make_frames(rng, cfg, n=1):
    return [rng.uniform(0.0, 1.0, (cfg.image_h, cfg.image_w)) for _ in range(n)]


def make_gt(rng, cfg, n=1):
    depths = [rng.uniform(0.8, 1.5, (cfg.image_h, cfg.image_w)) for _ in range(n)]
    cams = [
        CameraParams(np.eye(3), rng.standard_normal(3) * 0.1, 1.2,
                     ((cfg.image_w - 1) / 2, (cfg.image_h - 1) / 2))
        for _ in range(n)
    ]
    return depths, cams


def pack(params):
    keys = sorted(params)
    return np.concatenate([params[k].ravel() for k in keys]), keys


def unpack(theta, keys, template):
    out = {}
    pos = 0
    for k in keys:
        size = template[k].size
        out[k] = theta[pos:pos + size].reshape(template[k].shape)
        pos += size
    return out


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_cfg(patch_size=7)
        with pytest.raises(ValueError):
            small_cfg(n_heads=3)
        with pytest.raises(ValueError):
            small_cfg(k_neighbors=4)  # only 4 tokens, self excluded
        with pytest.raises(ValueError):
            small_cfg(degat_placement="mid")
        with pytest.raises(ValueError):
            small_cfg(attention_bias="table")
        with pytest.raises(ValueError, match="knn_metric"):
            small_cfg(knn_metric="manhattan")
        # non-positive sizes are rejected before any modulo divides by them
        for kw in (dict(patch_size=0), dict(n_heads=0), dict(embed_dim=0), dict(image_h=-16),
                   dict(n_buckets=0), dict(n_blocks=-1)):
            with pytest.raises(ValueError, match="model sizes"):
                small_cfg(**kw)
        assert small_cfg(n_blocks=0).n_blocks == 0

    def test_grid_derivation(self):
        cfg = ModelConfig(image_h=32, image_w=64, patch_size=8, k_neighbors=9)
        assert (cfg.grid_h, cfg.grid_w, cfg.n_tokens) == (4, 8, 32)


class TestInit:
    def test_deterministic(self):
        cfg = small_cfg()
        a = init_model_params(cfg)
        b = init_model_params(cfg)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_flags_do_not_change_params(self):
        # every component is initialized in the same order, so configs
        # differing only in integration flags share bit-identical params
        base = init_model_params(small_cfg())
        for kw in (
            dict(degat_placement="pre"),
            dict(token_conditioning="film"),
            dict(attention_bias="bucket"),
            dict(degat_placement="post", token_conditioning="cross_attn",
                 attention_bias="mlp_bias"),
        ):
            other = init_model_params(small_cfg(**kw))
            assert sorted(other) == sorted(base)
            for k in base:
                np.testing.assert_array_equal(other[k], base[k])

    def test_param_shapes_match_init(self):
        cfg = small_cfg(n_blocks=2)
        params = init_model_params(cfg)
        shapes = param_shapes(cfg)
        assert list(shapes) == list(params)
        assert all(params[k].shape == s for k, s in shapes.items())
        shapes["embed.w"] = (1, 1)  # a copy: the config's table is unchanged
        assert param_shapes(cfg)["embed.w"] == params["embed.w"].shape

    def test_zero_init_layers(self):
        p = init_model_params(small_cfg())
        for k in ("cond_add.w2", "cond_film.w2", "cond_xattn.w_o",
                  "cond_xattn_ffn.w2", "bias_table", "bias_mlp.w2"):
            assert np.all(p[k] == 0.0)


class TestForward:
    def test_outputs_positive_and_shaped(self):
        rng = np.random.default_rng(0)
        cfg = small_cfg(degat_placement="pre", token_conditioning="additive",
                        attention_bias="bucket")
        params = init_model_params(cfg)
        frames = make_frames(rng, cfg, 2)
        depth_maps, cams, _ = forward(params, cfg, frames)
        assert len(depth_maps) == 2 and len(cams) == 2
        for dm in depth_maps:
            assert dm.depth.shape == (16, 16)
            assert np.all(dm.depth > 0.0)
            assert np.all(dm.confidence > 0.0)
        for cam in cams:
            assert cam.focal > 0.0

    @pytest.mark.parametrize("edit,needle", [
        (lambda p: p["depth_head.w"].__setitem__((0, 0), np.nan), "non-finite values: ['depth_head.w']"),
        (lambda p: [p[k].__setitem__(0, np.inf) for k in ("embed.b", "cam_head.b2")],
         "non-finite values: ['cam_head.b2', 'embed.b']"),
        (lambda p: p.update({"embed.w": p["embed.w"].T}), "shapes do not match the config: ['embed.w']"),
        (lambda p: p.pop("degat.a"), "missing ['degat.a']"),
        (lambda p: p.update({"extra.w": np.zeros(2)}), "unexpected ['extra.w']"),
    ], ids=["nan", "inf-two-keys", "reshaped", "missing", "extra"])
    def test_params_checked_on_entry(self, edit, needle):
        cfg = small_cfg()
        params = init_model_params(cfg)
        edit(params)
        frames = make_frames(np.random.default_rng(0), cfg)
        with pytest.raises(ValueError) as exc:
            forward(params, cfg, frames)
        assert needle in str(exc.value)

    @pytest.mark.parametrize("make", [
        lambda w: cond.Mlp2(w1=w, b1=np.zeros(2), w2=np.ones((1, 2)), b2=np.zeros(1)),
        lambda w: cond.CrossAttnParams(w_q=w, w_k=np.eye(2), w_v=np.eye(2), w_o=np.eye(2),
                                       n_heads=1),
        lambda w: dg.DeGatParams(w_proj=np.ones((2, 4)), a=np.ones(2), w_val=w),
        lambda w: cond.BiasTable(table=w),
    ], ids=["Mlp2", "CrossAttnParams", "DeGatParams", "BiasTable"])
    def test_direct_construction_still_validates(self, make):
        make(np.eye(2))
        with pytest.raises(ValueError, match="non-finite"):
            make(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_empty_frames_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            forward(init_model_params(cfg), cfg, [])

    @pytest.mark.parametrize("shape", [(8, 16), (16, 16, 1)])
    def test_frame_shape_checked(self, shape):
        cfg = small_cfg()
        frames = [np.zeros((16, 16)), np.zeros(shape)]
        with pytest.raises(ValueError):
            forward(init_model_params(cfg), cfg, frames)
        with pytest.raises(ValueError, match="frame shape"):
            forward(init_model_params(cfg), cfg, [np.zeros(shape)])

    def test_conditioning_identity_at_init(self):
        # zero-initialized conditioning heads: outputs match the "none" variant
        rng = np.random.default_rng(1)
        cfg0 = small_cfg()
        params = init_model_params(cfg0)
        frames = make_frames(rng, cfg0)
        d0, c0, _ = forward(params, cfg0, frames)
        for kind in ("additive", "film", "cross_attn"):
            dk, ck, _ = forward(params, small_cfg(token_conditioning=kind), frames)
            np.testing.assert_array_equal(dk[0].depth, d0[0].depth)
            np.testing.assert_array_equal(ck[0].rotation, c0[0].rotation)

    def test_zero_bias_tables_are_identity(self):
        rng = np.random.default_rng(2)
        cfg0 = small_cfg()
        params = init_model_params(cfg0)
        frames = make_frames(rng, cfg0)
        d0, _, _ = forward(params, cfg0, frames)
        for kind in ("bucket", "mlp_bias"):
            dk, _, _ = forward(params, small_cfg(attention_bias=kind), frames)
            np.testing.assert_array_equal(dk[0].depth, d0[0].depth)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        cfg = small_cfg(degat_placement="post", attention_bias="log_affinity")
        params = init_model_params(cfg)
        frames = make_frames(rng, cfg, 2)
        a, _, _ = forward(params, cfg, frames)
        b, _, _ = forward(params, cfg, frames)
        np.testing.assert_array_equal(a[0].depth, b[0].depth)
        np.testing.assert_array_equal(a[1].confidence, b[1].confidence)


class TestGradients:
    @pytest.mark.parametrize(
        "kw,n_frames",
        [
            (dict(), 1),
            (dict(degat_placement="pre", token_conditioning="additive"), 1),
            (dict(degat_placement="pre", token_conditioning="film",
                  attention_bias="bucket"), 1),
            (dict(degat_placement="post", token_conditioning="cross_attn"), 1),
            (dict(attention_bias="mlp_bias"), 1),
            (dict(token_conditioning="additive"), 2),
        ],
    )
    def test_whole_model_fd(self, kw, n_frames):
        rng = np.random.default_rng(4)
        cfg = small_cfg(**kw)
        params = init_model_params(cfg)
        # nudge away from the zero-init plateau so all paths carry signal
        params = {k: v + 0.05 * rng.standard_normal(v.shape) for k, v in params.items()}
        frames = make_frames(rng, cfg, n_frames)
        gt_depths, gt_cams = make_gt(rng, cfg, n_frames)
        weights = LossWeights(alpha=0.2, gamma=1.0)

        _, grads = loss_and_grads(params, cfg, frames, gt_depths, gt_cams, weights)
        theta, keys = pack(params)
        g_flat, _ = pack(grads)

        def f(t):
            p = unpack(t, keys, params)
            bd, _ = loss_and_grads(p, cfg, frames, gt_depths, gt_cams, weights)
            return bd.total

        # spot-check a random subset of coordinates (full FD is too slow)
        idx = rng.choice(theta.size, size=60, replace=False)
        step = 1e-6
        worst = 0.0
        for i in idx:
            t = theta.copy()
            t[i] += step
            fp = f(t)
            t[i] -= 2 * step
            fm = f(t)
            num = (fp - fm) / (2 * step)
            worst = max(worst, abs(num - g_flat[i]) / max(1.0, abs(g_flat[i])))
        assert worst < 1e-3

    def test_upstream_length_check(self):
        cfg = small_cfg()
        params = init_model_params(cfg)
        frames = make_frames(np.random.default_rng(5), cfg, 2)
        _, _, cache = forward(params, cfg, frames)
        hw = (cfg.image_h, cfg.image_w)
        upstream = {"depth": np.ones((2, *hw)), "confidence": np.ones((2, *hw)),
                    "rotation": np.ones((2, 3, 3)), "translation": np.ones((2, 3)),
                    "focal": np.ones(2)}
        backward(params, cfg, cache, upstream)
        for key in upstream:
            wrong = dict(upstream, **{key: upstream[key][:1]})  # one frame instead of two
            with pytest.raises(ValueError, match=f"upstream \\['{key}'\\]"):
                backward(params, cfg, cache, wrong)
        with pytest.raises(ValueError, match="'focal'"):
            backward(params, cfg, cache, {k: v for k, v in upstream.items() if k != "focal"})
        with pytest.raises(ValueError, match="dict"):
            backward(params, cfg, cache, [upstream])

    @pytest.mark.parametrize("n_gt", [3, 5])
    def test_ground_truth_count_check(self, n_gt):
        rng = np.random.default_rng(6)
        cfg = small_cfg()
        params = init_model_params(cfg)
        frames = make_frames(rng, cfg, 4)
        gt_depths, gt_cams = make_gt(rng, cfg, n_gt)
        with pytest.raises(ValueError, match=f"{n_gt} ground-truth depths"):
            loss_and_grads(params, cfg, frames, gt_depths, gt_cams)
        with pytest.raises(ValueError, match="4 ground-truth depths"):
            loss_and_grads(params, cfg, frames, gt_depths[:1] * 4, gt_cams)

    def test_every_key_present_and_unused_keys_zero(self):
        rng = np.random.default_rng(7)
        cfg = small_cfg()  # no graph hop, conditioning or bias; one frame: no global block
        params = {k: v + 0.05 * rng.standard_normal(v.shape)
                  for k, v in init_model_params(cfg).items()}
        frames = make_frames(rng, cfg)
        _, grads = loss_and_grads(params, cfg, frames, *make_gt(rng, cfg))
        assert list(grads) == list(params)
        unused = ("degat.", "cond_", "bias_", "global")
        for k, g in grads.items():
            assert g.shape == params[k].shape and g.dtype == np.float64
            if k.startswith(unused):
                assert np.all(g == 0.0), k
            else:
                assert np.any(g != 0.0), k
        # every array is its own: writing one leaves the others alone
        assert len({id(g) for g in grads.values()}) == len(grads)


class TestTraining:
    def test_sgd_step_and_zero_grads(self):
        cfg = small_cfg()
        params = init_model_params(cfg)
        grads = zero_grads(params)
        after = sgd_step(params, grads, 0.1)
        for k in params:
            np.testing.assert_array_equal(after[k], params[k])
        with pytest.raises(ValueError):
            sgd_step(params, grads, -0.1)

    def test_loss_decreases(self):
        rng = np.random.default_rng(6)
        cfg = small_cfg(degat_placement="pre")
        params = init_model_params(cfg)
        frames = make_frames(rng, cfg)
        gt_depths, gt_cams = make_gt(rng, cfg)
        w = LossWeights()
        first = None
        for _ in range(20):
            bd, grads = loss_and_grads(params, cfg, frames, gt_depths, gt_cams, w)
            if first is None:
                first = bd.total
            params = sgd_step(params, grads, 0.02)
        bd, _ = loss_and_grads(params, cfg, frames, gt_depths, gt_cams, w)
        assert bd.total < first
