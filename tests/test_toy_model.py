import inspect
import itertools
import re
import weakref

import numpy as np
import pytest

from degat_kit import conditioning as cond
from degat_kit import degat as dg
from degat_kit import toy_model
from degat_kit.geometry import CameraParams
from degat_kit.harness import generate_scene
from degat_kit.numerics import check_arrays
from degat_kit.objective import LossWeights
from degat_kit.properties import finite_diff_error
from degat_kit.toy_model import (
    ATTENTION_BIAS,
    PLACEMENTS,
    TOKEN_CONDITIONING,
    ModelConfig,
    backward,
    forward,
    init_model_params,
    loss_and_grads,
    param_shapes,
    sgd_step,
)


VARIANTS = list(itertools.product(PLACEMENTS, TOKEN_CONDITIONING, ATTENTION_BIAS))


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
        # a size, k_neighbors or seed that is not an int is named in one error,
        # before it can train, be saved, or fail deep inside numpy
        for kw in (dict(k_neighbors=3.0), dict(k_neighbors=True), dict(n_blocks=1.0),
                   dict(n_heads=2.0), dict(cond_hidden=4.0), dict(seed="0"), dict(seed=False),
                   dict(image_h=np.int64(16))):
            (name, value), = kw.items()
            with pytest.raises(ValueError, match=f"model sizes.* {re.escape(f'{name}={value!r}')}"):
                small_cfg(**kw)
        for name in ("degat_placement", "token_conditioning", "attention_bias", "knn_metric"):
            with pytest.raises(ValueError, match=f"must be strings: {name}"):
                small_cfg(**{name: ["none"]})
        assert small_cfg(n_blocks=0).n_blocks == 0
        # a negative seed is named before numpy's generator rejects it
        for seed in (-1, -(2**70)):
            with pytest.raises(ValueError, match=f"^model seed must be >= 0: seed={seed}$"):
                small_cfg(seed=seed)
        assert small_cfg(seed=0).seed == 0 and small_cfg(seed=2**70).seed == 2**70

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

    def test_shared_names_hold_the_same_array(self):
        # every layer of every variant is drawn in one fixed order, so a name
        # that two variants share holds the same array in both, and the 48
        # variants together have every layer of the config once
        first = {}
        for placement, conditioning, bias in VARIANTS:
            cfg = small_cfg(n_blocks=2, degat_placement=placement,
                            token_conditioning=conditioning, attention_bias=bias)
            params = init_model_params(cfg)
            assert list(params) == list(param_shapes(cfg))
            for k, v in params.items():
                np.testing.assert_array_equal(v, first.setdefault(k, v))
        assert len(first) == 57  # every layer at two blocks

    def test_param_shapes_match_init(self):
        cfg = small_cfg(n_blocks=2)
        params = init_model_params(cfg)
        shapes = param_shapes(cfg)
        assert list(shapes) == list(params)
        assert all(params[k].shape == s for k, s in shapes.items())
        shapes["embed.w"] = (1, 1)  # a copy: the config's table is unchanged
        assert param_shapes(cfg)["embed.w"] == params["embed.w"].shape

    def test_zero_init_layers(self):
        zero = set()
        for placement, conditioning, bias in VARIANTS:
            p = init_model_params(small_cfg(degat_placement=placement,
                                            token_conditioning=conditioning, attention_bias=bias))
            for k in toy_model.ZERO_INIT & set(p):
                assert np.all(p[k] == 0.0), k
                zero.add(k)
        assert zero == {"cond_add.w2", "cond_film.w2", "cond_xattn.w_o",
                        "cond_xattn_ffn.w2", "bias_table", "bias_mlp.w2"}


class TestVariantParams:
    """Each variant has the parameters that its stages read, and no others."""

    class Recording(dict):
        """A parameter dict that records every name a stage reads."""

        def __init__(self, params):
            super().__init__(params)
            self.read = set()

        def __getitem__(self, name):
            self.read.add(name)
            return super().__getitem__(name)

    @pytest.mark.parametrize("placement,conditioning,bias", VARIANTS)
    def test_stages_read_exactly_the_variant_params(self, placement, conditioning, bias):
        cfg = small_cfg(degat_placement=placement, token_conditioning=conditioning,
                        attention_bias=bias)
        rng = np.random.default_rng(17)
        params = self.Recording(init_model_params(cfg))
        frames = make_frames(rng, cfg, 2)  # two frames: the global block runs
        tape = []
        toy_model._forward(params, cfg, frames, tape)
        assert params.read == set(param_shapes(cfg))
        hw = (cfg.image_h, cfg.image_w)
        upstream = {"depth": rng.standard_normal((2, *hw)),
                    "confidence": rng.standard_normal((2, *hw)),
                    "rotation": rng.standard_normal((2, 3, 3)),
                    "translation": rng.standard_normal((2, 3)), "focal": rng.standard_normal(2)}
        assert list(backward(params, cfg, tape, upstream)) == list(param_shapes(cfg))

    def test_layers_of_each_variant(self):
        layers = lambda cfg: {k.split(".")[0] for k in param_shapes(cfg)}
        base = {"embed", "camera_token", "block0", "block0_ffn", "global", "global_ffn",
                "depth_head", "cam_head"}
        assert layers(small_cfg()) == base
        for placement, conditioning, bias in VARIANTS:
            cfg = small_cfg(degat_placement=placement, token_conditioning=conditioning,
                            attention_bias=bias)
            hop = placement != "none" or bias == "log_affinity"
            want = (base | ({"degat"} if hop else set())
                    | set(TOKEN_CONDITIONING[conditioning].layers)
                    | set(ATTENTION_BIAS[bias].layers))
            assert layers(cfg) == want


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
        (lambda p: p.pop("embed.b"), "missing ['embed.b']"),
        (lambda p: p.update({"extra.w": np.zeros(2)}), "unexpected ['extra.w']"),
        (lambda p: p.update({"degat.a": np.zeros(8)}), "unexpected ['degat.a']"),
    ], ids=["nan", "inf-two-keys", "reshaped", "missing", "extra", "other-variant"])
    def test_params_checked_on_entry(self, edit, needle):
        cfg = small_cfg()
        params = init_model_params(cfg)
        edit(params)
        frames = make_frames(np.random.default_rng(0), cfg)
        with pytest.raises(ValueError) as exc:
            forward(params, cfg, frames)
        assert needle in str(exc.value)

    @pytest.mark.parametrize("make,shapes", [
        (lambda w: cond.Mlp2(w1=w, b1=np.zeros(2), w2=np.ones((1, 2)), b2=np.zeros(1)),
         cond.mlp2_shapes(2, 2, 1)),
        (lambda w: cond.CrossAttnParams(w_q=w, w_k=np.eye(2), w_v=np.eye(2), w_o=np.eye(2)),
         cond.attn_shapes(2)),
        (lambda w: dg.DeGatParams(w_proj=np.ones((2, 4)), a=np.ones(2), w_val=w),
         dg.degat_shapes(2)),
        (lambda w: {"bias_table": w}, {"bias_table": (2, 2)}),
    ], ids=["Mlp2", "CrossAttnParams", "DeGatParams", "BiasTable"])
    def test_direct_construction_still_validates(self, make, shapes):
        """A layer built directly is checked by the one shared check against
        its layer's shape table: non-finite and misshapen weights raise."""
        fields = lambda layer: layer if isinstance(layer, dict) else layer._asdict()
        check_arrays(fields(make(np.eye(2))), shapes)
        with pytest.raises(ValueError, match="non-finite values: \\['"):
            check_arrays(fields(make(np.array([[1.0, np.nan], [0.0, 1.0]]))), shapes)
        with pytest.raises(ValueError, match="shapes do not match"):
            check_arrays(fields(make(np.eye(3))), shapes)

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
        frames = make_frames(rng, cfg0)
        d0, c0, _ = forward(init_model_params(cfg0), cfg0, frames)
        for kind in ("additive", "film", "cross_attn"):
            cfg = small_cfg(token_conditioning=kind)
            dk, ck, _ = forward(init_model_params(cfg), cfg, frames)
            np.testing.assert_array_equal(dk[0].depth, d0[0].depth)
            np.testing.assert_array_equal(ck[0].rotation, c0[0].rotation)

    def test_zero_bias_tables_are_identity(self):
        rng = np.random.default_rng(2)
        cfg0 = small_cfg()
        frames = make_frames(rng, cfg0)
        d0, _, _ = forward(init_model_params(cfg0), cfg0, frames)
        for kind in ("bucket", "mlp_bias"):
            cfg = small_cfg(attention_bias=kind)
            dk, _, _ = forward(init_model_params(cfg), cfg, frames)
            np.testing.assert_array_equal(dk[0].depth, d0[0].depth)

    def test_per_frame_cameras_built_only_by_forward(self, monkeypatch):
        rng = np.random.default_rng(9)
        cfg = small_cfg(degat_placement="post")
        params = init_model_params(cfg)
        frames = make_frames(rng, cfg, 3)
        gt_depths, gt_cams = make_gt(rng, cfg, 3)
        built = []

        class Counted(CameraParams):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(toy_model, "CameraParams", Counted)
        loss_and_grads(params, cfg, frames, gt_depths, gt_cams)
        assert built == []
        _, cams, _ = forward(params, cfg, frames)
        assert len(built) == 3 and all(a is b for a, b in zip(cams, built))

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
        coords = [(k, j) for k in sorted(params) for j in range(params[k].size)]

        def loss():
            bd, _ = loss_and_grads(params, cfg, frames, gt_depths, gt_cams, weights)
            return bd.total

        # spot-check a random subset of coordinates (full FD is too slow); each
        # entry is a one-element view, perturbed in place inside params[k]
        idx = rng.choice(len(coords), size=60, replace=False)
        worst = max(
            finite_diff_error(
                loss, [(params[k].reshape(-1)[j:j + 1], grads[k].reshape(-1)[j:j + 1])], step=1e-6
            )
            for k, j in (coords[i] for i in idx)
        )
        assert worst < 1e-3

    @pytest.mark.parametrize("placement,conditioning,bias", VARIANTS)
    def test_directional_fd_at_default_config(self, placement, conditioning, bias):
        """g . v against the central difference of t -> loss(theta + t v) along
        three random unit directions, at the default size: four 32x32 frames,
        so the global block and both heads run at L = 16."""
        cfg = ModelConfig(degat_placement=placement, token_conditioning=conditioning,
                          attention_bias=bias)
        rng = np.random.default_rng(8)
        params = {k: v + 0.05 * rng.standard_normal(v.shape)
                  for k, v in init_model_params(cfg).items()}
        scene = generate_scene(0, n_frames=4, h=cfg.image_h, w=cfg.image_w)
        args = (cfg, scene.frames, scene.gt_depth, scene.gt_cameras)
        _, grads = loss_and_grads(params, *args)
        t = np.zeros(1)  # the step along v, which the shared routine perturbs
        v = {}

        def loss():
            return toy_model.loss({k: p + t[0] * v[k] for k, p in params.items()}, *args).total

        worst = 0.0
        for _ in range(3):
            v = {k: rng.standard_normal(p.shape) for k, p in params.items()}
            norm = np.sqrt(sum(np.sum(d * d) for d in v.values()))
            v = {k: d / norm for k, d in v.items()}
            slope = sum(np.sum(grads[k] * v[k]) for k in params)
            worst = max(worst, finite_diff_error(loss, [(t, np.array([slope]))]))
        # log_affinity's bias is a stop-gradient by design: the analytic slope
        # leaves out the bias's dependence on the hop, which the difference sees
        # (4.4e-5 at most, against 8.0e-6 without it); a wrong softplus or
        # confidence derivative in the heads reads 2.9e-4 or more
        assert worst < 1e-4

    def test_upstream_length_check(self):
        cfg = small_cfg()
        params = init_model_params(cfg)
        frames = make_frames(np.random.default_rng(5), cfg, 2)
        _, _, tape = forward(params, cfg, frames, tape=[])
        hw = (cfg.image_h, cfg.image_w)
        upstream = {"depth": np.ones((2, *hw)), "confidence": np.ones((2, *hw)),
                    "rotation": np.ones((2, 3, 3)), "translation": np.ones((2, 3)),
                    "focal": np.ones(2)}
        backward(params, cfg, tape, upstream)
        for key in upstream:
            wrong = dict(upstream, **{key: upstream[key][:1]})  # one frame instead of two
            with pytest.raises(ValueError, match=f"upstream \\['{key}'\\]"):
                backward(params, cfg, tape, wrong)
        with pytest.raises(ValueError, match="'focal'"):
            backward(params, cfg, tape, {k: v for k, v in upstream.items() if k != "focal"})
        with pytest.raises(ValueError, match="dict"):
            backward(params, cfg, tape, [upstream])
        # a forward pass without a tape leaves nothing to replay
        with pytest.raises(ValueError, match="tape"):
            backward(params, cfg, forward(params, cfg, frames)[2], upstream)
        with pytest.raises(ValueError, match="tape"):
            backward(params, cfg, [], upstream)
        with pytest.raises(ValueError, match="empty tape"):
            forward(params, cfg, frames, tape)

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

    @pytest.mark.parametrize("n_blocks", [0, 1])
    @pytest.mark.parametrize("bias", ATTENTION_BIAS)
    def test_every_key_present_and_unused_keys_zero(self, bias, n_blocks):
        rng = np.random.default_rng(7)
        # no graph hop or conditioning; one frame: no global block
        cfg = small_cfg(attention_bias=bias, n_blocks=n_blocks)
        params = {k: v + 0.05 * rng.standard_normal(v.shape)
                  for k, v in init_model_params(cfg).items()}
        frames = make_frames(rng, cfg)
        _, grads = loss_and_grads(params, cfg, frames, *make_gt(rng, cfg))
        assert list(grads) == list(params)  # the summed bias gradient does not leak out
        # the bias parameters are reached only through a block reading a bucket or MLP bias
        read = {"bucket": ("bias_table",), "mlp_bias": ("bias_mlp.",)}.get(bias, ())
        read = read if n_blocks else ()
        for k, g in grads.items():
            assert g.shape == params[k].shape and g.dtype == np.float64
            if k.startswith(("degat.", "cond_", "bias_", "global")) and not k.startswith(read):
                assert np.all(g == 0.0), k
            else:
                assert np.any(g != 0.0), k
        # every array is its own: writing one leaves the others alone
        assert len({id(g) for g in grads.values()}) == len(grads)


class TestTape:
    @pytest.mark.parametrize("placement,conditioning",
                             itertools.product(PLACEMENTS, TOKEN_CONDITIONING))
    def test_bias_free_blocks_get_no_bias(self, monkeypatch, placement, conditioning):
        """With ``attention_bias="none"`` no attention call is handed a bias,
        not even an all-zero one."""
        cfg = small_cfg(degat_placement=placement, token_conditioning=conditioning,
                        n_blocks=2)
        biases = []
        attention = cond.multi_head_attention
        signature = inspect.signature(attention)

        def spy(*args, **kwargs):
            biases.append(signature.bind(*args, **kwargs).arguments.get("bias"))
            return attention(*args, **kwargs)

        monkeypatch.setattr(cond, "multi_head_attention", spy)
        rng = np.random.default_rng(15)
        frames = make_frames(rng, cfg, 2)
        loss_and_grads(init_model_params(cfg), cfg, frames, *make_gt(rng, cfg, 2))
        # the two blocks and the global block, and the cross-attention conditioning
        assert len(biases) == 3 + (conditioning == "cross_attn")
        assert all(b is None for b in biases)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_stop_gradient_bias_sums_no_gradient(self, monkeypatch, placement):
        """The log-affinity bias has no parameters: no block sums its
        gradient, so the tokens stage finds none to hand a bias backward."""
        assert ATTENTION_BIAS["log_affinity"][1] is None
        seen = []

        def spied(stage):
            stage_forward, stage_backward = stage

            def spy(params, grads, cfg, cache, d):
                seen.append((stage_backward.__name__, toy_model._D_BIAS in grads))
                d = stage_backward(params, grads, cfg, cache, d)
                seen.append((stage_backward.__name__, toy_model._D_BIAS in grads))
                return d

            return stage_forward, spy

        monkeypatch.setattr(toy_model, "_BLOCK", spied(toy_model._BLOCK))
        monkeypatch.setattr(toy_model, "_TOKENS", spied(toy_model._TOKENS))
        cfg = small_cfg(degat_placement=placement, attention_bias="log_affinity", n_blocks=2)
        rng = np.random.default_rng(16)
        params = init_model_params(cfg)
        _, grads = loss_and_grads(params, cfg, make_frames(rng, cfg, 2), *make_gt(rng, cfg, 2))
        assert [name for name, _ in seen] == ["_attn_ffn_backward"] * 4 + ["_tokens_backward"] * 2
        assert not any(has_d_bias for _, has_d_bias in seen)
        assert list(grads) == list(params)

    @pytest.mark.parametrize("placement,conditioning,bias", VARIANTS)
    def test_tapeless_passes_bit_identical(self, placement, conditioning, bias):
        """``loss`` gives the breakdown of ``loss_and_grads``, and ``forward``
        gives the same maps and cameras with and without a tape."""
        cfg = small_cfg(degat_placement=placement, token_conditioning=conditioning,
                        attention_bias=bias)
        rng = np.random.default_rng(12)
        params = {k: v + 0.05 * rng.standard_normal(v.shape)
                  for k, v in init_model_params(cfg).items()}
        for n_frames in (1, 2, 4):
            frames = make_frames(rng, cfg, n_frames)
            gt_depths, gt_cams = make_gt(rng, cfg, n_frames)
            bd, _ = loss_and_grads(params, cfg, frames, gt_depths, gt_cams)
            assert toy_model.loss(params, cfg, frames, gt_depths, gt_cams) == bd
            maps, cams, none = forward(params, cfg, frames)
            taped_maps, taped_cams, tape = forward(params, cfg, frames, tape=[])
            assert none is None and len(tape) >= 4  # embed, tokens, a block, heads
            for a, b in zip(maps + cams, taped_maps + taped_cams):
                for field in vars(a):
                    np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_backwards_reached_through_their_modules(self, monkeypatch):
        """The tape replays stages that look their layers up at call time, so a
        wrapper installed after import (the benchmark tracer's) sees each call."""
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(cond, "multi_head_attention_backward")
        counted(cond, "mlp2_backward")
        counted(dg, "degat_backward")
        rng = np.random.default_rng(13)
        cfg = small_cfg(degat_placement="post", n_blocks=2)
        frames = make_frames(rng, cfg, 2)
        loss_and_grads(init_model_params(cfg), cfg, frames, *make_gt(rng, cfg, 2))
        # two blocks and the global block; their FFNs and the camera head; one hop
        assert calls == {"multi_head_attention_backward": 3, "mlp2_backward": 4,
                         "degat_backward": 1}

    @pytest.mark.parametrize("variant", [("pre", "cross_attn", "log_affinity"),
                                         ("post", "film", "mlp_bias")])
    def test_no_stage_cache_outlives_the_next_stage(self, monkeypatch, variant):
        """Without a tape, every earlier attention's largest cached array and hop's
        cache are freed by the time a block's attention runs, and all are
        freed when ``forward`` returns; with a tape, all are kept."""
        placement, conditioning, bias = variant
        cfg = small_cfg(degat_placement=placement, token_conditioning=conditioning,
                        attention_bias=bias)
        params = init_model_params(cfg)
        frames = make_frames(np.random.default_rng(14), cfg, 2)
        refs, live_at_entry = [], []
        attention, hop = cond.biased_attention, dg.degat_forward

        def tracked_attention(*args, **kwargs):
            live_at_entry.append(sum(r() is not None for r in refs))
            out, cache = attention(*args, **kwargs)
            # the exponentiated scores of a block's self-attention, K of the
            # cross-attention's one query row
            refs.append(weakref.ref(max(cache, key=lambda a: -1 if a is None else a.size)))
            return out, cache

        def tracked_hop(*args, **kwargs):
            out, cache = hop(*args, **kwargs)
            refs.append(weakref.ref(cache))
            return out, cache

        monkeypatch.setattr(cond, "biased_attention", tracked_attention)
        monkeypatch.setattr(dg, "degat_forward", tracked_hop)
        forward(params, cfg, frames)
        # conditioning (cross_attn only; the pre hop's cache is its input), then
        # the one block and the global block, which find nothing kept
        assert len(live_at_entry) == (3 if conditioning == "cross_attn" else 2)
        assert live_at_entry[-2:] == [0, 0]
        assert all(r() is None for r in refs)
        refs.clear()
        _, _, tape = forward(params, cfg, frames, tape=[])
        assert all(r() is not None for r in refs)


class TestTraining:
    def test_sgd_step_and_zero_grads(self):
        cfg = small_cfg()
        params = init_model_params(cfg)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
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
