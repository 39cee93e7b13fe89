import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings

from degat_kit import harness
from degat_kit.harness import (
    DEFAULT_TRAINER,
    NumericAbort,
    ablate_k,
    evaluate,
    generate_scene,
    load_checkpoint,
    load_config,
    save_checkpoint,
    train,
)
from degat_kit.objective import LossWeights
from degat_kit.toy_model import (
    ATTENTION_BIAS, PLACEMENTS, TOKEN_CONDITIONING, ModelConfig, init_model_params, param_shapes,
)

from checkpoint_tampering import CFG as TAMPER_CFG
from checkpoint_tampering import PARAMS as TAMPER_PARAMS
from checkpoint_tampering import TAMPERING, param_slice, tamper


def tiny_cfg(**kw):
    base = dict(
        image_h=16, image_w=16, patch_size=4, embed_dim=8, n_blocks=1,
        n_heads=2, k_neighbors=3, cond_hidden=4, bias_hidden=4,
        ffn_mult=2, cam_hidden=4, n_buckets=4,
    )
    base.update(kw)
    return ModelConfig(**base)


class TestSceneGenerator:
    def test_deterministic(self):
        a = generate_scene(7, 3, 16, 16)
        b = generate_scene(7, 3, 16, 16)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)
        for da, db in zip(a.gt_depth, b.gt_depth):
            np.testing.assert_array_equal(da, db)
        np.testing.assert_array_equal(
            a.gt_cameras[2].rotation, b.gt_cameras[2].rotation
        )

    def test_seed_changes_scene(self):
        a = generate_scene(0, 1, 16, 16)
        b = generate_scene(1, 1, 16, 16)
        assert not np.array_equal(a.frames[0], b.frames[0])

    def test_shapes_and_ranges(self):
        scene = generate_scene(3, 4, 24, 32)
        assert len(scene.frames) == 4
        for f, d, m in zip(scene.frames, scene.gt_depth, scene.occluder_masks):
            assert f.shape == (24, 32) and d.shape == (24, 32)
            assert f.min() >= 0.0 and f.max() <= 1.0
            assert np.all(d > 0.0)
            assert m.any()
            # the occluder bar overwrites both color and depth
            assert np.all(f[m] == 0.95)
            assert np.all(d[m] == 0.6)

    def test_orthonormal_ground_truth_rotations(self):
        scene = generate_scene(5, 4, 16, 16)
        for cam in scene.gt_cameras:
            r = cam.rotation
            np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            generate_scene(0, 1, 8, 16)
        with pytest.raises(ValueError):
            generate_scene(0, 0, 16, 16)


class TestTrainEvaluate:
    def test_zero_steps_gives_empty_history(self):
        cfg = tiny_cfg()
        scene = generate_scene(0, 1, 16, 16)
        report, params = train(cfg, scene, 0, 0.01)
        assert report.history == []
        assert report.initial_metrics == report.final_metrics

    def test_short_run_reduces_loss(self):
        cfg = tiny_cfg()
        scene = generate_scene(0, 2, 16, 16)
        report, _ = train(cfg, scene, 25, 0.02)
        assert len(report.history) == 25
        assert report.history[-1].total < report.history[0].total
        assert np.isfinite(report.wall_time)

    def test_deterministic_runs(self):
        cfg = tiny_cfg()
        scene = generate_scene(1, 1, 16, 16)
        r1, p1 = train(cfg, scene, 10, 0.02)
        r2, p2 = train(cfg, scene, 10, 0.02)
        assert [b.total for b in r1.history] == [b.total for b in r2.history]
        for k in p1:
            np.testing.assert_array_equal(p1[k], p2[k])

    def test_numeric_abort(self):
        cfg = tiny_cfg()
        scene = generate_scene(0, 1, 16, 16)
        params = init_model_params(cfg)
        # overflow the exp depth head while keeping every parameter finite
        params["depth_head.b"] = np.full_like(params["depth_head.b"], 1e4)
        with np.errstate(all="ignore"), pytest.raises(NumericAbort) as exc:
            train(cfg, scene, 5, 0.01, params=params)
        assert exc.value.step == 0

    def test_numeric_abort_on_nonfinite_gradient(self, monkeypatch):
        cfg = tiny_cfg()
        scene = generate_scene(0, 1, 16, 16)
        real = harness.loss_and_grads
        calls = []

        def nan_grad_at_step_one(*args, **kwargs):
            breakdown, grads = real(*args, **kwargs)
            if calls:
                grads["embed.w"][0, 0] = np.nan
            calls.append(breakdown.total)
            return breakdown, grads

        monkeypatch.setattr(harness, "loss_and_grads", nan_grad_at_step_one)
        with pytest.raises(NumericAbort, match=r"non-finite gradient for \['embed.w'\] at step 1") as exc:
            train(cfg, scene, 5, 0.01)
        assert exc.value.step == 1
        assert all(np.isfinite(calls))

    def test_evaluate_keys(self):
        cfg = tiny_cfg()
        scene = generate_scene(2, 2, 16, 16)
        out = evaluate(init_model_params(cfg), cfg, scene)
        for key in ("mean_abs_depth_error", "camera_loss", "psnr", "ssim"):
            assert key in out
            assert np.isfinite(out[key])

    def test_ablate_rows(self):
        cfg = tiny_cfg()
        scene = generate_scene(0, 1, 16, 16)
        rows = ablate_k(cfg, scene, [2, 5], steps=3, lr=0.01)
        assert [r["k"] for r in rows] == [2, 5]
        for r in rows:
            assert np.isfinite(r["final_total"])


class TestConfigIo:
    def test_roundtrip_with_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "image_h": 16, "image_w": 16, "patch_size": 4, "embed_dim": 8,
            "n_blocks": 1, "n_heads": 2, "k_neighbors": 3,
            "alpha": 0.3, "steps": 7,
        }))
        cfg, weights, trainer = load_config(path)
        assert cfg.image_h == 16 and cfg.k_neighbors == 3
        assert weights.alpha == 0.3 and weights.gamma == 1.0
        assert trainer["steps"] == 7
        assert trainer["lr"] == DEFAULT_TRAINER["lr"]

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(ValueError, match="learning_rate"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("key,value", [
        ("steps", True), ("steps", 2.0), ("steps", -1), ("n_frames", 1.0), ("n_frames", 0),
        ("scene_seed", False), ("scene_seed", "0"), ("lr", "0.1"), ("lr", -0.1),
        ("lr", float("nan")), ("lr", None), ("alpha", "0.3"), ("alpha", 0), ("gamma", float("inf")),
        ("gamma", [1.0]),
    ])
    def test_trainer_values_and_weights_checked(self, tmp_path, key, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({key: value}))
        what = "loss weights" if key in ("alpha", "gamma") else "config values"
        with pytest.raises(ValueError, match=f"^bad {what}: {key}=") as exc:
            load_config(path)
        assert len(str(exc.value).splitlines()) == 1

    def test_trainer_values_at_their_bounds_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": 0, "n_frames": 1, "scene_seed": 0, "lr": 0,
                                    "alpha": 1e-3, "gamma": 2}))
        _, weights, trainer = load_config(path)
        assert (trainer["steps"], trainer["lr"], weights.gamma) == (0, 0, 2)


class TestCheckpointIo:
    def test_roundtrip_bit_exact(self, tmp_path):
        """Every variant's init params come back bit for bit, in table order
        and as views of one buffer, from a directory of exactly two files."""
        for variant in itertools.product(PLACEMENTS, TOKEN_CONDITIONING, ATTENTION_BIAS):
            placement, conditioning, bias = variant
            cfg = tiny_cfg(degat_placement=placement, token_conditioning=conditioning,
                           attention_bias=bias)
            params = init_model_params(cfg)
            path = tmp_path / "-".join(variant)
            save_checkpoint(path, cfg, params)
            assert sorted(p.name for p in path.iterdir()) == ["manifest.json", "params.bin"]
            cfg2, params2 = load_checkpoint(path)
            assert cfg2 == cfg
            assert list(params2) == list(param_shapes(cfg))
            for k in params:
                np.testing.assert_array_equal(params2[k], params[k])
            base = params2["embed.w"].base
            assert base is not None and all(v.base is base for v in params2.values())

    def test_manifest_contents(self, tmp_path):
        cfg = tiny_cfg()
        params = init_model_params(cfg)
        save_checkpoint(tmp_path / "c", cfg, params)
        manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
        assert manifest["config"]["embed_dim"] == 8
        assert manifest["params"]["embed.w"] == [8, 16]
        n_values = sum(v.size for v in params.values())
        assert (tmp_path / "c" / "params.bin").stat().st_size == 8 * n_values

    def test_blob_in_table_order_whatever_the_manifest_order(self, tmp_path):
        # two arrays of one shape: a manifest listed in another order must not swap them
        save_checkpoint(tmp_path, TAMPER_CFG, TAMPER_PARAMS)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["params"] = dict(reversed(manifest["params"].items()))
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        _, params = load_checkpoint(tmp_path)
        assert params["block0.w_q"].shape == params["block0.w_k"].shape
        assert all(np.array_equal(params[k], TAMPER_PARAMS[k]) for k in TAMPER_PARAMS)
        values = np.fromfile(tmp_path / "params.bin", dtype="<f8")
        np.testing.assert_array_equal(values[param_slice(TAMPER_CFG, "block0.w_k")],
                                      TAMPER_PARAMS["block0.w_k"].ravel())

    @pytest.mark.parametrize("edit", [
        lambda p: p.pop("embed.b"),
        lambda p: p.update({"embed.w": np.zeros((16, 8))}),
        lambda p: p.update({"extra.w": np.zeros(2)}),
        lambda p: p["block0.w_q"].__setitem__((0, 0), np.nan),
        lambda p: p.update({"degat.a": np.zeros(8)}),
    ], ids=["missing", "reshaped", "extra", "nan", "other-variant"])
    def test_save_rejects_params_that_do_not_match(self, tmp_path, edit):
        params = {k: v.copy() for k, v in TAMPER_PARAMS.items()}
        edit(params)
        with pytest.raises(ValueError, match="^param"):
            save_checkpoint(tmp_path / "c", TAMPER_CFG, params)
        assert not (tmp_path / "c").exists()

    def test_every_layer_checkpoint_names_unexpected_keys(self, tmp_path):
        """A checkpoint that holds the layers of every variant, the format
        of earlier versions, is rejected with an error naming the layers that
        its config's variant does not read."""
        cfg = tiny_cfg()
        every = {}
        for placement, conditioning, bias in itertools.product(
                PLACEMENTS, TOKEN_CONDITIONING, ATTENTION_BIAS):
            variant = tiny_cfg(degat_placement=placement, token_conditioning=conditioning,
                               attention_bias=bias)
            every.update(init_model_params(variant))
        assert len(every) == 49  # 57 at two blocks, less one block's 8
        manifest = {"config": dataclasses.asdict(cfg),
                    "params": {k: list(v.shape) for k, v in every.items()}}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        np.concatenate([v.ravel() for v in every.values()]).tofile(tmp_path / "params.bin")
        unexpected = sorted(set(every) - set(param_shapes(cfg)))
        assert unexpected[0] == "bias_mlp.b1" and "degat.a" in unexpected
        with pytest.raises(ValueError, match=re.escape(f"missing [], unexpected {unexpected}")):
            load_checkpoint(tmp_path)


@settings(max_examples=150, deadline=None)
@given(tampering=TAMPERING)
def test_tampered_checkpoint_raises_value_or_os_error(tmp_path_factory, tampering):
    """Whatever is tampered with in a saved checkpoint, loading it raises
    ValueError (a bad manifest, config or value) or OSError (a bad blob), and
    no other error, and never returns."""
    path = tmp_path_factory.mktemp("ckpt")
    with pytest.raises(tamper(path, tampering)):
        load_checkpoint(path)
