import json
import os
import subprocess
import sys

import numpy as np
import pytest

import degat_kit
from degat_kit import harness
from degat_kit.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from degat_kit.fileio import write_pfm, write_pnm
from degat_kit.harness import save_checkpoint
from degat_kit.toy_model import ModelConfig, init_model_params


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "image_h": 16, "image_w": 16, "patch_size": 4, "embed_dim": 8,
        "n_blocks": 1, "n_heads": 2, "k_neighbors": 3, "cond_hidden": 4,
        "bias_hidden": 4, "cam_hidden": 4, "ffn_mult": 2,
        "steps": 3, "lr": 0.01, "n_frames": 1,
    }))
    return path


class TestGraphCommand:
    def test_emits_neighbor_record(self, tmp_path, capsys):
        img = np.random.default_rng(0).uniform(0, 1, (16, 16))
        path = tmp_path / "img.pgm"
        write_pnm(path, img)
        code = main(["graph", "--input", str(path), "--k", "3",
                     "--patch-size", "4", "--query", "5"])
        assert code == EXIT_OK
        rec = json.loads(capsys.readouterr().out)
        assert rec["query"] == 5
        assert len(rec["neighbors"]) == 3
        assert all(0.0 <= c <= 1.0 for c in rec["coord"])

    def test_missing_file(self, tmp_path):
        assert main(["graph", "--input", str(tmp_path / "nope.pgm")]) == EXIT_IO

    def test_bad_patch_size(self, tmp_path):
        img = np.zeros((16, 16))
        path = tmp_path / "img.pgm"
        write_pnm(path, img)
        assert main(["graph", "--input", str(path), "--patch-size", "5"]) == EXIT_VALIDATION

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_non_positive_patch_size(self, tmp_path, capsys, size):
        path = tmp_path / "img.pgm"
        write_pnm(path, np.zeros((16, 16)))
        assert main(["graph", "--input", str(path), "--patch-size", size]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "patch size must be >= 1" in err and len(err.strip().splitlines()) == 1


class TestTrainEvalCommands:
    def test_train_then_eval(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "run"
        assert main(["train", "--config", str(tiny_config), "--out", str(out)]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["steps"] == 3
        assert np.isfinite(summary["final_total"])

        report = json.loads((out / "report.json").read_text())
        assert len(report["history"]) == 3
        assert (out / "checkpoint" / "manifest.json").exists()

        assert main(["eval", "--checkpoint", str(out / "checkpoint"),
                     "--n-frames", "1"]) == EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert "mean_abs_depth_error" in metrics

    def test_nonfinite_gradient_is_numeric_abort(self, tmp_path, tiny_config, capsys, monkeypatch):
        real = harness.loss_and_grads

        def nan_grad(*args, **kwargs):
            breakdown, grads = real(*args, **kwargs)
            grads["degat.a"][0] = np.nan
            return breakdown, grads

        monkeypatch.setattr(harness, "loss_and_grads", nan_grad)
        assert main(["train", "--config", str(tiny_config),
                     "--out", str(tmp_path / "o")]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "non-finite gradient" in err and len(err.strip().splitlines()) == 1

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"momentum": 0.9}))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("edit,needle", [
        ({"patch_size": 0}, "patch_size=0"),
        ({"n_heads": 0}, "n_heads=0"),
    ], ids=["patch_size", "n_heads"])
    def test_non_positive_size_in_config(self, tmp_path, tiny_config, capsys, edit, needle):
        raw = json.loads(tiny_config.read_text())
        tiny_config.write_text(json.dumps({**raw, **edit}))
        assert main(["train", "--config", str(tiny_config),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert needle in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("body,kind", [([1, 2], "list"), ("steps", "str"), (3, "int")])
    def test_config_must_be_an_object(self, tmp_path, capsys, body, kind):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"must hold a JSON object, got {kind}" in err
        assert "unknown config keys" not in err and len(err.strip().splitlines()) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_IO


class TestEvalCheckpointValidation:
    @pytest.fixture
    def ckpt(self, tmp_path):
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=4, embed_dim=8, n_blocks=1,
                          n_heads=2, k_neighbors=3, cond_hidden=4, bias_hidden=4, cam_hidden=4)
        path = tmp_path / "ckpt"
        save_checkpoint(str(path), cfg, init_model_params(cfg))
        return path

    @staticmethod
    def edit_manifest(path, edit):
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest["params"])
        (path / "manifest.json").write_text(json.dumps(manifest))

    def run_eval(self, path, capsys):
        code = main(["eval", "--checkpoint", str(path), "--n-frames", "1"])
        err = capsys.readouterr().err
        return code, err

    def test_intact(self, ckpt, capsys):
        assert self.run_eval(ckpt, capsys)[0] == EXIT_OK

    @pytest.mark.parametrize("edit,needle", [
        (lambda p: p.pop("degat.a"), "missing ['degat.a']"),
        (lambda p: p.update({"extra.w": [2]}), "unexpected ['extra.w']"),
        (lambda p: p.update({"degat.a": [4, 2]}), "shapes"),
        (lambda p: p.update({"../outside": [1]}), "path separators"),
        (lambda p: p.update({"..\\outside": [1]}), "path separators"),
    ], ids=["missing", "extra", "reshaped", "slash", "backslash"])
    def test_tampered_manifest_is_validation_error(self, ckpt, capsys, edit, needle):
        self.edit_manifest(ckpt, edit)
        code, err = self.run_eval(ckpt, capsys)
        assert code == EXIT_VALIDATION
        assert needle in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("manifest", [{"config": {}}, {"config": {}, "params": []}, []])
    def test_malformed_manifest(self, ckpt, capsys, manifest):
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert self.run_eval(ckpt, capsys)[0] == EXIT_VALIDATION

    @pytest.mark.parametrize("cut", [8, 3])
    def test_truncated_blob_is_io_error(self, ckpt, capsys, cut):
        blob = ckpt / "degat.w_val.bin"
        blob.write_bytes(blob.read_bytes()[:-cut])
        code, err = self.run_eval(ckpt, capsys)
        assert code == EXIT_IO
        assert "degat.w_val.bin" in err and len(err.strip().splitlines()) == 1

    def test_missing_blob_is_io_error(self, ckpt, capsys):
        (ckpt / "cam_head.b2.bin").unlink()
        assert self.run_eval(ckpt, capsys)[0] == EXIT_IO

    @pytest.mark.parametrize("name,bad", [
        ("depth_head.w", np.nan), ("embed.b", np.inf), ("embed.b", -np.inf),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_is_validation_error(self, ckpt, capsys, name, bad):
        blob = ckpt / f"{name}.bin"
        values = np.fromfile(blob, dtype="<f8")
        values[1] = bad
        values.tofile(blob)
        code, err = self.run_eval(ckpt, capsys)
        assert code == EXIT_VALIDATION
        assert f"non-finite values: ['{name}']" in err and len(err.strip().splitlines()) == 1


class TestBackprojectCommand:
    @staticmethod
    def run_backproject(tmp_path, depth):
        dpath = tmp_path / "d.pfm"
        write_pfm(dpath, depth)
        pose = tmp_path / "pose.json"
        pose.write_text(json.dumps({
            "R": list(np.eye(3).ravel()), "T": [0.0, 0.0, 0.0],
            "f": 1.5, "cx": 1.5, "cy": 1.5,
        }))
        out = tmp_path / "cloud.ply"
        code = main(["backproject", "--depth", str(dpath),
                     "--pose", str(pose), "--out", str(out)])
        return code, out

    def test_writes_ply(self, tmp_path, capsys):
        depth = np.full((4, 4), 2.0)
        depth[0, 0] = -1.0
        code, out = self.run_backproject(tmp_path, depth)
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"points": 15, "skipped": 1}
        assert out.read_text().splitlines()[2] == "element vertex 15"

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_depth_is_validation_error(self, tmp_path, capsys, bad):
        depth = np.full((4, 4), 2.0)
        depth[2, 1] = bad
        code, out = self.run_backproject(tmp_path, depth)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "non-finite" in err and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_with_colors(self, tmp_path, capsys):
        depth = np.ones((4, 4))
        dpath = tmp_path / "d.pfm"
        write_pfm(dpath, depth)
        img = tmp_path / "img.pgm"
        write_pnm(img, np.full((4, 4), 0.5))
        pose = tmp_path / "pose.json"
        pose.write_text(json.dumps({
            "R": list(np.eye(3).ravel()), "T": [0, 0, 0], "f": 1.0,
            "cx": 0.0, "cy": 0.0,
        }))
        out = tmp_path / "c.ply"
        assert main(["backproject", "--depth", str(dpath), "--pose", str(pose),
                     "--out", str(out), "--image", str(img)]) == EXIT_OK
        assert "property uchar red" in out.read_text()


class TestMetricsCommand:
    def test_reports_all_three(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (16, 16))
        b = np.clip(a + 0.05, 0, 1)
        pa, pb = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(pa, a)
        write_pfm(pb, b)
        assert main(["metrics", "--a", str(pa), "--b", str(pb)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"mse", "psnr", "ssim"}
        assert out["mse"] > 0.0

    def test_small_image_skips_ssim(self, tmp_path, capsys):
        a = np.zeros((4, 4))
        pa = tmp_path / "a.pfm"
        write_pfm(pa, a)
        assert main(["metrics", "--a", str(pa), "--b", str(pa)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert "ssim" not in out
        assert out["psnr"] == float("inf") or out["psnr"] == "Infinity" or out["psnr"] is not None

    def test_nan_pixel_is_validation_error(self, tmp_path, capsys):
        a = np.full((16, 16), 0.5)
        b = a.copy()
        b[2, 3] = np.nan
        pa, pb = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(pa, a)
        write_pfm(pb, b)
        assert main(["metrics", "--a", str(pa), "--b", str(pb)]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and "non-finite" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("max_val", ["nan", "inf", "0"])
    def test_bad_max_val_is_validation_error(self, tmp_path, capsys, max_val):
        pa, pb = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(pa, np.zeros((16, 16)))
        write_pfm(pb, np.full((16, 16), 0.25))
        assert main(["metrics", "--a", str(pa), "--b", str(pb),
                     "--max-val", max_val]) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and "max_val" in err and len(err.strip().splitlines()) == 1

    def test_shape_mismatch(self, tmp_path):
        pa, pb = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(pa, np.zeros((4, 4)))
        write_pfm(pb, np.zeros((5, 4)))
        assert main(["metrics", "--a", str(pa), "--b", str(pb)]) == EXIT_VALIDATION


class TestAblateCommand:
    def test_csv_rows(self, tiny_config, capsys):
        assert main(["ablate-k", "--config", str(tiny_config),
                     "--ks", "2,3"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("k,")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "2"
        assert lines[2].split(",")[0] == "3"


def test_import_does_not_load_scipy_signal():
    # scipy.signal alone costs most of a second at every CLI start
    src = os.path.dirname(os.path.dirname(degat_kit.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    code = ("import sys, degat_kit.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'signal']))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


class TestCheckCommand:
    def test_fast_suite_passes(self, capsys):
        assert main(["check", "--fast"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_json_output(self, capsys):
        assert main(["check", "--fast", "--json"]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in results)
