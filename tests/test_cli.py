import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import degat_kit
from degat_kit import cli, harness
from degat_kit.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main
from degat_kit.fileio import write_pfm, write_pnm
from degat_kit.harness import save_checkpoint
from degat_kit.toy_model import ModelConfig, init_model_params

from checkpoint_tampering import TAMPERING, edit_param, tamper


def assert_one_error_line(capsys, argv, code):
    """``main(argv)`` returns ``code``, prints nothing and writes one
    ``error:`` line to stderr and no traceback, the contract for hostile
    input; returns that line. A ``code`` of None takes any exit code, and
    for EXIT_OK drops the output and returns None."""
    got = main(argv)
    assert got == code or (code is None and got in EXIT_CODES), got
    out, err = capsys.readouterr()
    if got == EXIT_OK and code is None:
        return None
    assert out == "" and "Traceback" not in err and len(err.splitlines()) == 1, err
    assert err.startswith("error: "), err
    return err


# parsing it exceeds Python's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000
EXIT_CODES = (EXIT_OK, EXIT_VALIDATION, EXIT_IO, EXIT_NUMERIC)


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
        err = assert_one_error_line(
            capsys, ["graph", "--input", str(path), "--patch-size", size], EXIT_VALIDATION
        )
        assert "patch size must be >= 1" in err


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
            grads["embed.b"][0] = np.nan
            return breakdown, grads

        monkeypatch.setattr(harness, "loss_and_grads", nan_grad)
        err = assert_one_error_line(
            capsys, ["train", "--config", str(tiny_config), "--out", str(tmp_path / "o")],
            EXIT_NUMERIC,
        )
        assert "non-finite gradient" in err

    def test_bad_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"momentum": 0.9}))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("edit,needle", [
        ({"patch_size": 0}, "patch_size=0"),
        ({"n_heads": 0}, "n_heads=0"),
        ({"seed": -1}, "seed=-1"),
    ], ids=["patch_size", "n_heads", "seed"])
    def test_non_positive_size_in_config(self, tmp_path, tiny_config, capsys, edit, needle):
        raw = json.loads(tiny_config.read_text())
        tiny_config.write_text(json.dumps({**raw, **edit}))
        err = assert_one_error_line(
            capsys, ["train", "--config", str(tiny_config), "--out", str(tmp_path / "o")],
            EXIT_VALIDATION,
        )
        assert needle in err

    @pytest.mark.parametrize("edit", [{"steps": True}, {"steps": 2.0}, {"n_frames": 1.0},
                                      {"lr": "0.1"}, {"alpha": "0.3"}],
                             ids=["steps-bool", "steps-float", "n_frames-float", "lr-str",
                                  "alpha-str"])
    def test_mistyped_trainer_value_in_config(self, tmp_path, tiny_config, capsys, edit):
        raw = json.loads(tiny_config.read_text())
        tiny_config.write_text(json.dumps({**raw, **edit}))
        err = assert_one_error_line(
            capsys, ["train", "--config", str(tiny_config), "--out", str(tmp_path / "o")],
            EXIT_VALIDATION,
        )
        (key, value), = edit.items()
        assert f"{key}={value!r}" in err
        assert not (tmp_path / "o").exists()

    def test_integer_past_float64_in_config(self, tmp_path, tiny_config, capsys):
        raw = json.loads(tiny_config.read_text())
        tiny_config.write_text(json.dumps({**raw, "lr": 10**400}))
        err = assert_one_error_line(
            capsys, ["train", "--config", str(tiny_config), "--out", str(tmp_path / "o")],
            EXIT_VALIDATION,
        )
        assert err.startswith("error: bad config values: lr=1000000"), err

    @pytest.mark.parametrize("body,kind", [([1, 2], "list"), ("steps", "str"), (3, "int")])
    def test_config_must_be_an_object(self, tmp_path, capsys, body, kind):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        err = assert_one_error_line(
            capsys, ["train", "--config", str(path), "--out", str(tmp_path / "o")],
            EXIT_VALIDATION,
        )
        assert f"must hold a JSON object, got {kind}" in err
        assert "unknown config keys" not in err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_IO

    def test_deeply_nested_config(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(DEEP_JSON)
        err = assert_one_error_line(
            capsys, ["train", "--config", str(path), "--out", str(tmp_path / "o")], EXIT_IO
        )
        assert "recursion" in err
        assert not (tmp_path / "o").exists()


class TestEvalCheckpointValidation:
    CFG = ModelConfig(image_h=16, image_w=16, patch_size=4, embed_dim=8, n_blocks=1,
                      n_heads=2, k_neighbors=3, cond_hidden=4, bias_hidden=4, cam_hidden=4)

    @pytest.fixture
    def ckpt(self, tmp_path):
        path = tmp_path / "ckpt"
        save_checkpoint(str(path), self.CFG, init_model_params(self.CFG))
        return path

    @staticmethod
    def edit_manifest(path, edit):
        manifest = json.loads((path / "manifest.json").read_text())
        edit(manifest["params"])
        (path / "manifest.json").write_text(json.dumps(manifest))

    @staticmethod
    def eval_args(path):
        return ["eval", "--checkpoint", str(path), "--n-frames", "1"]

    def test_intact(self, ckpt, capsys):
        assert main(self.eval_args(ckpt)) == EXIT_OK

    @pytest.mark.parametrize("edit,needle", [
        (lambda p: p.pop("embed.b"), "missing ['embed.b']"),
        (lambda p: p.update({"extra.w": [2]}), "unexpected ['extra.w']"),
        (lambda p: p.update({"embed.b": [4, 2]}), "shapes do not match the config: ['embed.b']"),
        (lambda p: p.update({"../outside": [1]}), "unexpected ['../outside']"),
        (lambda p: p.update({"..\\outside": [1]}), "unexpected ['..\\\\outside']"),
        (lambda p: p.update({"embed.b": 5}), "not lists of integers: ['embed.b']"),
        (lambda p: p.update({"embed.b": None}), "not lists of integers: ['embed.b']"),
        (lambda p: p.update({"embed.b": [8.0]}), "not lists of integers: ['embed.b']"),
        (lambda p: p.update({"degat.a": [8]}), "unexpected ['degat.a']"),
    ], ids=["missing", "extra", "reshaped", "slash", "backslash", "int-shape", "null-shape",
            "float-shape", "other-variant"])
    def test_tampered_manifest_is_validation_error(self, ckpt, capsys, edit, needle):
        self.edit_manifest(ckpt, edit)
        err = assert_one_error_line(capsys, self.eval_args(ckpt), EXIT_VALIDATION)
        assert needle in err

    @pytest.mark.parametrize("manifest", [{"config": {}}, {"config": {}, "params": []}, []])
    def test_malformed_manifest(self, ckpt, capsys, manifest):
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        assert main(self.eval_args(ckpt)) == EXIT_VALIDATION

    def test_deeply_nested_manifest(self, ckpt, capsys):
        (ckpt / "manifest.json").write_text(DEEP_JSON)
        assert "recursion" in assert_one_error_line(capsys, self.eval_args(ckpt), EXIT_IO)

    @pytest.mark.parametrize("cut", [8, 3])
    def test_truncated_blob_is_io_error(self, ckpt, capsys, cut):
        blob = ckpt / "params.bin"
        blob.write_bytes(blob.read_bytes()[:-cut])
        err = assert_one_error_line(capsys, self.eval_args(ckpt), EXIT_IO)
        assert "params.bin" in err

    def test_missing_blob_is_io_error(self, ckpt, capsys):
        (ckpt / "params.bin").unlink()
        assert main(self.eval_args(ckpt)) == EXIT_IO

    @pytest.mark.parametrize("name,bad", [
        ("depth_head.w", np.nan), ("embed.b", np.inf), ("embed.b", -np.inf),
    ], ids=["nan", "inf", "-inf"])
    def test_non_finite_value_is_validation_error(self, ckpt, capsys, name, bad):
        edit_param(ckpt, self.CFG, name, lambda v: np.where(np.arange(v.size) == 1, bad, v))
        err = assert_one_error_line(capsys, self.eval_args(ckpt), EXIT_VALIDATION)
        assert f"non-finite values: ['{name}']" in err


    def test_overflowing_prediction_is_numeric_error(self, ckpt, capsys):
        # finite parameters, but exp() of the depth head overflows
        edit_param(ckpt, self.CFG, "depth_head.b", lambda v: v + 1e4)
        err = assert_one_error_line(capsys, self.eval_args(ckpt), EXIT_NUMERIC)
        assert "non-finite scores ['mean_abs_depth_error', 'psnr', 'ssim']" in err


class TestBackprojectCommand:
    POSE = {"R": list(np.eye(3).ravel()), "T": [0.0, 0.0, 0.0], "f": 1.5, "cx": 1.5, "cy": 1.5}

    @classmethod
    def backproject_args(cls, tmp_path, depth, pose=None):
        """The argv and PLY path of a run on depth, a grid or the bytes of a
        PFM file, and on pose, a dict or the text of a pose file."""
        dpath = tmp_path / "d.pfm"
        if isinstance(depth, bytes):
            dpath.write_bytes(depth)
        else:
            write_pfm(dpath, depth)
        ppath = tmp_path / "pose.json"
        pose = cls.POSE if pose is None else pose
        ppath.write_text(pose if isinstance(pose, str) else json.dumps(pose))
        out = tmp_path / "cloud.ply"
        return ["backproject", "--depth", str(dpath), "--pose", str(ppath), "--out", str(out)], out

    def test_writes_ply(self, tmp_path, capsys):
        depth = np.full((4, 4), 2.0)
        depth[0, 0] = -1.0
        argv, out = self.backproject_args(tmp_path, depth)
        assert main(argv) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary == {"points": 15, "skipped": 1}
        header = out.read_bytes().split(b"end_header\n")[0].decode("ascii")
        assert header.splitlines()[1:3] == ["format binary_little_endian 1.0", "element vertex 15"]
        assert out.stat().st_size == len(header) + len("end_header\n") + 15 * 12

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_depth_is_validation_error(self, tmp_path, capsys, bad):
        depth = np.full((4, 4), 2.0)
        depth[2, 1] = bad
        argv, out = self.backproject_args(tmp_path, depth)
        assert "non-finite" in assert_one_error_line(capsys, argv, EXIT_VALIDATION)
        assert not out.exists()

    def test_pfm_scale_without_byte_order_is_validation_error(self, tmp_path, capsys):
        raw = b"Pf\n2 1\nnan\n" + np.array([1.5, 2.5], "<f4").tobytes()
        argv, out = self.backproject_args(tmp_path, raw)
        assert "PFM scale nan" in assert_one_error_line(capsys, argv, EXIT_VALIDATION)
        assert not out.exists()

    @pytest.mark.parametrize("key", ["R", "T", "f", "cx", "cy"])
    def test_pose_key_missing(self, tmp_path, capsys, key):
        pose = {k: v for k, v in self.POSE.items() if k != key}
        argv, out = self.backproject_args(tmp_path, np.ones((4, 4)), pose)
        assert f"lacks keys ['{key}']" in assert_one_error_line(capsys, argv, EXIT_VALIDATION)
        assert not out.exists()

    def test_non_finite_pose(self, tmp_path, capsys):
        pose = {**self.POSE, "T": [0.0, 0.0, float("nan")], "f": float("inf")}
        argv, out = self.backproject_args(tmp_path, np.ones((4, 4)), pose)
        err = assert_one_error_line(capsys, argv, EXIT_VALIDATION)
        assert "non-finite values in ['T', 'f']" in err
        assert not out.exists()

    def test_pose_must_be_an_object(self, tmp_path, capsys):
        argv, out = self.backproject_args(tmp_path, np.ones((4, 4)), "[1, 2]")
        err = assert_one_error_line(capsys, argv, EXIT_VALIDATION)
        assert "must hold a JSON object, got list" in err
        assert not out.exists()

    def test_points_beyond_float32_are_validation_error(self, tmp_path, capsys):
        # x = depth * (u - cx) / f reaches 1.5e40, past the PLY float32 range
        pose = {**self.POSE, "f": 1e-40}
        argv, out = self.backproject_args(tmp_path, np.ones((4, 4)), pose)
        err = assert_one_error_line(capsys, argv, EXIT_VALIDATION)
        assert "largest |coordinate| 1.5e+40 exceeds 3.40282e+38" in err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("f", 10**400), ("T", [0, -(10**400), 0])],
                             ids=["f", "T"])
    def test_integer_past_float64_is_validation_error(self, tmp_path, capsys, key, value):
        argv, out = self.backproject_args(tmp_path, np.ones((4, 4)), {**self.POSE, key: value})
        err = assert_one_error_line(capsys, argv, EXIT_VALIDATION)
        assert "int too large to convert to float" in err
        assert not out.exists()

    def test_points_past_float64_are_validation_error(self, tmp_path, capsys):
        # (u - cx) / f overflows, and inf times R's zeros is nan: no warning either way
        pose = {**self.POSE, "f": 2.2250738585e-313}
        argv, out = self.backproject_args(tmp_path, np.ones((4, 4)), pose)
        err = assert_one_error_line(capsys, argv, EXIT_VALIDATION)
        assert "camera maps a pixel past the float64 range" in err
        assert not out.exists()

    def test_deeply_nested_pose(self, tmp_path, capsys):
        argv, out = self.backproject_args(tmp_path, np.ones((4, 4)), DEEP_JSON)
        assert "recursion" in assert_one_error_line(capsys, argv, EXIT_IO)
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
        assert b"property uchar red" in out.read_bytes().split(b"end_header")[0]


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
        err = assert_one_error_line(capsys, ["metrics", "--a", str(pa), "--b", str(pb)],
                                    EXIT_VALIDATION)
        assert "non-finite" in err

    @pytest.mark.parametrize("max_val", ["nan", "inf", "0"])
    def test_bad_max_val_is_validation_error(self, tmp_path, capsys, max_val):
        pa, pb = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(pa, np.zeros((16, 16)))
        write_pfm(pb, np.full((16, 16), 0.25))
        err = assert_one_error_line(
            capsys, ["metrics", "--a", str(pa), "--b", str(pb), "--max-val", max_val],
            EXIT_VALIDATION,
        )
        assert "max_val" in err

    def test_max_val_squared_past_float64_is_validation_error(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.pfm", tmp_path / "b.pfm"
        write_pfm(pa, np.zeros((16, 16)))
        write_pfm(pb, np.full((16, 16), 0.25))
        err = assert_one_error_line(
            capsys, ["metrics", "--a", str(pa), "--b", str(pb), "--max-val", "1e200"],
            EXIT_VALIDATION,
        )
        assert "out of range" in err
        assert "max_val" in err

    @pytest.mark.parametrize("name,header", [("a.pfm", b"Pf\n0 0\n-1.0\n"),
                                             ("a.pgm", b"P5\n0 3\n255\n")])
    def test_empty_image_is_validation_error(self, tmp_path, capsys, name, header):
        path = tmp_path / name
        path.write_bytes(header)
        err = assert_one_error_line(capsys, ["metrics", "--a", str(path), "--b", str(path)],
                                    EXIT_VALIDATION)
        assert "empty" in err

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

    @pytest.mark.parametrize("ks", ["2,x", "", "2,,5"])
    def test_ks_not_integers_names_the_option(self, tiny_config, capsys, ks):
        err = assert_one_error_line(
            capsys, ["ablate-k", "--config", str(tiny_config), "--ks", ks], EXIT_VALIDATION
        )
        assert err == f"error: --ks must be comma-separated integers, got {ks!r}\n"


class TestOutOfMemory:
    """``main`` turns a MemoryError from any command into one ``error:``
    line and exit 1; the commands raise it here, nothing is allocated."""

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
    def test_memory_error_is_one_line(self, monkeypatch, capsys, message):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_property_suite", out_of_memory)
        err = assert_one_error_line(capsys, ["check", "--fast"], EXIT_VALIDATION)
        assert err == f"error: out of memory{f': {message}' if message else ''}\n"


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
        # the benchmark tracer times each check by its result name
        tracer_path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "tracer.py")
        spec = importlib.util.spec_from_file_location("tracer", tracer_path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert [r["name"] for r in results] == list(tracer.PROPERTY_CHECKS)


# numbers as json.load returns them: any size, NaN and the infinities too
NUMBERS = st.integers() | st.floats() | st.sampled_from([10**400, -(10**400), 1e308, 5e-324])
# any JSON value: strings, and nested or ragged lists and objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=10,
)


def pose_values(key, value):
    """A pose key's value in TestBackprojectCommand.POSE (R also as three
    rows), numbers in its shape, or any JSON value."""
    valid = [value, np.reshape(value, (3, 3)).tolist()] if key == "R" else [value]
    n = len(value) if isinstance(value, list) else None
    shaped = NUMBERS if n is None else st.lists(NUMBERS, min_size=n, max_size=n)
    return st.sampled_from(valid) | shaped | JSON_VALUES


POSES = JSON_VALUES | st.fixed_dictionaries(
    {}, optional={key: pose_values(key, value) for key, value in TestBackprojectCommand.POSE.items()}
)
SIZE_TOKENS = st.integers(-1, 12).map(lambda v: str(v).encode()) | st.sampled_from(
    [b"99999999999", b"1" + b"0" * 18, b"2.0", b"x"]
)


@st.composite
def image_files(draw):
    """The bytes of a PGM, PPM or PFM file: fuzzed magic, size, maxval or
    scale, and a payload of the size the header declares or of any length."""
    magic = draw(st.sampled_from([b"P5", b"P6", b"Pf", b"PF", b"P2"]))
    w, h = draw(SIZE_TOKENS), draw(SIZE_TOKENS)
    if magic in (b"Pf", b"PF"):
        last, itemsize = draw(st.sampled_from([b"-1.0", b"1.0", b"nan", b"0"])), 4
    else:
        last = draw(st.sampled_from([b"255", b"1", b"65535", b"0", b"70000"]))
        itemsize = 1 if int(last) <= 255 else 2
    need = itemsize * (3 if magic in (b"P6", b"PF") else 1)
    need *= int(w) * int(h) if w.isdigit() and h.isdigit() else 0
    size = need if 0 < need <= 4096 and draw(st.booleans()) else draw(st.integers(0, 64))
    return b"%s\n%s %s\n%s\n" % (magic, w, h, last) + draw(st.binary(min_size=size, max_size=size))


IMAGE_NAMES = st.sampled_from(["a.pfm", "a.pgm", "a.ppm"])

# train config key -> (valid values, bad values of its own). Every mix of the
# valid values is a consistent tiny model (at least 2 x 2 patches, so any
# k <= 3 fits); no value is large, since generate_scene allocates every frame
# and a step count is a loop count.
TRAIN_KEYS = {
    "image_h": ([16, 24], [17, 30, 0, -16]),  # 17 and 30: neither patch divides them
    "image_w": ([16, 24], [17, 30, 0, -16]),
    "patch_size": ([4, 8], [0, -4, 4.0]),
    "embed_dim": ([4, 8], [0, -8]),
    "n_heads": ([1, 2, 4], [0, -2, 3]),
    "n_blocks": ([0, 1], [-1, 1.0]),
    "k_neighbors": ([1, 3], [0, -1, 256]),
    "cond_hidden": ([1, 4], [0, -1]),
    "bias_hidden": ([1, 4], [0, -1]),
    "cam_hidden": ([1, 4], [0, -1]),
    "n_buckets": ([1, 4], [0, -1]),
    "ffn_mult": ([1, 2], [0, -1]),
    "seed": ([0, 3], [-1]),
    "degat_placement": (["none", "pre", "post"], ["other", 1]),
    "token_conditioning": (["none", "additive", "film", "cross_attn"], ["other", 1]),
    "attention_bias": (["none", "bucket", "mlp_bias", "log_affinity"], ["other", 1]),
    "knn_metric": (["cosine", "euclidean"], ["other", 1]),
    "alpha": ([0.2, 1], [0, -0.2, 10**400]),
    "gamma": ([1.0, 2], [0, -1.0, 10**400]),
    "steps": ([0, 1], [-1, 1.0]),
    "lr": ([0, 0.01], [-0.01, 10**400]),
    "n_frames": ([1, 2], [0, -1, 1.0]),
    "scene_seed": ([0, 5], [-1, 0.5]),
}
# wrong JSON types, bools, and the NaN and Infinity tokens, bad for every key
WRONG_VALUES = [None, "1", [1], {"a": 1}, True, False, float("nan"), float("inf"), float("-inf")]


@st.composite
def train_configs(draw):
    """(config, bad keys): every key of ``TRAIN_KEYS``, those in ``bad``
    drawn from its bad values and ``WRONG_VALUES``, the rest valid."""
    bad = draw(st.sets(st.sampled_from(sorted(TRAIN_KEYS)), max_size=3))
    config = {
        key: draw(st.sampled_from(extra + WRONG_VALUES if key in bad else valid))
        for key, (valid, extra) in TRAIN_KEYS.items()
    }
    return config, bad
FUZZ = settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestHostileInputs:
    """Generated poses, image files, train configs and tampered checkpoints:
    every run exits
    with a documented code, and every failing run prints one error line and no
    traceback."""

    @FUZZ
    @given(pose=POSES)
    def test_backproject_poses(self, tmp_path, capsys, pose):
        argv, _ = TestBackprojectCommand.backproject_args(tmp_path, np.full((2, 2), 2.0), pose)
        assert_one_error_line(capsys, argv, None)

    @FUZZ
    @given(names=st.tuples(IMAGE_NAMES, IMAGE_NAMES), raw=image_files(), data=st.data())
    def test_metrics_images(self, tmp_path, capsys, names, raw, data):
        pa, pb = tmp_path / names[0], tmp_path / ("b" + names[1])
        pa.write_bytes(raw)
        pb.write_bytes(data.draw(st.just(raw) | image_files()))
        assert_one_error_line(capsys, ["metrics", "--a", str(pa), "--b", str(pb)], None)

    @FUZZ
    @given(tampering=TAMPERING)
    def test_eval_checkpoints(self, tmp_path, capsys, tampering):
        error = tamper(tmp_path, tampering)
        code = EXIT_IO if error is OSError else EXIT_VALIDATION
        assert_one_error_line(capsys, ["eval", "--checkpoint", str(tmp_path), "--n-frames", "1"],
                              code)

    @FUZZ
    @given(drawn=train_configs())
    def test_train_configs(self, tmp_path, capsys, drawn):
        config, bad = drawn
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))  # NaN and Infinity as their JSON tokens
        argv = ["train", "--config", str(path), "--out", str(tmp_path / "o")]
        assert_one_error_line(capsys, argv, EXIT_VALIDATION if bad else None)

    @FUZZ
    @given(name=IMAGE_NAMES, raw=image_files(), patch=st.sampled_from(["1", "2", "4"]),
           k=st.integers(1, 4), metric=st.sampled_from(["cosine", "euclidean"]))
    def test_graph_images(self, tmp_path, capsys, name, raw, patch, k, metric):
        path = tmp_path / name
        path.write_bytes(raw)
        argv = ["graph", "--input", str(path), "--patch-size", patch, "--k", str(k),
                "--metric", metric]
        assert_one_error_line(capsys, argv, None)
