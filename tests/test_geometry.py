import inspect

import numpy as np
import pytest

from degat_kit.fileio import (
    read_image,
    read_pfm,
    read_pnm,
    write_image,
    write_pfm,
    write_pnm,
)
from degat_kit import geometry
from degat_kit.geometry import (
    CameraParams,
    DepthMap,
    PointCloud,
    backproject_pixel,
    depth_to_pointcloud,
    intrinsic_matrix,
    project_point,
    write_ply,
)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


PLY_TYPES = {"float": "<f4", "uchar": "u1"}


def read_ply(path):
    """(header lines before ``end_header``, vertex records) of a binary
    little-endian PLY file.

    The body is read with ``np.frombuffer`` and a dtype of one field per
    ``property`` line, so it checks the writer's packed records
    independently of how they were built.
    """
    head, sep, body = path.read_bytes().partition(b"end_header\n")
    assert sep == b"end_header\n"
    lines = head.decode("ascii").splitlines()
    assert lines[:2] == ["ply", "format binary_little_endian 1.0"]
    assert lines[2].startswith("element vertex ")
    n = int(lines[2].split()[2])
    props = [line.split() for line in lines[3:]]
    assert all(word == "property" for word, _, _ in props)
    dtype = np.dtype([(name, PLY_TYPES[kind]) for _, kind, name in props])
    assert len(body) == n * dtype.itemsize
    return lines, np.frombuffer(body, dtype=dtype)


def ply_header(n, colored):
    """The header lines of an n-vertex PLY, up to ``end_header``."""
    lines = ["ply", "format binary_little_endian 1.0", f"element vertex {n}",
             "property float x", "property float y", "property float z"]
    if colored:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    return lines


def assert_ply_body(path, cloud):
    """The file holds exactly the header and, as bytes, the float32 cast of
    every coordinate and the rounded, clipped 8-bit color of every point."""
    points = np.asarray(cloud.points, dtype=np.float64)
    lines, vertex = read_ply(path)
    assert lines == ply_header(len(points), cloud.colors is not None)
    xyz = np.stack([vertex[axis] for axis in "xyz"], axis=1)
    assert xyz.tobytes() == points.astype("<f4").tobytes()
    if cloud.colors is not None:
        rgb = np.stack([vertex[c] for c in ("red", "green", "blue")], axis=1)
        expect = np.rint(np.clip(np.asarray(cloud.colors, dtype=np.float64), 0.0, 1.0) * 255.0)
        assert rgb.tobytes() == expect.astype("u1").tobytes()


F32_MAX = float(np.finfo(np.float32).max)


def identity_cam(f=1.0, principal=(0.0, 0.0)):
    return CameraParams(
        rotation=np.eye(3), translation=np.zeros(3), focal=f, principal=principal
    )


class TestBackprojection:
    def test_principal_point_on_axis(self):
        cam = identity_cam(f=2.0, principal=(5.0, 7.0))
        p = backproject_pixel(5.0, 7.0, 3.0, cam)
        np.testing.assert_allclose(p, [0.0, 0.0, 3.0])

    def test_hand_value(self):
        cam = identity_cam(f=2.0)
        # x = d*(u-cx)/f = 4*1/2 = 2, y = 4*(-3)/2 = -6, z = 4
        np.testing.assert_allclose(
            backproject_pixel(1.0, -3.0, 4.0, cam), [2.0, -6.0, 4.0]
        )

    def test_translation_applied(self):
        cam = CameraParams(np.eye(3), [1.0, 2.0, 3.0], 1.0)
        np.testing.assert_allclose(
            backproject_pixel(0.0, 0.0, 1.0, cam), [1.0, 2.0, 4.0]
        )

    def test_nonpositive_depth(self):
        with pytest.raises(ValueError):
            backproject_pixel(0.0, 0.0, 0.0, identity_cam())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_depth(self, bad):
        # nan <= 0 is False, so nan once passed the positivity check
        with pytest.raises(ValueError, match="finite"):
            backproject_pixel(1.0, 2.0, bad, identity_cam())

    def test_matrix_form_agrees(self):
        rng = np.random.default_rng(0)
        cam = CameraParams(random_rotation(rng), rng.standard_normal(3), 1.7, (0.3, -0.2))
        kinv = np.linalg.inv(intrinsic_matrix(cam.focal, *cam.principal))
        for _ in range(20):
            u, v = rng.uniform(-5, 5, 2)
            d = rng.uniform(0.1, 10.0)
            expect = cam.rotation @ (d * (kinv @ [u, v, 1.0])) + cam.translation
            np.testing.assert_allclose(backproject_pixel(u, v, d, cam), expect, atol=1e-12)


class TestRoundTrip:
    def test_many_random_poses(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(200):
            cam = CameraParams(
                rotation=random_rotation(rng),
                translation=rng.uniform(-5.0, 5.0, 3),
                focal=rng.uniform(0.2, 10.0),
                principal=tuple(rng.uniform(-3.0, 3.0, 2)),
            )
            u, v = rng.uniform(-20.0, 20.0, 2)
            d = rng.uniform(1e-2, 1e2)
            p = backproject_pixel(u, v, d, cam)
            u2, v2, d2 = project_point(p, cam)
            worst = max(worst, abs(u2 - u), abs(v2 - v), abs(d2 - d) / d)
        assert worst < 1e-9

    def test_requires_orthonormal_rotation(self):
        cam = CameraParams(np.eye(3) * 1.001, np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="orthonormal"):
            project_point([0.0, 0.0, 1.0], cam)

    def test_behind_camera(self):
        with pytest.raises(ValueError, match="behind"):
            project_point([0.0, 0.0, -1.0], identity_cam())


class TestPointCloud:
    def test_skips_nonpositive_depth(self):
        depth = np.array([[1.0, 0.0], [-2.0, 3.0]])
        dm = DepthMap(depth=depth, confidence=np.ones_like(depth))
        cloud = depth_to_pointcloud(dm, identity_cam())
        assert cloud.points.shape == (2, 3)
        assert cloud.skipped == 2

    def test_matches_per_pixel(self):
        rng = np.random.default_rng(2)
        depth = rng.uniform(0.5, 2.0, (4, 5))
        cam = CameraParams(random_rotation(rng), rng.standard_normal(3), 1.3, (2.0, 1.5))
        cloud = depth_to_pointcloud(DepthMap(depth, np.ones_like(depth)), cam)
        i = 0
        for v in range(4):
            for u in range(5):
                np.testing.assert_allclose(
                    cloud.points[i], backproject_pixel(u, v, depth[v, u], cam), atol=1e-12
                )
                i += 1

    def test_colors_follow_valid_mask(self):
        depth = np.array([[1.0, -1.0], [2.0, 3.0]])
        img = np.arange(12.0).reshape(2, 2, 3) / 12.0
        cloud = depth_to_pointcloud(DepthMap(depth, np.ones_like(depth)), identity_cam(), img)
        np.testing.assert_allclose(cloud.colors, img.reshape(4, 3)[[0, 2, 3]])

    def test_image_shape_mismatch(self):
        depth = np.ones((2, 2))
        with pytest.raises(ValueError):
            depth_to_pointcloud(
                DepthMap(depth, depth), identity_cam(), np.zeros((3, 3, 3))
            )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_depth(self, bad):
        # inf at the principal column once made a nan vertex; nan was "skipped"
        depth = np.ones((3, 3))
        depth[1, 1] = bad
        with pytest.raises(ValueError, match="depth contains non-finite"):
            depth_to_pointcloud(DepthMap(depth, np.ones_like(depth)), identity_cam(principal=(1.0, 1.0)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_nonfinite_image(self, bad):
        depth = np.ones((2, 2))
        img = np.full((2, 2, 3), 0.5)
        img[0, 1, 2] = bad
        with pytest.raises(ValueError, match="image contains non-finite"):
            depth_to_pointcloud(DepthMap(depth, depth), identity_cam(), img)


class TestValidation:
    def test_camera_params(self):
        with pytest.raises(ValueError):
            CameraParams(np.eye(4), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            CameraParams(np.eye(3), np.zeros(3), -1.0)

    def test_depth_map(self):
        with pytest.raises(ValueError):
            DepthMap(np.ones((2, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            DepthMap(np.ones((1, 2, 2, 2)), np.ones((1, 2, 2, 2)))
        stack = DepthMap(np.ones((3, 2, 2)), np.ones((3, 2, 2)))  # F frames for the loss
        assert stack.shape == (3, 2, 2)
        with pytest.raises(ValueError, match="one"):
            depth_to_pointcloud(stack, CameraParams(np.eye(3), np.zeros(3), 1.0))

    def test_intrinsics(self):
        k = intrinsic_matrix(2.0, 0.5, 0.25)
        np.testing.assert_array_equal(k, [[2.0, 0, 0.5], [0, 2.0, 0.25], [0, 0, 1]])
        with pytest.raises(ValueError):
            intrinsic_matrix(0.0)


class TestPly:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "cloud.ply"
        depth = np.ones((2, 2))
        cloud = depth_to_pointcloud(DepthMap(depth, depth), identity_cam())
        write_ply(cloud, path)
        lines, vertex = read_ply(path)
        assert lines == ply_header(4, colored=False)
        assert vertex.dtype.itemsize == 12
        assert [float(vertex[0][a]) for a in "xyz"] == [0.0, 0.0, 1.0]
        assert_ply_body(path, cloud)

    def test_color_quantization(self, tmp_path):
        path = tmp_path / "c.ply"
        cloud = PointCloud(points=np.zeros((1, 3)), colors=np.array([[0.0, 0.5, 1.0]]))
        write_ply(cloud, path)
        _, vertex = read_ply(path)
        assert vertex.dtype.itemsize == 15
        assert [int(vertex[0][c]) for c in ("red", "green", "blue")] == [0, 128, 255]

    @staticmethod
    def reference_clouds():
        rng = np.random.default_rng(11)
        # float64 subnormal, float32 max and a value that rounds down to it
        extremes = np.array([
            [-0.0, 1e16, 1e-5],
            [5e-324, F32_MAX, -F32_MAX * (1.0 + 2.0 ** -26)],
            [0.1, -2.5e-300, 123456789012345.6],
        ])
        signs = rng.choice([-1.0, 1.0], (500, 3))
        magnitudes = signs * 10.0 ** rng.uniform(-8.0, 20.0, (500, 3))
        colors = rng.uniform(-0.5, 1.5, (500, 3))
        return {
            "empty": PointCloud(points=np.zeros((0, 3))),
            "empty_colored": PointCloud(points=np.zeros((0, 3)), colors=np.zeros((0, 3))),
            "one": PointCloud(points=np.array([[1.0, -2.0, 3.25]])),
            "one_colored": PointCloud(points=np.array([[1.0, -2.0, 3.25]]),
                                      colors=np.array([[0.2, 0.7, 1.0]])),
            "extremes": PointCloud(points=extremes),
            "extremes_colored": PointCloud(points=extremes, colors=np.array(
                [[-1.0, 0.5, 2.0], [0.0, 1.0, 0.998], [0.001, 0.5019, 3.0]])),
            "magnitudes": PointCloud(points=magnitudes),
            "magnitudes_colored": PointCloud(points=magnitudes, colors=colors),
        }

    @pytest.mark.parametrize("name", [
        "empty", "empty_colored", "one", "one_colored", "extremes",
        "extremes_colored", "magnitudes", "magnitudes_colored",
    ])
    def test_bytes_match_reference(self, tmp_path, name):
        cloud = self.reference_clouds()[name]
        path = tmp_path / "cloud.ply"
        write_ply(cloud, path)
        assert_ply_body(path, cloud)

    def test_body_is_float32_cast(self, tmp_path):
        # random values over many magnitudes, signed zeros, float64 and
        # float32 subnormals, the float32 range ends, and values exactly
        # halfway between float32s, which round to even
        rng = np.random.default_rng(12)
        random = rng.choice([-1.0, 1.0], 600) * 10.0 ** rng.uniform(-40.0, 38.0, 600)
        lo = rng.standard_normal(300).astype(np.float32)
        hi = np.nextafter(lo, np.float32(np.inf))
        halfway = (lo.astype(np.float64) + hi.astype(np.float64)) / 2.0
        tiny = 2.0 ** -149
        special = [
            0.0, -0.0, 5e-324, -5e-324, 2.2e-308, tiny, -tiny, 0.5 * tiny, 1.5 * tiny,
            2.5 * tiny, 2.0 ** -126 - tiny, F32_MAX, -F32_MAX, 3.4e38, -3.4e38,
            F32_MAX * (1.0 + 2.0 ** -26), 1.0 + 2.0 ** -24, 1.0 + 3.0 * 2.0 ** -24,
            16777217.0, 0.1, 1.0 / 3.0,
        ]
        values = np.concatenate([random, halfway, special])
        cloud = PointCloud(points=np.resize(values, (values.size + 2) // 3 * 3).reshape(-1, 3))
        path = tmp_path / "cloud.ply"
        write_ply(cloud, path)
        assert_ply_body(path, cloud)

    def test_halfway_value_is_written_as_its_float32_cast(self, tmp_path):
        # 1 + 2**-24 lies halfway between float32 1 and its successor
        v = 1.0 + 2.0 ** -24
        path = tmp_path / "cloud.ply"
        write_ply(PointCloud(points=np.array([[v, -v, -0.0]])), path)
        _, vertex = read_ply(path)
        assert vertex.tobytes() == np.array([1.0, -1.0, -0.0], "<f4").tobytes()

    def test_eval_export_sized_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        depth = rng.uniform(-0.2, 3.0, (128, 128))
        cam = CameraParams(random_rotation(rng), rng.standard_normal(3), 110.0, (63.5, 64.0))
        image = rng.uniform(-0.1, 1.1, (128, 128, 3))
        cloud = depth_to_pointcloud(DepthMap(depth, np.ones_like(depth)), cam, image)
        path = tmp_path / "cloud.ply"
        write_ply(cloud, path)
        assert_ply_body(path, cloud)

    def test_header_is_the_benchmark_check_contract(self, tmp_path):
        # the benchmark's eval-export check reads the vertex count this way
        rng = np.random.default_rng(14)
        cloud = PointCloud(points=rng.standard_normal((16384, 3)),
                           colors=rng.uniform(0.0, 1.0, (16384, 3)))
        path = tmp_path / "cloud.ply"
        write_ply(cloud, path)
        with open(path, "rb") as fh:
            header = fh.read(512).split(b"end_header")[0].decode("ascii")
        vertices = [int(ln.split()[2]) for ln in header.splitlines() if ln.startswith("element vertex")]
        assert vertices == [16384]

    @pytest.mark.parametrize("row, largest", [
        ([5e-324, 1.7976931348623157e308, -1.7976931348623157e308], "1.79769e+308"),
        ([0.0, 1.0, F32_MAX + 2.0 ** 103], "3.40282e+38"),  # halfway to the next power
        ([0.0, -np.inf, 1.0], "inf"),
        ([np.nan, 0.0, 1.0], "nan"),
    ])
    def test_rejects_coordinates_beyond_float32(self, tmp_path, row, largest):
        path = tmp_path / "cloud.ply"
        cloud = PointCloud(points=np.array([[1.0, 2.0, 3.0], row]), colors=np.zeros((2, 3)))
        with pytest.raises(ValueError) as info:
            write_ply(cloud, path)
        message = str(info.value)
        assert len(message.splitlines()) == 1
        assert f"largest |coordinate| {largest} exceeds 3.40282e+38" in message
        assert not path.exists()

    @pytest.mark.parametrize("points, colors, match", [
        (np.zeros((3, 2)), None, r"points must be an \(N, 3\) array, got shape \(3, 2\)"),
        (np.zeros(3), None, r"points must be an \(N, 3\) array, got shape \(3,\)"),
        (np.zeros((2, 3)), np.zeros((3, 3)), r"colors must be \(2, 3\) like the points, got shape \(3, 3\)"),
        (np.zeros((2, 3)), np.zeros(6), r"colors must be \(2, 3\) like the points, got shape \(6,\)"),
        (np.zeros((2, 3)), [[0.5, np.nan, 0.5], [0.0, 0.0, 0.0]], "colors contain non-finite"),
        (np.zeros((2, 3)), [[0.5, 0.5, 0.5], [0.0, -np.inf, 0.0]], "colors contain non-finite"),
    ], ids=["points_3x2", "points_flat", "colors_rows", "colors_flat", "colors_nan", "colors_inf"])
    def test_rejects_malformed_points_and_colors(self, tmp_path, points, colors, match):
        path = tmp_path / "cloud.ply"
        with pytest.raises(ValueError, match=match) as info:
            write_ply(PointCloud(points=points, colors=colors), path)
        assert len(str(info.value).splitlines()) == 1
        assert not path.exists()

    def test_signature_is_the_tracer_contract(self):
        # the benchmark's write_ply hook sizes the file through args["path"]
        assert list(inspect.signature(geometry.write_ply).parameters) == ["cloud", "path"]


class TestFileIo:
    def test_pfm_roundtrip_gray(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.uniform(-10.0, 10.0, (7, 5)).astype(np.float32)
        path = tmp_path / "d.pfm"
        write_pfm(path, data)
        np.testing.assert_array_equal(read_pfm(path), data.astype(np.float64))

    def test_pfm_roundtrip_color(self, tmp_path):
        rng = np.random.default_rng(4)
        data = rng.uniform(0.0, 1.0, (4, 6, 3)).astype(np.float32)
        path = tmp_path / "c.pfm"
        write_pfm(path, data)
        np.testing.assert_array_equal(read_pfm(path), data.astype(np.float64))

    def test_pfm_header_bytes(self, tmp_path):
        path = tmp_path / "h.pfm"
        write_pfm(path, np.zeros((2, 3)))
        raw = path.read_bytes()
        assert raw.startswith(b"Pf\n3 2\n-1.0\n")
        assert len(raw) == len(b"Pf\n3 2\n-1.0\n") + 4 * 6

    def test_pfm_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pfm"
        path.write_bytes(b"P5\n1 1\n255\nx")
        with pytest.raises(ValueError):
            read_pfm(path)

    def test_pnm_roundtrip_gray(self, tmp_path):
        data = np.linspace(0.0, 1.0, 256).reshape(16, 16)
        path = tmp_path / "g.pgm"
        write_pnm(path, data)
        back = read_pnm(path)
        assert np.max(np.abs(back - data)) <= 0.5 / 255.0 + 1e-12

    def test_pnm_roundtrip_color_exact_on_grid(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, (5, 4, 3)).astype(np.float64) / 255.0
        path = tmp_path / "c.ppm"
        write_pnm(path, data)
        np.testing.assert_allclose(read_pnm(path), data, atol=1e-15)

    def test_pnm_clips(self, tmp_path):
        path = tmp_path / "clip.pgm"
        write_pnm(path, np.array([[-1.0, 2.0]]))
        np.testing.assert_array_equal(read_pnm(path), [[0.0, 1.0]])

    def test_pnm_16bit_big_endian(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n2 1\n65535\n" + np.array([65535, 32768], ">u2").tobytes())
        np.testing.assert_array_equal(read_pnm(path), [[1.0, 32768 / 65535]])

    def test_pnm_16bit_color_truncated(self, tmp_path):
        path = tmp_path / "deep.ppm"
        path.write_bytes(b"P6\n1 1\n1023\n" + b"\0" * 5)
        with pytest.raises(ValueError, match="truncated"):
            read_pnm(path)
        path.write_bytes(b"P6\n1 1\n1023\n" + np.array([1023, 0, 512], ">u2").tobytes())
        np.testing.assert_array_equal(read_pnm(path), [[[1.0, 0.0, 512 / 1023]]])

    @pytest.mark.parametrize("maxval", [b"0", b"65536", b"-1"])
    def test_pnm_maxval_out_of_range(self, tmp_path, maxval):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n" + maxval + b"\n" + b"\0\0")
        with pytest.raises(ValueError, match="maxval"):
            read_pnm(path)

    @pytest.mark.parametrize("header", [b"Pf\n0 0\n-1.0\n", b"PF\n0 3\n-1.0\n",
                                        b"Pf\n2 0\n-1.0\n", b"Pf\n-1 -1\n-1.0\n"])
    def test_pfm_empty_size(self, tmp_path, header):
        path = tmp_path / "empty.pfm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="empty"):
            read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"-nan", b"inf", b"-inf", b"0", b"-0"])
    def test_pfm_scale_without_byte_order(self, tmp_path, scale):
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n2 1\n" + scale + b"\n" + np.array([1.5, 2.5], "<f4").tobytes())
        with pytest.raises(ValueError, match="PFM scale"):
            read_pfm(path)
        path.write_bytes(b"Pf\n2 1\n1.0\n" + np.array([1.5, 2.5], ">f4").tobytes())
        np.testing.assert_array_equal(read_pfm(path), [[1.5, 2.5]])  # positive: big-endian

    @pytest.mark.parametrize("header", [b"P5\n0 3\n255\n", b"P6\n3 0\n255\n",
                                        b"P5\n0 0\n65535\n", b"P5\n-1 -1\n255\n"])
    def test_pnm_empty_size(self, tmp_path, header):
        path = tmp_path / "empty.pgm"
        path.write_bytes(header)
        with pytest.raises(ValueError, match="empty"):
            read_pnm(path)

    def test_dispatch(self, tmp_path):
        data = np.ones((3, 3)) * 0.25
        for ext in ("pfm", "pgm"):
            path = tmp_path / f"x.{ext}"
            write_image(path, data)
            np.testing.assert_allclose(read_image(path), data, atol=0.5 / 255.0)
        with pytest.raises(ValueError):
            read_image(tmp_path / "x.jpg")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\0" * 7)
        with pytest.raises(ValueError):
            read_pfm(path)
