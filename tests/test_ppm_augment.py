"""Raster codec, geometric/photometric augmentations, dataset expansion."""

import hashlib
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import cev2.augment as augment_module
from cev2 import AugmentConfig
from cev2.augment import (OP_NAMES, _BLOCK_BYTES, add_gaussian_noise, add_salt_pepper,
                          apply_augment, expand_dataset, hflip, list_source_images,
                          rotate, sample_augment, scale_rotate, translate)
from cev2.ppm import Raster, read_image, resize_bilinear, write_ppm
from helpers import file_tree, solid_gray
from oracles import center_row_run_length, centroid, warp_loops


def random_raster(seed, h=16, w=16):
    rng = np.random.default_rng(seed)
    return Raster(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCodec:
    def test_p6_round_trip(self, tmp_path):
        img = random_raster(0)
        path = str(tmp_path / "a.ppm")
        write_ppm(path, img)
        back = read_image(path)
        np.testing.assert_array_equal(back.pixels, img.pixels)

    def test_written_header_layout(self, tmp_path):
        path = str(tmp_path / "a.ppm")
        write_ppm(path, random_raster(1, h=3, w=5))
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob.startswith(b"P6\n5 3\n255\n")
        assert len(blob) == 11 + 3 * 5 * 3

    def test_p5_promoted_to_gray_rgb(self, tmp_path):
        path = str(tmp_path / "g.pgm")
        payload = bytes(range(12))
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 3\n255\n" + payload)
        img = read_image(path)
        assert img.pixels.shape == (3, 4, 3)
        flat = img.pixels.reshape(-1, 3)
        np.testing.assert_array_equal(flat[:, 0], np.frombuffer(payload, np.uint8))
        np.testing.assert_array_equal(flat[:, 0], flat[:, 1])
        np.testing.assert_array_equal(flat[:, 0], flat[:, 2])

    def test_maxval_rescaled(self, tmp_path):
        path = str(tmp_path / "m.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n1 1\n15\n" + bytes([15, 7, 0]))
        img = read_image(path)
        np.testing.assert_array_equal(img.pixels.reshape(-1), [255, 119, 0])

    def test_header_comments(self, tmp_path):
        path = str(tmp_path / "c.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6 # rgb\n# dims follow\n2 1 # cols rows\n255\n" + bytes(6))
        img = read_image(path)
        assert (img.height, img.width) == (1, 2)

    def test_truncated_payload_rejected(self, tmp_path):
        path = str(tmp_path / "t.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(ValueError, match="payload"):
            read_image(path)

    def test_bytes_past_payload_ignored(self, tmp_path):
        path = str(tmp_path / "t.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n2 1\n255\n" + bytes(range(6)) + b"tail")
        np.testing.assert_array_equal(read_image(path).pixels.ravel(), np.arange(6))

    def test_non_contiguous_pixels_written_in_raster_order(self, tmp_path):
        img = random_raster(18, h=5, w=7)
        view, copy = str(tmp_path / "v.ppm"), str(tmp_path / "c.ppm")
        write_ppm(view, Raster(img.pixels[:, ::-1]))
        write_ppm(copy, Raster(img.pixels[:, ::-1].copy()))
        with open(view, "rb") as fv, open(copy, "rb") as fc:
            assert fv.read() == fc.read()

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "b.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P3\n1 1\n255\n1 2 3")
        with pytest.raises(ValueError, match="magic"):
            read_image(path)

    def test_bad_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "v.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n1 1\n70000\n" + bytes(3))
        with pytest.raises(ValueError, match="maxval"):
            read_image(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "h.ppm")
        with open(path, "wb") as fh:
            fh.write(b"P6\n4")
        with pytest.raises(ValueError, match="header"):
            read_image(path)

    @pytest.mark.parametrize("blob, msg", [
        (b"P6\n4", "truncated netpbm header"),
        (b"P6\nx4 4\n255\n", "netpbm header field b'x4' is not a decimal number"),
        (b"P5\n1 1\n255", "netpbm header not terminated by whitespace"),
        # the magic is exact and sizes are ASCII decimal, though int() reads +255 and 1_0
        (b"P6x 2 1 255\n" + bytes([10, 20] * 3), "unsupported netpbm magic b'P6x'"),
        (b"P62 2 1 255\n" + bytes([10, 20] * 3), "unsupported netpbm magic b'P62'"),
        (b"P5\n2 1 +255\n" + bytes(2), "netpbm header field b'+255' is not a decimal number"),
        (b"P5\n1_0 1 255\n" + bytes(10), "netpbm header field b'1_0' is not a decimal number"),
        (b"P5\n-1 1 255\n" + bytes(1), "netpbm header field b'-1' is not a decimal number"),
        # a uint8 rescale would wrap 200 * 17 to 72
        (b"P6\n1 1\n15\n" + bytes([200, 16, 15]), "sample 200 above maxval 15"),
        (b"P5\n1 1\n15\n" + bytes([16]), "sample 16 above maxval 15")])
    def test_header_errors_name_the_file(self, tmp_path, blob, msg):
        path = str(tmp_path / "h.ppm")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError) as info:
            read_image(path)
        assert str(info.value) == f"{path}: {msg}"

    def test_raster_validation(self):
        with pytest.raises(ValueError, match="uint8"):
            Raster(np.zeros((2, 2, 3), dtype=np.float64))
        with pytest.raises(ValueError, match="uint8"):
            Raster(np.zeros((2, 2), dtype=np.uint8))


class TestResize:
    def test_same_size_is_copy(self):
        img = random_raster(2)
        out = resize_bilinear(img, 16, 16)
        np.testing.assert_array_equal(out.pixels, img.pixels)
        assert out.pixels is not img.pixels

    def test_solid_color_stays_solid(self):
        img = Raster(np.full((7, 5, 3), 93, dtype=np.uint8))
        for (h, w) in ((14, 10), (3, 2), (1, 1), (64, 64)):
            out = resize_bilinear(img, h, w)
            assert (out.pixels == 93).all()

    def test_downscale_two_by_two_averages(self):
        px = np.zeros((2, 2, 3), dtype=np.uint8)
        px[..., 0] = [[10, 20], [30, 40]]
        out = resize_bilinear(Raster(px), 1, 1)
        assert out.pixels[0, 0, 0] == 25
        assert out.pixels[0, 0, 1] == 0

    def test_upscale_preserves_range_and_corners(self):
        img = random_raster(3, h=4, w=4)
        out = resize_bilinear(img, 8, 8)
        assert out.pixels.min() >= img.pixels.min()
        assert out.pixels.max() <= img.pixels.max()

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            resize_bilinear(random_raster(4), 0, 8)


class TestGeometric:
    def test_rotate_zero_is_identity(self):
        img = random_raster(5)
        np.testing.assert_array_equal(rotate(img, 0.0).pixels, img.pixels)

    def test_rotate_ninety_is_exact_permutation(self):
        img = random_raster(6, h=8, w=8)
        out = rotate(img, 90.0)
        np.testing.assert_array_equal(out.pixels, np.rot90(img.pixels, 1, axes=(0, 1)))

    def test_rotate_ninety_odd_size(self):
        img = random_raster(7, h=9, w=9)
        out = rotate(img, 90.0)
        np.testing.assert_array_equal(out.pixels, np.rot90(img.pixels, 1, axes=(0, 1)))

    def test_rotate_moves_centroid_as_predicted(self):
        px = np.zeros((65, 65, 3), dtype=np.uint8)
        px[30:35, 44:49] = 255  # blob center (46, 32), offset (+14, 0)
        for angle in (37.0, -37.0, 120.0):
            out = rotate(Raster(px), angle)
            cx, cy = centroid(out.pixels)
            th = math.radians(angle)
            dx, dy = 14.0, 0.0
            want_x = 32.0 + dx * math.cos(th) + dy * math.sin(th)
            want_y = 32.0 - dx * math.sin(th) + dy * math.cos(th)
            assert abs(cx - want_x) <= 1.0, angle
            assert abs(cy - want_y) <= 1.0, angle

    def test_rotation_fills_vacated_corners_black(self):
        img = Raster(np.full((32, 32, 3), 255, dtype=np.uint8))
        out = rotate(img, 45.0)
        assert tuple(out.pixels[0, 0]) == (0, 0, 0)
        assert tuple(out.pixels[-1, -1]) == (0, 0, 0)
        assert tuple(out.pixels[16, 16]) == (255, 255, 255)

    def test_translate_examples(self):
        px = np.arange(16, dtype=np.uint8).reshape(4, 4)[:, :, None].repeat(3, axis=2)
        out = translate(Raster(px), 2, -1).pixels[:, :, 0]
        want = np.zeros((4, 4), dtype=np.uint8)
        want[0:3, 2:4] = np.arange(16, dtype=np.uint8).reshape(4, 4)[1:4, 0:2]
        np.testing.assert_array_equal(out, want)

    def test_translate_zero_is_identity(self):
        img = random_raster(8)
        np.testing.assert_array_equal(translate(img, 0, 0).pixels, img.pixels)

    def test_translate_past_edge_goes_black(self):
        img = random_raster(9, h=4, w=4)
        assert not translate(img, 4, 0).pixels.any()
        assert not translate(img, 0, -4).pixels.any()

    def test_hflip_involution_and_mirror(self):
        img = random_raster(10)
        np.testing.assert_array_equal(hflip(hflip(img)).pixels, img.pixels)
        np.testing.assert_array_equal(hflip(img).pixels, img.pixels[:, ::-1])

    def test_scale_rotate_identity(self):
        img = random_raster(11)
        out = scale_rotate(img, 1.0, 0.0)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_scale_changes_bar_width(self):
        px = np.zeros((64, 64, 3), dtype=np.uint8)
        px[:, 24:40] = 255  # 16-wide vertical bar through the center
        grown = scale_rotate(Raster(px), 1.25, 0.0)
        assert abs(center_row_run_length(grown.pixels) - 20) <= 1
        shrunk = scale_rotate(Raster(px), 0.8, 0.0)
        assert abs(center_row_run_length(shrunk.pixels) - 13) <= 1

    @pytest.mark.parametrize("h,w", [(1, 1), (1, 7), (5, 7), (9, 12), (16, 16), (13, 4)])
    @pytest.mark.parametrize("scale", [0.05, 0.5, 0.8, 1.0, 1.25, 4.0, 1e3])
    @pytest.mark.parametrize("angle", [0.0, 90.0, 45.0, -30.0, 180.0, 17.3])
    def test_scale_rotate_matches_loop_oracle(self, h, w, scale, angle):
        px = random_raster(h * 31 + w, h=h, w=w).pixels
        np.testing.assert_array_equal(scale_rotate(Raster(px), scale, angle).pixels,
                                      warp_loops(px, scale, angle))

    @pytest.mark.parametrize("h, w", [(9, 1200), (3, 6000), (45, 997)])
    def test_scale_rotate_in_row_blocks_matches_loop_oracle(self, h, w):
        # 4 rows per block with a partial last one, one row per block, and
        # nine full blocks
        assert h > max(1, _BLOCK_BYTES // (24 * w))
        px = random_raster(h + w, h=h, w=w).pixels
        np.testing.assert_array_equal(scale_rotate(Raster(px), 0.9, -23.7).pixels,
                                      warp_loops(px, 0.9, -23.7))

    def test_rotate_peak_memory(self):
        img = random_raster(16, h=180, w=240)
        assert traced_peak(lambda: rotate(img, 17.3)) <= 2_000_000

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            scale_rotate(random_raster(12), 0.0, 10.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="scale"):
            scale_rotate(random_raster(12), bad, 10.0)

    @pytest.mark.parametrize("scale", [1e-320, 1e-308])
    def test_scale_whose_coordinates_overflow_rejected(self, scale):
        # 16 / scale is not finite: refused before any warp work, with no
        # numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^scale "):
                scale_rotate(random_raster(12), scale, 10.0)

    def test_smallest_scales_still_warp_without_warnings(self):
        # a scale just above the bound keeps every source coordinate finite
        img = random_raster(13)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (16 / 1.7e308, 1e-300):
                out = scale_rotate(img, scale, 10.0)
                assert out.pixels.shape == img.pixels.shape

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, bad):
        img = random_raster(12)
        with pytest.raises(ValueError, match="angle_deg must be finite"):
            rotate(img, bad)
        with pytest.raises(ValueError, match="angle_deg must be finite"):
            scale_rotate(img, 1.0, bad)


class TestPhotometric:
    def test_gaussian_noise_std_band(self):
        img = solid_gray(128, 128)
        out = add_gaussian_noise(img, 0.02, seed=99)
        delta = (out.pixels.astype(np.float64) - 128.0) / 255.0
        assert 0.016 <= delta.std() <= 0.024
        assert abs(delta.mean()) < 0.002

    def test_gaussian_noise_zero_std_identity(self):
        img = random_raster(13)
        np.testing.assert_array_equal(add_gaussian_noise(img, 0.0, 1).pixels,
                                      img.pixels)

    def test_gaussian_noise_deterministic_per_seed(self):
        img = solid_gray(32, 100)
        a = add_gaussian_noise(img, 0.05, seed=7).pixels
        b = add_gaussian_noise(img, 0.05, seed=7).pixels
        c = add_gaussian_noise(img, 0.05, seed=8).pixels
        np.testing.assert_array_equal(a, b)
        assert (a != c).any()

    @pytest.mark.parametrize("std", [0.0, 0.02, 0.3])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 - 1])
    def test_gaussian_noise_matches_whole_array_expression(self, std, seed):
        px = random_raster(seed % 1000, h=23, w=31).pixels
        rng = np.random.default_rng(seed)
        want = np.rint(np.clip(px / 255.0 + rng.normal(0, std, px.shape), 0, 1) * 255)
        np.testing.assert_array_equal(add_gaussian_noise(Raster(px), std, seed).pixels,
                                      want.astype(np.uint8))

    @pytest.mark.parametrize("h, w", [(180, 240), (45, 997), (3, 6000)])
    def test_gaussian_noise_in_row_blocks_matches_one_draw(self, h, w):
        # several row blocks, a partial last one, and one row per block
        px = random_raster(5, h=h, w=w).pixels
        want = np.rint(np.clip(px / 255.0 + np.random.default_rng(5).normal(0, 0.1, px.shape),
                               0, 1) * 255)
        np.testing.assert_array_equal(add_gaussian_noise(Raster(px), 0.1, 5).pixels,
                                      want.astype(np.uint8))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_std_rejected(self, bad):
        with pytest.raises(ValueError, match="std must be finite"):
            add_gaussian_noise(random_raster(12), bad, 3)

    def test_gaussian_noise_peak_memory(self):
        img = random_raster(17, h=180, w=240)
        assert traced_peak(lambda: add_gaussian_noise(img, 0.02, seed=3)) <= 500_000

    def test_salt_pepper_fraction_band(self):
        img = solid_gray(128, 128)
        out = add_salt_pepper(img, 0.02, seed=17)
        hit = ((out.pixels == 0).all(axis=2) | (out.pixels == 255).all(axis=2))
        frac = hit.mean()
        assert 0.014 <= frac <= 0.026

    def test_salt_pepper_splits_evenly(self):
        img = solid_gray(128, 128)
        out = add_salt_pepper(img, 0.5, seed=18)
        white = (out.pixels == 255).all(axis=2).mean()
        black = (out.pixels == 0).all(axis=2).mean()
        assert abs(white - 0.25) < 0.02
        assert abs(black - 0.25) < 0.02

    def test_salt_pepper_zero_density_identity(self):
        img = random_raster(14)
        np.testing.assert_array_equal(add_salt_pepper(img, 0.0, 3).pixels,
                                      img.pixels)

    def test_density_validation(self):
        with pytest.raises(ValueError, match="density"):
            add_salt_pepper(random_raster(15), 1.0, 0)


class TestSampler:
    def test_bounds_over_many_draws(self):
        cfg = AugmentConfig()
        rng = np.random.default_rng(0)
        seen = {name: 0 for name in
                ("rotate", "translate", "gaussian-noise", "salt-pepper",
                 "hflip", "scale-rotate")}
        max_angle = max_dx = max_dy = max_scale = -1e9
        min_angle, min_scale = 1e9, 1e9
        flips = 0
        for _ in range(10_000):
            op, params = sample_augment(rng, cfg, 64, 64)
            seen[op] += 1
            if op in ("rotate", "scale-rotate"):
                assert -90.0 <= params["angle"] <= 90.0
                max_angle = max(max_angle, params["angle"])
                min_angle = min(min_angle, params["angle"])
            if op == "scale-rotate":
                assert 0.8 <= params["scale"] <= 1.25
                max_scale = max(max_scale, params["scale"])
                min_scale = min(min_scale, params["scale"])
            if op == "translate":
                assert abs(params["dx"]) <= 6 and abs(params["dy"]) <= 6
                max_dx = max(max_dx, abs(params["dx"]))
                max_dy = max(max_dy, abs(params["dy"]))
            if op == "gaussian-noise":
                assert params["std"] == 0.02
            if op == "salt-pepper":
                assert params["density"] == 0.02
            if op == "hflip":
                flips += params["flip"]
        assert all(n > 1000 for n in seen.values()), seen
        # integer bounds attained exactly; continuous ones approached
        assert max_dx == 6 and max_dy == 6
        assert max_angle > 88.0 and min_angle < -88.0
        assert max_scale > 1.24 and min_scale < 0.81
        assert 0.4 < flips / seen["hflip"] < 0.6

    def test_translate_bounds_scale_with_image(self):
        cfg = AugmentConfig()
        rng = np.random.default_rng(1)
        for _ in range(2000):
            op, params = sample_augment(rng, cfg, 30, 50)
            if op == "translate":
                assert abs(params["dx"]) <= 3 and abs(params["dy"]) <= 5

    def test_apply_dispatch_matches_direct_calls(self):
        img = random_raster(16)
        np.testing.assert_array_equal(
            apply_augment(img, "rotate", {"angle": 25.0}).pixels,
            rotate(img, 25.0).pixels)
        np.testing.assert_array_equal(
            apply_augment(img, "hflip", {"flip": False}).pixels, img.pixels)
        with pytest.raises(ValueError, match="unknown augment op"):
            apply_augment(img, "posterize", {})


def make_class_dirs(root, n_classes=3, per_class=3, size=16):
    rng = np.random.default_rng(20)
    for ci in range(n_classes):
        cdir = os.path.join(root, f"class{ci}")
        os.makedirs(cdir)
        for k in range(per_class):
            img = Raster(rng.integers(0, 256, size=(size, size, 3), dtype=np.uint8))
            write_ppm(os.path.join(cdir, f"img{k}.ppm"), img)


# sha256 of a seeded expansion (per_class_new=8, seed=3) over
# make_block_spanning_dirs, taken before the warp kernel moved to channel planes
EXPANSION_SHA256 = {
    "augment_manifest.tsv": "c1677b809fc5f38a73182db49d3d997b71de0814a9ba1c50b0fe142708dcaf89",
    "class0/aug_3_0.ppm": "e42c37641013505b5982facffcb2fe0c5b364526742c386887edb170851dfdc0",
    "class0/aug_3_1.ppm": "bbfb15b5d3a08c7c90271d3ef9898978ba0cee854e84fa7c60ffe2384d017f48",
    "class0/aug_3_2.ppm": "8435e8082ac89b32e01b0f56612eac932bbad80564a38dd5f436884a61a259d5",
    "class0/aug_3_3.ppm": "b39031896a3b4ea6315516f07861f6c3db020037292a11fa3f3c8bc440b9d1b2",
    "class0/aug_3_4.ppm": "7f7fd2f2e4ef8e3df3c22b3f6568b40612ba4bc5d47475e2a299ef88b14795d4",
    "class0/aug_3_5.ppm": "19af59c20af1841b79b943e48de286513fec3620dc49447b23b2c68c69bc6b4e",
    "class0/aug_3_6.ppm": "f57d402e676ce860727e8e43f9a55066105db44fb250c69ae06b4f314c5bb44f",
    "class0/aug_3_7.ppm": "6d1023d5c394ec3e22bb934acd8a8f48b179b452ee043183fabf85919c51d398",
    "class1/aug_3_0.ppm": "4697508125d89b817f2f39254fe03eac876538b035152cbd7c55bec8d3dbb1ba",
    "class1/aug_3_1.ppm": "048728a2f15fab9534591cf43ad0391ec458db4522beae32c6bd3df71ed4c89f",
    "class1/aug_3_2.ppm": "a0b2895449639a35f800a1d48812ca684342f606215d32901ecabf83dedff48b",
    "class1/aug_3_3.ppm": "67b15dbe946bddb029b4440a5b2fb5c794f17149c23bf6300865460d86ad6580",
    "class1/aug_3_4.ppm": "6aaa718e41aa635e86e36ca7c33aa59a6c58dc58157c3ecf470ac9cd4620fb4e",
    "class1/aug_3_5.ppm": "662cf075f463120d1889a4dcb9210a1cf7e2a714b1e1a2435f8917d75a00b84a",
    "class1/aug_3_6.ppm": "1bff4c6c5a3f75ce307d22818cacc7468d9c4fca0198aa9129f4d9e8d6ce82ae",
    "class1/aug_3_7.ppm": "e50ce2b4b8665a87e7f2c35c7e18df3645681a539cb227e1e366ff8b080a4052",
}


def make_block_spanning_dirs(root):
    """Two classes of two non-square sources each, every one three row blocks
    tall for both the warp and the noise kernels."""
    rng = np.random.default_rng(23)
    for ci, (h, w) in enumerate(((64, 200), (50, 300))):
        cdir = os.path.join(root, f"class{ci}")
        os.makedirs(cdir)
        for k in range(2):
            px = rng.integers(0, 256, size=(h + k, w - 3 * k, 3), dtype=np.uint8)
            write_ppm(os.path.join(cdir, f"img{k}.ppm"), Raster(px))


class TestExpandDataset:
    def test_seeded_expansion_bytes_are_pinned(self, tmp_path):
        root = str(tmp_path)
        make_block_spanning_dirs(root)
        _, lines = expand_dataset(root, AugmentConfig(per_class_new=8, seed=3))
        assert {line.split("\t")[2] for line in lines} == set(OP_NAMES)
        got = {}
        for rel in EXPANSION_SHA256:
            with open(os.path.join(root, rel), "rb") as fh:
                got[rel] = hashlib.sha256(fh.read()).hexdigest()
        assert got == EXPANSION_SHA256

    def test_counts_and_manifest_layout(self, tmp_path):
        root = str(tmp_path)
        make_class_dirs(root)
        cfg = AugmentConfig(per_class_new=5, seed=0)
        manifest, lines = expand_dataset(root, cfg)
        assert os.path.basename(manifest) == "augment_manifest.tsv"
        assert len(lines) == 15
        for line in lines:
            new, src, op, params = line.split("\t")
            cls = new.split("/")[0]
            assert src.startswith(cls + "/")
            assert op in ("rotate", "translate", "gaussian-noise",
                          "salt-pepper", "hflip", "scale-rotate")
            assert new.split("/")[1].startswith("aug_0_")
        for ci in range(3):
            files = sorted(os.listdir(os.path.join(root, f"class{ci}")))
            assert sum(f.startswith("aug_") for f in files) == 5
        with open(manifest, "r", encoding="utf-8") as fh:
            assert fh.read() == "".join(l + "\n" for l in lines)

    def test_non_finite_translate_is_value_error(self, tmp_path):
        root = str(tmp_path)
        make_class_dirs(root, n_classes=1, per_class=1)
        with pytest.raises(ValueError, match="translate_frac must be finite"):
            expand_dataset(root, AugmentConfig(translate_frac=float("inf"), per_class_new=3))
        assert os.listdir(os.path.join(root, "class0")) == ["img0.ppm"]

    def test_rerun_is_byte_identical_and_idempotent(self, tmp_path):
        root = str(tmp_path)
        make_class_dirs(root)
        cfg = AugmentConfig(per_class_new=4, seed=9)
        expand_dataset(root, cfg)
        first = {}
        for ci in range(3):
            cdir = os.path.join(root, f"class{ci}")
            for f in os.listdir(cdir):
                if f.startswith("aug_"):
                    with open(os.path.join(cdir, f), "rb") as fh:
                        first[f"class{ci}/{f}"] = fh.read()
        manifest, lines2 = expand_dataset(root, cfg)
        with open(manifest, "r", encoding="utf-8") as fh:
            again = fh.read()
        assert again == "".join(l + "\n" for l in lines2)
        for rel, blob in first.items():
            with open(os.path.join(root, rel), "rb") as fh:
                assert fh.read() == blob, rel
        # outputs never feed back in as sources
        for ci in range(3):
            srcs = list_source_images(os.path.join(root, f"class{ci}"))
            assert srcs == ["img0.ppm", "img1.ppm", "img2.ppm"]

    def test_manifest_write_that_raises_midway_keeps_the_previous_bytes(self, tmp_path,
                                                                         monkeypatch):
        # the last manifest line fails to format, after every image is written
        root = str(tmp_path)
        make_class_dirs(root, n_classes=2, per_class=1)
        real_format = augment_module._format_params
        calls = []

        def format_params(params):
            calls.append(None)
            if len(calls) == 4:
                raise ValueError("planted")
            return real_format(params)

        monkeypatch.setattr(augment_module, "_format_params", format_params)
        manifest = os.path.join(root, "augment_manifest.tsv")
        with open(manifest, "w", encoding="utf-8") as fh:
            fh.write("previous\n")
        with pytest.raises(ValueError, match="planted"):
            expand_dataset(root, AugmentConfig(per_class_new=2))
        with open(manifest, "r", encoding="utf-8") as fh:
            assert fh.read() == "previous\n"
        assert sorted(os.listdir(root)) == ["augment_manifest.tsv", "class0", "class1"]
        assert sorted(os.listdir(os.path.join(root, "class1"))) == [
            "aug_0_0.ppm", "aug_0_1.ppm", "img0.ppm"]

    @pytest.mark.parametrize("where", ["class", "image"])
    def test_name_that_is_not_utf8_fails_by_name_before_any_write(self, tmp_path, where):
        # class0 sorts before the bad name, so a late check would write there
        root = str(tmp_path)
        make_class_dirs(root, n_classes=2, per_class=1)
        if where == "class":
            bad_dir = os.path.join(root, os.fsdecode(b"\xff"))
            os.makedirs(bad_dir)
            write_ppm(os.path.join(bad_dir, "img0.ppm"), random_raster(8))
        else:
            bad_dir = os.path.join(root, "class1")
            write_ppm(os.path.join(bad_dir, os.fsdecode(b"\xff.ppm")), random_raster(8))
        before = file_tree(root)
        with pytest.raises(ValueError) as err:
            expand_dataset(root, AugmentConfig(per_class_new=2))
        where_dir = root if where == "class" else bad_dir
        name = b"\xff" if where == "class" else b"\xff.ppm"
        assert str(err.value) == f"{where_dir}: name {name!r} is not valid UTF-8"
        assert file_tree(root) == before

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"], ids=["tab", "cr", "lf"])
    def test_name_that_breaks_a_manifest_line_fails_by_name_before_any_write(
            self, tmp_path, char):
        root = str(tmp_path)
        make_class_dirs(root, n_classes=2, per_class=1)
        bad_dir = os.path.join(root, "class1")
        write_ppm(os.path.join(bad_dir, f"n{char}l.ppm"), random_raster(8))
        before = file_tree(root)
        with pytest.raises(ValueError) as err:
            expand_dataset(root, AugmentConfig(per_class_new=2))
        assert str(err.value) == f"{bad_dir}: name {f'n{char}l.ppm'!r} holds a TAB, CR or LF"
        assert file_tree(root) == before

    def test_zero_per_class_writes_nothing(self, tmp_path):
        root = str(tmp_path)
        make_class_dirs(root)
        _, lines = expand_dataset(root, AugmentConfig(per_class_new=0))
        assert lines == []
        for ci in range(3):
            assert not any(f.startswith("aug_")
                           for f in os.listdir(os.path.join(root, f"class{ci}")))

    def test_empty_class_skipped_with_note(self, tmp_path):
        root = str(tmp_path)
        make_class_dirs(root, n_classes=2)
        os.makedirs(os.path.join(root, "empty"))
        _, lines = expand_dataset(root, AugmentConfig(per_class_new=2))
        skips = [l for l in lines if l.startswith("# skipped empty:")]
        assert len(skips) == 1
        assert sum(not l.startswith("#") for l in lines) == 4

    def test_unreadable_file_warned_but_run_continues(self, tmp_path):
        root = str(tmp_path)
        make_class_dirs(root, n_classes=1)
        with open(os.path.join(root, "class0", "bad.ppm"), "wb") as fh:
            fh.write(b"P6\n9 9\n255\nshort")
        _, lines = expand_dataset(root, AugmentConfig(per_class_new=3))
        warnings = [l for l in lines if l.startswith("# warning: unreadable class0/bad.ppm")]
        assert len(warnings) == 1
        assert sum(not l.startswith("#") for l in lines) == 3

    def test_no_class_dirs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="class subdirectories"):
            expand_dataset(str(tmp_path), AugmentConfig())

    def test_non_image_files_ignored(self, tmp_path):
        root = str(tmp_path)
        make_class_dirs(root, n_classes=1, per_class=2)
        with open(os.path.join(root, "class0", "notes.txt"), "w") as fh:
            fh.write("not an image")
        assert list_source_images(os.path.join(root, "class0")) == \
            ["img0.ppm", "img1.ppm"]
