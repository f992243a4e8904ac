"""Checkpoint serialization: framing, round trips, store loading."""

import os
import re
import struct

import numpy as np
import pytest

from cev2 import (ConvSpec, Network, NetworkConfig, ParamStore, StageSpec, Tape, Tensor,
                  build_network, load_checkpoint, load_into, nano_config, save_checkpoint)
from cev2.params import (MAGIC, VERSION, atomic_open, init_weights, register_bn,
                         register_conv)


# every registered (name, shape), in registration order, as name:NxCxHxW;
# this order is the init draw order and the checkpoint layout
NANO_LAYOUT = (
    "stem.w:16x3x3x3 stem.bn.gamma:1x16x1x1 stem.bn.beta:1x16x1x1 stem.bn.rm:1x16x1x1 "
    "stem.bn.rv:1x16x1x1 s0.r0.conv.w:16x16x3x3 s0.r0.conv.bn.gamma:1x16x1x1 "
    "s0.r0.conv.bn.beta:1x16x1x1 s0.r0.conv.bn.rm:1x16x1x1 s0.r0.conv.bn.rv:1x16x1x1 "
    "s0.safm.b1.dw.w:4x1x3x3 s0.safm.b1.dw.b:1x4x1x1 s0.safm.b1.pw.w:4x4x1x1 "
    "s0.safm.b1.pw.b:1x4x1x1 s0.safm.b2.dw.w:4x1x3x3 s0.safm.b2.dw.b:1x4x1x1 "
    "s0.safm.b2.pw.w:4x4x1x1 s0.safm.b2.pw.b:1x4x1x1 s0.safm.b3.dw.w:4x1x3x3 "
    "s0.safm.b3.dw.b:1x4x1x1 s0.safm.b3.pw.w:4x4x1x1 s0.safm.b3.pw.b:1x4x1x1 "
    "s0.safm.b4.dw.w:4x1x3x3 s0.safm.b4.dw.b:1x4x1x1 s0.safm.b4.pw.w:4x4x1x1 "
    "s0.safm.b4.pw.b:1x4x1x1 s0.safm.fuse.w:16x16x1x1 s0.safm.fuse.b:1x16x1x1 "
    "s1.r0.exp.w:64x16x3x3 s1.r0.exp.bn.gamma:1x64x1x1 s1.r0.exp.bn.beta:1x64x1x1 "
    "s1.r0.exp.bn.rm:1x64x1x1 s1.r0.exp.bn.rv:1x64x1x1 s1.r0.proj.w:32x64x1x1 "
    "s1.r0.proj.bn.gamma:1x32x1x1 s1.r0.proj.bn.beta:1x32x1x1 s1.r0.proj.bn.rm:1x32x1x1 "
    "s1.r0.proj.bn.rv:1x32x1x1 s1.r1.exp.w:128x32x3x3 s1.r1.exp.bn.gamma:1x128x1x1 "
    "s1.r1.exp.bn.beta:1x128x1x1 s1.r1.exp.bn.rm:1x128x1x1 s1.r1.exp.bn.rv:1x128x1x1 "
    "s1.r1.proj.w:32x128x1x1 s1.r1.proj.bn.gamma:1x32x1x1 s1.r1.proj.bn.beta:1x32x1x1 "
    "s1.r1.proj.bn.rm:1x32x1x1 s1.r1.proj.bn.rv:1x32x1x1 s1.safm.b1.dw.w:8x1x3x3 "
    "s1.safm.b1.dw.b:1x8x1x1 s1.safm.b1.pw.w:8x8x1x1 s1.safm.b1.pw.b:1x8x1x1 "
    "s1.safm.b2.dw.w:8x1x3x3 s1.safm.b2.dw.b:1x8x1x1 s1.safm.b2.pw.w:8x8x1x1 "
    "s1.safm.b2.pw.b:1x8x1x1 s1.safm.b3.dw.w:8x1x3x3 s1.safm.b3.dw.b:1x8x1x1 "
    "s1.safm.b3.pw.w:8x8x1x1 s1.safm.b3.pw.b:1x8x1x1 s1.safm.b4.dw.w:8x1x3x3 "
    "s1.safm.b4.dw.b:1x8x1x1 s1.safm.b4.pw.w:8x8x1x1 s1.safm.b4.pw.b:1x8x1x1 "
    "s1.safm.fuse.w:32x32x1x1 s1.safm.fuse.b:1x32x1x1 s2.r0.exp.w:128x32x1x1 "
    "s2.r0.exp.bn.gamma:1x128x1x1 s2.r0.exp.bn.beta:1x128x1x1 s2.r0.exp.bn.rm:1x128x1x1 "
    "s2.r0.exp.bn.rv:1x128x1x1 s2.r0.dw.w:128x1x3x3 s2.r0.dw.bn.gamma:1x128x1x1 "
    "s2.r0.dw.bn.beta:1x128x1x1 s2.r0.dw.bn.rm:1x128x1x1 s2.r0.dw.bn.rv:1x128x1x1 "
    "s2.r0.ce.mlp1.w:128x128x1x1 s2.r0.ce.mlp1.b:1x128x1x1 s2.r0.ce.mlp2.w:128x128x1x1 "
    "s2.r0.ce.mlp2.b:1x128x1x1 s2.r0.ce.out.w:128x128x1x1 s2.r0.ce.out.b:1x128x1x1 "
    "s2.r0.proj.w:64x128x1x1 s2.r0.proj.bn.gamma:1x64x1x1 s2.r0.proj.bn.beta:1x64x1x1 "
    "s2.r0.proj.bn.rm:1x64x1x1 s2.r0.proj.bn.rv:1x64x1x1 s2.r1.exp.w:256x64x1x1 "
    "s2.r1.exp.bn.gamma:1x256x1x1 s2.r1.exp.bn.beta:1x256x1x1 s2.r1.exp.bn.rm:1x256x1x1 "
    "s2.r1.exp.bn.rv:1x256x1x1 s2.r1.dw.w:256x1x3x3 s2.r1.dw.bn.gamma:1x256x1x1 "
    "s2.r1.dw.bn.beta:1x256x1x1 s2.r1.dw.bn.rm:1x256x1x1 s2.r1.dw.bn.rv:1x256x1x1 "
    "s2.r1.ce.mlp1.w:256x256x1x1 s2.r1.ce.mlp1.b:1x256x1x1 s2.r1.ce.mlp2.w:256x256x1x1 "
    "s2.r1.ce.mlp2.b:1x256x1x1 s2.r1.ce.out.w:256x256x1x1 s2.r1.ce.out.b:1x256x1x1 "
    "s2.r1.proj.w:64x256x1x1 s2.r1.proj.bn.gamma:1x64x1x1 s2.r1.proj.bn.beta:1x64x1x1 "
    "s2.r1.proj.bn.rm:1x64x1x1 s2.r1.proj.bn.rv:1x64x1x1 head.w:128x64x1x1 "
    "head.bn.gamma:1x128x1x1 head.bn.beta:1x128x1x1 head.bn.rm:1x128x1x1 "
    "head.bn.rv:1x128x1x1 classifier.w:4x128x1x1 classifier.b:1x4x1x1 ").split()

SE_STANDARD_LAYOUT = (
    "stem.w:16x3x3x3 stem.bn.gamma:1x16x1x1 stem.bn.beta:1x16x1x1 stem.bn.rm:1x16x1x1 "
    "stem.bn.rv:1x16x1x1 s0.r0.conv.w:16x16x3x3 s0.r0.conv.bn.gamma:1x16x1x1 "
    "s0.r0.conv.bn.beta:1x16x1x1 s0.r0.conv.bn.rm:1x16x1x1 s0.r0.conv.bn.rv:1x16x1x1 "
    "s0.safm.b1.std.w:4x4x3x3 s0.safm.b1.std.b:1x4x1x1 s0.safm.b2.std.w:4x4x3x3 "
    "s0.safm.b2.std.b:1x4x1x1 s0.safm.b3.std.w:4x4x3x3 s0.safm.b3.std.b:1x4x1x1 "
    "s0.safm.b4.std.w:4x4x3x3 s0.safm.b4.std.b:1x4x1x1 s0.safm.fuse.w:16x16x1x1 "
    "s0.safm.fuse.b:1x16x1x1 s1.r0.exp.w:32x16x3x3 s1.r0.exp.bn.gamma:1x32x1x1 "
    "s1.r0.exp.bn.beta:1x32x1x1 s1.r0.exp.bn.rm:1x32x1x1 s1.r0.exp.bn.rv:1x32x1x1 "
    "s1.r0.proj.w:24x32x1x1 s1.r0.proj.bn.gamma:1x24x1x1 s1.r0.proj.bn.beta:1x24x1x1 "
    "s1.r0.proj.bn.rm:1x24x1x1 s1.r0.proj.bn.rv:1x24x1x1 s1.r1.exp.w:48x24x3x3 "
    "s1.r1.exp.bn.gamma:1x48x1x1 s1.r1.exp.bn.beta:1x48x1x1 s1.r1.exp.bn.rm:1x48x1x1 "
    "s1.r1.exp.bn.rv:1x48x1x1 s1.r1.proj.w:24x48x1x1 s1.r1.proj.bn.gamma:1x24x1x1 "
    "s1.r1.proj.bn.beta:1x24x1x1 s1.r1.proj.bn.rm:1x24x1x1 s1.r1.proj.bn.rv:1x24x1x1 "
    "s1.safm.b1.std.w:6x6x3x3 s1.safm.b1.std.b:1x6x1x1 s1.safm.b2.std.w:6x6x3x3 "
    "s1.safm.b2.std.b:1x6x1x1 s1.safm.b3.std.w:6x6x3x3 s1.safm.b3.std.b:1x6x1x1 "
    "s1.safm.b4.std.w:6x6x3x3 s1.safm.b4.std.b:1x6x1x1 s1.safm.fuse.w:24x24x1x1 "
    "s1.safm.fuse.b:1x24x1x1 s2.r0.exp.w:96x24x1x1 s2.r0.exp.bn.gamma:1x96x1x1 "
    "s2.r0.exp.bn.beta:1x96x1x1 s2.r0.exp.bn.rm:1x96x1x1 s2.r0.exp.bn.rv:1x96x1x1 "
    "s2.r0.dw.w:96x1x3x3 s2.r0.dw.bn.gamma:1x96x1x1 s2.r0.dw.bn.beta:1x96x1x1 "
    "s2.r0.dw.bn.rm:1x96x1x1 s2.r0.dw.bn.rv:1x96x1x1 s2.r0.se.reduce.w:12x96x1x1 "
    "s2.r0.se.reduce.b:1x12x1x1 s2.r0.se.expand.w:96x12x1x1 s2.r0.se.expand.b:1x96x1x1 "
    "s2.r0.proj.w:32x96x1x1 s2.r0.proj.bn.gamma:1x32x1x1 s2.r0.proj.bn.beta:1x32x1x1 "
    "s2.r0.proj.bn.rm:1x32x1x1 s2.r0.proj.bn.rv:1x32x1x1 s2.r1.exp.w:128x32x1x1 "
    "s2.r1.exp.bn.gamma:1x128x1x1 s2.r1.exp.bn.beta:1x128x1x1 s2.r1.exp.bn.rm:1x128x1x1 "
    "s2.r1.exp.bn.rv:1x128x1x1 s2.r1.dw.w:128x1x3x3 s2.r1.dw.bn.gamma:1x128x1x1 "
    "s2.r1.dw.bn.beta:1x128x1x1 s2.r1.dw.bn.rm:1x128x1x1 s2.r1.dw.bn.rv:1x128x1x1 "
    "s2.r1.se.reduce.w:16x128x1x1 s2.r1.se.reduce.b:1x16x1x1 s2.r1.se.expand.w:128x16x1x1 "
    "s2.r1.se.expand.b:1x128x1x1 s2.r1.proj.w:32x128x1x1 s2.r1.proj.bn.gamma:1x32x1x1 "
    "s2.r1.proj.bn.beta:1x32x1x1 s2.r1.proj.bn.rm:1x32x1x1 s2.r1.proj.bn.rv:1x32x1x1 "
    "head.w:64x32x1x1 head.bn.gamma:1x64x1x1 head.bn.beta:1x64x1x1 head.bn.rm:1x64x1x1 "
    "head.bn.rv:1x64x1x1 classifier.w:3x64x1x1 classifier.b:1x3x1x1 ").split()


def layout(config):
    store = ParamStore()
    Network(config, store)
    return [f"{n}:{'x'.join(map(str, t.shape))}" for n, t in store.items()]


def small_store(seed=0):
    store = ParamStore()
    register_conv(store, "layer0", ConvSpec(3, 4, 3, 3))
    register_bn(store, "layer0.bn", 4)
    register_conv(store, "layer1", ConvSpec(4, 2, 1, 1), bias=False)
    init_weights(store, np.random.default_rng(seed))
    return store


class TestRegistration:
    @pytest.mark.parametrize("spec,bias,shape", [
        (ConvSpec(6, 4, 3, 3, groups=2), True, (4, 3, 3, 3)),
        (ConvSpec(5, 5, 3, 3, padding=1, groups=5), True, (5, 1, 3, 3)),
        (ConvSpec(3, 2, 1, 5, padding=2), True, (2, 3, 1, 5)),
        (ConvSpec(4, 8, 1, 1), False, (8, 4, 1, 1))],
        ids=["grouped", "depthwise", "rectangular", "no-bias"])
    def test_register_conv_shapes_come_from_the_spec(self, spec, bias, shape):
        store = ParamStore()
        w, b, _ = register_conv(store, "c", spec, bias=bias)
        assert w.shape == shape and not w.data.any()
        if bias:
            assert store.names() == ["c.w", "c.b"] and b.shape == (1, spec.out_channels, 1, 1)
        else:
            assert store.names() == ["c.w"] and b is None

    def test_nano_layout(self):
        assert layout(nano_config()) == NANO_LAYOUT

    def test_se_standard_safm_layout(self):
        config = NetworkConfig(
            stem_channels=16,
            stages=[StageSpec("fused-mbconv", 16, safm_after=True),
                    StageSpec("fused-mbconv", 24, expansion=2, stride=2, repeats=2,
                              safm_after=True),
                    StageSpec("mbconv", 32, expansion=4, stride=2, repeats=2, attention="se")],
            head_channels=64, num_classes=3, input_size=32, safm_mode="standard", se_ratio=8)
        assert layout(config) == SE_STANDARD_LAYOUT


class TestFraming:
    def test_header_layout(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        store = small_store()
        save_checkpoint(path, store)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob[:4] == b"CEV2" == MAGIC
        version, count = struct.unpack_from("<II", blob, 4)
        assert version == VERSION == 1
        assert count == len(store)
        nlen = struct.unpack_from("<H", blob, 12)[0]
        assert blob[14:14 + nlen].decode() == "layer0.w"
        dims = struct.unpack_from("<IIII", blob, 14 + nlen)
        assert dims == (4, 3, 3, 3)

    def test_round_trip_values(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        store = small_store(3)
        save_checkpoint(path, store)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(store.names())
        for name, tensor in store.items():
            np.testing.assert_array_equal(loaded[name], tensor.data)

    def test_save_load_save_byte_exact(self, tmp_path):
        p1 = str(tmp_path / "a.cev2")
        p2 = str(tmp_path / "b.cev2")
        store = small_store(4)
        save_checkpoint(p1, store)
        fresh = small_store(99)
        load_into(p1, fresh)
        save_checkpoint(p2, fresh)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "x.cev2")
        with open(path, "wb") as fh:
            fh.write(b"NOPE" + bytes(8))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        path = str(tmp_path / "x.cev2")
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", 9, 0))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "x.cev2")
        save_checkpoint(path, small_store())
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)

    def test_duplicate_entry_rejected(self, tmp_path):
        path = str(tmp_path / "x.cev2")
        name = b"p"
        entry = struct.pack("<H", 1) + name + struct.pack("<IIII", 1, 1, 1, 1) + \
            struct.pack("<d", 0.5)
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", 1, 2) + entry + entry)
        with pytest.raises(ValueError, match="duplicate"):
            load_checkpoint(path)

    def test_payload_is_little_endian_float64(self, tmp_path):
        path = str(tmp_path / "x.cev2")
        store = ParamStore()
        t = Tensor(np.array(np.pi).reshape(1, 1, 1, 1))
        store.register("pi", t)
        save_checkpoint(path, store)
        with open(path, "rb") as fh:
            blob = fh.read()
        assert blob[-8:] == struct.pack("<d", np.pi)


class TestAtomicWrite:
    """A write that fails leaves the last good file byte for byte and no
    temporary beside it."""

    def test_name_too_long_keeps_the_previous_checkpoint(self, tmp_path):
        path = str(tmp_path / "best.cev2")
        save_checkpoint(path, small_store(1))
        with open(path, "rb") as fh:
            good = fh.read()
        store = small_store(2)
        # the error comes after the header and the first entries are written
        store.register("n" * 0x10000, Tensor(np.zeros((1, 1, 1, 1))))
        with pytest.raises(ValueError, match="parameter name too long"):
            save_checkpoint(path, store)
        with open(path, "rb") as fh:
            assert fh.read() == good
        assert os.listdir(tmp_path) == ["best.cev2"]

    def test_failed_first_write_leaves_no_file(self, tmp_path):
        store = small_store()
        store.register("n" * 0x10000, Tensor(np.zeros((1, 1, 1, 1))))
        with pytest.raises(ValueError, match="parameter name too long"):
            save_checkpoint(str(tmp_path / "best.cev2"), store)
        assert os.listdir(tmp_path) == []

    def test_text_write_replaces_only_when_complete(self, tmp_path):
        path = tmp_path / "metrics.tsv"
        path.write_text("epoch\taccuracy\n", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with atomic_open(str(path), encoding="utf-8") as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert path.read_text(encoding="utf-8") == "epoch\taccuracy\n"
        with atomic_open(str(path), encoding="utf-8") as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert os.listdir(tmp_path) == ["metrics.tsv"]

    def test_bytes_match_a_direct_encoding(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        store = small_store(5)
        save_checkpoint(path, store)
        want = MAGIC + struct.pack("<II", VERSION, len(store))
        for name, tensor in store.items():
            want += struct.pack("<H", len(name)) + name.encode() + struct.pack("<IIII", *tensor.shape)
            want += tensor.data.astype("<f8").tobytes()
        with open(path, "rb") as fh:
            assert fh.read() == want


class TestHostileInput:
    def test_every_truncation_raises_value_error(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        save_checkpoint(path, small_store())
        with open(path, "rb") as fh:
            blob = fh.read()
        cut = str(tmp_path / "cut.cev2")
        for n in range(len(blob)):
            with open(cut, "wb") as fh:
                fh.write(blob[:n])
            with pytest.raises(ValueError, match="truncated checkpoint: .* at offset"):
                load_checkpoint(cut)

    @pytest.mark.parametrize("blob", [b"CEV2", b"CEV3" + bytes(8),
                                      MAGIC + struct.pack("<II", VERSION, 0) + b"x",
                                      MAGIC + struct.pack("<IIH", VERSION, 1, 1) + b"p"
                                      + struct.pack("<IIII", 1, 0, 1, 1)],
                             ids=["short", "bad-magic", "trailing", "zero-dim"])
    def test_every_error_begins_with_the_path(self, tmp_path, blob):
        path = str(tmp_path / "bad.cev2")
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: "):
            load_checkpoint(path)

    def test_huge_dims_are_truncation_not_overflow(self, tmp_path):
        path = str(tmp_path / "x.cev2")
        entry = struct.pack("<H", 1) + b"p" + struct.pack("<IIII", *([0xFFFFFFFF] * 4))
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", 1, 1) + entry)
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_zero_dimension_names_the_entry_before_its_payload(self, tmp_path):
        # no Tensor holds such a shape and save_checkpoint never writes one;
        # the error comes before the payload, so a full one changes nothing
        path = str(tmp_path / "z.cev2")
        good = struct.pack("<H", 1) + b"p" + struct.pack("<IIII", 1, 1, 1, 1) + bytes(8)
        zero = struct.pack("<H", 1) + b"q" + struct.pack("<IIII", 0, 3, 1, 1)
        for payload in (b"", bytes(24)):
            with open(path, "wb") as fh:
                fh.write(MAGIC + struct.pack("<II", VERSION, 2) + good + zero + payload)
            with pytest.raises(ValueError, match=f"^{re.escape(path)}: checkpoint entry 'q' "
                                                 r"has a zero dimension: \(0, 3, 1, 1\)$"):
                load_checkpoint(path)

    def test_non_utf8_name_names_entry_and_offset(self, tmp_path):
        path = str(tmp_path / "u.cev2")
        good = struct.pack("<H", 1) + b"p" + struct.pack("<IIII", 1, 1, 1, 1) + bytes(8)
        bad = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<IIII", 1, 1, 1, 1) + bytes(8)
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", VERSION, 2) + good + bad)
        # entry 1's name starts after the header, entry 0 and its own length
        off = 12 + len(good) + 2
        with pytest.raises(ValueError,
                           match=f"^{re.escape(path)}: entry 1 name at offset {off} is not UTF-8$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_names_first_entry(self, tmp_path, bad):
        path = str(tmp_path / "c.cev2")
        store = small_store()
        store["layer0.bn.gamma"].data[0, 2, 0, 0] = bad
        store["layer1.w"].data[1, 3, 0, 0] = bad
        save_checkpoint(path, store)
        with pytest.raises(ValueError, match="'layer0.bn.gamma' holds non-finite"):
            load_checkpoint(path)
        with pytest.raises(ValueError, match="non-finite"):
            load_into(path, small_store())


class TestLoadInto:
    def test_values_land_in_store(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        src = small_store(5)
        save_checkpoint(path, src)
        dst = small_store(6)
        assert dst["layer0.w"].data.tobytes() != src["layer0.w"].data.tobytes()
        load_into(path, dst)
        for name, tensor in src.items():
            np.testing.assert_array_equal(dst[name].data, tensor.data)

    def test_missing_name_rejected(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        save_checkpoint(path, small_store())
        dst = small_store()
        register_conv(dst, "layer2", ConvSpec(2, 2, 1, 1))
        with pytest.raises(ValueError, match="missing"):
            load_into(path, dst)

    def test_unexpected_name_rejected(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        big = small_store()
        register_conv(big, "layer2", ConvSpec(2, 2, 1, 1))
        save_checkpoint(path, big)
        with pytest.raises(ValueError, match="unexpected"):
            load_into(path, small_store())

    def test_shape_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        store = ParamStore()
        store.register("p", Tensor(np.zeros((1, 2, 1, 1))))
        save_checkpoint(path, store)
        other = ParamStore()
        other.register("p", Tensor(np.zeros((1, 3, 1, 1))))
        with pytest.raises(ValueError, match="shape"):
            load_into(path, other)

    def test_mismatch_errors_name_the_file(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        save_checkpoint(path, small_store())
        bigger = small_store()
        register_conv(bigger, "layer2", ConvSpec(2, 2, 1, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: checkpoint mismatch: "):
            load_into(path, bigger)
        reshaped = ParamStore()
        for name, tensor in small_store().items():
            shape = (1, 5, 1, 1) if name == "layer1.w" else tensor.shape
            reshaped.register(name, Tensor(np.zeros(shape)))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}: checkpoint entry 'layer1.w' "
                                             r"has shape \(2, 4, 1, 1\), expected \(1, 5, 1, 1\)$"):
            load_into(path, reshaped)


class TestNetworkRoundTrip:
    def test_loaded_network_reproduces_logits(self, tmp_path):
        path = str(tmp_path / "net.cev2")
        net1, store1 = build_network(nano_config(), seed=12)
        # perturb away from init so equality cannot come from the seed
        rng = np.random.default_rng(13)
        for _, tensor in store1.items():
            tensor.data += rng.normal(scale=0.01, size=tensor.shape)
        save_checkpoint(path, store1)

        net2, store2 = build_network(nano_config(), seed=99)
        load_into(path, store2)
        x = Tensor(np.random.default_rng(14).uniform(size=(2, 3, 64, 64)))
        a = net1.forward(x).data
        b = net2.forward(x).data
        assert a.tobytes() == b.tobytes()

    def test_running_stats_travel_with_checkpoint(self, tmp_path):
        path = str(tmp_path / "net.cev2")
        net1, store1 = build_network(nano_config(), seed=15)
        x = Tensor(np.random.default_rng(16).uniform(size=(2, 3, 64, 64)))
        with Tape():
            net1.forward(x)  # moves running stats off their init
        save_checkpoint(path, store1)
        net2, store2 = build_network(nano_config(), seed=15)
        load_into(path, store2)
        np.testing.assert_array_equal(net2.stem.rm.data, net1.stem.rm.data)
        a = net1.forward(x).data
        b = net2.forward(x).data
        assert a.tobytes() == b.tobytes()
