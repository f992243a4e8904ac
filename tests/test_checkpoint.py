"""Checkpoint serialization: framing, round trips, store loading."""

import os
import struct

import numpy as np
import pytest

from cev2 import (ParamStore, Tensor, build_network, load_checkpoint,
                  load_into, nano_config, save_checkpoint)
from cev2.params import MAGIC, VERSION, init_weights, register_bn, register_conv


def small_store(seed=0):
    store = ParamStore()
    register_conv(store, "layer0", 4, 3, 3, 3)
    register_bn(store, "layer0.bn", 4)
    register_conv(store, "layer1", 2, 4, 1, 1, bias=False)
    init_weights(store, np.random.default_rng(seed))
    return store


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

    def test_huge_dims_are_truncation_not_overflow(self, tmp_path):
        path = str(tmp_path / "x.cev2")
        entry = struct.pack("<H", 1) + b"p" + struct.pack("<IIII", *([0xFFFFFFFF] * 4))
        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<II", 1, 1) + entry)
        with pytest.raises(ValueError, match="truncated"):
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
        register_conv(dst, "layer2", 2, 2, 1, 1)
        with pytest.raises(ValueError, match="missing"):
            load_into(path, dst)

    def test_unexpected_name_rejected(self, tmp_path):
        path = str(tmp_path / "c.cev2")
        big = small_store()
        register_conv(big, "layer2", 2, 2, 1, 1)
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
        a = net1.forward(x, "eval").data
        b = net2.forward(x, "eval").data
        assert a.tobytes() == b.tobytes()

    def test_running_stats_travel_with_checkpoint(self, tmp_path):
        path = str(tmp_path / "net.cev2")
        net1, store1 = build_network(nano_config(), seed=15)
        x = Tensor(np.random.default_rng(16).uniform(size=(2, 3, 64, 64)))
        net1.forward(x, "train")  # moves running stats off their init
        save_checkpoint(path, store1)
        net2, store2 = build_network(nano_config(), seed=15)
        load_into(path, store2)
        np.testing.assert_array_equal(net2.stem.rm.data, net1.stem.rm.data)
        a = net1.forward(x, "eval").data
        b = net2.forward(x, "eval").data
        assert a.tobytes() == b.tobytes()
