"""Property tests for the readers that take files from outside: netpbm images,
checkpoints and config files either load or raise ValueError, never another
exception; for what an augment config that loads then drives: its draws
either give an image or a ValueError, never a numpy warning; and for the
network's eval forward: an image's logits do not depend on its batch.
Derandomized and database-free, so every run checks the same examples and
writes no example database."""

import dataclasses
import functools
import math
import os
import tempfile
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis.configuration import set_hypothesis_home_dir
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cev2 import (AugmentConfig, ParamStore, Tensor, build_network, load_checkpoint,
                  parse_augment_config, parse_network_config, parse_train_config,
                  save_checkpoint)
from cev2.augment import OP_NAMES, apply_augment, sample_augment
from cev2.config import _AUGMENT_KEYS, _NETWORK_KEYS, _STAGE_KEYS, _TRAIN_KEYS
from cev2.gradcheck import _micro_config
from cev2.ppm import Raster, read_image, write_ppm

# the keys each reader accepts, straight from its loader table
NETWORK_KEYS = list(_NETWORK_KEYS)
STAGE_KEYS = list(_STAGE_KEYS)
TRAIN_KEYS = list(_TRAIN_KEYS)
AUGMENT_KEYS = list(_AUGMENT_KEYS)

# Hypothesis caches the constants of local source files under its home
# directory while collecting; keep that cache out of the working tree
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "cev2-hypothesis"))

# tmp_path is shared by the examples of one test; each example overwrites its file
FAST = settings(database=None, derandomize=True, max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def write_bytes(tmp_path, blob: bytes, name: str) -> str:
    path = tmp_path / name
    path.write_bytes(blob)
    return str(path)


def loads_or_value_error(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# netpbm

header = st.builds(
    lambda magic, w, h, maxval, sep: f"{magic}{sep}{w} {h}{sep}{maxval}\n".encode(),
    st.sampled_from(["P5", "P6", "P3", "P6 #c\n"]), st.integers(-2, 5),
    st.integers(-2, 5), st.integers(-1, 300), st.sampled_from([" ", "\n", "\t", "#x\n"]))


@FAST
@given(blob=st.one_of(st.binary(max_size=64),
                      st.builds(lambda h, body: h + body, header, st.binary(max_size=96))))
def test_any_bytes_decode_or_raise_value_error(tmp_path, blob):
    img = loads_or_value_error(read_image, write_bytes(tmp_path, blob, "x.ppm"))
    if img is not None:
        assert img.pixels.dtype == np.uint8 and img.pixels.shape[2] == 3


whitespace = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
comment = st.binary(max_size=6).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n")
separator = st.lists(st.one_of(whitespace, comment), min_size=1, max_size=4).map(b"".join)


@st.composite
def netpbm_files(draw):
    """(file bytes, samples, maxval) of a well-formed P5 or P6 file; a
    separator may open with a comment, right after the token before it."""
    magic = draw(st.sampled_from([b"P5", b"P6"]))
    width, height = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    maxval = draw(st.integers(1, 255))
    samples = draw(arrays(np.uint8, (height, width, 3 if magic == b"P6" else 1),
                          elements=st.integers(0, maxval)))
    fields = [magic] + [b"%d" % v for v in (width, height, maxval)]
    head = b"".join(f + draw(separator) for f in fields[:3]) + fields[3] + draw(whitespace)
    return head + samples.tobytes(), samples, maxval


@FAST
@given(file=netpbm_files())
@example(file=(b"P5#a\n1#b\n1\x0b#c\n\x0c3\t" + bytes([2]), np.array([[[2]]], np.uint8), 3))
@example(file=(b"P5 1 1 50\n" + bytes([25]), np.array([[[25]]], np.uint8), 50))
def test_well_formed_header_decodes_to_scaled_samples(tmp_path, file):
    blob, samples, maxval = file
    got = read_image(write_bytes(tmp_path, blob, "w.ppm")).pixels.astype(np.int64)
    # sample * 255 / maxval rounded half to even, in exact integers: an
    # exact tie such as 25 * 255 / 50 = 127.5 reads 128
    q, r = np.divmod(samples.astype(np.int64) * 255, maxval)
    want = q + ((2 * r > maxval) | ((2 * r == maxval) & (q % 2 == 1)))
    np.testing.assert_array_equal(got, np.broadcast_to(want, got.shape))


rasters = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda hw: arrays(np.uint8, (hw[0], hw[1], 3)))


@FAST
@given(pixels=rasters)
def test_write_then_read_round_trips(tmp_path, pixels):
    path = str(tmp_path / "r.ppm")
    write_ppm(path, Raster(pixels))
    np.testing.assert_array_equal(read_image(path).pixels, pixels)


# ---------------------------------------------------------------------------
# checkpoints

shapes = st.tuples(*[st.integers(1, 3)] * 4)
stores = st.lists(shapes, min_size=1, max_size=3).flatmap(lambda ss: st.tuples(*[
    arrays(np.float64, s, elements=st.floats(-1e6, 1e6)) for s in ss]))


def make_store(arrays_) -> ParamStore:
    store = ParamStore()
    for i, arr in enumerate(arrays_):
        store.register(f"p{i}", Tensor(np.array(arr)))
    return store


@FAST
@given(arrs=stores)
def test_save_load_save_is_byte_exact(tmp_path, arrs):
    first = str(tmp_path / "a.cev2")
    save_checkpoint(first, make_store(arrs))
    loaded = load_checkpoint(first)
    second = str(tmp_path / "b.cev2")
    save_checkpoint(second, make_store(list(loaded.values())))
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


@FAST
@given(arrs=stores, cut=st.integers(0, 400),
       flips=st.lists(st.tuples(st.integers(0, 400), st.integers(1, 255)), max_size=3))
# one flipped bit turns entry p0's dims (1, 1, 1, 1) into (0, 1, 1, 1), an
# entry with no payload, and the cut drops the 8 bytes that become trailing
@example(arrs=(np.zeros((1, 1, 1, 1)),), cut=32, flips=[(16, 1)])
def test_damaged_checkpoint_loads_or_raises_value_error(tmp_path, arrs, cut, flips):
    path = str(tmp_path / "c.cev2")
    save_checkpoint(path, make_store(arrs))
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    for pos, mask in flips:
        if pos < len(blob):
            blob[pos] ^= mask
    loaded = loads_or_value_error(load_checkpoint, write_bytes(tmp_path, bytes(blob[:cut]), "d"))
    if loaded is not None:
        assert all(np.isfinite(a).all() for a in loaded.values())
        # a checkpoint that loads has one encoding: saving it gives its bytes back
        store = ParamStore()
        for name, arr in loaded.items():
            store.register(name, Tensor(arr))
        save_checkpoint(path, store)
        with open(path, "rb") as fh:
            assert fh.read() == bytes(blob[:cut])


# ---------------------------------------------------------------------------
# config files

values = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "NaN", "true", "off", "x", "", "-1",
                     "0", "1", "2", "0.5", "1e-3", "adam", "mbconv out=8 e=x"]),
    st.integers(-5, 300).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(st.characters(blacklist_categories=["Cs"]), max_size=8))


def config_text(keys):
    key = st.one_of(st.sampled_from(keys),
                    st.text("abcdefgstnpo._0123456789", min_size=1, max_size=12))
    line = st.builds(lambda k, v: f"{k} = {v}".replace("#", "").replace("\n", " "),
                     key, values)
    return st.lists(line, max_size=8).map("\n".join)


def assert_floats_finite(cfg):
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        for v in value if isinstance(value, tuple) else (value,):
            if isinstance(v, float):
                assert math.isfinite(v), f.name


stage_text = st.lists(st.builds(
    lambda k, v: f"{k}={v}", st.sampled_from(STAGE_KEYS),
    st.sampled_from(["8", "16", "2", "x", "nan", "inf", "ce", "yes", "-1"])),
    max_size=6).map(lambda toks: "fused-mbconv " + " ".join(toks))

network_text = st.builds(
    lambda head, stages: head + "".join(f"\nstage.{i} = {s}" for i, s in enumerate(stages)),
    config_text(NETWORK_KEYS), st.lists(stage_text, max_size=3))


@FAST
@given(text=st.one_of(network_text, config_text(NETWORK_KEYS)))
def test_network_config_parses_or_raises_value_error(tmp_path, text):
    path = write_bytes(tmp_path, text.encode("utf-8"), "net.cfg")
    cfg = loads_or_value_error(parse_network_config, path)
    if cfg is not None:
        assert all(dataclasses.is_dataclass(s) for s in cfg.stages)


@FAST
@given(text=config_text(TRAIN_KEYS))
def test_train_config_parses_or_raises_value_error(tmp_path, text):
    path = write_bytes(tmp_path, f"network = n\ndataset = d\n{text}".encode("utf-8"), "t.cfg")
    cfg = loads_or_value_error(parse_train_config, path)
    if cfg is not None:
        assert_floats_finite(cfg)


@FAST
@given(text=config_text(AUGMENT_KEYS))
def test_augment_config_parses_or_raises_value_error(tmp_path, text):
    path = write_bytes(tmp_path, text.encode("utf-8"), "a.cfg")
    cfg = loads_or_value_error(parse_augment_config, path)
    if cfg is not None:
        assert_floats_finite(cfg)


# ---------------------------------------------------------------------------
# augment draws

def ordered(elements):
    return st.tuples(elements, elements).map(lambda pair: tuple(sorted(pair)))


# each field anywhere its own finiteness and sign checks allow, so the ranges
# reach the float extremes
finite = st.floats(allow_nan=False, allow_infinity=False)
augment_fields = st.fixed_dictionaries({
    "rotation_deg": ordered(finite), "translate_frac": st.one_of(st.floats(0.0, 1.0), finite),
    "gauss_std": st.floats(0.0, allow_infinity=False),
    "sp_density": st.floats(0.0, 1.0, exclude_max=True), "hflip_prob": st.floats(0.0, 1.0),
    "scale_range": ordered(st.floats(0.0, exclude_min=True, allow_infinity=False))})


@FAST
@given(fields=augment_fields, seed=st.integers(0, 2 ** 32))
@example(fields={"translate_frac": 1e308}, seed=0)
@example(fields={"rotation_deg": (-1e308, 1e308)}, seed=0)
@example(fields={"translate_frac": 1e20}, seed=0)
@example(fields={"scale_range": (1e-320, 1e-320)}, seed=0)
def test_any_augment_config_draws_an_image_or_a_value_error(fields, seed):
    try:
        config = AugmentConfig(**fields)
    except ValueError:
        return
    img = Raster(np.arange(90, dtype=np.uint8).reshape(6, 5, 3))
    rng = np.random.default_rng(seed)
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # draw until every op has run at least once
        while len(seen) < len(OP_NAMES):
            op, params = sample_augment(rng, config, img.width, img.height)
            seen.add(op)
            try:
                out = apply_augment(img, op, params)
            except ValueError as exc:
                assert any(key in str(exc) for key in params), (op, params, exc)
            else:
                assert out.pixels.shape == img.pixels.shape and out.pixels.dtype == np.uint8


# ---------------------------------------------------------------------------
# batch independence

@functools.cache
def micro_network():
    return build_network(_micro_config(), seed=31)


@settings(FAST, max_examples=20)
@given(seed=st.integers(0, 2 ** 32), cuts=st.sets(st.integers(1, 23)))
@example(seed=0, cuts=set(range(1, 24)))
def test_no_tape_logits_of_an_image_do_not_depend_on_its_batch(seed, cuts):
    # the micro network's 4x4 and 1x1 maps put several samples in one conv chunk
    net, store = micro_network()
    rng = np.random.default_rng(seed)
    for name, t in store.items():
        if name.endswith(".rm"):
            t.data[...] = rng.normal(0.0, 0.5, t.shape)
        elif name.endswith(".rv"):
            t.data[...] = rng.uniform(0.5, 2.0, t.shape)
    x = rng.uniform(0.0, 1.0, (24, 3, 16, 16))
    whole = net.forward(Tensor(x)).data
    bounds = [0, *sorted(cuts), 24]
    split = np.concatenate([net.forward(Tensor(x[a:b])).data
                            for a, b in zip(bounds, bounds[1:])])
    differ = [i for i in range(24) if not np.array_equal(split[i], whole[i])]
    assert differ == [], f"{len(differ)} of 24 rows differ from one batch of 24"
