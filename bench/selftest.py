"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest bench/selftest.py

The file name keeps it out of the default test collection, so the package's
own suite does not run these slower end-to-end checks.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import cev2.cli  # noqa: E402
import gen  # noqa: E402
from metrics import accounting, end_to_end, per_layer  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import netpbm_size  # noqa: E402


def _span(name, parent, start, end, attrs=None):
    return [name, parent, start, end, attrs]


def test_self_times_subtract_direct_children_only():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a1", 1, 1.5, 2.5),
        _span("a2", 1, 3.0, 3.5),
        _span("b", 0, 5.0, 9.0),
        _span("b1", 4, 5.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4, 3 - 1 - 0.5, 1.0, 0.5, 0.0, 4.0])


def test_step_accounting_adds_up_on_a_synthetic_tree():
    conv = {"kind": "dense", "gflop": 0.5}
    spans = [
        _span("cli.main", -1, 0.0, 20.0),
        _span("train.train", 0, 0.5, 19.0),
        _span("train.epoch", 1, 1.0, 18.0, {"evals": 2}),
        _span("train.step", 2, 1.0, 9.0),
        _span("train._raster_cache_get", 3, 1.0, 2.0),
        _span("backbone.Network.forward", 3, 2.0, 5.0),
        _span("backbone.stem", 5, 2.0, 4.0),
        _span("tensor.conv2d", 6, 2.5, 3.5, conv),
        _span("tensor.conv2d", 5, 4.0, 4.5, conv),
        _span("train.cross_entropy_loss", 3, 5.0, 5.5),
        _span("tensor.backward", 3, 5.5, 8.0),
        _span("tensor.conv2d.bwd", 10, 5.5, 7.0, {"kind": "dense", "block": "backbone.stem"}),
        _span("train.SGDMomentum.step", 3, 8.0, 8.5),
        _span("train.evaluate", 2, 9.0, 17.0, {"images": 4}),
    ]
    acc = accounting([spans])
    assert acc["step_wall_s"] == pytest.approx(8.0)
    assert acc["phases_s"] == pytest.approx(1 + 3 + 0.5 + 2.5 + 0.5)
    assert acc["op_kinds_s"] == pytest.approx(1.0 + 0.5 + 0.5 + 1.5)
    assert acc["blocks_s"] == pytest.approx(2.0 + 0.5 + 1.5)
    assert acc["epoch_residual_s"] == pytest.approx(17.0 - 8.0 - 8.0)
    m = per_layer([spans])
    assert m["train.step.forward_s"] == pytest.approx(3.0)
    assert m["trace.step.residual_s"] == pytest.approx(0.5)
    assert m["tensor.conv2d.dense.fwd_s"] == pytest.approx(1.5)
    assert m["tensor.conv2d.dense.bwd_s"] == pytest.approx(1.5)
    assert m["tensor.conv2d.dense.gflop"] == pytest.approx(1.0)
    assert m["backbone.stem.fwd_s"] == pytest.approx(2.0)
    assert m["backbone.classifier.fwd_s"] == pytest.approx(0.5)
    assert m["train.checkpoint_s"] == pytest.approx(1.0)


def test_op_percentiles_pooled_or_per_call():
    calls = [{"setup_s": 0.1, "call_s": 1.0, "work_s": 0.9, "images": 3,
              "ops": [1.0, 2.0, 3.0]},
             {"setup_s": 0.1, "call_s": 1.0, "work_s": 0.9, "images": 3,
              "ops": [3.0, 5.0, 9.0]},
             {"setup_s": 0.1, "call_s": 1.0, "work_s": 0.9, "images": 3,
              "ops": [4.0, 6.0, 7.0]}]
    pooled = end_to_end(calls, 75.0)
    assert pooled["op_s.p50"] == pytest.approx(4.0)
    assert pooled["op_s.tail"] == pytest.approx(6.0)
    per_call = end_to_end(calls, 75.0, per_call=True)
    assert per_call["op_s.p50"] == pytest.approx(5.0)
    assert per_call["op_s.tail"] == pytest.approx(6.5)
    assert per_call["images_per_s"] == pytest.approx(3 / 0.9)


def _tree_bytes(root):
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            with open(os.path.join(d, f), "rb") as fh:
                out[os.path.relpath(os.path.join(d, f), root)] = fh.read()
    return out


def test_generator_is_deterministic_per_seed(tmp_path):
    sizes = [(40, 30), (33, 47)]
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.make_dataset(str(tmp_path / name), seed, 3, 4, sizes, gray_every=2)
    a, b, c = (_tree_bytes(tmp_path / n) for n in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    assert netpbm_size(a["class01/img0001.pgm"]) == (33, 47)
    assert netpbm_size(a["class02/img0002.ppm"]) == (40, 30)


def _train(tmp_path, name, tracer=None):
    data = tmp_path / "data"
    if not data.exists():
        gen.make_dataset(str(data), 9, 4, 5, [(64, 64), (72, 80)], gray_every=5)
    out = tmp_path / name
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"network = {os.path.join(ROOT, 'configs', 'nano.cfg')}\n"
                   f"dataset = {data}\nepochs = 2\nwindow = 2\nbatch_size = 8\n"
                   f"augment = true\nseed = 9\nout = {out}\n")
    if tracer is not None:
        tracer.install()
    try:
        assert cev2.cli.main(["train", str(cfg)]) == 0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {f: (out / f).read_bytes() for f in ("metrics.tsv", "best.cev2")}


def test_traced_train_writes_the_same_bytes_as_untraced(tmp_path):
    tensor = sys.modules["cev2.tensor"]
    originals = (tensor.conv2d, sys.modules["cev2.backbone"].conv2d, tensor.Tape.record)
    plain = _train(tmp_path, "plain")
    tracer = Tracer(full=True)
    traced = _train(tmp_path, "traced", tracer)
    assert traced == plain
    assert (tensor.conv2d, sys.modules["cev2.backbone"].conv2d, tensor.Tape.record) == originals

    names = {s[0] for s in tracer.spans}
    assert {"train.step", "train.epoch", "backbone.s1.safm", "tensor.conv2d.bwd"} <= names
    bwd = [s for s in tracer.spans if s[0] == "tensor.conv2d.bwd"]
    assert all(s[4]["block"].startswith("backbone.") for s in bwd)
    m = per_layer([tracer.spans])
    assert m["tensor.tape_rules"] == 103
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {x["name"] for x in json.load(fh)["per_layer"]}
    assert set(m) | {"trace.overhead_s"} == listed
