"""The contract between the package and the bench tracer (bench/tracer.py).

The tracer rebinds module and class attributes of cev2 by name and opens
synthetic spans at the calls that mark a train step, an epoch and an eval
batch. These tests pin what it relies on, so a change under src/ that
breaks the bench's accounting fails here, not only in a bench run.
"""

import importlib
import os
import sys

import pytest

import cev2
import cev2.cli

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NANO_CFG = os.path.join(HERE, "configs", "nano.cfg")

# nano's top-level blocks, as the tracer names them
NANO_BLOCKS = ["backbone.stem", "backbone.s0.r0", "backbone.s0.safm", "backbone.s1.r0",
               "backbone.s1.r1", "backbone.s1.safm", "backbone.s2.r0", "backbone.s2.r1",
               "backbone.head"]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(HERE, "bench"))
    return importlib.import_module("tracer")


def attributes(tracer) -> dict:
    """Every attribute of the cev2 package, its layer modules and the
    classes they define, keyed by (owner, name)."""
    out = {}
    for mod in [cev2] + [sys.modules[f"cev2.{m}"] for m in tracer.LAYERS]:
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, cvalue in vars(value).items():
                    out[(f"{mod.__name__}.{attr}", cattr)] = cvalue
    return out


@pytest.mark.parametrize("full", [False, True], ids=["probe", "full"])
def test_install_wraps_and_uninstall_restores_every_attribute(tracer, full):
    before = attributes(tracer)
    t = tracer.Tracer(full).install()
    try:
        during = attributes(tracer)
    finally:
        t.uninstall()
    after = attributes(tracer)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    changed = {k for k in before if during[k] is not before[k]}
    assert {("cev2", "train"), ("cev2.train", "train"), ("cev2.train", "load_input"),
            ("cev2.train", "_raster_cache_get"), ("cev2.train.SGDMomentum", "step"),
            ("cev2.cli", "main")} <= changed
    owned = {("cev2.tensor.Tape", "record"), ("cev2.backbone.Network", "forward")}
    owned |= {(f"cev2.backbone.{c}", "forward") for c in tracer._BLOCK_CLASSES}
    assert owned & changed == (owned if full else set())


def test_traced_train_writes_the_same_bytes_and_opens_the_expected_spans(
        tmp_path, capsys, tracer):
    # 4 classes x 4 images, split 0.5: 8 train images, 2 batches of 4 per epoch
    data = str(tmp_path / "data")
    importlib.import_module("gen").make_dataset(data, 5, 4, 4, [(64, 64)])

    def run(name):
        out_dir = str(tmp_path / name)
        cfg = str(tmp_path / f"{name}.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {NANO_CFG}\ndataset = {data}\nsplit = 0.5\nepochs = 2\n"
                     f"window = 2\nbatch_size = 4\naugment = true\nseed = 5\nresize = 64\n"
                     f"out = {out_dir}\n")
        assert cev2.cli.main(["train", cfg]) == 0
        outputs = {}
        for f in ("metrics.tsv", "train_metrics.tsv", "best.cev2"):
            with open(os.path.join(out_dir, f), "rb") as fh:
                outputs[f] = fh.read()
        return outputs

    plain = run("plain")
    t = tracer.Tracer(True).install()
    try:
        traced = run("traced")
    finally:
        t.uninstall()
    capsys.readouterr()
    assert traced == plain

    spans = t.spans
    names = [s[0] for s in spans]
    assert names.count("train.epoch") == 2
    assert names.count("train.step") == 4
    assert names.count("train._raster_cache_get") == 16
    for s in spans:
        if s[0] == "train._raster_cache_get":
            assert spans[s[1]][0] == "train.step"
        elif s[0] in ("train.step", "train.evaluate"):
            assert spans[s[1]][0] == "train.epoch"
    assert names.count("train.evaluate") == 4
    for block in NANO_BLOCKS:
        assert block in names, block

    # best.cev2 is written after an epoch's two evaluations, outside its span,
    # once per epoch whose test accuracy beats every earlier one
    accs = [float(line.split(b"\t")[1]) for line in plain["metrics.tsv"].splitlines()
            if line[:1].isdigit()]
    improvements = sum(a > max(accs[:i], default=-1.0) for i, a in enumerate(accs))
    saves = [s for s in spans if s[0] == "params.save_checkpoint"]
    assert len(saves) == improvements >= 1
    assert {spans[s[1]][0] for s in saves} == {"train.train"}
