"""Dataset splitting, loss, optimizers, windowed metrics, training loop."""

import importlib
import math
import os

import numpy as np
import pytest

from cev2 import (EpochRecord, ParamStore, Tape, Tensor, TrainConfig, backward,
                  channel_vector, cross_entropy_loss, train, window_average)
from cev2.data import (batch_tensor, list_classes, load_input, split_dataset,
                       write_manifest)
from cev2.tensor import record_op
from cev2.train import (Adam, NonFiniteError, SGDMomentum, check_finite_grads,
                        evaluate, format_metrics, make_optimizer)
from helpers import make_solid_dataset
from oracles import adam_seq, cross_entropy_ref, sgd_momentum_seq

# the package's ``train`` attribute is the train() function, not this module
train_module = importlib.import_module("cev2.train")


def make_name_only_dataset(root, per_class):
    """Class dirs holding empty .ppm files (enough for split logic)."""
    for ci, n in enumerate(per_class):
        cdir = os.path.join(root, f"c{ci}")
        os.makedirs(cdir)
        for k in range(n):
            open(os.path.join(cdir, f"f{k:03d}.ppm"), "wb").close()


class TestSplit:
    def test_eighty_twenty(self, tmp_path):
        make_name_only_dataset(str(tmp_path), [100, 100])
        split = split_dataset(str(tmp_path), 0.8, seed=0)
        for idx in (0, 1):
            assert sum(1 for _, i in split.train if i == idx) == 80
            assert sum(1 for _, i in split.test if i == idx) == 20
        assert split.warnings == []

    def test_ceil_rounding_five_files(self, tmp_path):
        make_name_only_dataset(str(tmp_path), [5])
        split = split_dataset(str(tmp_path), 0.8, seed=1)
        assert (len(split.train), len(split.test)) == (4, 1)

    def test_single_file_class_warns_empty_test(self, tmp_path):
        make_name_only_dataset(str(tmp_path), [1, 10])
        split = split_dataset(str(tmp_path), 0.8, seed=2)
        assert sum(1 for _, i in split.test if i == 0) == 0
        assert len(split.warnings) == 1 and "c0" in split.warnings[0]

    def test_partition_exact(self, tmp_path):
        make_name_only_dataset(str(tmp_path), [7, 13, 4])
        split = split_dataset(str(tmp_path), 0.6, seed=3)
        both = [rel for rel, _ in split.train] + [rel for rel, _ in split.test]
        assert len(both) == len(set(both)) == 24
        want = {f"c0/f{k:03d}.ppm" for k in range(7)}
        want |= {f"c1/f{k:03d}.ppm" for k in range(13)}
        want |= {f"c2/f{k:03d}.ppm" for k in range(4)}
        assert set(both) == want

    def test_deterministic_per_seed(self, tmp_path):
        make_name_only_dataset(str(tmp_path), [20, 20])
        a = split_dataset(str(tmp_path), 0.8, seed=5)
        b = split_dataset(str(tmp_path), 0.8, seed=5)
        c = split_dataset(str(tmp_path), 0.8, seed=6)
        assert a.train == b.train and a.test == b.test
        assert a.train != c.train

    def test_labels_match_alphabetical_classes(self, tmp_path):
        for name in ("zebra", "apple", "mango"):
            os.makedirs(tmp_path / name)
            open(tmp_path / name / "x.ppm", "wb").close()
            open(tmp_path / name / "y.ppm", "wb").close()
        split = split_dataset(str(tmp_path), 0.5, seed=0)
        assert split.classes == ["apple", "mango", "zebra"]
        for rel, idx in split.train + split.test:
            assert rel.startswith(split.classes[idx] + "/")

    def test_fraction_validation(self, tmp_path):
        make_name_only_dataset(str(tmp_path), [4])
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="fraction"):
                split_dataset(str(tmp_path), bad, seed=0)

    def test_empty_class_rejected(self, tmp_path):
        make_name_only_dataset(str(tmp_path), [4])
        os.makedirs(tmp_path / "empty")
        with pytest.raises(ValueError, match="no images"):
            split_dataset(str(tmp_path), 0.8, seed=0)

    def test_no_classes_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="class subdirectories"):
            list_classes(str(tmp_path))


class TestManifest:
    def test_round_trip(self, tmp_path):
        classes = ["a", "b"]
        entries = [("a/x.ppm", 0), ("b/y.ppm", 1), ("a/z.ppm", 0)]
        path = str(tmp_path / "m.tsv")
        write_manifest(path, entries, classes)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        assert text == "a/x.ppm\ta\nb/y.ppm\tb\na/z.ppm\ta\n"
        rows = [line.split("\t") for line in text.splitlines()]
        assert [(rel, classes.index(cls)) for rel, cls in rows] == entries


class TestCrossEntropy:
    def logits(self, arr):
        a = np.asarray(arr, dtype=np.float64)
        return Tensor(a.reshape(a.shape[0], a.shape[1], 1, 1))

    def test_uniform_two_way_is_ln2(self):
        loss = cross_entropy_loss(self.logits([[3.0, 3.0]]), [0])
        assert abs(loss.item() - math.log(2.0)) < 1e-15

    def test_shift_invariance_with_large_offsets(self):
        z = np.random.default_rng(0).normal(size=(4, 5))
        base = cross_entropy_loss(self.logits(z), [0, 1, 2, 3]).item()
        for off in (30.0, -30.0, 700.0):
            shifted = cross_entropy_loss(self.logits(z + off), [0, 1, 2, 3]).item()
            assert abs(shifted - base) < 1e-12, off
            assert np.isfinite(shifted)

    def test_matches_extended_precision_reference(self):
        for seed in range(20):
            z = np.random.default_rng(seed).normal(scale=3.0, size=(8, 5))
            labels = list(np.random.default_rng(seed + 999).integers(0, 5, size=8))
            got = cross_entropy_loss(self.logits(z), labels).item()
            assert abs(got - cross_entropy_ref(z, labels)) < 1e-12, seed

    def test_gradient_is_softmax_minus_onehot(self):
        z = np.random.default_rng(1).normal(size=(3, 4))
        logits = self.logits(z)
        logits.requires_grad = True
        labels = [2, 0, 3]
        tape = Tape()
        with tape:
            loss = cross_entropy_loss(logits, labels)
        backward(tape, loss)
        ex = np.exp(z - z.max(axis=1, keepdims=True))
        soft = ex / ex.sum(axis=1, keepdims=True)
        soft[np.arange(3), labels] -= 1.0
        np.testing.assert_allclose(logits.grad.reshape(3, 4), soft / 3.0,
                                   rtol=0, atol=1e-14)

    def test_label_range_rejected(self):
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            cross_entropy_loss(self.logits([[1.0, 2.0, 3.0]]), [3])
        with pytest.raises(ValueError, match="labels"):
            cross_entropy_loss(self.logits([[1.0, 2.0, 3.0]]), [-1])

    def test_label_count_rejected(self):
        with pytest.raises(ValueError, match="labels for batch"):
            cross_entropy_loss(self.logits([[1.0, 2.0]]), [0, 1])

    def test_spatial_logits_rejected(self):
        with pytest.raises(ValueError, match=r"\(N, K, 1, 1\)"):
            cross_entropy_loss(Tensor(np.zeros((1, 3, 2, 2))), [0])


def scalar_store(*values):
    store = ParamStore()
    tensors = []
    for i, v in enumerate(values):
        t = channel_vector([float(v)])
        store.register(f"p{i}", t)
        tensors.append(t)
    return store, tensors


class TestOptimizers:
    def test_zero_lr_freezes_params(self):
        store, (p,) = scalar_store(1.5)
        for opt in (SGDMomentum(store, lr=0.0), Adam(store, lr=0.0)):
            for _ in range(3):
                p.grad = np.ones_like(p.data)
                opt.step()
            assert p.item() == 1.5

    def test_sgd_first_step_closed_form(self):
        store, (p,) = scalar_store(2.0)
        opt = SGDMomentum(store, lr=0.1, momentum=0.9)
        p.grad = np.full_like(p.data, 3.0)
        opt.step()
        assert abs(p.item() - (2.0 - 0.1 * 3.0)) < 1e-15

    def test_sgd_sequence_matches_recurrence(self):
        grads = [0.5, -1.25, 2.0, 0.0, 0.75]
        store, (p,) = scalar_store(1.0)
        opt = SGDMomentum(store, lr=0.05, momentum=0.9)
        for g in grads:
            p.grad = np.full_like(p.data, g)
            opt.step()
        want = sgd_momentum_seq(1.0, grads, lr=0.05, mu=0.9)
        assert abs(p.item() - want) < 1e-15

    def test_adam_first_step_is_signed_lr(self):
        store, (p,) = scalar_store(0.7)
        opt = Adam(store, lr=1e-3, eps=1e-8)
        p.grad = np.full_like(p.data, 4.0)
        opt.step()
        want = 0.7 - 1e-3 * 4.0 / (4.0 + 1e-8)
        assert abs(p.item() - want) < 1e-15

    def test_adam_sequence_matches_recurrence(self):
        def grad_fn(x):
            return 2.0 * (x - 3.0)

        store, (p,) = scalar_store(0.0)
        opt = Adam(store, lr=0.01)
        for _ in range(3):
            p.grad = np.full_like(p.data, grad_fn(p.item()))
            opt.step()
        want = adam_seq(0.0, grad_fn, steps=3, lr=0.01)
        assert abs(p.item() - want) < 1e-14

    def test_missing_grad_treated_as_zero(self):
        store, (p, q) = scalar_store(1.0, -1.0)
        sgd = SGDMomentum(store, lr=0.1)
        p.grad = np.ones_like(p.data)
        q.grad = None
        sgd.step()
        assert q.item() == -1.0 and p.item() != 1.0
        adam = Adam(store, lr=0.1)
        q.grad = None
        p.grad = None
        adam.step()
        assert q.item() == -1.0

    def test_make_optimizer_dispatch(self):
        store, _ = scalar_store(0.0)
        cfg = TrainConfig(network="n", dataset="d")
        assert isinstance(make_optimizer(store, cfg), SGDMomentum)
        cfg2 = TrainConfig(network="n", dataset="d", optimizer="adam", learning_rate=0.02)
        opt = make_optimizer(store, cfg2)
        assert isinstance(opt, Adam) and opt.lr == 0.02


class TestWindowAverage:
    def recs(self, accs, losses=None):
        losses = losses or [0.0] * len(accs)
        return [EpochRecord(i, a, l) for i, (a, l) in enumerate(zip(accs, losses))]

    def test_arithmetic_series_exact(self):
        accs = [0.90 + 0.01 * k for k in range(10)]
        acc, _ = window_average(self.recs(accs), 10)
        assert acc == 0.945

    def test_uniform_values(self):
        acc, loss = window_average(self.recs([0.9] * 10, [0.25] * 10), 10)
        assert acc == 0.9 and loss == 0.25

    def test_fifty_records_use_last_ten_only(self):
        accs = [0.0] * 40 + [0.90 + 0.01 * k for k in range(10)]
        losses = [99.0] * 40 + [1.0] * 10
        acc, loss = window_average(self.recs(accs, losses), 10)
        assert acc == 0.945 and loss == 1.0

    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError, match="at least 10"):
            window_average(self.recs([0.5] * 9), 10)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            window_average(self.recs([0.5]), 0)


class TestFormatMetrics:
    def test_exact_text(self):
        recs = [EpochRecord(0, 0.5, 0.6931471805599453),
                EpochRecord(1, 1.0, 0.1)]
        text = format_metrics(recs, 0.75, 0.375)
        assert text == ("0\t0.5\t0.6931471805599453\n"
                        "1\t1.0\t0.1\n"
                        "accuracy_avg\t0.75\n"
                        "loss_avg\t0.375\n")


TINY_NET = """\
stem = 8
head = 16
classes = 2
input = 16
stage.0 = fused-mbconv in=8 out=8 e=1 s=1 r=1 safm
"""


def tiny_train_config(tmp_path, dataset, **overrides):
    net_path = os.path.join(str(tmp_path), "tiny.cfg")
    with open(net_path, "w", encoding="utf-8") as fh:
        fh.write(TINY_NET)
    args = dict(network=net_path, dataset=dataset, epochs=3, batch_size=4,
                seed=0, resize_to=16, window=2,
                out_dir=os.path.join(str(tmp_path), "run"))
    args.update(overrides)
    return TrainConfig(**args)


class TestTrainLoop:
    def test_smoke_run_writes_artifacts(self, tmp_path):
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=2, per_class=6, size=16, seed=0)
        cfg = tiny_train_config(tmp_path, data)
        metrics, split = train(cfg)
        assert [r.epoch for r in metrics.records] == [0, 1, 2]
        assert len(metrics.train_records) == 3
        for r in metrics.records + metrics.train_records:
            assert 0.0 <= r.accuracy <= 1.0
            assert np.isfinite(r.loss)
        out = cfg.out_dir
        for f in ("metrics.tsv", "train_metrics.tsv", "best.cev2",
                  "train_manifest.tsv", "test_manifest.tsv"):
            assert os.path.exists(os.path.join(out, f)), f
        with open(os.path.join(out, "metrics.tsv"), "r", encoding="utf-8") as fh:
            text = fh.read()
        assert text == format_metrics(metrics.records, metrics.accuracy_avg,
                                      metrics.loss_avg)
        with open(os.path.join(out, "best.cev2"), "rb") as fh:
            assert fh.read(4) == b"CEV2"
        with open(os.path.join(out, "train_manifest.tsv"), "r", encoding="utf-8") as fh:
            assert fh.read() == "".join(f"{rel}\t{split.classes[idx]}\n"
                                        for rel, idx in split.train)

    def test_smoke_run_with_augmentation(self, tmp_path):
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=2, per_class=5, size=16, seed=1)
        cfg = tiny_train_config(tmp_path, data, augment=True, epochs=2, window=2)
        metrics, _ = train(cfg)
        assert len(metrics.records) == 2

    def test_adam_smoke(self, tmp_path):
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=2, per_class=5, size=16, seed=2)
        cfg = tiny_train_config(tmp_path, data, optimizer="adam", epochs=2, window=2)
        metrics, _ = train(cfg)
        assert len(metrics.records) == 2

    def test_resize_mismatch_rejected(self, tmp_path):
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=2, per_class=5, size=16, seed=3)
        cfg = tiny_train_config(tmp_path, data, resize_to=32)
        with pytest.raises(ValueError, match="does not match network input size"):
            train(cfg)

    def test_class_count_mismatch_rejected(self, tmp_path):
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=3, per_class=5, size=16, seed=4)
        cfg = tiny_train_config(tmp_path, data)
        with pytest.raises(ValueError, match="network expects"):
            train(cfg)

    def test_early_stop_respects_window(self, tmp_path):
        # solid-color classes separate almost immediately; the stop is
        # deferred until `window` records exist
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=2, per_class=6, size=16, seed=5)
        cfg = tiny_train_config(tmp_path, data, epochs=40, window=3,
                                learning_rate=0.05)
        metrics, _ = train(cfg, stop_at_train_acc=0.0)
        assert len(metrics.records) == 3


    def test_non_finite_gradient_names_parameter_epoch_and_batch(self, tmp_path, monkeypatch):
        # a planted backward rule adds NaN into one parameter's gradient from
        # the second batch on; the loss itself stays finite
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=2, per_class=6, size=16, seed=7)
        real_build = train_module.build_network
        planted = {}

        def build(config, seed):
            net, store = real_build(config, seed)
            name = [n for n, _ in store.learnable_items()][3]
            param = store[name]
            real_forward = net.forward
            calls = []

            def forward(x, mode="eval"):
                out = real_forward(x, mode)
                if mode == "train":
                    calls.append(None)
                    if len(calls) == 2:
                        record_op(out, (param,), lambda: param.accumulate_grad(
                            np.full(param.shape, np.nan)))
                return out

            net.forward = forward
            planted["name"] = name
            return net, store

        monkeypatch.setattr(train_module, "build_network", build)
        cfg = tiny_train_config(tmp_path, data)
        with pytest.raises(NonFiniteError) as err:
            train(cfg)
        assert str(err.value) == (f"non-finite gradient for parameter {planted['name']} "
                                  "at epoch 0, batch 1")
        assert isinstance(err.value, ValueError)

    def test_non_finite_loss_names_epoch_and_batch(self, tmp_path, monkeypatch):
        # the second train batch's loss is planted as NaN before backward
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=2, per_class=6, size=16, seed=7)
        real_loss = train_module.cross_entropy_loss
        calls = []

        def loss(logits, labels):
            out = real_loss(logits, labels)
            calls.append(None)
            if len(calls) == 2:
                out.data[...] = np.nan
            return out

        monkeypatch.setattr(train_module, "cross_entropy_loss", loss)
        with pytest.raises(NonFiniteError) as err:
            train(tiny_train_config(tmp_path, data))
        assert str(err.value) == "non-finite loss nan at epoch 0, batch 1"
        assert isinstance(err.value, ValueError)

    def test_finite_check_names_first_parameter_in_store_order(self):
        store = ParamStore()
        for name in ("a", "b", "c", "d"):
            store.register(name, Tensor(np.zeros((1, 2, 1, 1))))
        store.register("stat", Tensor(np.zeros((1, 2, 1, 1))), learnable=False)
        store["stat"].grad = np.full((1, 2, 1, 1), np.nan)
        check_finite_grads(store, 0, 0)          # no grads, non-learnable NaN ignored
        store["b"].grad = np.zeros((1, 2, 1, 1))
        store["c"].grad = np.array([0.0, -np.inf]).reshape(1, 2, 1, 1)
        store["d"].grad = np.array([np.nan, 0.0]).reshape(1, 2, 1, 1)
        with pytest.raises(NonFiniteError, match=r"parameter c at epoch 3, batch 9$"):
            check_finite_grads(store, 3, 9)
        store["c"].grad = np.array([np.inf, 0.0]).reshape(1, 2, 1, 1)
        store["b"].grad = np.array([1.0, np.nan]).reshape(1, 2, 1, 1)
        with pytest.raises(NonFiniteError, match=r"parameter b at"):
            check_finite_grads(store, 0, 0)


class TestEvaluateAndLoading:
    def test_load_input_shape_and_range(self, tmp_path):
        data = os.path.join(str(tmp_path), "data")
        make_solid_dataset(data, n_classes=1, per_class=1, size=20, seed=6)
        rel = os.path.join(data, "class00", "img000.ppm")
        arr = load_input(rel, 16)
        assert arr.shape == (3, 16, 16)
        assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_batch_tensor_stacks(self):
        arrs = [np.zeros((3, 4, 4)), np.ones((3, 4, 4))]
        t = batch_tensor(arrs)
        assert t.shape == (2, 3, 4, 4)

    def test_evaluate_empty_entries(self):
        assert evaluate(None, ".", [], 16, 4) == (0.0, 0.0)
