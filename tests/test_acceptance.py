"""Acceptance gate: one test per top-level criterion, each emitting a single
pass/FAIL line on the live terminal (bypassing capture) plus the usual pytest
verdict. Tolerances are asserted exactly as stated in the criteria."""

import math
import os
import time

import numpy as np
import pytest
from scipy.stats import binom

import cev2.safm as safm_mod
from cev2 import (AugmentConfig, CEParams, EpochRecord, ParamStore, SAFMParams,
                  SEParams, Tensor, TrainConfig, build_network, ce_forward, dp_safm_forward,
                  init_weights, load_checkpoint, load_into, nano_config, save_checkpoint,
                  train, window_average)
from cev2.augment import expand_dataset, sample_augment, add_gaussian_noise, add_salt_pepper
from cev2.gradcheck import run_gradcheck
from cev2.tensor import ConvSpec, channel_vector, conv2d
from helpers import ce_weights, make_solid_dataset, safm_weights, solid_gray
from oracles import attention_param_count, ce_ref, conv2d_loops, safm_param_count, safm_ref


def _criterion(capsys, name, body):
    """Run one acceptance criterion, always printing its pass/FAIL line."""
    try:
        details = body() or ""
        ok = True
    except AssertionError as exc:
        details = str(exc).splitlines()[0] if str(exc) else "assertion failed"
        ok = False
    with capsys.disabled():
        status = "pass" if ok else "FAIL"
        line = f"[{status}] acceptance {name}"
        if details:
            line += f": {details}"
        print("\n" + line)
    if not ok:
        pytest.fail(f"{name}: {details}")


def test_criterion_gradient_oracle(capsys):
    def body():
        t0 = time.time()
        results = run_gradcheck("all")
        elapsed = time.time() - t0
        failed = [r.name for r in results if not r.passed]
        assert not failed, f"failed checks: {failed}"
        assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"
        worst = max(r.max_err for r in results)
        return (f"{len(results)}/{len(results)} checks under tolerance, "
                f"max rel err {worst:.2e}, {elapsed:.1f}s")

    _criterion(capsys, "gradient oracle", body)


def test_criterion_conv_brute_force(capsys):
    def body():
        rng = np.random.default_rng(2024)
        worst = 0.0
        for case in range(100):
            N = int(rng.integers(1, 5))
            C = int(rng.integers(1, 5))
            H = int(rng.integers(1, 9))
            W = int(rng.integers(1, 9))
            groups = 1 if rng.random() < 0.5 else C
            O = groups * int(rng.integers(1, 4))
            padding = int(rng.integers(0, 2))
            KH = int(rng.integers(1, min(3, H + 2 * padding) + 1))
            KW = int(rng.integers(1, min(3, W + 2 * padding) + 1))
            stride = int(rng.integers(1, 3))
            x = rng.normal(size=(N, C, H, W))
            w = rng.normal(size=(O, C // groups, KH, KW))
            b = rng.normal(size=O)
            spec = ConvSpec(C, O, KH, KW, stride=stride, padding=padding,
                            groups=groups)
            got = conv2d(Tensor(x), Tensor(w.copy()), channel_vector(b), spec).data
            want = conv2d_loops(x, w, b, stride, padding, groups)
            err = float(np.abs(got - want).max())
            worst = max(worst, err)
            assert err <= 1e-12, f"case {case}: {err:.2e} > 1e-12"
        return f"100/100 cases within 1e-12 of the loop oracle (max {worst:.2e})"

    _criterion(capsys, "convolution brute force", body)


def test_criterion_ce_transcription(capsys):
    def body():
        worst = 0.0
        for seed in range(20):
            store = ParamStore()
            params = CEParams(store, "blk", 8)
            init_weights(store, np.random.default_rng(5000 + seed))
            x = np.random.default_rng(6000 + seed).normal(size=(2, 8, 6, 6))
            got = ce_forward(Tensor(x.copy()), params).data
            want = ce_ref(x, ce_weights(params))
            err = float(np.abs(got - want).max())
            worst = max(worst, err)
            assert err <= 1e-12, f"seed {seed}: {err:.2e} > 1e-12"

        store = ParamStore()
        params = CEParams(store, "blk", 8)
        for w, b, _ in (*params.mlp, *params.post):
            w.data[...] = 0.0
            b.data[...] = 0.0
        x = np.random.default_rng(1).normal(size=(2, 8, 5, 5))
        out = ce_forward(Tensor(x), params).data
        assert (out == 0.5 * x).all(), "zero-weight gate is not exactly 0.5x"
        return f"20 seeds within 1e-12 (max {worst:.2e}); zero-weight gate exactly 0.5x"

    _criterion(capsys, "CE transcription", body)


def test_criterion_safm_transcription(capsys):
    def body():
        worst = 0.0
        for mode in ("depthwise-separable", "standard"):
            for seed in range(10):
                store = ParamStore()
                params = SAFMParams(store, "s0", 8, mode=mode)
                init_weights(store, np.random.default_rng(7000 + seed))
                x = np.random.default_rng(8000 + seed).normal(size=(1, 8, 12, 12))
                w, fw, fb = safm_weights(params)
                got = dp_safm_forward(Tensor(x.copy()), params).data
                want = safm_ref(x, w, fw, fb, mode)
                err = float(np.abs(got - want).max())
                worst = max(worst, err)
                assert err <= 1e-12, f"{mode} seed {seed}: {err:.2e} > 1e-12"

        # branch spatial dims: ceil(H / 2^(i-1)) after pooling; the upsampled
        # branches restore (H, W), which the transcription pins
        store = ParamStore()
        params = SAFMParams(store, "s0", 8)
        init_weights(store, np.random.default_rng(3))
        w, fw, fb = safm_weights(params)
        orig_pool = safm_mod._window_max
        for H in (8, 12, 16):
            for W in (8, 12, 16):
                pooled = []

                def spy_pool(xd, k):
                    out = orig_pool(xd, k)
                    pooled.append(out.shape[2:])
                    return out

                safm_mod._window_max = spy_pool
                try:
                    x = np.random.default_rng(4).normal(size=(1, 8, H, W))
                    out = dp_safm_forward(Tensor(x.copy()), params)
                finally:
                    safm_mod._window_max = orig_pool
                want_pre = [(math.ceil(H / 2 ** i), math.ceil(W / 2 ** i))
                            for i in (1, 2, 3)]
                assert pooled == want_pre, f"H={H} W={W}: pooled {pooled}"
                err = float(np.abs(out.data - safm_ref(x, w, fw, fb, params.mode)).max())
                assert err <= 1e-12, f"H={H} W={W}: {err:.2e} > 1e-12"
                assert out.shape == (1, 8, H, W)
        return (f"both modes within 1e-12 (max {worst:.2e}); branch dims match "
                f"ceil(H/2^(i-1)) pre- and (H,W) post-upsample for H,W in 8/12/16")

    _criterion(capsys, "DP-SAFM transcription", body)


def test_criterion_parameter_accounting(capsys):
    def body():
        lines = []
        for channels in (4, 8, 16, 32, 64):
            for mode in ("depthwise-separable", "standard"):
                store = ParamStore()
                SAFMParams(store, "s", channels, mode=mode)
                stored = store.count_learnable()
                closed = safm_param_count(channels, mode)
                assert stored == closed, f"safm {mode} C={channels}: {stored} != {closed}"
            store = ParamStore()
            CEParams(store, "b", channels)
            assert store.count_learnable() == attention_param_count(
                "ce", channels), f"ce C={channels}"
            store = ParamStore()
            SEParams(store, "b", channels, r=4)
            assert store.count_learnable() == attention_param_count(
                "se", channels, r=4), f"se C={channels}"

            dp = safm_param_count(channels, "depthwise-separable")
            std = safm_param_count(channels, "standard")
            lines.append(f"  C={channels}: dp-safm {dp} vs standard {std} "
                         f"({100.0 * (1.0 - dp / std):+.1f}% reduction)")

        dp64 = safm_param_count(64, "depthwise-separable")
        std64 = safm_param_count(64, "standard")
        assert (dp64, std64) == (5888, 13440), f"C=64 counts {dp64}/{std64}"
        reduction = 1.0 - dp64 / std64
        assert reduction >= 0.30, f"reduction {reduction:.3f} < 0.30"
        with capsys.disabled():
            print("\nSAFM parameter reduction by channel count:")
            for line in lines:
                print(line)
        return (f"stored-scalar enumeration matches closed forms for C in "
                f"{{4,8,16,32,64}}; C=64 gives {dp64} vs {std64} "
                f"({100 * reduction:.1f}% reduction, >= 30%)")

    _criterion(capsys, "parameter accounting", body)


def test_criterion_windowed_metric(capsys):
    def body():
        series = [EpochRecord(e, 0.90 + 0.01 * k, float(k))
                  for e, k in enumerate(range(10))]
        acc, _ = window_average(series, 10)
        assert acc == 0.945, f"fixture mean {acc!r} != 0.945"

        full = [EpochRecord(e, 0.11, 9.9) for e in range(40)]
        full += [EpochRecord(40 + k, 0.90 + 0.01 * k, 1.5) for k in range(10)]
        acc, loss = window_average(full, 10)
        assert acc == 0.945 and loss == 1.5, \
            f"window contaminated by records before epoch 40: {acc!r}, {loss!r}"
        return "50-record series averages records 40..49 only; fixture gives 0.945 exactly"

    _criterion(capsys, "windowed metric", body)


def test_criterion_augmentation_statistics(capsys, tmp_path):
    def body():
        cfg = AugmentConfig()
        rng = np.random.default_rng(11)
        max_angle = max_scale = max_dx = max_dy = -1e9
        min_angle, min_scale = 1e9, 1e9
        for _ in range(10_000):
            op, params = sample_augment(rng, cfg, 64, 64)
            if op in ("rotate", "scale-rotate"):
                assert -90.0 <= params["angle"] <= 90.0, "angle bound exceeded"
                max_angle = max(max_angle, params["angle"])
                min_angle = min(min_angle, params["angle"])
            if op == "scale-rotate":
                assert 0.8 <= params["scale"] <= 1.25, "scale bound exceeded"
                max_scale = max(max_scale, params["scale"])
                min_scale = min(min_scale, params["scale"])
            if op == "translate":
                assert abs(params["dx"]) <= 6 and abs(params["dy"]) <= 6, \
                    "shift bound floor(0.1*64)=6 exceeded"
                max_dx = max(max_dx, abs(params["dx"]))
                max_dy = max(max_dy, abs(params["dy"]))
        assert max_dx == 6 and max_dy == 6, "integer shift bound not attained"
        assert max_angle > 89.0 and min_angle < -89.0, "angle bounds not approached"
        assert max_scale > 1.245 and min_scale < 0.805, "scale bounds not approached"

        gray = solid_gray(128, 128)
        noisy = add_gaussian_noise(gray, 0.02, seed=202)
        std = ((noisy.pixels.astype(np.float64) - 128.0) / 255.0).std()
        assert 0.016 <= std <= 0.024, f"gaussian std {std:.4f} outside [0.016, 0.024]"

        sp = add_salt_pepper(gray, 0.02, seed=303)
        hits = int(((sp.pixels == 0).all(axis=2) | (sp.pixels == 255).all(axis=2)).sum())
        n = 128 * 128
        lo = int(binom.ppf(0.00005, n, 0.02))
        hi = int(binom.ppf(0.99995, n, 0.02))
        assert lo <= hits <= hi, f"salt-pepper hits {hits} outside [{lo}, {hi}]"

        root = str(tmp_path / "forty")
        make_solid_dataset(root, n_classes=40, per_class=2, size=24, seed=12)
        aug_cfg = AugmentConfig(per_class_new=100, seed=7)
        manifest, lines = expand_dataset(root, aug_cfg)
        written = [l for l in lines if not l.startswith("#")]
        n_files = sum(
            1 for cls in os.listdir(root)
            if os.path.isdir(os.path.join(root, cls))
            for f in os.listdir(os.path.join(root, cls)) if f.startswith("aug_"))
        assert len(written) == 4000 and n_files == 4000, \
            f"expected exactly 4000 files, wrote {n_files} ({len(written)} manifest lines)"

        blobs = {}
        for cls in sorted(os.listdir(root)):
            cdir = os.path.join(root, cls)
            if not os.path.isdir(cdir):
                continue
            for f in os.listdir(cdir):
                if f.startswith("aug_"):
                    with open(os.path.join(cdir, f), "rb") as fh:
                        blobs[f"{cls}/{f}"] = fh.read()
        with open(manifest, "rb") as fh:
            manifest_blob = fh.read()
        expand_dataset(root, aug_cfg)
        for rel, blob in blobs.items():
            with open(os.path.join(root, rel), "rb") as fh:
                assert fh.read() == blob, f"rerun changed {rel}"
        with open(manifest, "rb") as fh:
            assert fh.read() == manifest_blob, "rerun changed the manifest"
        return (f"bounds held over 10^4 draws (|dx|,|dy| attain 6); gaussian std "
                f"{std:.4f}; salt-pepper {hits}/{n} in binomial 99.99% band "
                f"[{lo},{hi}]; 40-class expansion wrote exactly 4000 files, "
                f"rerun byte-identical")

    _criterion(capsys, "augmentation statistics", body)


def test_criterion_overfit_smoke(capsys, tmp_path):
    def body():
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=4, per_class=10, size=64, seed=5)
        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = TrainConfig(network=os.path.join(here, "configs", "nano.cfg"),
                          dataset=data, epochs=200, batch_size=16, seed=0,
                          resize_to=64, window=10,
                          out_dir=str(tmp_path / "run"))
        t0 = time.time()
        metrics, _ = train(cfg, stop_at_train_acc=1.0)
        elapsed = time.time() - t0
        final = metrics.train_records[-1].accuracy
        assert final == 1.0, f"train accuracy peaked at {final}"
        assert len(metrics.records) <= 200, "needed more than 200 epochs"
        assert elapsed < 600.0, f"took {elapsed:.0f}s (budget 600s)"

        ablated = str(tmp_path / "ablated.cfg")
        with open(ablated, "w", encoding="utf-8") as fh:
            fh.write("stem = 16\nhead = 128\nclasses = 4\ninput = 64\n"
                     "stage.0 = fused-mbconv out=16 e=1 s=1 r=1\n"
                     "stage.1 = fused-mbconv out=32 e=4 s=2 r=2\n"
                     "stage.2 = mbconv out=64 e=4 s=2 r=2 attn=none\n")
        cfg2 = TrainConfig(network=ablated, dataset=data, epochs=200,
                           batch_size=16, seed=0, resize_to=64, window=10,
                           out_dir=str(tmp_path / "run_ablated"))
        t1 = time.time()
        metrics2, _ = train(cfg2, stop_at_train_acc=1.0)
        elapsed2 = time.time() - t1
        assert len(metrics2.records) >= cfg2.window, "ablated run did not complete"
        assert os.path.exists(os.path.join(cfg2.out_dir, "best.cev2"))
        return (f"nano hit train accuracy 1.0 in {len(metrics.records)} epochs "
                f"({elapsed:.0f}s); ablated attn=none/no-safm run completed in "
                f"{len(metrics2.records)} epochs ({elapsed2:.0f}s)")

    _criterion(capsys, "overfit smoke", body)


def test_criterion_determinism(capsys, tmp_path):
    def body():
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=6, size=16, seed=8)
        net = str(tmp_path / "tiny.cfg")
        with open(net, "w", encoding="utf-8") as fh:
            fh.write("stem = 8\nhead = 16\nclasses = 2\ninput = 16\n"
                     "stage.0 = fused-mbconv out=8 e=1 s=1 r=1 safm\n")

        outputs = []
        for run_dir in ("run_a", "run_b"):
            cfg = TrainConfig(network=net, dataset=data, epochs=4, batch_size=4,
                              seed=3, resize_to=16, window=2, augment=True,
                              out_dir=str(tmp_path / run_dir))
            train(cfg)
            files = {}
            for name in ("metrics.tsv", "train_metrics.tsv", "best.cev2"):
                with open(os.path.join(cfg.out_dir, name), "rb") as fh:
                    files[name] = fh.read()
            outputs.append(files)
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], \
                f"{name} differs between identical runs"

        p1 = str(tmp_path / "a.cev2")
        p2 = str(tmp_path / "b.cev2")
        _, store = build_network(nano_config(), seed=21)
        save_checkpoint(p1, store)
        fresh, fresh_store = build_network(nano_config(), seed=99)
        load_into(p1, fresh_store)
        save_checkpoint(p2, fresh_store)
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            b1, b2 = f1.read(), f2.read()
        assert b1 == b2, "save -> load -> save is not byte-exact"
        loaded = load_checkpoint(p1)
        assert len(loaded) == len(store)
        return (f"two augmented train runs byte-identical (metrics + checkpoint); "
                f"save->load->save byte-exact over {len(loaded)} entries")

    _criterion(capsys, "determinism", body)
