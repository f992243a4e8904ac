"""Command-line interface: subcommand flows and exit codes."""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

import cev2.backbone
import cev2.cli
import cev2.params
from cev2 import (build_network, nano_config, parse_network_config,
                  save_checkpoint)
from cev2.cli import main
from cev2.ppm import Raster, write_ppm
from helpers import file_tree, make_solid_dataset

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NANO_CFG = os.path.join(HERE, "configs", "nano.cfg")

TINY_NET = """\
stem = 8
head = 16
classes = 2
input = 16
stage.0 = fused-mbconv out=8 e=1 s=1 r=1 safm
"""


def write_tiny_net(tmp_path):
    path = str(tmp_path / "tiny.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TINY_NET)
    return path


class TestParams:
    def test_total_matches_store(self, capsys):
        assert main(["params", NANO_CFG]) == 0
        out = capsys.readouterr().out
        _, store = build_network(nano_config(), seed=0)
        totals = [l for l in out.splitlines() if l.split()[0] == "total"]
        assert len(totals) == 1
        assert int(totals[0].split()[-1]) == store.count_learnable() == 363_892

    def test_reports_safm_and_attention_tradeoffs(self, capsys):
        main(["params", NANO_CFG])
        out = capsys.readouterr().out
        assert "s0.safm C=16: depthwise-separable 512" in out
        assert "s1.safm C=32: depthwise-separable 1664" in out
        assert "s2.r0 attention C=128: ce 49536" in out
        assert "s2.r1 attention C=256: ce 197376" in out

    def test_per_block_lines_sum_to_total(self, capsys):
        main(["params", NANO_CFG])
        out = capsys.readouterr().out
        block_sum = 0
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1].isdigit() and parts[0] != "total":
                block_sum += int(parts[1])
        assert block_sum == 363_892

    def test_full_output_is_golden(self, capsys):
        assert main(["params", NANO_CFG]) == 0
        assert capsys.readouterr().out == (
            "stem        464\n"
            "s0.r0       2336\n"
            "s0.safm     512\n"
            "s1.r0       11456\n"
            "s1.r1       41280\n"
            "s1.safm     1664\n"
            "s2.r0       63616\n"
            "s2.r1       233600\n"
            "head        8448\n"
            "classifier  516\n"
            "total       363892\n"
            "s0.safm C=16: depthwise-separable 512 vs standard 864 (40.7% reduction)\n"
            "s1.safm C=32: depthwise-separable 1664 vs standard 3392 (50.9% reduction)\n"
            "s2.r0 attention C=128: ce 49536 vs se 8352 (delta +41184)\n"
            "s2.r1 attention C=256: ce 197376 vs se 33088 (delta +164288)\n")

    def test_se_ratio_that_divides_no_attention_width(self, tmp_path, capsys):
        # a CE network is valid whatever se.ratio is; only its SE comparison
        # is not defined, in SEParams' own words
        path = str(tmp_path / "se3.cfg")
        with open(NANO_CFG, encoding="utf-8") as fh, open(path, "w", encoding="utf-8") as out:
            out.write(fh.read() + "se.ratio = 3\n")
        assert main(["params", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[-2:] == [
            "s2.r0 attention C=128: ce 49536 vs se not defined "
            "(SEParams: reduction ratio 3 does not divide channels 128)",
            "s2.r1 attention C=256: ce 197376 vs se not defined "
            "(SEParams: reduction ratio 3 does not divide channels 256)"]

    def test_missing_config_is_error_exit(self, capsys):
        assert main(["params", "no-such-file.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_se_ratio_is_error_exit(self, tmp_path, capsys):
        path = str(tmp_path / "se.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TINY_NET + "se.ratio = 0\n"
                     "stage.1 = mbconv out=8 e=2 s=1 r=1 attn=se\n")
        assert main(["params", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "se_ratio must be >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,message", [
        (TINY_NET + "stage.1 = mbconv in=8 out=8\n", "stage.1: unknown stage field ['in']"),
        ("stem = 24\nse.ratio = 6\nstage.0 = mbconv out=40 e=4 s=1 r=2 attn=se\n",
         "stage 0: se ratio 6 does not divide expanded width 160"),
        (TINY_NET.replace("e=1", "e=0"), "stage 0: expansion must be >= 1, got 0"),
        (TINY_NET.replace("out=8", "out=0"), "stage 0: out_channels must be >= 1, got 0"),
        (TINY_NET.replace("out=8", "out=-4"), "stage 0: out_channels must be >= 1, got -4")],
        ids=["in-key", "se-on-second-repeat", "zero-expansion", "zero-out", "negative-out"])
    def test_network_error_names_the_file(self, tmp_path, capsys, text, message):
        path = str(tmp_path / "net.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["params", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("line", ["ce.shared_mlp = false", "safm.conv_x1 = false"])
    def test_removed_variant_key_is_error_exit(self, tmp_path, capsys, line):
        path = str(tmp_path / "variant.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TINY_NET + line + "\n")
        assert main(["params", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: unknown network keys "
                                f"['{line.split()[0]}']\n")


class TestGradcheckCommand:
    def test_ce_module_passes(self, capsys):
        assert main(["gradcheck", "--module", "ce"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "[FAIL]" not in out
        assert "max relative error" in out

    def test_a_nan_error_fails_and_is_the_summary(self, capsys, monkeypatch):
        # the first check's forward returns NaN at every call, so each
        # central difference is NaN while the analytic gradient is finite
        gradcheck_module = importlib.import_module("cev2.gradcheck")
        real_check = gradcheck_module.finite_diff_check
        calls = []

        def check(f, x, **kw):
            calls.append(None)
            if len(calls) > 1:
                return real_check(f, x, **kw)

            def nan_forward(v):
                out = f(v)
                out.data[...] = np.nan
                return out
            return real_check(nan_forward, x, **kw)

        monkeypatch.setattr(gradcheck_module, "finite_diff_check", check)
        assert main(["gradcheck", "--module", "ce"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("[FAIL]") and "max rel err nan" in lines[0]
        assert not any(ln.startswith("[FAIL]") for ln in lines[1:-1])
        n = len(lines) - 1
        assert lines[-1] == f"max relative error: nan; {n - 1}/{n} passed"

    def test_unknown_module_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--module", "optimizer"])
        assert exc.value.code == 2


class TestSplitCommand:
    def test_writes_manifests(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=10, size=8, seed=0)
        out_dir = str(tmp_path / "out")
        assert main(["split", data, "--frac", "0.8", "--seed", "3",
                     "--out", out_dir]) == 0
        printed = capsys.readouterr().out
        assert "train: 16 files" in printed
        assert "test: 4 files" in printed
        assert os.path.exists(os.path.join(out_dir, "train_manifest.tsv"))
        assert os.path.exists(os.path.join(out_dir, "test_manifest.tsv"))

    def test_default_out_is_dataset_root(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=5, size=8, seed=1)
        assert main(["split", data]) == 0
        assert os.path.exists(os.path.join(data, "train_manifest.tsv"))

    def test_single_sample_warning_on_stderr(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=1, per_class=1, size=8, seed=2)
        assert main(["split", data]) == 0
        assert "warning:" in capsys.readouterr().err

    def test_negative_seed_fails_by_name_and_writes_nothing(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=5, size=8, seed=1)
        before = file_tree(data)
        out_dir = str(tmp_path / "out")
        assert main(["split", data, "--seed", "-1", "--out", out_dir]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert file_tree(data) == before
        assert not os.path.exists(out_dir)


class TestAugmentCommand:
    def test_expansion_with_seed_override(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=3, size=8, seed=3)
        cfg = str(tmp_path / "aug.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("per_class_new = 4\nseed = 0\n")
        assert main(["augment", data, cfg, "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "wrote 8 files" in out
        files = os.listdir(os.path.join(data, "class00"))
        assert sorted(f for f in files if f.startswith("aug_")) == \
            [f"aug_5_{k}.ppm" for k in range(4)]

    def test_defaults_when_config_omitted(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=1, per_class=2, size=8, seed=4)
        assert main(["augment", data, "--seed", "1"]) == 0
        assert "wrote 100 files" in capsys.readouterr().out

    def test_missing_dataset_is_error_exit(self, tmp_path, capsys):
        assert main(["augment", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_config_value_is_error_exit(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=1, per_class=1, size=8, seed=5)
        cfg = str(tmp_path / "aug.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("per_class_new = 1\ntranslate_frac = inf\n")
        assert main(["augment", data, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "translate_frac" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text, field", [
        ("translate_frac = 1e308", "translate_frac"),
        ("rotation_min = -1e308\nrotation_max = 1e308", "rotation_deg"),
        ("translate_frac = 1e20", "translate_frac")])
    def test_range_whose_draws_overflow_is_error_exit(self, tmp_path, capsys, text, field):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=1, per_class=1, size=8, seed=5)
        cfg = str(tmp_path / "aug.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"per_class_new = 12\n{text}\n")
        assert main(["augment", data, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {field} ") and "Traceback" not in err
        assert not [n for n in os.listdir(os.path.join(data, "class00")) if n.startswith("aug_")]

    def test_op_error_names_the_source_and_the_op(self, tmp_path, capsys):
        # the op raises mid-run: the images written before it stay, and no
        # manifest is written
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=1, per_class=1, size=8, seed=5)
        cfg = str(tmp_path / "aug.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("per_class_new = 12\nscale_min = 1e-320\nscale_max = 1e-320\n")
        assert main(["augment", data, cfg, "--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: class00/img000.ppm: scale-rotate: "
                       "scale 1e-320 too small for a 8x8 image\n")
        written = [n for n in os.listdir(os.path.join(data, "class00")) if n.startswith("aug_")]
        assert 0 < len(written) < 12
        assert not os.path.exists(os.path.join(data, "augment_manifest.tsv"))

    def test_negative_seed_override_is_error_exit(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=1, per_class=1, size=8, seed=5)
        assert main(["augment", data, "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err


class TestTrainEvalCommands:
    def test_train_then_eval_round_trip(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=6, size=16, seed=5)
        net_cfg = write_tiny_net(tmp_path)
        out_dir = str(tmp_path / "run")
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {net_cfg}\ndataset = {data}\n"
                     f"epochs = 2\nwindow = 2\nbatch_size = 4\n"
                     f"resize = 16\nout = {out_dir}\n")
        assert main(["train", train_cfg]) == 0
        out = capsys.readouterr().out
        assert "epochs run: 2" in out
        assert "accuracy_avg:" in out
        ckpt = os.path.join(out_dir, "best.cev2")
        assert os.path.exists(ckpt)

        assert main(["eval", ckpt, data, "--network", net_cfg, "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "images: 12" in out
        assert "accuracy:" in out and "loss:" in out

    def test_train_warns_on_stderr_for_a_class_wholly_in_train(self, tmp_path, capsys):
        # as `cev2 split` does; class00 keeps 1 of its images, all in train
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=5, size=16, seed=8)
        for k in range(1, 5):
            os.remove(os.path.join(data, "class00", f"img{k:03d}.ppm"))
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {write_tiny_net(tmp_path)}\ndataset = {data}\n"
                     f"epochs = 1\nwindow = 1\nresize = 16\nout = {tmp_path / 'run'}\n")
        assert main(["train", train_cfg]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: class class00: all 1 samples in train, test empty\n"
        assert "warning" not in captured.out

    def test_train_with_an_empty_test_split_exits_one_writing_nothing(self, tmp_path, capsys):
        # 4 classes x 1 image: split = 0.8 sends each image to train
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=4, per_class=1, size=16, seed=9)
        net_cfg = str(tmp_path / "net.cfg")
        with open(net_cfg, "w", encoding="utf-8") as fh:
            fh.write(TINY_NET.replace("classes = 2", "classes = 4"))
        out_dir = tmp_path / "run"
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {net_cfg}\ndataset = {data}\nepochs = 1\nwindow = 1\n"
                     f"resize = 16\nout = {out_dir}\n")
        assert main(["train", train_cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {data}: split = 0.8 sends every image to train, "
                                f"so there is no test split to evaluate or pick best.cev2 by\n")
        assert not (out_dir / "metrics.tsv").exists()
        assert not out_dir.exists()

    def test_eval_class_mismatch_exits_one(self, tmp_path, capsys):
        data2 = str(tmp_path / "data2")
        make_solid_dataset(data2, n_classes=3, per_class=2, size=16, seed=6)
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=4, size=16, seed=7)
        net_cfg = write_tiny_net(tmp_path)
        out_dir = str(tmp_path / "run")
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {net_cfg}\ndataset = {data}\nsplit = 0.5\n"
                     f"epochs = 1\nwindow = 1\nresize = 16\nout = {out_dir}\n")
        assert main(["train", train_cfg]) == 0
        capsys.readouterr()
        ckpt = os.path.join(out_dir, "best.cev2")
        assert main(["eval", ckpt, data2, "--network", net_cfg]) == 1
        assert "expects" in capsys.readouterr().err

    def test_eval_truncated_checkpoint_exits_one(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=2, size=16, seed=9)
        net_cfg = write_tiny_net(tmp_path)
        _, store = build_network(parse_network_config(net_cfg), seed=0)
        ckpt = str(tmp_path / "cut.cev2")
        save_checkpoint(ckpt, store)
        with open(ckpt, "rb") as fh:
            blob = fh.read()
        for n in (10, len(blob) // 2, len(blob) - 1):
            with open(ckpt, "wb") as fh:
                fh.write(blob[:n])
            assert main(["eval", ckpt, data, "--network", net_cfg]) == 1
            assert "truncated checkpoint" in capsys.readouterr().err

    def test_eval_dataset_without_images_exits_one_naming_it(self, tmp_path, capsys):
        data = tmp_path / "empty"
        for cls in ("a", "b"):
            (data / cls).mkdir(parents=True)
        net_cfg = write_tiny_net(tmp_path)
        _, store = build_network(parse_network_config(net_cfg), seed=0)
        ckpt = str(tmp_path / "net.cev2")
        save_checkpoint(ckpt, store)
        assert main(["eval", ckpt, str(data), "--network", net_cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {data}: no images in any class directory\n"

    def test_eval_four_byte_checkpoint_exits_one_naming_the_file(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=2, size=16, seed=9)
        ckpt = str(tmp_path / "cut.cev2")
        with open(ckpt, "wb") as fh:
            fh.write(b"CEV2")
        assert main(["eval", ckpt, data, "--network", write_tiny_net(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {ckpt}: truncated checkpoint: header at offset 0 needs 12 bytes, 4 left\n")

    def test_eval_bad_image_header_exits_one_naming_the_file(self, tmp_path, capsys):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=2, size=16, seed=9)
        broken = os.path.join(data, "class01", "img001.ppm")
        with open(broken, "wb") as fh:
            fh.write(b"P6\n4")
        net_cfg = write_tiny_net(tmp_path)
        _, store = build_network(parse_network_config(net_cfg), seed=0)
        ckpt = str(tmp_path / "tiny.cev2")
        save_checkpoint(ckpt, store)
        assert main(["eval", ckpt, data, "--network", net_cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {broken}: truncated netpbm header\n"

    @pytest.mark.parametrize("batch", ["0", "-1"])
    def test_eval_batch_below_one_exits_one(self, tmp_path, capsys, batch):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=6, size=16, seed=9)
        net_cfg = write_tiny_net(tmp_path)
        _, store = build_network(parse_network_config(net_cfg), seed=0)
        ckpt = str(tmp_path / "tiny.cev2")
        save_checkpoint(ckpt, store)
        assert main(["eval", ckpt, data, "--network", net_cfg, "--batch", batch]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: batch_size must be >= 1, got {batch}\n"

    def test_eval_and_params_draw_no_weights(self, tmp_path, capsys, monkeypatch):
        # both commands build the network only to count or overwrite its
        # weights, so making the draw fail must not change their output
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=3, size=16, seed=4)
        net_cfg = write_tiny_net(tmp_path)
        _, store = build_network(parse_network_config(net_cfg), seed=3)
        ckpt = str(tmp_path / "tiny.cev2")
        save_checkpoint(ckpt, store)
        commands = (["eval", ckpt, data, "--network", net_cfg], ["params", NANO_CFG])
        want = []
        for argv in commands:
            assert main(argv) == 0
            want.append(capsys.readouterr().out)

        def refuse(store, rng):
            raise AssertionError("init_weights called")

        monkeypatch.setattr(cev2.backbone, "init_weights", refuse)
        monkeypatch.setattr(cev2.params, "init_weights", refuse)
        for argv, out in zip(commands, want):
            assert main(argv) == 0
            assert capsys.readouterr().out == out

    def test_train_missing_config_exits_one(self, capsys):
        assert main(["train", "missing.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("beta1", "1", "beta1 must be in [0,1), got 1.0"),
        ("beta2", "1", "beta2 must be in [0,1), got 1.0"),
        ("adam_eps", "0", "adam_eps must be > 0, got 0.0")])
    def test_train_bad_adam_hyperparameter_exits_one(self, tmp_path, capsys, key, value,
                                                     message):
        # the config is refused before any data is read or any step runs,
        # not later as a non-finite loss
        out_dir = tmp_path / "run"
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {write_tiny_net(tmp_path)}\ndataset = {tmp_path / 'data'}\n"
                     f"optimizer = adam\n{key} = {value}\nout = {out_dir}\n")
        assert main(["train", train_cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {train_cfg}: {message}\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("key,value,message", [
        ("momentum", "1.5", "momentum must be in [0,1), got 1.5"),
        ("lr", "-0.05", "learning_rate must be > 0, got -0.05 (key lr)"),
        ("lr", "0", "learning_rate must be > 0, got 0.0 (key lr)")])
    def test_train_bad_sgd_hyperparameter_exits_one(self, tmp_path, capsys, key, value,
                                                    message):
        out_dir = tmp_path / "run"
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {write_tiny_net(tmp_path)}\ndataset = {tmp_path / 'data'}\n"
                     f"optimizer = sgd-momentum\n{key} = {value}\nout = {out_dir}\n")
        assert main(["train", train_cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {train_cfg}: {message}\n"
        assert not out_dir.exists()

    def test_train_network_range_error_names_the_network_file(self, tmp_path, capsys):
        net_cfg = str(tmp_path / "net.cfg")
        with open(net_cfg, "w", encoding="utf-8") as fh:
            fh.write(TINY_NET.replace("e=1", "e=0"))
        out_dir = tmp_path / "run"
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {net_cfg}\ndataset = {tmp_path / 'data'}\nout = {out_dir}\n")
        assert main(["train", train_cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {net_cfg}: stage 0: expansion must be >= 1, got 0\n"
        assert not out_dir.exists()


class TestNamesThatAreNotUtf8:
    @pytest.mark.parametrize("command", ["split", "train", "augment", "eval"])
    def test_command_exits_one_naming_the_directory_and_writes_nothing(
            self, tmp_path, capsys, command):
        # class00 and class01 sort before the byte 0xff
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=4, size=16, seed=3)
        bad = os.path.join(data, os.fsdecode(b"\xff"))
        os.makedirs(bad)
        write_ppm(os.path.join(bad, "img000.ppm"), Raster(np.zeros((16, 16, 3), np.uint8)))
        net_cfg = write_tiny_net(tmp_path)
        out_dir = str(tmp_path / "out")
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {net_cfg}\ndataset = {data}\nepochs = 1\nwindow = 1\n"
                     f"resize = 16\nout = {out_dir}\n")
        ckpt = str(tmp_path / "net.cev2")
        save_checkpoint(ckpt, build_network(parse_network_config(net_cfg), seed=0)[1])
        argv = {"split": ["split", data, "--out", out_dir],
                "train": ["train", train_cfg],
                "augment": ["augment", data],
                "eval": ["eval", ckpt, data, "--network", net_cfg]}[command]
        before = file_tree(str(tmp_path))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {data}: name b'\\xff' is not valid UTF-8\n"
        assert file_tree(str(tmp_path)) == before


class TestConfigsThatAreNotUtf8:
    @pytest.mark.parametrize("grammar", ["train", "network", "augment"])
    def test_command_exits_one_naming_the_file_line_and_byte(self, tmp_path, capsys, grammar):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=1, per_class=1, size=8, seed=4)
        cfg = str(tmp_path / f"{grammar}.cfg")
        first = {"train": f"dataset = {data}", "network": "stem = 8", "augment": "seed = 1"}
        with open(cfg, "wb") as fh:
            fh.write(first[grammar].encode() + b"\n# caf\xff\n")
        argv = {"train": ["train", cfg], "network": ["params", cfg],
                "augment": ["augment", data, cfg]}[grammar]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:2: not UTF-8: byte 0xff\n"


class TestNamesThatBreakAManifestLine:
    @pytest.mark.parametrize("name", ["n\nl.ppm", "n\tl.ppm", "n\rl.ppm"])
    def test_split_exits_one_naming_the_file_and_writes_no_manifest(
            self, tmp_path, capsys, name):
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=4, size=16, seed=3)
        bad_dir = os.path.join(data, "class01")
        write_ppm(os.path.join(bad_dir, name), Raster(np.zeros((16, 16, 3), np.uint8)))
        out_dir = str(tmp_path / "out")
        assert main(["split", data, "--out", out_dir]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad_dir}: name {name!r} holds a TAB, CR or LF\n"
        assert not os.path.exists(out_dir)


class TestBenchReference:
    def test_reference_train_and_eval_match_the_bench_values(self, tmp_path, monkeypatch):
        # the bench's fixed reference case, checked against the values it
        # reads from bench/reference.json, so the two cannot drift apart
        monkeypatch.syspath_prepend(os.path.join(HERE, "bench"))
        from workloads import Workload
        assert Workload(str(tmp_path), 1, cev2.cli).canary() == []


class TestUsageErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["params", NANO_CFG, "--verbose"])
        assert exc.value.code == 2

    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["benchmark"])
        assert exc.value.code == 2


class TestBlasThreadDeterminism:
    def test_train_bytes_same_for_one_and_two_blas_threads(self, tmp_path):
        # the nano net at 64x64 runs conv GEMMs above OpenBLAS's threading
        # cut-off (M*N*K > 2^18), so the two runs really differ in threads
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=4, per_class=2, size=64, seed=10)
        outputs = []
        for threads in ("1", "2"):
            out_dir = str(tmp_path / f"run{threads}")
            cfg = str(tmp_path / f"train{threads}.cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(f"network = {NANO_CFG}\ndataset = {data}\nepochs = 1\n"
                         f"window = 1\nbatch_size = 4\nsplit = 0.5\naugment = true\n"
                         f"out = {out_dir}\n")
            path = [os.path.join(HERE, "src"), os.environ.get("PYTHONPATH", "")]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, path)))
            proc = subprocess.run([sys.executable, "-m", "cev2.cli", "train", cfg], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            files = {}
            for name in ("metrics.tsv", "best.cev2"):
                with open(os.path.join(out_dir, name), "rb") as fh:
                    files[name] = fh.read()
            outputs.append(files)
        assert outputs[0] == outputs[1]
