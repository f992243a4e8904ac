"""Command-line interface: subcommand flows and exit codes."""

import os
import subprocess
import sys

import numpy as np
import pytest

import cev2.backbone
import cev2.params
from cev2 import (build_network, nano_config, parse_network_config,
                  save_checkpoint)
from cev2.cli import main
from helpers import make_solid_dataset

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NANO_CFG = os.path.join(HERE, "configs", "nano.cfg")

TINY_NET = """\
stem = 8
head = 16
classes = 2
input = 16
stage.0 = fused-mbconv in=8 out=8 e=1 s=1 r=1 safm
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

    def test_missing_config_is_error_exit(self, capsys):
        assert main(["params", "no-such-file.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_se_ratio_is_error_exit(self, tmp_path, capsys):
        path = str(tmp_path / "se.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TINY_NET + "se.ratio = 0\n"
                     "stage.1 = mbconv in=8 out=8 e=2 s=1 r=1 attn=se\n")
        assert main(["params", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "se_ratio must be >= 1" in err
        assert "Traceback" not in err


class TestGradcheckCommand:
    def test_ce_module_passes(self, capsys):
        assert main(["gradcheck", "--module", "ce"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "[FAIL]" not in out
        assert "max relative error" in out

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

    def test_eval_class_mismatch_exits_one(self, tmp_path, capsys):
        data2 = str(tmp_path / "data2")
        make_solid_dataset(data2, n_classes=3, per_class=2, size=16, seed=6)
        data = str(tmp_path / "data")
        make_solid_dataset(data, n_classes=2, per_class=4, size=16, seed=7)
        net_cfg = write_tiny_net(tmp_path)
        out_dir = str(tmp_path / "run")
        train_cfg = str(tmp_path / "train.cfg")
        with open(train_cfg, "w", encoding="utf-8") as fh:
            fh.write(f"network = {net_cfg}\ndataset = {data}\n"
                     f"epochs = 1\nwindow = 1\nresize = 16\nout = {out_dir}\n")
        main(["train", train_cfg])
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
