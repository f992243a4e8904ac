"""Config file parsing: network grammar, train and augment scalars."""

import dataclasses
import os
import re

import pytest

from cev2 import (AugmentConfig, Network, NetworkConfig, ParamStore, StageSpec, TrainConfig,
                  build_network, nano_config, parse_augment_config, parse_network_config,
                  parse_train_config)
from cev2.config import _AUGMENT_KEYS, _NETWORK_KEYS, _STAGE_KEYS, _TRAIN_KEYS, read_kv

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NANO_CFG = os.path.join(HERE, "configs", "nano.cfg")


def write_cfg(tmp_path, text, name="c.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestReadKv:
    def test_comments_blanks_and_spacing(self, tmp_path):
        p = write_cfg(tmp_path, "\n# full comment\na = 1  # trailing\n  b=2\nc =  three words here \n")
        assert read_kv(p) == {"a": "1", "b": "2", "c": "three words here"}

    def test_later_duplicate_wins(self, tmp_path):
        p = write_cfg(tmp_path, "a = 1\na = 2\n")
        assert read_kv(p) == {"a": "2"}

    def test_missing_equals_rejected_with_line_number(self, tmp_path):
        p = write_cfg(tmp_path, "a = 1\nbroken line\n")
        with pytest.raises(ValueError, match=":2:"):
            read_kv(p)


class TestNetworkGrammar:
    def test_nano_preset_file_round_trips(self):
        cfg = parse_network_config(NANO_CFG)
        assert cfg == nano_config()
        net, store = build_network(cfg, seed=0)
        assert store.count_learnable() == 363_892

    def test_stage_defaults(self, tmp_path):
        p = write_cfg(tmp_path, "stem = 8\nstage.0 = fused-mbconv out=8\n")
        cfg = parse_network_config(p)
        st = cfg.stages[0]
        assert (st.expansion, st.stride, st.repeats) == (1, 1, 1)
        assert st.attention == "none" and st.safm_after is False

    def test_safm_flag_and_kv_forms(self, tmp_path):
        p = write_cfg(tmp_path, "stem = 8\n"
                                "stage.0 = fused-mbconv out=8 safm\n"
                                "stage.1 = fused-mbconv out=8 safm=false\n"
                                "stage.2 = fused-mbconv out=8 safm=yes\n")
        cfg = parse_network_config(p)
        assert [s.safm_after for s in cfg.stages] == [True, False, True]

    def test_scalar_defaults(self, tmp_path):
        p = write_cfg(tmp_path, "stage.0 = fused-mbconv out=16\n")
        cfg = parse_network_config(p)
        assert (cfg.stem_channels, cfg.head_channels) == (16, 128)
        assert (cfg.num_classes, cfg.input_size) == (2, 64)
        assert cfg.safm_mode == "depthwise-separable" and cfg.se_ratio == 4

    def test_optional_toggles(self, tmp_path):
        p = write_cfg(tmp_path, "stage.0 = mbconv out=16 attn=se\n"
                                "safm.mode = standard\nse.ratio = 8\n")
        cfg = parse_network_config(p)
        assert cfg.safm_mode == "standard" and cfg.se_ratio == 8

    @pytest.mark.parametrize("line", ["ce.shared_mlp = true", "safm.conv_x1 = off"])
    def test_removed_variant_keys_rejected(self, tmp_path, line):
        # the paper's CE shares one MLP and its SAFM convolves every branch,
        # so no key selects another variant
        p = write_cfg(tmp_path, f"stage.0 = fused-mbconv out=16\n{line}\n")
        msg = f"c.cfg: unknown network keys ['{line.split()[0]}']"
        with pytest.raises(ValueError, match=re.escape(msg)):
            parse_network_config(p)

    def test_non_contiguous_stages_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "stage.0 = fused-mbconv out=16\n"
                                "stage.2 = fused-mbconv out=16\n")
        with pytest.raises(ValueError, match="contiguous"):
            parse_network_config(p)

    def test_stage_missing_channels_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "stage.0 = fused-mbconv e=2\n")
        with pytest.raises(ValueError, match=r"c\.cfg: stage\.0: needs out=$"):
            parse_network_config(p)

    def test_in_key_rejected(self, tmp_path):
        # a stage's input width is the previous stage's out (or the stem's)
        p = write_cfg(tmp_path, "stage.0 = fused-mbconv in=16 out=16\n")
        msg = "c.cfg: stage.0: unknown stage field ['in']"
        with pytest.raises(ValueError, match=re.escape(msg)):
            parse_network_config(p)

    @pytest.mark.parametrize("text,message", [
        ("stage.0 = fused-mbconv out=16 e=0\n", "stage 0: expansion must be >= 1, got 0"),
        ("stem = 24\nse.ratio = 6\nstage.0 = mbconv out=40 e=4 s=1 r=2 attn=se\n",
         "stage 0: se ratio 6 does not divide expanded width 160"),
        ("classes = 1\nstage.0 = fused-mbconv out=16\n", "num_classes must be >= 2, got 1")],
        ids=["zero-expansion", "se-on-second-repeat", "one-class"])
    def test_network_range_error_names_the_file(self, tmp_path, text, message):
        p = write_cfg(tmp_path, text)
        with pytest.raises(ValueError, match=f"^{re.escape(p)}: {re.escape(message)}$"):
            parse_network_config(p)

    def test_unknown_stage_field_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "stage.0 = fused-mbconv out=8 pad=3\n")
        with pytest.raises(ValueError, match="unknown stage field"):
            parse_network_config(p)

    def test_bad_token_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "stage.0 = fused-mbconv out=8 quickly\n")
        with pytest.raises(ValueError, match="bad token"):
            parse_network_config(p)

    def test_unknown_key_names_file_and_key(self, tmp_path):
        p = write_cfg(tmp_path, "stage.0 = fused-mbconv out=16\nsafm.mod = standard\n")
        with pytest.raises(ValueError, match=r"c\.cfg: unknown network keys \['safm\.mod'\]"):
            parse_network_config(p)

    def test_bad_stage_int_names_stage_and_field(self, tmp_path):
        p = write_cfg(tmp_path, "stage.0 = fused-mbconv out=16 e=x\n")
        with pytest.raises(ValueError, match=r"c\.cfg: stage\.0: e: .*'x'"):
            parse_network_config(p)


def readme_network_example() -> str:
    """The first fenced block under README's "Network config" heading."""
    with open(os.path.join(HERE, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("### Network config"):]
    return section.split("```\n", 2)[1]


class TestDocumentedConfigs:
    """Every shipped network file and the README example load and build, so a
    grammar change cannot leave the docs stale."""

    @pytest.mark.parametrize("name", sorted(f for f in os.listdir(os.path.join(HERE, "configs"))
                                            if f.endswith(".cfg")))
    def test_shipped_config_builds(self, name):
        store = ParamStore()
        Network(parse_network_config(os.path.join(HERE, "configs", name)), store)
        assert store.count_learnable() > 0

    def test_readme_example_builds(self, tmp_path):
        store = ParamStore()
        Network(parse_network_config(write_cfg(tmp_path, readme_network_example())), store)
        assert store.count_learnable() == 1_996_440


class TestTrainConfig:
    def test_defaults_per_optimizer(self):
        sgd = TrainConfig(network="n", dataset="d")
        assert sgd.optimizer == "sgd-momentum"
        assert sgd.learning_rate == 0.01
        adam = TrainConfig(network="n", dataset="d", optimizer="adam")
        assert adam.learning_rate == 1e-3
        assert (adam.beta1, adam.beta2, adam.adam_eps) == (0.9, 0.999, 1e-8)

    def test_explicit_lr_kept(self):
        cfg = TrainConfig(network="n", dataset="d", learning_rate=0.5)
        assert cfg.learning_rate == 0.5

    def test_parse_full_file(self, tmp_path):
        p = write_cfg(tmp_path, "network = net.cfg\ndataset = data\n"
                                "epochs = 20\nbatch_size = 4\noptimizer = adam\n"
                                "lr = 0.002\nseed = 3\naugment = true\n"
                                "resize = 32\nsplit = 0.75\nwindow = 5\nout = runs/x\n")
        cfg = parse_train_config(p)
        assert cfg.network == "net.cfg" and cfg.dataset == "data"
        assert (cfg.epochs, cfg.batch_size) == (20, 4)
        assert cfg.optimizer == "adam" and cfg.learning_rate == 0.002
        assert cfg.seed == 3 and cfg.augment is True
        assert (cfg.resize_to, cfg.split_frac) == (32, 0.75)
        assert cfg.window == 5 and cfg.out_dir == "runs/x"

    def test_requires_network_and_dataset(self, tmp_path):
        p = write_cfg(tmp_path, "epochs = 20\nwindow = 5\n")
        with pytest.raises(ValueError, match="network= and dataset="):
            parse_train_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "network = n\ndataset = d\nwarmup = 5\n")
        with pytest.raises(ValueError, match="unknown train keys"):
            parse_train_config(p)

    def test_epochs_below_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            TrainConfig(network="n", dataset="d", epochs=5, window=10)

    def test_bad_optimizer(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            TrainConfig(network="n", dataset="d", optimizer="rmsprop")

    def test_bad_split(self):
        with pytest.raises(ValueError, match="split_frac"):
            TrainConfig(network="n", dataset="d", split_frac=1.0)

    def test_bad_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(network="n", dataset="d", batch_size=0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_rejected(self, tmp_path, value):
        p = write_cfg(tmp_path, f"network = n\ndataset = d\nlr = {value}\n")
        with pytest.raises(ValueError, match=r"c\.cfg: lr: expected a finite number"):
            parse_train_config(p)

    @pytest.mark.parametrize("field", ["learning_rate", "momentum", "beta1", "beta2",
                                       "adam_eps", "split_frac"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_field_built_in_python_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(network="n", dataset="d", **{field: value})

    @pytest.mark.parametrize("field,value,match", [
        ("beta1", 1.0, r"beta1 must be in \[0,1\)"), ("beta1", -0.1, r"beta1 must be in \[0,1\)"),
        ("beta2", 1.0, r"beta2 must be in \[0,1\)"), ("beta2", 1.5, r"beta2 must be in \[0,1\)"),
        ("adam_eps", 0.0, "adam_eps must be > 0"), ("adam_eps", -1e-8, "adam_eps must be > 0")])
    def test_adam_hyperparameter_out_of_range_built_in_python(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(network="n", dataset="d", optimizer="adam", **{field: value})

    @pytest.mark.parametrize("key,value,match", [
        ("beta1", "1", r"c\.cfg: beta1 must be in \[0,1\)"),
        ("beta2", "1.0", r"c\.cfg: beta2 must be in \[0,1\)"),
        ("adam_eps", "0", r"c\.cfg: adam_eps must be > 0")])
    def test_adam_hyperparameter_out_of_range_in_file(self, tmp_path, key, value, match):
        p = write_cfg(tmp_path, f"network = n\ndataset = d\noptimizer = adam\n{key} = {value}\n")
        with pytest.raises(ValueError, match=match):
            parse_train_config(p)

    @pytest.mark.parametrize("field,value,match", [
        ("momentum", 1.0, r"momentum must be in \[0,1\)"),
        ("momentum", 1.5, r"momentum must be in \[0,1\)"),
        ("momentum", -0.1, r"momentum must be in \[0,1\)"),
        ("learning_rate", 0.0, "learning_rate must be > 0"),
        ("learning_rate", -0.05, "learning_rate must be > 0")])
    def test_sgd_hyperparameter_out_of_range_built_in_python(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(network="n", dataset="d", **{field: value})

    @pytest.mark.parametrize("key,value,match", [
        ("momentum", "1.5", r"c\.cfg: momentum must be in \[0,1\)"),
        ("lr", "-0.05", r"c\.cfg: learning_rate must be > 0"),
        ("lr", "0", r"c\.cfg: learning_rate must be > 0")])
    def test_sgd_hyperparameter_out_of_range_in_file(self, tmp_path, key, value, match):
        p = write_cfg(tmp_path, f"network = n\ndataset = d\n{key} = {value}\n")
        with pytest.raises(ValueError, match=match):
            parse_train_config(p)

    @pytest.mark.parametrize("key,value,match", [
        ("lr", "0", r"c\.cfg: learning_rate must be > 0, got 0\.0 \(key lr\)$"),
        ("split", "1", r"c\.cfg: split_frac must be in \(0,1\), got 1\.0 \(key split\)$")])
    def test_range_error_from_file_names_the_key(self, tmp_path, key, value, match):
        p = write_cfg(tmp_path, f"network = n\ndataset = d\n{key} = {value}\n")
        with pytest.raises(ValueError, match=match):
            parse_train_config(p)

    @pytest.mark.parametrize("field,value", [("learning_rate", 0.0), ("split_frac", 1.0)])
    def test_range_error_built_in_python_has_no_key(self, field, value):
        with pytest.raises(ValueError, match=field) as info:
            TrainConfig(network="n", dataset="d", **{field: value})
        assert "(key" not in str(info.value)

    def test_sgd_hyperparameter_edges_accepted(self):
        cfg = TrainConfig(network="n", dataset="d", momentum=0.0, learning_rate=1e-300)
        assert (cfg.momentum, cfg.learning_rate) == (0.0, 1e-300)

    def test_adam_hyperparameter_edges_accepted(self):
        cfg = TrainConfig(network="n", dataset="d", optimizer="adam", beta1=0.0, beta2=0.0,
                          adam_eps=1e-300)
        assert (cfg.beta1, cfg.beta2, cfg.adam_eps) == (0.0, 0.0, 1e-300)

    def test_window_below_one_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 1"):
            TrainConfig(network="n", dataset="d", epochs=0, window=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(network="n", dataset="d", seed=-1)


class TestAugmentConfig:
    def test_defaults(self):
        cfg = AugmentConfig()
        assert cfg.rotation_deg == (-90.0, 90.0)
        assert cfg.translate_frac == 0.10
        assert cfg.gauss_std == 0.02 and cfg.sp_density == 0.02
        assert cfg.hflip_prob == 0.5 and cfg.scale_range == (0.8, 1.25)
        assert cfg.per_class_new == 100 and cfg.seed == 0

    def test_parse_file(self, tmp_path):
        p = write_cfg(tmp_path, "rotation_min = -30\nrotation_max = 30\n"
                                "translate_frac = 0.05\ngauss_std = 0.01\n"
                                "sp_density = 0.03\nhflip_prob = 1.0\n"
                                "scale_min = 0.9\nscale_max = 1.1\n"
                                "per_class_new = 7\nseed = 42\n")
        cfg = parse_augment_config(p)
        assert cfg.rotation_deg == (-30.0, 30.0)
        assert cfg.scale_range == (0.9, 1.1)
        assert cfg.per_class_new == 7 and cfg.seed == 42
        assert cfg.hflip_prob == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        p = write_cfg(tmp_path, "blur_radius = 2\n")
        with pytest.raises(ValueError, match="unknown augment keys"):
            parse_augment_config(p)

    def test_parsed_bounds_validated(self, tmp_path):
        p = write_cfg(tmp_path, "scale_min = 1.5\nscale_max = 0.5\n")
        with pytest.raises(ValueError, match="scale_range"):
            parse_augment_config(p)

    def test_range_error_from_file_names_both_ends(self, tmp_path):
        p = write_cfg(tmp_path, "rotation_min = 5\nrotation_max = 1\n")
        with pytest.raises(ValueError, match=r"rotation_deg .*\(keys rotation_min, rotation_max\)$"):
            parse_augment_config(p)

    def test_degenerate_rotation_rejected(self):
        with pytest.raises(ValueError, match="rotation"):
            AugmentConfig(rotation_deg=(10.0, -10.0))

    @pytest.mark.parametrize("field, bad", [
        ("translate_frac", 1e308), ("translate_frac", 1e20), ("translate_frac", 1.5),
        ("rotation_deg", (-1e308, 1e308))])
    def test_range_whose_draws_overflow_rejected(self, field, bad):
        # a shift past a whole side only blanks the image, and a rotation
        # interval needs a finite width for its draw
        with pytest.raises(ValueError, match=f"^{field} "):
            AugmentConfig(**{field: bad})

    def test_widest_finite_ranges_accepted(self):
        cfg = AugmentConfig(translate_frac=1.0, rotation_deg=(-1e308, 7e307))
        assert cfg.translate_frac == 1.0 and cfg.rotation_deg == (-1e308, 7e307)

    def test_bad_probability(self):
        with pytest.raises(ValueError, match="hflip_prob"):
            AugmentConfig(hflip_prob=1.5)

    def test_negative_per_class(self):
        with pytest.raises(ValueError, match="per_class_new"):
            AugmentConfig(per_class_new=-1)

    def test_sp_density_range(self):
        with pytest.raises(ValueError, match="sp_density"):
            AugmentConfig(sp_density=1.0)

    @pytest.mark.parametrize("key", ["translate_frac", "scale_min"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_float_rejected(self, tmp_path, key, value):
        p = write_cfg(tmp_path, f"{key} = {value}\n")
        with pytest.raises(ValueError, match=rf"c\.cfg: {key}: expected a finite number"):
            parse_augment_config(p)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            AugmentConfig(seed=-1)

    @pytest.mark.parametrize("field, bad", [
        ("translate_frac", float("inf")), ("gauss_std", float("nan")),
        ("sp_density", float("nan")), ("hflip_prob", float("-inf")),
        ("rotation_deg", (float("-inf"), 90.0)), ("rotation_deg", (-90.0, float("nan"))),
        ("scale_range", (0.8, float("inf")))])
    def test_non_finite_field_built_in_python_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AugmentConfig(**{field: bad})


class TestKeyTables:
    @pytest.mark.parametrize("cls, table, given", [
        (NetworkConfig, _NETWORK_KEYS, {"stages"}), (StageSpec, _STAGE_KEYS, {"block_kind"}),
        (TrainConfig, _TRAIN_KEYS, set()), (AugmentConfig, _AUGMENT_KEYS, set())],
        ids=["network", "stage", "train", "augment"])
    def test_table_targets_exactly_the_dataclass_fields(self, cls, table, given):
        # a (field, end) target sets one end of a tuple field
        targets = {t[0] if isinstance(t, tuple) else t for t, _ in table.values()}
        assert targets == {f.name for f in dataclasses.fields(cls)} - given
