"""Block and network assembly: residual identities, attention splice,
parameter accounting, config validation."""

import numpy as np
import pytest

import cev2.backbone
from cev2 import (CEParams, FusedMBConvBlock, MBConvBlock, NetworkConfig, ParamStore,
                  SAFMParams, StageSpec, Tape, Tensor, attention_param_count, backward,
                  build_network, cross_entropy_loss, init_weights, nano_config,
                  safm_param_count, validate_config)
from helpers import conv_bn_act_composed

NANO_TOTAL = 363_892


def build(block_cls, seed, *args, **kwargs):
    """A block under path "b" in a fresh store, its conv weights drawn from
    default_rng(seed)."""
    store = ParamStore()
    blk = block_cls(store, "b", *args, **kwargs)
    init_weights(store, np.random.default_rng(seed))
    return blk


def zero_convs(*convbns):
    for cb in convbns:
        cb.w.data[...] = 0.0


class TestResidualIdentity:
    def test_fused_e1_zeroed_is_identity(self):
        blk = build(FusedMBConvBlock, 0, 8, 8, expansion=1, stride=1)
        zero_convs(blk.conv)
        x = np.random.default_rng(1).normal(size=(2, 8, 6, 6))
        out = blk.forward(Tensor(x.copy()), "eval")
        np.testing.assert_array_equal(out.data, x)

    def test_fused_e4_zeroed_is_identity(self):
        blk = build(FusedMBConvBlock, 2, 8, 8, expansion=4, stride=1)
        zero_convs(blk.conv, blk.proj)
        x = np.random.default_rng(3).normal(size=(1, 8, 5, 5))
        out = blk.forward(Tensor(x.copy()), "eval")
        np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("attention", ["none", "ce", "se"])
    def test_mbconv_zeroed_is_identity(self, attention):
        blk = build(MBConvBlock, 4, 8, 8, expansion=4, stride=1, attention=attention)
        zero_convs(blk.expand, blk.dw, blk.proj)
        x = np.random.default_rng(5).normal(size=(2, 8, 4, 4))
        out = blk.forward(Tensor(x.copy()), "eval")
        np.testing.assert_array_equal(out.data, x)

    def test_no_residual_when_channels_change(self):
        blk = build(FusedMBConvBlock, 6, 8, 12, expansion=2, stride=1)
        zero_convs(blk.conv, blk.proj)
        out = blk.forward(Tensor(np.ones((1, 8, 4, 4))), "eval")
        np.testing.assert_array_equal(out.data, np.zeros((1, 12, 4, 4)))

    def test_no_residual_when_stride_two(self):
        blk = build(FusedMBConvBlock, 7, 8, 8, expansion=1, stride=2)
        assert blk.residual is False


class TestSpatialContract:
    @pytest.mark.parametrize("size,want", [(8, 4), (7, 4), (16, 8)])
    def test_stride_two_halves_with_ceil(self, size, want):
        blk = build(FusedMBConvBlock, 8, 4, 6, expansion=2, stride=2)
        out = blk.forward(Tensor(np.zeros((1, 4, size, size))), "eval")
        assert out.shape == (1, 6, want, want)

    def test_mbconv_stride_two(self):
        blk = build(MBConvBlock, 9, 8, 16, expansion=4, stride=2, attention="ce")
        out = blk.forward(Tensor(np.zeros((2, 8, 8, 8))), "eval")
        assert out.shape == (2, 16, 4, 4)


class TestAttentionSplice:
    def test_zeroed_gate_halves_the_block_output(self):
        # same conv weights, no residual (cin != cout): the spliced gate at
        # sigmoid(0) scales the projection input, and the whole tail is
        # linear in eval mode with fresh statistics
        plain = build(MBConvBlock, 10, 8, 12, expansion=2, stride=1, attention="none")
        gated = build(MBConvBlock, 11, 8, 12, expansion=2, stride=1, attention="ce")
        for src, dst in ((plain.expand, gated.expand), (plain.dw, gated.dw),
                         (plain.proj, gated.proj)):
            dst.w.data[...] = src.w.data
        for t in (gated.attn_params.mlp1_w, gated.attn_params.mlp1_b,
                  gated.attn_params.mlp2_w, gated.attn_params.mlp2_b,
                  gated.attn_params.out_w, gated.attn_params.out_b):
            t.data[...] = 0.0
        x = np.random.default_rng(12).normal(size=(2, 8, 6, 6))
        out_plain = plain.forward(Tensor(x.copy()), "eval").data
        out_gated = gated.forward(Tensor(x.copy()), "eval").data
        np.testing.assert_allclose(out_gated, 0.5 * out_plain, rtol=0, atol=1e-12)

    def test_attention_acts_on_expanded_width(self):
        blk = build(MBConvBlock, 13, 8, 8, expansion=4, stride=1, attention="ce")
        assert blk.attn_params.channels == 32
        blk2 = build(MBConvBlock, 14, 8, 8, expansion=4, stride=1, attention="se")
        assert blk2.attn_params.channels == 32


class TestNanoNetwork:
    def test_logit_shape_and_finiteness(self):
        net, store = build_network(nano_config(), seed=0)
        x = np.random.default_rng(15).uniform(size=(2, 3, 64, 64))
        logits = net.forward(Tensor(x), "eval")
        assert logits.shape == (2, 4, 1, 1)
        assert np.isfinite(logits.data).all()

    def test_train_mode_runs_and_updates_running_stats(self):
        net, store = build_network(nano_config(), seed=0)
        rm_before = net.stem.rm.data.copy()
        x = np.random.default_rng(16).uniform(size=(2, 3, 64, 64))
        out = net.forward(Tensor(x), "train")
        assert np.isfinite(out.data).all()
        assert np.abs(net.stem.rm.data - rm_before).max() > 0

    def test_build_twice_is_bit_identical(self):
        net1, store1 = build_network(nano_config(), seed=7)
        net2, store2 = build_network(nano_config(), seed=7)
        assert list(store1.names()) == list(store2.names())
        for name, t1 in store1.items():
            assert store2[name].data.tobytes() == t1.data.tobytes(), name
        x = Tensor(np.random.default_rng(17).uniform(size=(1, 3, 64, 64)))
        a = net1.forward(x, "eval").data
        b = net2.forward(x, "eval").data
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        _, store1 = build_network(nano_config(), seed=0)
        _, store2 = build_network(nano_config(), seed=1)
        assert store1["stem.w"].data.tobytes() != store2["stem.w"].data.tobytes()

    def test_parameter_count_frozen_and_recomputed(self):
        def convbn(cin, cout, k, groups=1):
            return k * k * (cin // groups) * cout + 2 * cout

        want = (
            convbn(3, 16, 3)                                    # stem
            + convbn(16, 16, 3)                                 # s0 fused e1
            + safm_param_count(16, "depthwise-separable")       # s0 safm
            + convbn(16, 64, 3) + convbn(64, 32, 1)             # s1 r0
            + convbn(32, 128, 3) + convbn(128, 32, 1)           # s1 r1
            + safm_param_count(32, "depthwise-separable")       # s1 safm
            + convbn(32, 128, 1) + convbn(128, 128, 3, groups=128)
            + attention_param_count("ce", 128) + convbn(128, 64, 1)   # s2 r0
            + convbn(64, 256, 1) + convbn(256, 256, 3, groups=256)
            + attention_param_count("ce", 256) + convbn(256, 64, 1)   # s2 r1
            + convbn(64, 128, 1)                                # head
            + 128 * 4 + 4                                       # classifier
        )
        assert want == NANO_TOTAL
        _, store = build_network(nano_config(), seed=0)
        assert store.count_learnable() == NANO_TOTAL

    def test_ablating_attention_drops_expected_scalars(self):
        cfg = nano_config()
        cfg.stages[2].attention = "none"
        _, store = build_network(cfg, seed=0)
        drop = attention_param_count("ce", 128) + attention_param_count("ce", 256)
        assert drop == 49_536 + 197_376
        assert store.count_learnable() == NANO_TOTAL - drop

    def test_ablating_safm_drops_expected_scalars(self):
        cfg = nano_config()
        cfg.stages[0].safm_after = False
        cfg.stages[1].safm_after = False
        _, store = build_network(cfg, seed=0)
        drop = (safm_param_count(16, "depthwise-separable")
                + safm_param_count(32, "depthwise-separable"))
        assert drop == 512 + 1_664
        assert store.count_learnable() == NANO_TOTAL - drop

    def test_se_substitution_changes_only_attention_scalars(self):
        cfg = nano_config()
        cfg.stages[2].attention = "se"
        _, store = build_network(cfg, seed=0)
        want = (NANO_TOTAL
                - attention_param_count("ce", 128) - attention_param_count("ce", 256)
                + attention_param_count("se", 128) + attention_param_count("se", 256))
        assert store.count_learnable() == want

    def test_checkpoint_namespace(self):
        _, store = build_network(nano_config(), seed=0)
        for name in ("stem.w", "stem.bn.gamma", "s0.r0.conv.w", "s0.safm.fuse.w",
                     "s1.r0.exp.w", "s1.r1.proj.bn.rv", "s1.safm.b3.pw.b",
                     "s2.r0.ce.mlp1.w", "s2.r1.ce.out.b", "s2.r1.dw.w",
                     "head.bn.beta", "classifier.w", "classifier.b"):
            assert name in store, name
        # convs followed by batch norm carry no bias
        for name in ("stem.b", "s1.r0.exp.b", "s2.r0.proj.b", "head.b"):
            assert name not in store, name
        assert len(store) == 115

    def test_input_contract(self):
        net, _ = build_network(nano_config(), seed=0)
        with pytest.raises(ValueError, match="stride chain"):
            net.forward(Tensor(np.zeros((1, 3, 32, 32))), "eval")
        with pytest.raises(ValueError, match="3 input channels"):
            net.forward(Tensor(np.zeros((1, 4, 64, 64))), "eval")
        with pytest.raises(ValueError, match="unknown mode"):
            net.forward(Tensor(np.zeros((1, 3, 64, 64))), "predict")


def _draw(rng, shape):
    return rng.normal(0.0, np.sqrt(2.0 / (shape[1] * shape[2] * shape[3])), size=shape)


def _safm_conv_weights(path, c):
    """(name, shape) of a depthwise-separable SAFM block's conv weights over
    4c channels, in forward order."""
    out = []
    for i in range(1, 5):
        out += [(f"{path}.safm.b{i}.dw.w", (c, 1, 3, 3)),
                (f"{path}.safm.b{i}.pw.w", (c, c, 1, 1))]
    return out + [(f"{path}.safm.fuse.w", (4 * c, 4 * c, 1, 1))]


def _mbconv_ce_conv_weights(path, cin, mid, cout):
    return [(f"{path}.exp.w", (mid, cin, 1, 1)), (f"{path}.dw.w", (mid, 1, 3, 3)),
            (f"{path}.ce.mlp1.w", (mid, mid, 1, 1)), (f"{path}.ce.mlp2.w", (mid, mid, 1, 1)),
            (f"{path}.ce.out.w", (mid, mid, 1, 1)), (f"{path}.proj.w", (cout, mid, 1, 1))]


# the nano preset's conv weights in forward order, written out from the
# architecture rather than read back from a store
NANO_WEIGHTS = (
    [("stem.w", (16, 3, 3, 3)), ("s0.r0.conv.w", (16, 16, 3, 3))]
    + _safm_conv_weights("s0", 4)
    + [("s1.r0.exp.w", (64, 16, 3, 3)), ("s1.r0.proj.w", (32, 64, 1, 1)),
       ("s1.r1.exp.w", (128, 32, 3, 3)), ("s1.r1.proj.w", (32, 128, 1, 1))]
    + _safm_conv_weights("s1", 8)
    + _mbconv_ce_conv_weights("s2.r0", 32, 128, 64)
    + _mbconv_ce_conv_weights("s2.r1", 64, 256, 64)
    + [("head.w", (128, 64, 1, 1)), ("classifier.w", (4, 128, 1, 1))]
)


class TestInitWeights:
    """init_weights draws He-normal conv weights in registration order; a
    construction alone leaves every conv weight at zero."""

    @staticmethod
    def _assert_drawn(store, weights, seed):
        assert [n for n in store.names() if n.endswith(".w")] == [n for n, _ in weights]
        rng = np.random.default_rng(seed)
        for name, shape in weights:
            assert store[name].data.tobytes() == _draw(rng, shape).tobytes(), name

    @pytest.mark.parametrize("seed", [0, 7])
    def test_nano_weights_are_the_documented_draws(self, seed):
        assert len(NANO_WEIGHTS) == 38
        _, store = build_network(nano_config(), seed=seed)
        self._assert_drawn(store, NANO_WEIGHTS, seed)
        for name, t in store.items():
            if not name.endswith(".w"):
                fill = 1.0 if name.endswith((".gamma", ".rv")) else 0.0
                assert (t.data == fill).all(), name

    def test_ce_weights_are_the_documented_draws(self):
        store = ParamStore()
        CEParams(store, "s2.r0", 16)
        assert all((t.data == 0.0).all() for _, t in store.items())
        init_weights(store, np.random.default_rng(3))
        self._assert_drawn(store, [(f"s2.r0.ce.{m}.w", (16, 16, 1, 1))
                                   for m in ("mlp1", "mlp2", "out")], 3)

    def test_safm_weights_are_the_documented_draws(self):
        store = ParamStore()
        SAFMParams(store, "s1", 32)
        init_weights(store, np.random.default_rng(4))
        self._assert_drawn(store, _safm_conv_weights("s1", 8), 4)


class TestFusedConvBN:
    """Every conv -> BN -> activation layer is one fused op; swapping the
    unfused composition back in must not change the train step's bytes or,
    beyond 1e-10, the eval logits."""

    @staticmethod
    def _step(monkeypatch, composed):
        if composed:
            monkeypatch.setattr(cev2.backbone, "conv_bn_act", conv_bn_act_composed)
        net, store = build_network(nano_config(), seed=11)
        rng = np.random.default_rng(12)
        x = Tensor(rng.uniform(0.0, 1.0, (4, 3, 64, 64)))
        with Tape() as tape:
            loss = cross_entropy_loss(net.forward(x, "train"), [0, 3, 1, 2])
        backward(tape, loss)
        logits = net.forward(Tensor(rng.uniform(0.0, 1.0, (6, 3, 64, 64))), "eval").data
        monkeypatch.undo()
        grads = {n: t.grad.tobytes() for n, t in store.learnable_items()}
        stats = {n: store[n].data.tobytes() for n in store.names()
                 if not store.is_learnable(n)}
        return grads, stats, logits

    def test_nano_step_matches_the_composition(self, monkeypatch):
        grads, stats, logits = self._step(monkeypatch, composed=False)
        want_grads, want_stats, want_logits = self._step(monkeypatch, composed=True)
        assert grads == want_grads
        assert stats == want_stats
        np.testing.assert_allclose(logits, want_logits, rtol=0, atol=1e-10)


class TestValidation:
    def base(self):
        return nano_config()

    def test_channel_chain_mismatch(self):
        cfg = self.base()
        cfg.stages[1].in_channels = 24
        with pytest.raises(ValueError, match="stage 1"):
            validate_config(cfg)

    def test_attention_on_fused_block(self):
        cfg = self.base()
        cfg.stages[0].attention = "ce"
        with pytest.raises(ValueError, match="stage 0"):
            validate_config(cfg)

    def test_safm_on_mbconv(self):
        cfg = self.base()
        cfg.stages[2].safm_after = True
        with pytest.raises(ValueError, match="stage 2"):
            validate_config(cfg)

    def test_bad_stride(self):
        cfg = self.base()
        cfg.stages[1].stride = 3
        with pytest.raises(ValueError, match="stage 1"):
            validate_config(cfg)

    def test_bad_expansion(self):
        cfg = self.base()
        cfg.stages[0].expansion = 0
        with pytest.raises(ValueError, match="stage 0"):
            validate_config(cfg)

    def test_bad_repeats(self):
        cfg = self.base()
        cfg.stages[2].repeats = 0
        with pytest.raises(ValueError, match="stage 2"):
            validate_config(cfg)

    def test_unknown_block_kind(self):
        cfg = self.base()
        cfg.stages[0].block_kind = "dense"
        with pytest.raises(ValueError, match="stage 0"):
            validate_config(cfg)

    def test_safm_needs_divisible_width(self):
        cfg = NetworkConfig(stem_channels=6, stages=[
            StageSpec("fused-mbconv", 6, 6, safm_after=True)])
        with pytest.raises(ValueError, match="stage 0"):
            validate_config(cfg)

    def test_se_ratio_must_divide_expanded_width(self):
        cfg = NetworkConfig(stem_channels=6, stages=[
            StageSpec("mbconv", 6, 8, expansion=1, attention="se")])
        with pytest.raises(ValueError, match="stage 0"):
            validate_config(cfg)

    def test_se_ratio_below_one(self):
        cfg = nano_config()
        cfg.se_ratio = 0
        cfg.stages[2].attention = "se"
        with pytest.raises(ValueError, match="se_ratio must be >= 1"):
            validate_config(cfg)

    def test_empty_stages(self):
        with pytest.raises(ValueError, match="at least one stage"):
            validate_config(NetworkConfig(stem_channels=8))

    def test_too_few_classes(self):
        cfg = self.base()
        cfg.num_classes = 1
        with pytest.raises(ValueError, match="num_classes"):
            validate_config(cfg)

    def test_build_network_validates(self):
        cfg = self.base()
        cfg.stages[0].stride = 5
        with pytest.raises(ValueError, match="stage 0"):
            build_network(cfg, seed=0)
