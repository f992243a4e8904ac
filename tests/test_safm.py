"""SAFM block: shapes, gating identities, transcription, parameter counts."""

import numpy as np
import pytest

import cev2.safm as safm_mod
from cev2 import (ParamStore, SAFMParams, Tensor, dp_safm_forward, init_weights,
                  safm_param_count)
from helpers import safm_weights
from oracles import safm_ref


def make_safm(channels: int, seed: int, mode: str = "depthwise-separable",
              conv_x1: bool = True) -> SAFMParams:
    store = ParamStore()
    params = SAFMParams(store, "s0", channels, mode=mode, conv_x1=conv_x1)
    init_weights(store, np.random.default_rng(seed))
    return params


class TestShapes:
    def test_preserves_shape(self):
        params = make_safm(8, 0)
        x = np.random.default_rng(1).normal(size=(1, 8, 16, 16))
        out = dp_safm_forward(Tensor(x), params)
        assert out.shape == (1, 8, 16, 16)

    @pytest.mark.parametrize("H", [8, 12, 16])
    @pytest.mark.parametrize("W", [8, 12, 16])
    def test_branch_dims_ceil_then_restore(self, H, W, monkeypatch):
        params = make_safm(8, 2)
        pooled = []
        orig = safm_mod.pool

        def spy(x, kind, *args, **kwargs):
            out = orig(x, kind, *args, **kwargs)
            pooled.append(out.shape)
            return out

        monkeypatch.setattr(safm_mod, "pool", spy)
        x = np.random.default_rng(3).normal(size=(2, 8, H, W))
        out = dp_safm_forward(Tensor(x), params)
        assert out.shape == (2, 8, H, W)
        want = [(2, 2, -(-H // k), -(-W // k)) for k in (2, 4, 8)]
        assert pooled == want

    @pytest.mark.parametrize("shape", [(4, 4), (2, 2), (1, 1), (2, 16)])
    def test_degenerate_spatial_sizes(self, shape):
        # windows larger than the map collapse to a global reduction;
        # every size must still round-trip to the input shape
        params = make_safm(8, 4)
        H, W = shape
        x = np.random.default_rng(5).normal(size=(1, 8, H, W))
        out = dp_safm_forward(Tensor(x.copy()), params)
        assert out.shape == (1, 8, H, W)
        w, fw, fb = safm_weights(params)
        np.testing.assert_allclose(out.data, safm_ref(x, w, fw, fb, params.mode),
                                   rtol=0, atol=1e-12)


class TestGating:
    def test_zero_fusion_weights_zero_output(self):
        params = make_safm(8, 6)
        params.fuse_w.data[...] = 0.0
        params.fuse_b.data[...] = 0.0
        x = np.random.default_rng(7).normal(size=(2, 8, 8, 8))
        out = dp_safm_forward(Tensor(x), params)
        np.testing.assert_array_equal(out.data, np.zeros_like(x))

    def test_saturated_gate_approximates_identity(self):
        params = make_safm(8, 8)
        for br in params.branches:
            for pair in br.values():
                pair[0].data[...] = 0.0
                pair[1].data[...] = 0.0
        params.fuse_w.data[...] = 0.0
        params.fuse_b.data[...] = 8.0
        x = np.random.default_rng(9).normal(size=(1, 8, 8, 8))
        out = dp_safm_forward(Tensor(x.copy()), params).data
        # gelu(8) = 8 to within ~1e-14, so the gate is a scale of ~8
        np.testing.assert_allclose(out, 8.0 * x, rtol=0, atol=1e-12)


class TestTranscription:
    def test_seed_eleven_depthwise_separable(self):
        params = make_safm(8, 11)
        x = np.random.default_rng(11).normal(size=(2, 8, 12, 12))
        w, fw, fb = safm_weights(params)
        got = dp_safm_forward(Tensor(x.copy()), params).data
        np.testing.assert_allclose(got, safm_ref(x, w, fw, fb, params.mode),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["depthwise-separable", "standard"])
    @pytest.mark.parametrize("conv_x1", [True, False])
    def test_random_seeds_both_modes(self, mode, conv_x1):
        for seed in range(8):
            params = make_safm(8, 100 + seed, mode=mode, conv_x1=conv_x1)
            x = np.random.default_rng(200 + seed).normal(size=(1, 8, 10, 14))
            w, fw, fb = safm_weights(params)
            got = dp_safm_forward(Tensor(x.copy()), params).data
            np.testing.assert_allclose(got, safm_ref(x, w, fw, fb, mode),
                                       rtol=0, atol=1e-12,
                                       err_msg=f"{mode} conv_x1={conv_x1} seed {seed}")

    def test_pass_through_branch_changes_output(self):
        x = np.random.default_rng(12).normal(size=(1, 8, 8, 8))
        a = dp_safm_forward(Tensor(x.copy()), make_safm(8, 13, conv_x1=True)).data
        b = dp_safm_forward(Tensor(x.copy()), make_safm(8, 13, conv_x1=False)).data
        assert np.abs(a - b).max() > 1e-9


class TestParamCounts:
    def test_frozen_values_c64(self):
        assert safm_param_count(64, "standard") == 13440
        assert safm_param_count(64, "depthwise-separable") == 5888

    def test_frozen_values_c4(self):
        # at one channel per branch the depthwise-separable layout costs
        # more, not less (60 vs 68 with the fusion conv included)
        assert safm_param_count(4, "standard") == 60
        assert safm_param_count(4, "depthwise-separable") == 68

    def test_reduction_at_least_30_percent_for_c64(self):
        std = safm_param_count(64, "standard")
        dp = safm_param_count(64, "depthwise-separable")
        assert 1.0 - dp / std >= 0.30

    def test_crossover_channel_count(self):
        winners = [c for c in range(4, 129, 4)
                   if 1.0 - safm_param_count(c, "depthwise-separable")
                   / safm_param_count(c, "standard") >= 0.30]
        assert min(winners) == 12

    def test_dp_strictly_smaller_from_c16(self):
        for c in range(16, 257, 4):
            assert (safm_param_count(c, "depthwise-separable")
                    < safm_param_count(c, "standard"))

    @pytest.mark.parametrize("channels", [4, 8, 16, 32, 64])
    @pytest.mark.parametrize("mode", ["depthwise-separable", "standard"])
    @pytest.mark.parametrize("conv_x1", [True, False])
    def test_count_matches_stored_scalars(self, channels, mode, conv_x1):
        store = ParamStore()
        SAFMParams(store, "s0", channels, mode=mode, conv_x1=conv_x1)
        assert store.count_learnable() == safm_param_count(channels, mode, conv_x1)

    def test_conv_x1_false_drops_exactly_one_branch(self):
        for mode in ("depthwise-separable", "standard"):
            full = safm_param_count(16, mode, conv_x1=True)
            wo = safm_param_count(16, mode, conv_x1=False)
            c = 4
            per = (9 * c + c) + (c * c + c) if mode == "depthwise-separable" else 9 * c * c + c
            assert full - wo == per


class TestValidation:
    def test_channels_not_divisible_by_four(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            make_safm(6, 0)
        with pytest.raises(ValueError, match="divisible by 4"):
            safm_param_count(6, "standard")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            make_safm(8, 0, mode="grouped")

    def test_channel_mismatch_rejected(self):
        params = make_safm(8, 0)
        with pytest.raises(ValueError, match="channels"):
            dp_safm_forward(Tensor(np.zeros((1, 12, 8, 8))), params)

    def test_checkpoint_names(self):
        store = ParamStore()
        SAFMParams(store, "s1", 8)
        names = list(store.names())
        assert names[0] == "s1.safm.b1.dw.w"
        assert names[-2:] == ["s1.safm.fuse.w", "s1.safm.fuse.b"]
        assert "s1.safm.b4.pw.b" in names

    def test_checkpoint_names_standard_without_b1(self):
        store = ParamStore()
        SAFMParams(store, "s1", 8, mode="standard", conv_x1=False)
        names = list(store.names())
        assert "s1.safm.b1.std.w" not in names
        assert names[0] == "s1.safm.b2.std.w"
