"""SAFM block: shapes, gating identities, transcription, parameter counts."""

import numpy as np
import pytest

import cev2.safm as safm_mod
from cev2 import (ParamStore, SAFMParams, Tape, Tensor, backward, dp_safm_forward,
                  finite_diff_check, init_weights)
from helpers import safm_weights
from oracles import safm_param_count, safm_ref


def make_safm(channels: int, seed: int, mode: str = "depthwise-separable") -> SAFMParams:
    store = ParamStore()
    params = SAFMParams(store, "s0", channels, mode=mode)
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
        orig = safm_mod._window_max

        def spy(xd, k):
            out = orig(xd, k)
            pooled.append(out.shape)
            return out

        monkeypatch.setattr(safm_mod, "_window_max", spy)
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
        for t in params.fuse[:2]:
            t.data[...] = 0.0
        x = np.random.default_rng(7).normal(size=(2, 8, 8, 8))
        out = dp_safm_forward(Tensor(x), params)
        np.testing.assert_array_equal(out.data, np.zeros_like(x))

    def test_saturated_gate_approximates_identity(self):
        params = make_safm(8, 8)
        for convs in params.convs:
            for w, b, _ in convs:
                w.data[...] = 0.0
                b.data[...] = 0.0
        params.fuse[0].data[...] = 0.0
        params.fuse[1].data[...] = 8.0
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
    def test_random_seeds_both_modes(self, mode):
        for seed in range(8):
            params = make_safm(8, 100 + seed, mode=mode)
            x = np.random.default_rng(200 + seed).normal(size=(1, 8, 10, 14))
            w, fw, fb = safm_weights(params)
            got = dp_safm_forward(Tensor(x.copy()), params).data
            np.testing.assert_allclose(got, safm_ref(x, w, fw, fb, mode),
                                       rtol=0, atol=1e-12,
                                       err_msg=f"{mode} seed {seed}")


class TestBackward:
    @staticmethod
    def _leaves(params):
        return [*params.fuse[:2]] + [t for convs in params.convs
                                     for w, b, _ in convs for t in (w, b)]

    @pytest.mark.parametrize("shape", [(2, 8, 10, 7), (1, 8, 3, 17), (1, 8, 1, 1)])
    @pytest.mark.parametrize("mode", ["depthwise-separable", "standard"])
    def test_gradients_match_finite_differences(self, shape, mode):
        # sides that 2, 4 and 8 do not divide, and a map smaller than every
        # window; distinct inputs keep each window's argmax away from a tie,
        # and the fine step keeps the GELU gate's truncation error near 1e-7
        params = make_safm(8, 30, mode=mode)
        rng = np.random.default_rng(31)
        n = int(np.prod(shape))
        x = Tensor((0.02 * (rng.permutation(n) - n / 2.0)).reshape(shape))
        gate = rng.normal(size=shape)
        err = finite_diff_check(lambda xs: dp_safm_forward(xs[0], params),
                                [x] + self._leaves(params), step=1e-5, max_coords=80,
                                rng=np.random.default_rng(32), cotangent=gate)
        assert err < 1e-6

    def test_weight_gradients_do_not_depend_on_tracking_the_input(self):
        params = make_safm(8, 33)
        rng = np.random.default_rng(34)
        x = rng.normal(size=(2, 8, 9, 6))
        gate = rng.normal(size=x.shape)
        grads = []
        for track in (True, False):
            for t in self._leaves(params):
                t.zero_grad()
            xt = Tensor(x.copy(), requires_grad=track)
            with Tape() as tape:
                out = dp_safm_forward(xt, params)
            backward(tape, out, gate)
            assert (xt.grad is not None) == track
            grads.append([t.grad.tobytes() for t in self._leaves(params)])
        assert grads[0] == grads[1]


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
    def test_count_matches_stored_scalars(self, channels, mode):
        store = ParamStore()
        SAFMParams(store, "s0", channels, mode=mode)
        assert store.count_learnable() == safm_param_count(channels, mode)


class TestValidation:
    def test_channels_not_divisible_by_four(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            make_safm(6, 0)

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
