"""Channel attention: algebraic identities and straight-line transcription."""

import numpy as np
import pytest

from cev2 import (CEParams, ParamStore, SEParams, Tensor,
                  attention_param_count, ce_forward, init_weights, se_forward)
from helpers import ce_weights, se_weights
from oracles import ce_ref, se_ref, sigmoid_ref


def make_ce(channels: int, seed: int, shared: bool = True) -> CEParams:
    store = ParamStore()
    params = CEParams(store, "blk", channels, shared_mlp=shared)
    init_weights(store, np.random.default_rng(seed))
    return params


def make_se(channels: int, seed: int, r: int = 4) -> SEParams:
    store = ParamStore()
    params = SEParams(store, "blk", channels, r=r)
    init_weights(store, np.random.default_rng(seed))
    return params


def zero_all(params) -> None:
    for name in dir(params):
        attr = getattr(params, name)
        if isinstance(attr, Tensor):
            attr.data[...] = 0.0


class TestCEForward:
    def test_zero_weights_gate_half(self):
        params = make_ce(8, 0)
        zero_all(params)
        x = np.random.default_rng(1).normal(size=(2, 8, 5, 5))
        out = ce_forward(Tensor(x), params)
        np.testing.assert_array_equal(out.data, 0.5 * x)

    def test_channel_constant_input_doubles_mlp(self):
        # spatially constant channels make avg == max, so the fused
        # descriptor is exactly twice the shared MLP's output
        params = make_ce(4, 2)
        vals = np.array([0.3, -1.2, 2.0, 0.7])
        x = np.tile(vals.reshape(1, 4, 1, 1), (1, 1, 6, 6))
        out = ce_forward(Tensor(x.copy()), params)
        w = ce_weights(params)
        h = np.maximum(vals @ w["w1"].T + w["b1"], 0.0)
        m = h @ w["w2"].T + w["b2"]
        gate = sigmoid_ref(2.0 * m @ w["wo"].T + w["bo"])
        want = x * gate.reshape(1, 4, 1, 1)
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-13)

    def test_matches_reference_twenty_seeds_shared(self):
        for seed in range(20):
            params = make_ce(8, 1000 + seed)
            x = np.random.default_rng(2000 + seed).normal(size=(2, 8, 4, 6))
            got = ce_forward(Tensor(x.copy()), params).data
            want = ce_ref(x, ce_weights(params), shared=True)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"seed {seed}")

    def test_matches_reference_unshared(self):
        for seed in range(20):
            params = make_ce(8, 3000 + seed, shared=False)
            x = np.random.default_rng(4000 + seed).normal(size=(1, 8, 5, 5))
            got = ce_forward(Tensor(x.copy()), params).data
            want = ce_ref(x, ce_weights(params), shared=False)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"seed {seed}")

    def test_unshared_branches_actually_differ(self):
        params = make_ce(8, 5)
        unshared = make_ce(8, 5, shared=False)
        # same seed: the avg-branch weights coincide, the max branch gets
        # extra draws, so outputs diverge on non-constant input
        np.testing.assert_array_equal(params.mlp1_w.data, unshared.mlp1_w.data)
        x = np.random.default_rng(6).normal(size=(1, 8, 4, 4))
        a = ce_forward(Tensor(x.copy()), params).data
        b = ce_forward(Tensor(x.copy()), unshared).data
        assert np.abs(a - b).max() > 1e-9

    def test_gate_bounds_dampen_output(self):
        params = make_ce(16, 7)
        x = np.random.default_rng(8).normal(scale=3.0, size=(2, 16, 8, 8))
        out = ce_forward(Tensor(x.copy()), params).data
        assert (np.abs(out) <= np.abs(x)).all()
        nz = x != 0
        assert (np.abs(out[nz]) < np.abs(x[nz])).all()
        assert np.sign(out[nz]).tolist() == np.sign(x[nz]).tolist()

    def test_spatial_permutation_equivariance(self):
        params = make_ce(8, 9)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(1, 8, 4, 4))
        perm = rng.permutation(16)
        xp = x.reshape(1, 8, 16)[:, :, perm].reshape(1, 8, 4, 4)
        out = ce_forward(Tensor(x.copy()), params).data
        outp = ce_forward(Tensor(xp.copy()), params).data
        np.testing.assert_allclose(
            outp, out.reshape(1, 8, 16)[:, :, perm].reshape(1, 8, 4, 4),
            rtol=0, atol=1e-14)

    def test_channel_mismatch_rejected(self):
        params = make_ce(8, 11)
        with pytest.raises(ValueError, match="channels"):
            ce_forward(Tensor(np.zeros((1, 4, 2, 2))), params)


class TestSEForward:
    def test_zero_weights_gate_half(self):
        params = make_se(8, 12)
        zero_all(params)
        x = np.random.default_rng(13).normal(size=(2, 8, 3, 3))
        out = se_forward(Tensor(x.copy()), params)
        np.testing.assert_array_equal(out.data, 0.5 * x)

    def test_saturated_gate_passes_through(self):
        params = make_se(8, 14)
        zero_all(params)
        params.expand_b.data[...] = 20.0
        x = np.random.default_rng(15).normal(size=(1, 8, 4, 4))
        out = se_forward(Tensor(x.copy()), params).data
        np.testing.assert_allclose(out, x, rtol=0, atol=1e-8)

    def test_matches_reference(self):
        for seed in range(10):
            params = make_se(8, 6000 + seed)
            x = np.random.default_rng(7000 + seed).normal(size=(2, 8, 5, 3))
            w = se_weights(params)
            got = se_forward(Tensor(x.copy()), params).data
            want = se_ref(x, w["wr"], w["br"], w["we"], w["be"])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"seed {seed}")

    def test_ratio_must_divide(self):
        with pytest.raises(ValueError, match="divide"):
            make_se(6, 16, r=4)

    def test_channel_mismatch_rejected(self):
        params = make_se(8, 17)
        with pytest.raises(ValueError, match="channels"):
            se_forward(Tensor(np.zeros((1, 16, 2, 2))), params)


class TestParamCounts:
    def test_frozen_values(self):
        assert attention_param_count("ce", 8) == 216
        assert attention_param_count("ce", 1) == 6
        assert attention_param_count("se", 8, r=4) == 42

    def test_unshared_adds_one_mlp_pair(self):
        c = 16
        shared = attention_param_count("ce", c, shared_mlp=True)
        unshared = attention_param_count("ce", c, shared_mlp=False)
        assert unshared - shared == 2 * (c * c + c)

    @pytest.mark.parametrize("channels", [4, 8, 16, 32])
    def test_count_matches_stored_scalars_ce(self, channels):
        store = ParamStore()
        CEParams(store, "blk", channels)
        assert store.count_learnable() == attention_param_count("ce", channels)
        store2 = ParamStore()
        CEParams(store2, "blk", channels, shared_mlp=False)
        assert store2.count_learnable() == attention_param_count(
            "ce", channels, shared_mlp=False)

    @pytest.mark.parametrize("channels", [4, 8, 16, 32])
    def test_count_matches_stored_scalars_se(self, channels):
        store = ParamStore()
        SEParams(store, "blk", channels, r=4)
        assert store.count_learnable() == attention_param_count("se", channels, r=4)

    def test_ce_closed_form(self):
        for c in (2, 4, 8, 64, 256):
            assert attention_param_count("ce", c) == 3 * c * c + 3 * c

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="unknown attention kind"):
            attention_param_count("cbam", 8)


class TestRegistrationNames:
    def test_ce_checkpoint_names(self):
        store = ParamStore()
        CEParams(store, "s2.r0", 8)
        want = ["s2.r0.ce.mlp1.w", "s2.r0.ce.mlp1.b", "s2.r0.ce.mlp2.w",
                "s2.r0.ce.mlp2.b", "s2.r0.ce.out.w", "s2.r0.ce.out.b"]
        assert list(store.names()) == want

    def test_se_checkpoint_names(self):
        store = ParamStore()
        SEParams(store, "s1.r1", 8)
        assert list(store.names()) == ["s1.r1.se.reduce.w", "s1.r1.se.reduce.b",
                                       "s1.r1.se.expand.w", "s1.r1.se.expand.b"]
