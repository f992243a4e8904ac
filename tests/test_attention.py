"""Channel attention: algebraic identities, straight-line transcription, the
fused gates against their tape-op composition byte for byte, and every gate
parameter against central differences."""

import numpy as np
import pytest

from cev2 import (CEParams, ParamStore, SEParams, Tape, Tensor, backward, ce_forward,
                  finite_diff_check, init_weights, se_forward)
from cev2.gradcheck import _tie_safe
from helpers import ce_composed, ce_weights, se_composed, se_weights
from oracles import attention_param_count, ce_ref, se_ref, sigmoid_ref


def make_ce(channels: int, seed: int) -> CEParams:
    store = ParamStore()
    params = CEParams(store, "blk", channels)
    init_weights(store, np.random.default_rng(seed))
    return params


def make_se(channels: int, seed: int, r: int = 4) -> SEParams:
    store = ParamStore()
    params = SEParams(store, "blk", channels, r=r)
    init_weights(store, np.random.default_rng(seed))
    return params


def zero_all(params) -> None:
    for w, b, _ in (*params.mlp, *getattr(params, "post", ())):
        w.data[...] = 0.0
        b.data[...] = 0.0


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
            want = ce_ref(x, ce_weights(params))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"seed {seed}")

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
        params.mlp[1][1].data[...] = 20.0
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


def gate_params(kind: str, channels: int, seed: int):
    """(params, every weight and bias in registration order) of a CE or SE
    block, its biases drawn too, so that no ReLU mask is trivial."""
    store = ParamStore()
    params = (CEParams(store, "blk", channels) if kind == "ce"
              else SEParams(store, "blk", channels, r=4))
    rng = np.random.default_rng(seed)
    init_weights(store, rng)
    tensors = [p for _, p in store.learnable_items()]
    for p in tensors[1::2]:
        p.data[...] = rng.normal(0.0, 0.3, p.shape)
    return params, tensors


FUSED = {"ce": (ce_forward, ce_composed), "se": (se_forward, se_composed)}


class TestFusedGate:
    """ce_forward and se_forward record one rule each, and give the bytes of
    the pool / conv / ReLU / add / sigmoid / broadcast-multiply chain of tape
    ops they fuse: the output, and the gradients of x and every weight and
    bias."""

    @staticmethod
    def _run(gate, params, tensors, x, x_grad: bool, gout):
        xt = Tensor(x.copy(), requires_grad=x_grad)
        for p in tensors:
            p.zero_grad()
        with Tape() as tape:
            out = gate(xt, params)
            rules = len(tape)
        backward(tape, out, gout)
        grads = [p.grad.tobytes() for p in ([xt] if x_grad else []) + tensors]
        return rules, out.data.tobytes(), grads

    @pytest.mark.parametrize("kind", ["ce", "se"])
    @pytest.mark.parametrize("shape,inputs", [((16, 128, 8, 8), "normal"),
                                              ((16, 256, 4, 4), "normal"),
                                              ((3, 8, 5, 7), "tie-safe"),
                                              ((2, 8, 6, 3), "ties")])
    @pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "no-x-grad"])
    def test_same_bytes_as_the_composition(self, kind, shape, inputs, x_grad):
        # the nano attention shapes; a map with H != W and distinct entries;
        # one whose entries tie, so the max pool's first maximum matters
        rng = np.random.default_rng(sum(shape))
        x = {"normal": lambda: rng.normal(size=shape), "tie-safe": lambda: _tie_safe(rng, shape).data,
             "ties": lambda: rng.integers(0, 3, size=shape).astype(np.float64)}[inputs]()
        gout = rng.normal(size=shape)
        params, tensors = gate_params(kind, shape[1], seed=shape[1])
        fused, composed = FUSED[kind]
        rules, out, grads = self._run(fused, params, tensors, x, x_grad, gout)
        want_rules, want_out, want_grads = self._run(composed, params, tensors, x, x_grad, gout)
        assert rules == 1
        pools = {"ce": 2, "se": 1}[kind]  # pool ops, which record only when x tracks grads
        assert want_rules == {"ce": 12, "se": 6}[kind] - (0 if x_grad else pools)
        assert out == want_out
        assert grads == want_grads

    @pytest.mark.parametrize("kind", ["ce", "se"])
    def test_every_parameter_and_x_match_central_differences(self, kind):
        # mlp2, every bias and expand have no analytic gradcheck entry
        rng = np.random.default_rng(90)
        params, tensors = gate_params(kind, 8, seed=91)
        x = _tie_safe(rng, (2, 8, 5, 4))  # no argmax flip under a 1e-3 probe
        gout = rng.normal(size=x.shape)
        fused = FUSED[kind][0]
        err = finite_diff_check(lambda ts: fused(ts[0], params), [x] + tensors, cotangent=gout)
        assert err < 1e-4


class TestParamCounts:
    def test_frozen_values(self):
        assert attention_param_count("ce", 8) == 216
        assert attention_param_count("ce", 1) == 6
        assert attention_param_count("se", 8, r=4) == 42

    @pytest.mark.parametrize("channels", [4, 8, 16, 32])
    def test_count_matches_stored_scalars_ce(self, channels):
        store = ParamStore()
        CEParams(store, "blk", channels)
        assert store.count_learnable() == attention_param_count("ce", channels)

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
