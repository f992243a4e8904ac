"""Tensor core: kernels against loop oracles, backward against finite
differences and, for conv2d, an adjoint loop oracle; the fused
conv_bn_act against the conv2d -> batch_norm -> activation composition."""

import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import expit

from cev2 import (ConvSpec, Tape, Tensor, activation, backward, batch_norm,
                  build_network, channel_concat, channel_split4, channel_vector,
                  conv2d, conv_bn_act, cross_entropy_loss, elementwise,
                  finite_diff_check, nano_config, pool, sum_all, upsample_to)
from helpers import conv_bn_act_composed
from oracles import (bn_train_backward_ref, conv2d_backward_loops, conv2d_loops,
                     erf_series, gelu_ref, global_avg_loops, global_max_loops,
                     relu_ref, sigmoid_ref, silu_ref, upsample_to_ref,
                     window_max_loops)


def t(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64))


class TestTensorType:
    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError, match="rank-4"):
            Tensor(np.zeros((2, 3, 4)))

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError, match=">= 1"):
            Tensor(np.zeros((2, 0, 4, 4)))

    def test_item_requires_single_element(self):
        with pytest.raises(ValueError):
            t(np.zeros((1, 2, 1, 1))).item()
        assert t([[[[3.5]]]]).item() == 3.5

    def test_channel_vector_shape(self):
        v = channel_vector([1.0, 2.0, 3.0])
        assert v.shape == (1, 3, 1, 1)

    def test_channel_vector_copies_its_input(self):
        # a train-mode batch norm updates its running stats in place; the
        # array a running stat was built from must not see the update
        means = np.zeros(3)
        gamma, beta, rm, rv = (channel_vector(v) for v in
                               (np.ones(3), np.zeros(3), means, np.ones(3)))
        x = t(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
        batch_norm(x, gamma, beta, rm, rv, "train")
        assert rm.data.any()
        np.testing.assert_array_equal(means, np.zeros(3))


class TestConv2d:
    def test_all_ones_sums_to_nine(self):
        x = t(np.ones((1, 1, 3, 3)))
        w = t(np.ones((1, 1, 3, 3)))
        b = channel_vector([0.0])
        out = conv2d(x, w, b, ConvSpec(1, 1, 3, 3))
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 9.0

    def test_identity_kernel_with_padding(self):
        rng = np.random.default_rng(1)
        x = t(rng.normal(size=(1, 1, 3, 3)))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(x, t(w), None, ConvSpec(1, 1, 3, 3, padding=1))
        np.testing.assert_array_equal(out.data, x.data)

    def test_depthwise_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 6, 6))
        w = rng.normal(size=(4, 1, 3, 3))
        got = conv2d(t(x), t(w), None, ConvSpec(4, 4, 3, 3, groups=4)).data
        want = conv2d_loops(x, w, None, 1, 0, 4)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_random_cases_match_loop_oracle(self):
        rng = np.random.default_rng(3)
        for case in range(30):
            N, C, H, W = (int(rng.integers(1, 5)), int(rng.integers(1, 5)),
                          int(rng.integers(1, 9)), int(rng.integers(1, 9)))
            groups = 1 if rng.random() < 0.5 else C
            og_mult = int(rng.integers(1, 4))
            O = groups * og_mult
            KH = int(rng.integers(1, min(H, 3) + 1))
            KW = int(rng.integers(1, min(W, 3) + 1))
            stride = int(rng.integers(1, 3))
            padding = int(rng.integers(0, 2))
            if H + 2 * padding < KH or W + 2 * padding < KW:
                continue
            x = rng.normal(size=(N, C, H, W))
            w = rng.normal(size=(O, C // groups, KH, KW))
            b = rng.normal(size=O)
            spec = ConvSpec(C, O, KH, KW, stride=stride, padding=padding, groups=groups)
            got = conv2d(t(x), t(w), channel_vector(b), spec).data
            want = conv2d_loops(x, w, b, stride, padding, groups)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12,
                                       err_msg=f"case {case}")

    def test_backward_matches_adjoint_loop_oracle(self):
        # groups 1, C and 1 < G < C (with og > 1) in turn; strides 1 and 2,
        # paddings 0 and 1, and output sizes that leave input rows unread
        rng = np.random.default_rng(33)
        seen = set()
        for case in range(30):
            kind = case % 3
            if kind == 0:
                C, groups, og = int(rng.integers(1, 5)), 1, int(rng.integers(1, 5))
            elif kind == 1:
                C = groups = int(rng.integers(2, 5))
                og = int(rng.integers(1, 3))
            else:
                groups, og = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                C = groups * int(rng.integers(2, 4))
            O = groups * og
            N, H, W = int(rng.integers(1, 4)), int(rng.integers(3, 8)), int(rng.integers(3, 8))
            KH, KW = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            stride, padding = case % 2 + 1, (case // 2) % 2
            spec = ConvSpec(C, O, KH, KW, stride=stride, padding=padding, groups=groups)
            x = Tensor(rng.normal(size=(N, C, H, W)), requires_grad=True)
            w = Tensor(rng.normal(size=(O, C // groups, KH, KW)), requires_grad=True)
            b = Tensor(rng.normal(size=(1, O, 1, 1)), requires_grad=True)
            with Tape() as tape:
                out = conv2d(x, w, b, spec)
                gout = rng.normal(size=out.shape)
                loss = sum_all(elementwise(out, t(gout), "mul"))
            backward(tape, loss)
            want_gx, want_gw = conv2d_backward_loops(x.data, w.data, gout, stride, padding,
                                                     groups)
            msg = f"case {case}: {spec}"
            np.testing.assert_allclose(x.grad, want_gx, rtol=0, atol=1e-12, err_msg=msg)
            np.testing.assert_allclose(w.grad, want_gw, rtol=0, atol=1e-12, err_msg=msg)
            np.testing.assert_allclose(b.grad.reshape(-1), gout.sum(axis=(0, 2, 3)),
                                       rtol=0, atol=1e-12, err_msg=msg)
            seen.add(("groups", "1" if groups == 1 else "C" if groups == C else "between"))
            seen.add(("stride", stride))
            seen.add(("padding", padding))
            seen.add(("ragged", (H + 2 * padding - KH) % stride != 0))
        assert seen >= {("groups", "1"), ("groups", "C"), ("groups", "between"),
                        ("stride", 1), ("stride", 2), ("padding", 0), ("padding", 1),
                        ("ragged", True)}

    @pytest.mark.parametrize("H2,W2", [(1, 1), (2, 2), (3, 5), (7, 7)])
    def test_folded_small_maps_match_loop_oracles(self, H2, W2):
        # fewer than 64 output pixels per sample: samples share GEMM columns,
        # in chunks that N = 5 and N = 7 do not fill evenly
        rng = np.random.default_rng(40 + 10 * H2 + W2)
        for N in (5, 7):
            for C, groups, O in ((4, 1, 3), (4, 2, 4), (4, 4, 8)):
                for stride in (1, 2):
                    for KH, KW, padding in ((3, 3, 1), (1, 1, 0)):
                        H = (H2 - 1) * stride + KH - 2 * padding
                        W = (W2 - 1) * stride + KW - 2 * padding
                        spec = ConvSpec(C, O, KH, KW, stride=stride, padding=padding,
                                        groups=groups)
                        x = Tensor(rng.normal(size=(N, C, H, W)), requires_grad=True)
                        w = Tensor(rng.normal(size=(O, C // groups, KH, KW)),
                                   requires_grad=True)
                        b = Tensor(rng.normal(size=(1, O, 1, 1)), requires_grad=True)
                        with Tape() as tape:
                            out = conv2d(x, w, b, spec)
                            gout = rng.normal(size=out.shape)
                            loss = sum_all(elementwise(out, t(gout), "mul"))
                        backward(tape, loss)
                        assert out.shape == (N, O, H2, W2)
                        msg = f"N={N}: {spec}"
                        np.testing.assert_allclose(
                            out.data, conv2d_loops(x.data, w.data, b.data.reshape(-1), stride,
                                                   padding, groups),
                            rtol=0, atol=1e-12, err_msg=msg)
                        want_gx, want_gw = conv2d_backward_loops(x.data, w.data, gout, stride,
                                                                 padding, groups)
                        np.testing.assert_allclose(x.grad, want_gx, rtol=0, atol=1e-12,
                                                   err_msg=msg)
                        np.testing.assert_allclose(w.grad, want_gw, rtol=0, atol=1e-12,
                                                   err_msg=msg)
                        np.testing.assert_allclose(b.grad.reshape(-1), gout.sum(axis=(0, 2, 3)),
                                                   rtol=0, atol=1e-12, err_msg=msg)

    def test_grouped_between_one_and_c(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 6, 5, 5))
        w = rng.normal(size=(4, 3, 3, 3))
        spec = ConvSpec(6, 4, 3, 3, padding=1, groups=2)
        got = conv2d(t(x), t(w), None, spec).data
        want = conv2d_loops(x, w, None, 1, 1, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_shape_diagnostics(self):
        x = t(np.zeros((1, 3, 4, 4)))
        w = t(np.zeros((2, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv2d(x, w, None, ConvSpec(4, 2, 3, 3))
        with pytest.raises(ValueError, match="weight shape"):
            conv2d(x, t(np.zeros((2, 3, 5, 5))), None, ConvSpec(3, 2, 3, 3))
        with pytest.raises(ValueError, match="divisible"):
            ConvSpec(3, 2, 3, 3, groups=2)
        with pytest.raises(ValueError, match="larger than"):
            conv2d(x, t(np.zeros((2, 3, 5, 5))), None, ConvSpec(3, 2, 5, 5))


class TestPool:
    def test_global_avg_example(self):
        x = t(np.array([1.0, 2, 3, 4]).reshape(1, 1, 2, 2))
        assert pool(x, "global-avg").item() == 2.5

    def test_global_max_example(self):
        x = t(np.array([1.0, 2, 3, 4]).reshape(1, 1, 2, 2))
        assert pool(x, "global-max").item() == 4.0

    def test_window_max_example(self):
        x = t(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
        out = pool(x, "window-max", 2)
        np.testing.assert_array_equal(out.data.reshape(2, 2), [[6, 8], [14, 16]])

    def test_window_max_matches_oracle_ceil_mode(self):
        rng = np.random.default_rng(5)
        for H, W, k in ((5, 7, 2), (8, 8, 4), (3, 9, 3), (6, 4, 4), (1, 5, 2)):
            x = rng.normal(size=(2, 3, H, W))
            got = pool(t(x), "window-max", k).data
            want = window_max_loops(x, k)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    def test_global_kinds_match_oracles(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4, 5))
        np.testing.assert_allclose(pool(t(x), "global-avg").data,
                                   global_avg_loops(x), atol=1e-15)
        np.testing.assert_array_equal(pool(t(x), "global-max").data,
                                      global_max_loops(x))

    def test_global_avg_within_bounds_and_max_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4, 6, 6))
        avg = pool(t(x), "global-avg").data
        assert (avg >= x.min()).all() and (avg <= x.max()).all()
        np.testing.assert_array_equal(pool(t(x), "global-max").data,
                                      x.max(axis=(2, 3), keepdims=True))

    def test_window_max_rejections(self):
        x = t(np.zeros((1, 1, 4, 4)))
        with pytest.raises(ValueError, match="window >= 1"):
            pool(x, "window-max", 0)
        with pytest.raises(ValueError, match="unknown pool kind"):
            pool(x, "median")

    @pytest.mark.parametrize("shape,k", [((2, 3, 1, 1), 2), ((1, 2, 3, 3), 4),
                                         ((2, 2, 2, 5), 8), ((1, 3, 4, 4), 8),
                                         ((2, 1, 3, 7), 8)])
    def test_window_covering_the_map_is_global_max(self, shape, k):
        # values from {0, 1, 2} tie within a map, so both kinds must pick the
        # same first maximum for the gradients to agree byte for byte
        x = np.random.default_rng(k).integers(0, 3, size=shape).astype(np.float64)
        gate = t(np.random.default_rng(k + 1).normal(size=shape[:2] + (1, 1)))
        outs, grads = [], []
        for kind, window in (("window-max", k), ("global-max", 0)):
            xt = Tensor(x.copy(), requires_grad=True)
            with Tape() as tape:
                out = pool(xt, kind, window)
                loss = sum_all(elementwise(out, gate, "mul"))
            backward(tape, loss)
            outs.append(out.data.tobytes())
            grads.append(xt.grad.tobytes())
        assert outs[0] == outs[1]
        assert grads[0] == grads[1]

    def test_window_exceeding_one_dim_is_accepted(self):
        x = t(np.arange(8.0).reshape(1, 1, 2, 4))
        out = pool(x, "window-max", 4)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 7.0


class TestUpsample:
    def test_upsample_then_window_max_recovers(self):
        rng = np.random.default_rng(9)
        x = np.abs(rng.normal(size=(1, 1, 3, 3)))
        up = upsample_to(t(x), 6, 6)
        back = pool(up, "window-max", 2)
        np.testing.assert_array_equal(back.data, x)

    def test_upsample_to_matches_floor_map_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 5, 7))
        got = upsample_to(t(x), 8, 11).data
        np.testing.assert_array_equal(got, upsample_to_ref(x, 8, 11))

    def test_upsample_to_rejects_shrink(self):
        with pytest.raises(ValueError, match="smaller"):
            upsample_to(t(np.zeros((1, 1, 4, 4))), 2, 8)


class TestActivation:
    def test_fixed_points(self):
        assert activation(t([[[[0.0]]]]), "sigmoid").item() == 0.5
        assert activation(t([[[[0.0]]]]), "gelu").item() == 0.0
        assert activation(t([[[[-1.0]]]]), "relu").item() == 0.0

    def test_gelu_at_one_matches_series(self):
        got = activation(t([[[[1.0]]]]), "gelu").item()
        assert abs(got - 0.8413447) < 1e-7
        want = 1.0 * 0.5 * (1.0 + erf_series(1.0 / np.sqrt(2.0)))
        assert abs(got - want) < 1e-15

    def test_random_against_refs(self):
        rng = np.random.default_rng(11)
        x = rng.normal(scale=2.0, size=(2, 3, 4, 4))
        np.testing.assert_allclose(activation(t(x), "relu").data, relu_ref(x), atol=0)
        np.testing.assert_allclose(activation(t(x), "sigmoid").data, sigmoid_ref(x), atol=1e-15)
        np.testing.assert_allclose(activation(t(x), "silu").data, silu_ref(x), atol=1e-15)
        np.testing.assert_allclose(activation(t(x), "gelu").data, gelu_ref(x), atol=1e-14)

    def test_gelu_matches_series_on_grid(self):
        for z in np.linspace(-2.0, 2.0, 41):
            got = activation(t([[[[z]]]]), "gelu").item()
            want = z * 0.5 * (1.0 + erf_series(z / np.sqrt(2.0)))
            assert abs(got - want) < 1e-14

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation(t(np.zeros((1, 1, 1, 1))), "tanh")


class TestForwardOnlyPath:
    """Backward-only arrays are built inside the rules, so a forward with no
    recording tape must give the same bytes as one that records."""

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "silu", "gelu"])
    def test_activation_bytes_same_with_and_without_tape(self, kind):
        x = np.random.default_rng(31).normal(scale=3.0, size=(2, 3, 5, 5))
        bare = activation(t(x), kind)
        with Tape() as tape:
            taped = activation(Tensor(x, requires_grad=True), kind)
        assert len(tape) == 1
        assert bare.data.tobytes() == taped.data.tobytes()

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batch_norm_bytes_same_with_and_without_tape(self, mode):
        rng = np.random.default_rng(32)
        x = rng.normal(1.0, 2.0, size=(3, 4, 5, 5))
        vecs = [rng.normal(1.0, 0.3, 4), rng.normal(0.0, 0.3, 4),
                rng.normal(0.0, 0.5, 4), rng.uniform(0.5, 2.0, 4)]

        def run(record):
            gamma, beta, rm, rv = (channel_vector(v.copy()) for v in vecs)
            xt = Tensor(x, requires_grad=record)
            gamma.requires_grad = beta.requires_grad = record
            with Tape() as tape:
                out = batch_norm(xt, gamma, beta, rm, rv, mode)
            assert len(tape) == int(record)
            return out.data.tobytes(), rm.data.tobytes(), rv.data.tobytes()

        assert run(False) == run(True)

    def test_sigmoid_matches_expit(self):
        x = np.linspace(-700.0, 700.0, 140001).reshape(1, 1, 1, -1)
        got = activation(t(x), "sigmoid").data
        np.testing.assert_allclose(got, expit(x), rtol=1e-15, atol=0)

    def test_sigmoid_saturates_without_overflow_warning(self):
        x = t([[[[-1e4, -750.0, 750.0, 1e4]]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = activation(x, "sigmoid").data.ravel()
            silu = activation(x, "silu").data.ravel()
        assert sig.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert silu.tolist() == [0.0, 0.0, 750.0, 1e4]


class TestSplitConcat:
    def test_quarter_ranges(self):
        x = np.arange(8.0).reshape(1, 8, 1, 1)
        parts = channel_split4(t(x))
        for i, p in enumerate(parts):
            np.testing.assert_array_equal(p.data.reshape(-1), [2 * i, 2 * i + 1])

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(2, 12, 3, 3))
        back = channel_concat(list(channel_split4(t(x))))
        np.testing.assert_array_equal(back.data, x)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="divisible by 4"):
            channel_split4(t(np.zeros((1, 6, 2, 2))))

    def test_concat_shape_mismatch(self):
        a = t(np.zeros((1, 2, 3, 3)))
        b = t(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ValueError, match="incompatible"):
            channel_concat([a, b])


class TestElementwise:
    def test_mul_identity(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 2, 3, 3))
        out = elementwise(t(x), t(np.ones_like(x)), "mul")
        np.testing.assert_array_equal(out.data, x)

    def test_channel_broadcast(self):
        x = np.ones((1, 2, 2, 2))
        v = channel_vector([0.5, 2.0])
        out = elementwise(t(x), v, "mul").data
        np.testing.assert_array_equal(out[0, 0], 0.5 * np.ones((2, 2)))
        np.testing.assert_array_equal(out[0, 1], 2.0 * np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            elementwise(t(np.zeros((1, 2, 3, 3))), t(np.zeros((1, 2, 2, 3))), "add")
        with pytest.raises(ValueError, match="unknown elementwise"):
            elementwise(t(np.zeros((1, 1, 1, 1))), t(np.zeros((1, 1, 1, 1))), "div")


class TestBatchNorm:
    def _fresh(self, c):
        return (channel_vector(np.ones(c)), channel_vector(np.zeros(c)),
                channel_vector(np.zeros(c)), channel_vector(np.ones(c)))

    def test_constant_input_returns_beta(self):
        gamma, beta, rm, rv = self._fresh(2)
        beta.data[...] = np.array([1.5, -2.0]).reshape(1, 2, 1, 1)
        x = t(np.full((3, 2, 4, 4), 7.0))
        out = batch_norm(x, gamma, beta, rm, rv, "train")
        np.testing.assert_allclose(out.data[:, 0], 1.5, atol=1e-12)
        np.testing.assert_allclose(out.data[:, 1], -2.0, atol=1e-12)

    def test_standardized_input_nearly_unchanged(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(8, 2, 5, 5))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        gamma, beta, rm, rv = self._fresh(2)
        out = batch_norm(t(x), gamma, beta, rm, rv, "train")
        # only the eps guard separates output from input
        np.testing.assert_allclose(out.data, x, atol=2e-3)

    def test_output_moments(self):
        rng = np.random.default_rng(16)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 2, 3, 3))
        gamma, beta, rm, rv = self._fresh(2)
        out = batch_norm(t(x), gamma, beta, rm, rv, "train").data
        var = x.var(axis=(0, 2, 3))
        for c in range(2):
            assert abs(out[:, c].mean()) < 1e-10
            assert abs(out[:, c].var() - var[c] / (var[c] + 1e-3)) < 1e-6

    def test_running_stats_momentum_update(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(4, 3, 2, 2))
        gamma, beta, rm, rv = self._fresh(3)
        rm.data[...] = 0.5
        rv.data[...] = 2.0
        batch_norm(t(x), gamma, beta, rm, rv, "train")
        mu = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        np.testing.assert_allclose(rm.data.reshape(-1), 0.9 * 0.5 + 0.1 * mu, atol=1e-15)
        np.testing.assert_allclose(rv.data.reshape(-1), 0.9 * 2.0 + 0.1 * var, atol=1e-15)

    def test_eval_uses_running_stats_and_leaves_them_alone(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(2, 2, 3, 3))
        gamma, beta, rm, rv = self._fresh(2)
        rm.data[...] = np.array([0.3, -0.1]).reshape(1, 2, 1, 1)
        rv.data[...] = np.array([1.7, 0.4]).reshape(1, 2, 1, 1)
        before = (rm.data.copy(), rv.data.copy())
        out = batch_norm(t(x), gamma, beta, rm, rv, "eval").data
        want = (x - before[0]) / np.sqrt(before[1] + 1e-3)
        np.testing.assert_allclose(out, want, atol=1e-14)
        np.testing.assert_array_equal(rm.data, before[0])
        np.testing.assert_array_equal(rv.data, before[1])

    def test_fresh_eval_is_well_defined(self):
        gamma, beta, rm, rv = self._fresh(2)
        x = t(np.random.default_rng(19).normal(size=(1, 2, 2, 2)))
        out = batch_norm(x, gamma, beta, rm, rv, "eval")
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("shape", [(1, 3, 4, 4), (8, 5, 1, 1), (4, 1, 3, 3),
                                       (16, 64, 8, 8)])
    def test_train_backward_matches_textbook_oracle(self, shape):
        rng = np.random.default_rng(sum(shape))
        C = shape[1]
        x = Tensor(rng.normal(loc=0.5, scale=2.0, size=shape), requires_grad=True)
        gamma = Tensor(rng.normal(1.0, 0.3, size=(1, C, 1, 1)), requires_grad=True)
        beta = Tensor(rng.normal(0.0, 0.3, size=(1, C, 1, 1)), requires_grad=True)
        rm = channel_vector(rng.normal(size=C))
        rv = channel_vector(rng.uniform(0.5, 2.0, size=C))
        gout = rng.normal(size=shape)
        want = bn_train_backward_ref(x.data, gamma.data.reshape(-1), gout,
                                     rm.data.reshape(-1), rv.data.reshape(-1))
        with Tape() as tape:
            out = batch_norm(x, gamma, beta, rm, rv, "train")
            loss = sum_all(elementwise(out, t(gout), "mul"))
        backward(tape, loss)
        got = (x.grad, gamma.grad.reshape(-1), beta.grad.reshape(-1),
               rm.data.reshape(-1), rv.data.reshape(-1))
        for name, g, w in zip(("dx", "dgamma", "dbeta", "running_mean", "running_var"),
                              got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=f"{shape} {name}")

    def test_bad_mode_and_shapes(self):
        gamma, beta, rm, rv = self._fresh(2)
        x = t(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ValueError, match="unknown batch_norm mode"):
            batch_norm(x, gamma, beta, rm, rv, "test")
        with pytest.raises(ValueError, match="gamma"):
            batch_norm(x, channel_vector([1.0]), beta, rm, rv, "train")


# (N, C, O, H, W, kernel, stride, groups, act): groups 1 and C, strides 1
# and 2, silu and no activation, one sample, 1x1 kernels and a 1x1 output map
CBA_CASES = [
    (2, 3, 4, 6, 6, 3, 1, 1, "silu"),
    (2, 3, 4, 7, 7, 3, 2, 1, None),
    (3, 4, 4, 7, 7, 3, 2, 4, "silu"),
    (2, 6, 6, 5, 5, 3, 1, 6, None),
    (1, 3, 5, 5, 5, 3, 1, 1, "silu"),
    (1, 4, 4, 6, 6, 3, 2, 4, None),
    (4, 5, 7, 4, 4, 1, 1, 1, "silu"),
    (3, 4, 6, 2, 2, 3, 2, 1, "silu"),
    (5, 4, 4, 2, 2, 3, 2, 4, None),
]


class TestConvBnAct:
    """The fused op against conv2d -> batch_norm -> activation: the same
    bytes in train mode, within 1e-10 in eval mode, where batch norm is
    folded into the conv weight and a bias."""

    @staticmethod
    def _run(op, case, mode, seed):
        N, C, O, H, W, k, s, groups, act = case
        rng = np.random.default_rng(seed)
        spec = ConvSpec(C, O, k, k, stride=s, padding=(k - 1) // 2, groups=groups)
        x = Tensor(rng.normal(0.3, 1.5, (N, C, H, W)), requires_grad=True)
        w = Tensor(rng.normal(0, 0.5, (O, C // groups, k, k)), requires_grad=True)
        gamma = Tensor(rng.normal(1.0, 0.3, (1, O, 1, 1)), requires_grad=True)
        beta = Tensor(rng.normal(0.0, 0.3, (1, O, 1, 1)), requires_grad=True)
        rm = channel_vector(rng.normal(0.0, 0.5, O))
        rv = channel_vector(rng.uniform(0.5, 2.0, O))
        with Tape() as tape:
            out = op(x, w, gamma, beta, rm, rv, spec, mode, act)
            gate = t(rng.normal(size=out.shape))
            loss = sum_all(elementwise(out, gate, "mul"))
        backward(tape, loss)
        return {"out": out.data, "running_mean": rm.data, "running_var": rv.data,
                "x": x.grad, "w": w.grad, "gamma": gamma.grad, "beta": beta.grad}

    @pytest.mark.parametrize("case", CBA_CASES)
    def test_train_matches_composition_byte_for_byte(self, case):
        got = self._run(conv_bn_act, case, "train", 70)
        want = self._run(conv_bn_act_composed, case, "train", 70)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), f"{case} {name}"

    @pytest.mark.parametrize("case", CBA_CASES)
    def test_eval_fold_matches_composition(self, case):
        got = self._run(conv_bn_act, case, "eval", 71)
        want = self._run(conv_bn_act_composed, case, "eval", 71)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10,
                                       err_msg=f"{case} {name}")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_forward_without_tape_gives_the_same_bytes(self, mode):
        rng = np.random.default_rng(72)
        x = rng.normal(size=(2, 3, 6, 6))
        w = Tensor(rng.normal(0, 0.5, (4, 3, 3, 3)))
        vecs = [rng.normal(1.0, 0.3, 4), rng.normal(0.0, 0.3, 4),
                rng.normal(0.0, 0.5, 4), rng.uniform(0.5, 2.0, 4)]
        spec = ConvSpec(3, 4, 3, 3, stride=1, padding=1)

        def run(record):
            gamma, beta, rm, rv = (channel_vector(v) for v in vecs)
            with Tape() as tape:
                out = conv_bn_act(Tensor(x.copy(), requires_grad=record), w, gamma, beta,
                                  rm, rv, spec, mode, "silu")
            assert len(tape) == int(record)
            return out.data.tobytes(), rm.data.tobytes(), rv.data.tobytes()

        assert run(False) == run(True)

    def test_backward_empties_the_tape_and_frees_saved_arrays(self):
        rng = np.random.default_rng(73)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        gamma, beta = channel_vector(np.ones(4)), channel_vector(np.zeros(4))
        rm, rv = channel_vector(np.zeros(4)), channel_vector(np.ones(4))
        with Tape() as tape:
            out = conv_bn_act(x, w, gamma, beta, rm, rv, ConvSpec(3, 4, 3, 3, padding=1),
                              "train", "silu")
            loss = sum_all(elementwise(out, t(rng.normal(size=out.shape)), "mul"))
        assert len(tape) == 3
        # the arrays the fused rule saved (xhat, the sigmoid, the padded
        # input's patch view, inv), not the caller's weight
        saved = [weakref.ref(c.cell_contents) for c in tape._rules[0].__closure__
                 if isinstance(c.cell_contents, np.ndarray) and c.cell_contents is not w.data]
        assert len(saved) >= 3
        backward(tape, loss)
        assert len(tape) == 0
        assert all(ref() is None for ref in saved)
        assert x.grad is not None and w.grad is not None

    def test_rejections(self):
        x = t(np.zeros((1, 3, 4, 4)))
        w = t(np.zeros((2, 3, 3, 3)))
        vecs = [channel_vector(np.ones(2)) for _ in range(4)]
        spec = ConvSpec(3, 2, 3, 3, padding=1)
        with pytest.raises(ValueError, match="unknown batch_norm mode"):
            conv_bn_act(x, w, *vecs, spec, "test", "silu")
        with pytest.raises(ValueError, match="unknown activation"):
            conv_bn_act(x, w, *vecs, spec, "train", "relu")
        with pytest.raises(ValueError, match="weight shape"):
            conv_bn_act(x, t(np.zeros((1, 3, 3, 3))), *vecs, spec, "eval", "silu")
        with pytest.raises(ValueError, match="gamma"):
            conv_bn_act(x, w, channel_vector([1.0]), *vecs[1:], spec, "eval", None)

    def test_nano_train_step_memory_and_rule_count(self):
        """Freeing rules during the replay and saving only xhat, the sigmoid
        and the padded input per conv->BN->SiLU layer bound a batch-16 step
        (the unfused, unfreed tape held 165 MB after the forward and peaked
        at 262 MB, with 103 rules)."""
        net, _ = build_network(nano_config(), seed=3)
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(0.0, 1.0, (16, 3, 64, 64)))
        labels = [int(v) for v in rng.integers(0, 4, 16)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = cross_entropy_loss(net.forward(x, "train"), labels)
            held = tracemalloc.get_traced_memory()[0] - base
            rules = len(tape)
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rules == 81
        assert held <= 125e6, f"forward holds {held / 1e6:.1f} MB"
        assert peak <= 135e6, f"step peaks at {peak / 1e6:.1f} MB"


class TestBackward:
    def test_sum_gives_ones(self):
        x = t(np.random.default_rng(20).normal(size=(2, 3, 2, 2)))
        x.requires_grad = True
        tape = Tape()
        with tape:
            loss = sum_all(x)
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_quadratic_gives_two_x(self):
        x = t(np.random.default_rng(21).normal(size=(1, 2, 3, 3)))
        x.requires_grad = True
        tape = Tape()
        with tape:
            loss = sum_all(elementwise(x, x, "mul"))
        backward(tape, loss)
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = t(np.zeros((1, 2, 1, 1)))
        x.requires_grad = True
        tape = Tape()
        with tape:
            y = elementwise(x, x, "mul")
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, y)

    def test_tape_consumed_once(self):
        x = t(np.zeros((1, 1, 1, 1)))
        x.requires_grad = True
        tape = Tape()
        with tape:
            loss = sum_all(x)
        backward(tape, loss)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(tape, loss)

    def test_grad_accumulates_across_uses(self):
        x = t(np.full((1, 1, 1, 1), 3.0))
        x.requires_grad = True
        tape = Tape()
        with tape:
            loss = sum_all(elementwise(x, x, "add"))
        backward(tape, loss)
        assert x.grad.reshape(-1)[0] == 2.0

    def test_no_recording_without_tape(self):
        x = t(np.zeros((1, 1, 2, 2)))
        x.requires_grad = True
        out = activation(x, "relu")
        assert out.requires_grad is False


class TestGradOwnership:
    """A rule's fresh gradient buffer is adopted without a copy; nothing
    else may end up shared between two tensors' gradients."""

    def test_add_gives_each_operand_its_own_buffer(self):
        rng = np.random.default_rng(60)
        a = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        gout = rng.normal(size=(2, 3, 2, 2))
        with Tape() as tape:
            loss = sum_all(elementwise(elementwise(a, b, "add"), t(gout), "mul"))
        backward(tape, loss)
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        a.grad[...] = 0.0
        np.testing.assert_array_equal(b.grad, gout)

    def test_x_plus_x_gives_twice_the_gradient(self):
        rng = np.random.default_rng(61)
        x = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        gout = rng.normal(size=(2, 3, 2, 2))
        with Tape() as tape:
            loss = sum_all(elementwise(elementwise(x, x, "add"), t(gout), "mul"))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, 2.0 * gout)

    def test_second_use_of_global_avg_input_accumulates(self):
        # the global-avg rule runs first and hands x a read-only broadcast;
        # the relu rule then adds into x's gradient
        rng = np.random.default_rng(62)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        with Tape() as tape:
            h = activation(x, "relu")
            avg = pool(x, "global-avg")
            loss = sum_all(elementwise(h, avg, "mul"))
        backward(tape, loss)
        relu = np.maximum(x.data, 0.0)
        want = ((x.data > 0) * x.data.mean(axis=(2, 3), keepdims=True)
                + relu.sum(axis=(2, 3), keepdims=True) / 16.0)
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-14)
        assert x.grad.flags.writeable

    def test_concat_parts_do_not_alias_the_output_gradient(self):
        rng = np.random.default_rng(63)
        for n_parts in (1, 3):
            parts = [Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
                     for _ in range(n_parts)]
            with Tape() as tape:
                out = channel_concat(parts)
                loss = sum_all(elementwise(out, t(rng.normal(size=out.shape)), "mul"))
            backward(tape, loss)
            for i, p in enumerate(parts):
                assert not np.shares_memory(p.grad, out.grad)
                np.testing.assert_array_equal(p.grad, out.grad[:, 2 * i:2 * i + 2])

    def test_every_leaf_gradient_is_writeable(self):
        rng = np.random.default_rng(64)
        x = Tensor(rng.normal(size=(3, 4, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4, 3, 3)), requires_grad=True)
        wp = Tensor(rng.normal(size=(4, 4, 1, 1)), requires_grad=True)
        bias = Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
        gamma = Tensor(np.ones((1, 4, 1, 1)), requires_grad=True)
        beta = Tensor(np.zeros((1, 4, 1, 1)), requires_grad=True)
        rm, rv = channel_vector(np.zeros(4)), channel_vector(np.ones(4))
        leaves = (x, w, wp, bias, gamma, beta)
        with Tape() as tape:
            h = conv2d(x, w, bias, ConvSpec(4, 4, 3, 3, padding=1))
            h = activation(batch_norm(h, gamma, beta, rm, rv, "train"), "silu")
            gate = activation(conv2d(pool(h, "global-avg"), wp, None, ConvSpec(4, 4, 1, 1)),
                              "sigmoid")
            h = elementwise(elementwise(h, gate, "mul"), x, "add")
            parts = channel_split4(h)
            h = channel_concat([parts[2], parts[0], parts[3], parts[1]])
            h = elementwise(h, pool(h, "global-max"), "add")
            loss = sum_all(upsample_to(pool(h, "window-max", 2), 6, 6))
        backward(tape, loss)
        for i, leaf in enumerate(leaves):
            assert leaf.grad is not None, i
            assert leaf.grad.flags.writeable, i
            assert leaf.grad.shape == leaf.shape, i
        for i, a in enumerate(leaves):
            for b in leaves[i + 1:]:
                assert not np.shares_memory(a.grad, b.grad)


class TestFiniteDiff:
    def test_sum_of_squares_exact(self):
        x = t(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1, 1))
        err = finite_diff_check(lambda v: sum_all(elementwise(v, v, "mul")), x)
        assert err < 1e-8
        np.testing.assert_allclose(x.grad.reshape(-1), [2.0, 4.0, 6.0], atol=1e-12)

    def test_linear_map_near_machine_precision(self):
        rng = np.random.default_rng(22)
        gate = t(rng.normal(size=(1, 4, 2, 2)))
        x = t(rng.normal(size=(1, 4, 2, 2)))
        err = finite_diff_check(lambda v: sum_all(elementwise(v, gate, "mul")), x)
        assert err < 1e-10

    def test_sigmoid_sum(self):
        x = t(np.random.default_rng(23).normal(size=(1, 3, 3, 3)))
        err = finite_diff_check(lambda v: sum_all(activation(v, "sigmoid")), x)
        assert err < 1e-6

    def test_every_op_over_twenty_seeds(self):
        # one composite touching conv, pool, activation, upsample, bn-eval,
        # split/concat, elementwise; fresh random tensors per seed
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            w = t(rng.normal(scale=0.5, size=(4, 4, 3, 3)))
            gamma = channel_vector(rng.normal(1.0, 0.1, 4))
            beta = channel_vector(rng.normal(0.0, 0.1, 4))
            rm = channel_vector(rng.normal(0.0, 0.2, 4))
            rv = channel_vector(rng.uniform(0.5, 1.5, 4))
            vec = channel_vector(rng.normal(size=4))

            def f(v):
                h = conv2d(v, w, None, ConvSpec(4, 4, 3, 3, padding=1))
                h = batch_norm(h, gamma, beta, rm, rv, "eval")
                h = activation(h, "gelu")
                parts = channel_split4(h)
                h = channel_concat([parts[1], parts[0], parts[3], parts[2]])
                h = pool(h, "window-max", 2)
                h = upsample_to(h, 6, 6)
                h = elementwise(h, vec, "mul")
                h = activation(h, "silu")
                return sum_all(h)

            x = t(0.07 * (rng.permutation(144) - 72.0).reshape(1, 4, 6, 6))
            err = finite_diff_check(f, x)
            assert err < 1e-4, f"seed {seed}: {err}"

    def test_requires_scalar_output(self):
        x = t(np.zeros((1, 2, 1, 1)))
        with pytest.raises(ValueError, match="scalar"):
            finite_diff_check(lambda v: elementwise(v, v, "add"), x)
