"""Tensor core: kernels against loop oracles, backward against finite
differences and, for conv2d, an adjoint loop oracle; the fused
conv_bn_act against the conv2d -> batch_norm -> silu composition of the
tape-level references in helpers.py."""

import contextlib
import math
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy.special import expit

from cev2 import (ConvSpec, ParamStore, SAFMParams, Tape, Tensor, add, backward, build_network,
                  channel_vector, conv2d, conv_bn_act, cross_entropy_loss, dp_safm_forward,
                  finite_diff_check, init_weights, nano_config, pool)
import cev2.tensor as tensor_module
from cev2.tensor import (_BLOCK, _conv_backward, _conv_forward, _erf, _gelu, _sigmoid, _silu,
                         _silu_grad, record_op)
from helpers import (batch_norm, conv_bn_act_composed, gelu, global_max, mul, relu, sigmoid, silu,
                     window_max)
from oracles import (bn_train_backward_ref, conv2d_backward_loops, conv2d_loops,
                     erf_series, gelu_ref, global_avg_loops, global_max_loops,
                     relu_ref, sigmoid_ref, silu_ref, window_max_loops)


def t(arr) -> Tensor:
    return Tensor(np.asarray(arr, dtype=np.float64))


def _safm(channels: int, rng: np.random.Generator | None = None) -> SAFMParams:
    """SAFM weights over channels; zero convs unless rng draws them."""
    store = ParamStore()
    params = SAFMParams(store, "s", channels)
    if rng is not None:
        init_weights(store, rng)
    return params


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
        # batch norm under a tape updates its running stats in place; the
        # array a running stat was built from must not see the update
        means = np.zeros(3)
        gamma, beta, rm, rv = (channel_vector(v) for v in
                               (np.ones(3), np.zeros(3), means, np.ones(3)))
        x = t(np.random.default_rng(0).normal(size=(2, 3, 4, 4)))
        with Tape():
            batch_norm(x, gamma, beta, rm, rv)
        assert rm.data.any()
        np.testing.assert_array_equal(means, np.zeros(3))

    @pytest.mark.parametrize("kind", ["slice", "broadcast", "read-only", "float32"])
    def test_first_gradient_owned_elsewhere_is_copied(self, kind):
        base = np.arange(32.0).reshape(2, 4, 2, 2)
        read_only = base[1].reshape(1, 4, 2, 2).copy()
        read_only.flags.writeable = False
        g = {"slice": base[:1], "broadcast": np.broadcast_to(base[:1, :1], (1, 4, 2, 2)),
             "read-only": read_only, "float32": base[:1].astype(np.float32)}[kind]
        source = np.array(g)
        x = Tensor(np.zeros((1, 4, 2, 2)))
        x.accumulate_grad(g)
        assert x.grad is not g and x.grad.dtype == np.float64
        x.accumulate_grad(np.ones((1, 4, 2, 2)))
        np.testing.assert_array_equal(g, source)
        np.testing.assert_array_equal(x.grad, source + 1.0)

    def test_fresh_float64_first_gradient_is_adopted(self):
        g = np.ones((1, 4, 2, 2))
        x = Tensor(np.zeros((1, 4, 2, 2)))
        x.accumulate_grad(g)
        assert x.grad is g


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
        # paddings 0 and 1, and output sizes that leave input rows unread;
        # then fixed cases (N, C, groups, og, H, W, KH, KW, stride, padding):
        # padding 2, padding >= kernel (g entries that read only padding),
        # non-square kernels over H != W maps, and og > cg
        fixed = [(2, 3, 1, 2, 5, 6, 3, 3, 1, 2), (2, 4, 2, 2, 6, 5, 3, 3, 2, 2),
                 (2, 2, 1, 3, 4, 5, 1, 1, 1, 1), (2, 2, 2, 1, 5, 4, 2, 2, 2, 2),
                 (2, 3, 1, 4, 5, 7, 1, 3, 1, 0), (2, 3, 3, 1, 7, 5, 3, 2, 2, 1),
                 (2, 2, 2, 4, 5, 6, 3, 3, 1, 1), (2, 2, 1, 12, 6, 5, 3, 3, 2, 1)]
        rng = np.random.default_rng(33)
        seen = set()
        for case in range(30 + len(fixed)):
            if case >= 30:
                N, C, groups, og, H, W, KH, KW, stride, padding = fixed[case - 30]
            else:
                kind = case % 3
                if kind == 0:
                    C, groups, og = int(rng.integers(1, 5)), 1, int(rng.integers(1, 5))
                elif kind == 1:
                    C = groups = int(rng.integers(2, 5))
                    og = int(rng.integers(1, 3))
                else:
                    groups, og = int(rng.integers(2, 4)), int(rng.integers(2, 4))
                    C = groups * int(rng.integers(2, 4))
                N, H, W = (int(rng.integers(1, 4)), int(rng.integers(3, 8)),
                           int(rng.integers(3, 8)))
                KH, KW = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                stride, padding = case % 2 + 1, (case // 2) % 2
            O = groups * og
            spec = ConvSpec(C, O, KH, KW, stride=stride, padding=padding, groups=groups)
            x = Tensor(rng.normal(size=(N, C, H, W)), requires_grad=True)
            w = Tensor(rng.normal(size=(O, C // groups, KH, KW)), requires_grad=True)
            b = Tensor(rng.normal(size=(1, O, 1, 1)), requires_grad=True)
            with Tape() as tape:
                out = conv2d(x, w, b, spec)
                gout = rng.normal(size=out.shape)
            backward(tape, out, gout)
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
            seen.add(("padding >= kernel", padding >= min(KH, KW)))
            seen.add(("non-square over H != W", KH != KW and H != W, stride))
            seen.add(("og > cg", og > C // groups))
        assert seen >= {("groups", "1"), ("groups", "C"), ("groups", "between"),
                        ("stride", 1), ("stride", 2), ("padding", 0), ("padding", 1),
                        ("padding", 2), ("ragged", True), ("padding >= kernel", True),
                        ("non-square over H != W", True, 1), ("non-square over H != W", True, 2),
                        ("og > cg", True)}

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
                        backward(tape, out, gout)
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

    @pytest.mark.parametrize("N,C,O,H,k,stride,groups,sliced", [
        (5, 4, 6, 4, 3, 1, 1, False),    # 4x4 outputs fold as chunks of 4 and 1
        (3, 3, 4, 16, 3, 2, 1, False),   # stride 2, padding 1, one sample per chunk
        (3, 4, 4, 8, 3, 1, 4, True),     # depthwise over a channel slice, as SAFM
    ], ids=["short-last-chunk", "stride2-padded", "channel-slice"])
    def test_chunk_kernels_match_loop_oracles(self, N, C, O, H, k, stride, groups, sliced):
        rng = np.random.default_rng(45 + N)
        xd = rng.normal(size=(N, 4 * C if sliced else C, H, H))
        if sliced:
            xd = xd[:, C:2 * C]
            assert not xd.flags.c_contiguous
        w = Tensor(rng.normal(size=(O, C // groups, k, k)), requires_grad=True)
        b = Tensor(np.zeros((1, O, 1, 1)), requires_grad=True)
        out = _conv_forward(xd, w.data, stride, 1)
        np.testing.assert_allclose(out, conv2d_loops(xd, w.data, None, stride, 1, groups),
                                   rtol=0, atol=1e-12)
        gout = rng.normal(size=out.shape)
        gx = _conv_backward(gout, w, b, xd, stride, 1, True)
        want_gx, want_gw = conv2d_backward_loops(xd, w.data, gout, stride, 1, groups)
        np.testing.assert_allclose(w.grad, want_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(b.grad.reshape(-1), gout.sum(axis=(0, 2, 3)),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(gx, want_gx, rtol=0, atol=1e-12)
        # a fresh array that accumulate_grad adopts without a copy
        assert gx.base is None and gx.flags.c_contiguous and gx.shape == xd.shape

    def test_stride2_grad_x_builds_no_zero_map_of_the_batch(self):
        # grad-x places g in the forward kernel's per-chunk zero map; with a
        # (N, O, H+KH-1, W+KW-1) map of the whole batch this peaked at 16.36 MB
        N, C, O, H, k = 16, 16, 64, 32, 3
        rng = np.random.default_rng(46)
        xd = rng.normal(size=(N, C, H, H))
        w = Tensor(rng.normal(size=(O, C, k, k)))
        g = rng.normal(size=(N, O, H // 2, H // 2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gx = _conv_backward(g, w, None, xd, 2, 1, True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert gx.shape == xd.shape
        batch_map = N * O * (H + k - 1) ** 2 * 8
        assert peak < gx.nbytes + batch_map, f"peak {peak / 1e6:.2f} MB"

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


def _max_pool(x: Tensor, kind: str, k: int) -> Tensor:
    """global_max, or window_max over k x k windows."""
    return window_max(x, k) if kind == "window-max" else global_max(x)


def _max_grad_loops(x: np.ndarray, gout: np.ndarray, k: int) -> np.ndarray:
    """Window-max input gradient by loops: each window's gout goes to the
    first largest entry in row-major order (argmax counts -0.0 == 0.0)."""
    N, C, Ho, Wo = gout.shape
    want = np.zeros(x.shape)
    for n in range(N):
        for c in range(C):
            for ho in range(Ho):
                for wo in range(Wo):
                    win = x[n, c, ho * k:(ho + 1) * k, wo * k:(wo + 1) * k]
                    di, dj = np.unravel_index(win.argmax(), win.shape)
                    want[n, c, ho * k + di, wo * k + dj] = gout[n, c, ho, wo]
    return want


class TestPool:
    def test_global_avg_example(self):
        x = t(np.array([1.0, 2, 3, 4]).reshape(1, 1, 2, 2))
        assert pool(x).item() == 2.5

    def test_global_max_example(self):
        x = t(np.array([1.0, 2, 3, 4]).reshape(1, 1, 2, 2))
        assert global_max(x).item() == 4.0

    def test_window_max_example(self):
        x = t(np.arange(1.0, 17.0).reshape(1, 1, 4, 4))
        out = window_max(x, 2)
        np.testing.assert_array_equal(out.data.reshape(2, 2), [[6, 8], [14, 16]])

    def test_window_max_matches_oracle_ceil_mode(self):
        rng = np.random.default_rng(5)
        for H, W, k in ((5, 7, 2), (8, 8, 4), (3, 9, 3), (6, 4, 4), (1, 5, 2)):
            x = rng.normal(size=(2, 3, H, W))
            got = window_max(t(x), k).data
            want = window_max_loops(x, k)
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind,k", [("window-max", 2), ("window-max", 3), ("global-max", 0)])
    def test_signed_zero_ties_keep_the_first_entry(self, kind, k):
        # -0.0 == 0.0, so only the bytes show which tied entry a window kept
        x = np.random.default_rng(8).choice([0.0, -0.0, -1.0], size=(2, 3, 5, 7))
        got = _max_pool(t(x), kind, k).data
        want = window_max_loops(x, k) if k else global_max_loops(x)
        assert got.tobytes() == want.tobytes()

    def test_global_kinds_match_oracles(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 3, 4, 5))
        np.testing.assert_allclose(pool(t(x)).data,
                                   global_avg_loops(x), atol=1e-15)
        np.testing.assert_array_equal(global_max(t(x)).data,
                                      global_max_loops(x))

    def test_global_avg_within_bounds_and_max_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4, 6, 6))
        avg = pool(t(x)).data
        assert (avg >= x.min()).all() and (avg <= x.max()).all()
        np.testing.assert_array_equal(global_max(t(x)).data,
                                      x.max(axis=(2, 3), keepdims=True))

    def test_window_max_rejections(self):
        # pool is global-avg alone: it takes no kind and no window
        x = t(np.zeros((1, 1, 4, 4)))
        with pytest.raises(TypeError):
            pool(x, "global-max", 2)
        with pytest.raises(TypeError):
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
                out = _max_pool(xt, kind, window)
            backward(tape, out, gate.data)
            outs.append(out.data.tobytes())
            grads.append(xt.grad.tobytes())
        assert outs[0] == outs[1]
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("shape,kind,k", [((2, 3, 5, 7), "window-max", 2),
                                              ((1, 2, 6, 4), "window-max", 4),
                                              ((2, 2, 3, 9), "window-max", 3),
                                              ((2, 3, 3, 5), "global-max", 0)])
    def test_max_gradient_matches_loop_oracle(self, shape, kind, k):
        # ties within a window: the gradient goes to the first maximum in
        # row-major order, and truncated edge windows reach no padding
        rng = np.random.default_rng(sum(shape) + k)
        x = rng.integers(0, 3, size=shape).astype(np.float64)
        xt = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            out = _max_pool(xt, kind, k)
            gout = rng.normal(size=out.shape)
        backward(tape, out, gout)
        np.testing.assert_array_equal(xt.grad, _max_grad_loops(x, gout, k or max(shape[2:])))

    @pytest.mark.parametrize("shape,kind,k", [((2, 3, 5, 7), "window-max", 2),
                                              ((2, 3, 8, 8), "window-max", 4),
                                              ((2, 3, 5, 7), "window-max", 3),
                                              ((2, 3, 5, 7), "global-max", 0)])
    def test_signed_zero_ties_send_the_gradient_to_the_first_entry(self, shape, kind, k):
        # -0.0 == 0.0: the gradient must reach the first of the tied entries
        rng = np.random.default_rng(sum(shape) + k + 1)
        x = rng.choice([0.0, -0.0, -1.0], size=shape)
        xt = Tensor(x.copy(), requires_grad=True)
        with Tape() as tape:
            out = _max_pool(xt, kind, k)
            gout = rng.uniform(1.0, 2.0, size=out.shape)
        backward(tape, out, gout)
        np.testing.assert_array_equal(xt.grad, _max_grad_loops(x, gout, k or max(shape[2:])))

    def test_window_exceeding_one_dim_is_accepted(self):
        x = t(np.arange(8.0).reshape(1, 1, 2, 4))
        out = window_max(x, 4)
        assert out.shape == (1, 1, 1, 1)
        assert out.item() == 7.0


class TestActivation:
    def test_fixed_points(self):
        assert sigmoid(t([[[[0.0]]]])).item() == 0.5
        assert gelu(t([[[[0.0]]]])).item() == 0.0
        assert relu(t([[[[-1.0]]]])).item() == 0.0

    def test_gelu_at_one_matches_series(self):
        got = gelu(t([[[[1.0]]]])).item()
        assert abs(got - 0.8413447) < 1e-7
        want = 1.0 * 0.5 * (1.0 + erf_series(1.0 / np.sqrt(2.0)))
        assert abs(got - want) < 1e-15

    def test_random_against_refs(self):
        rng = np.random.default_rng(11)
        x = rng.normal(scale=2.0, size=(2, 3, 4, 4))
        np.testing.assert_allclose(relu(t(x)).data, relu_ref(x), atol=0)
        np.testing.assert_allclose(sigmoid(t(x)).data, sigmoid_ref(x), atol=1e-15)
        np.testing.assert_allclose(silu(t(x)).data, silu_ref(x), atol=1e-15)
        np.testing.assert_allclose(gelu(t(x)).data, gelu_ref(x), atol=1e-14)

    def test_gelu_matches_series_on_grid(self):
        for z in np.linspace(-2.0, 2.0, 41):
            got = gelu(t([[[[z]]]])).item()
            want = z * 0.5 * (1.0 + erf_series(z / np.sqrt(2.0)))
            assert abs(got - want) < 1e-14


class TestErf:
    """The numpy erf kernel: special values, symmetry, blocking and accuracy
    against libm, 40-digit mpmath and the coefficient fit."""

    def test_special_values(self):
        z = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
        got = _erf(z.copy())
        assert got[:4].tolist() == [0.0, -0.0, 1.0, -1.0]
        assert np.signbit(got[:4]).tolist() == [False, True, False, True]
        assert np.isnan(got[4])

    def test_writes_over_its_argument(self):
        z = np.linspace(-3.0, 3.0, 7)
        assert _erf(z) is z
        assert z[3] == 0.0 and z[6] == math.erf(3.0)

    def test_odd_bit_for_bit(self):
        edges = [0.5, 1.0, 4.0, 6.0]  # 1 and 6 are the cuts
        z = np.concatenate([np.linspace(0.0, 8.0, 40001), edges,
                            np.nextafter(edges, 0.0), np.nextafter(edges, 9.0)])
        assert (_erf(-z) == -_erf(z.copy())).all()
        assert (np.signbit(_erf(-z)) != np.signbit(_erf(z.copy()))).all()

    def test_exactly_one_past_saturation(self):
        z = np.concatenate([np.linspace(6.0, 40.0, 1001), [1e10, 1e300, np.finfo(float).max]])
        assert (_erf(z.copy()) == 1.0).all()
        assert (_erf(-z) == -1.0).all()

    def test_subnormal_inputs(self):
        tiny = np.array([5e-324, 1e-320, 3e-310, 2.2e-308])
        got = _erf(tiny.copy())
        want = np.array([math.erf(v) for v in tiny])
        # within one unit of the subnormal grid's spacing or of the result
        assert (np.abs(got - want) <= np.maximum(5e-324, np.spacing(want))).all()
        assert (_erf(-tiny) == -got).all()

    def test_size_not_a_multiple_of_the_block(self):
        z = np.random.default_rng(41).normal(scale=2.0, size=2 * _BLOCK + 7)
        z[[0, _BLOCK - 1, _BLOCK, -1]] = [0.25, 4.5, -7.0, -1.5]
        got = _erf(z.copy())
        pieces = np.concatenate([_erf(part.copy()) for part in np.array_split(z, 97)])
        assert got.tobytes() == pieces.tobytes()
        assert np.abs(got - [math.erf(v) for v in z]).max() <= 3.4e-16

    def test_max_error_against_libm_on_a_grid(self):
        # scipy.special.erf reads 3.33e-16 here
        z = np.linspace(-8.0, 8.0, 200001)
        got = _erf(z.copy())
        assert np.abs(got - [math.erf(v) for v in z]).max() <= 3.4e-16

    def test_max_error_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        z = np.random.default_rng(42).uniform(-6.0, 6.0, 3000)
        got = _erf(z.copy())
        with mpmath.workdps(40):
            worst = max(abs(mpmath.mpf(float(g)) - mpmath.erf(mpmath.mpf(float(v))))
                        for v, g in zip(z, got))
        assert worst <= 2.3e-16  # scipy.special.erf reads 2.22e-16

    def test_gelu_allocates_only_its_two_results(self):
        d = np.random.default_rng(43).normal(scale=2.0, size=(8, 16, 32, 32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out, phi = _gelu(d)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2 * d.nbytes + 2 ** 20, f"peak {peak / 1e6:.2f} MB"
        np.testing.assert_allclose(out, gelu_ref(d), rtol=0, atol=1e-14)

    def test_coefficients_are_what_the_fit_derives(self):
        tool = pathlib.Path(__file__).resolve().parent.parent / "tools" / "fit_erf.py"
        run = subprocess.run([sys.executable, str(tool), "--check"], capture_output=True,
                             text=True, timeout=600)
        assert run.returncode == 0, run.stdout + run.stderr


def _silu_unblocked(d: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d * sig, g * silu'(d)) over whole arrays, sig = sigmoid(d), in the
    kernels' operation order."""
    sig = _sigmoid(d)
    gx = np.subtract(1.0, sig)
    gx *= d
    gx += 1.0
    gx *= sig
    gx *= g
    return d * sig, gx


class TestSilu:
    """The blocked in-place SiLU pair: the bytes of the whole-array formula,
    across block edges, and saturation with no overflow warning."""

    @pytest.mark.parametrize("size", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_pair_matches_unblocked_formula_and_expit(self, size):
        rng = np.random.default_rng(size)
        d = rng.normal(scale=4.0, size=size)
        g = rng.normal(size=size)
        want_out, want_gx = _silu_unblocked(d, g)
        out = d.copy()
        assert _silu(out) is out
        gx = d.copy()
        assert _silu_grad(g, gx) is gx
        assert out.tobytes() == want_out.tobytes()
        assert gx.tobytes() == want_gx.tobytes()
        sig = expit(d)
        np.testing.assert_allclose(out, d * sig, rtol=2e-15, atol=0)
        np.testing.assert_allclose(gx, g * sig * (1.0 + d * (1.0 - sig)), rtol=1e-13, atol=1e-15)

    def test_saturates_without_overflow_warning(self):
        d = np.array([-800.0, 800.0])
        g = np.array([2.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _silu(d.copy())
            gx = _silu_grad(g, d.copy())
        assert out.tolist() == [0.0, 800.0]
        assert gx.tolist() == [0.0, 3.0]


class TestForwardOnlyPath:
    """Backward-only arrays are built inside the rules, so a forward with no
    recording tape must give the same bytes as one that records."""

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "silu", "gelu"])
    def test_activation_bytes_same_with_and_without_tape(self, kind):
        x = np.random.default_rng(31).normal(scale=3.0, size=(2, 3, 5, 5))
        op = {"relu": relu, "sigmoid": sigmoid, "silu": silu, "gelu": gelu}[kind]
        bare = op(t(x))
        with Tape() as tape:
            taped = op(Tensor(x, requires_grad=True))
        assert len(tape) == 1
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_batch_norm_bytes_same_with_and_without_tape(self):
        rng = np.random.default_rng(32)
        x = rng.normal(1.0, 2.0, size=(3, 4, 5, 5))
        vecs = [rng.normal(1.0, 0.3, 4), rng.normal(0.0, 0.3, 4),
                rng.normal(0.0, 0.5, 4), rng.uniform(0.5, 2.0, 4)]

        def run(record):
            gamma, beta, rm, rv = (channel_vector(v.copy()) for v in vecs)
            xt = Tensor(x, requires_grad=record)
            gamma.requires_grad = beta.requires_grad = record
            with Tape() as tape:
                out = batch_norm(xt, gamma, beta, rm, rv)
            assert len(tape) == int(record)
            return out.data.tobytes(), rm.data.tobytes(), rv.data.tobytes()

        assert run(False) == run(True)

    def test_sigmoid_matches_expit(self):
        x = np.linspace(-700.0, 700.0, 140001).reshape(1, 1, 1, -1)
        got = sigmoid(t(x)).data
        np.testing.assert_allclose(got, expit(x), rtol=1e-15, atol=0)

    def test_sigmoid_saturates_without_overflow_warning(self):
        x = t([[[[-1e4, -750.0, 750.0, 1e4]]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig = sigmoid(x).data.ravel()
            silu_out = silu(x).data.ravel()
        assert sig.tolist() == [0.0, 0.0, 1.0, 1.0]
        assert silu_out.tolist() == [0.0, 0.0, 750.0, 1e4]


class TestElementwise:
    def test_channel_broadcast(self):
        x = np.ones((1, 2, 2, 2))
        v = channel_vector([0.5, 2.0])
        out = mul(t(x), v).data
        np.testing.assert_array_equal(out[0, 0], 0.5 * np.ones((2, 2)))
        np.testing.assert_array_equal(out[0, 1], 2.0 * np.ones((2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            add(t(np.zeros((1, 2, 3, 3))), t(np.zeros((1, 2, 2, 3))))
        with pytest.raises(ValueError, match="incompatible"):  # no channel-vector broadcast
            add(t(np.zeros((1, 2, 3, 3))), channel_vector([1.0, 2.0]))


class TestBatchNorm:
    def _fresh(self, c):
        return (channel_vector(np.ones(c)), channel_vector(np.zeros(c)),
                channel_vector(np.zeros(c)), channel_vector(np.ones(c)))

    def test_constant_input_returns_beta(self):
        gamma, beta, rm, rv = self._fresh(2)
        beta.data[...] = np.array([1.5, -2.0]).reshape(1, 2, 1, 1)
        x = t(np.full((3, 2, 4, 4), 7.0))
        with Tape():
            out = batch_norm(x, gamma, beta, rm, rv)
        np.testing.assert_allclose(out.data[:, 0], 1.5, atol=1e-12)
        np.testing.assert_allclose(out.data[:, 1], -2.0, atol=1e-12)

    def test_standardized_input_nearly_unchanged(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(8, 2, 5, 5))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        gamma, beta, rm, rv = self._fresh(2)
        with Tape():
            out = batch_norm(t(x), gamma, beta, rm, rv)
        # only the eps guard separates output from input
        np.testing.assert_allclose(out.data, x, atol=2e-3)

    def test_output_moments(self):
        rng = np.random.default_rng(16)
        x = rng.normal(loc=3.0, scale=2.0, size=(4, 2, 3, 3))
        gamma, beta, rm, rv = self._fresh(2)
        with Tape():
            out = batch_norm(t(x), gamma, beta, rm, rv).data
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
        with Tape():
            batch_norm(t(x), gamma, beta, rm, rv)
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
        out = batch_norm(t(x), gamma, beta, rm, rv).data
        want = (x - before[0]) / np.sqrt(before[1] + 1e-3)
        np.testing.assert_allclose(out, want, atol=1e-14)
        np.testing.assert_array_equal(rm.data, before[0])
        np.testing.assert_array_equal(rv.data, before[1])

    def test_fresh_eval_is_well_defined(self):
        gamma, beta, rm, rv = self._fresh(2)
        x = t(np.random.default_rng(19).normal(size=(1, 2, 2, 2)))
        out = batch_norm(x, gamma, beta, rm, rv)
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
            out = batch_norm(x, gamma, beta, rm, rv)
        backward(tape, out, gout)
        got = (x.grad, gamma.grad.reshape(-1), beta.grad.reshape(-1),
               rm.data.reshape(-1), rv.data.reshape(-1))
        for name, g, w in zip(("dx", "dgamma", "dbeta", "running_mean", "running_var"),
                              got, want):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=f"{shape} {name}")

    def test_bad_shapes(self):
        gamma, beta, rm, rv = self._fresh(2)
        x = t(np.zeros((1, 2, 2, 2)))
        with pytest.raises(ValueError, match="gamma"):
            batch_norm(x, channel_vector([1.0]), beta, rm, rv)


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
    bytes under a tape, within 1e-10 with no tape, where batch norm is
    folded into the conv weight and a bias. With no tape nothing records, so
    that path is compared on its output and running stats."""

    @staticmethod
    def _run(op, case, train, seed):
        N, C, O, H, W, k, s, groups, act = case
        rng = np.random.default_rng(seed)
        spec = ConvSpec(C, O, k, k, stride=s, padding=(k - 1) // 2, groups=groups)
        x = Tensor(rng.normal(0.3, 1.5, (N, C, H, W)), requires_grad=train)
        w = Tensor(rng.normal(0, 0.5, (O, C // groups, k, k)), requires_grad=train)
        gamma = Tensor(rng.normal(1.0, 0.3, (1, O, 1, 1)), requires_grad=train)
        beta = Tensor(rng.normal(0.0, 0.3, (1, O, 1, 1)), requires_grad=train)
        rm = channel_vector(rng.normal(0.0, 0.5, O))
        rv = channel_vector(rng.uniform(0.5, 2.0, O))
        with Tape() if train else contextlib.nullcontext() as tape:
            out = op(x, w, gamma, beta, rm, rv, spec, act)
        got = {"out": out.data, "running_mean": rm.data, "running_var": rv.data}
        if train:
            backward(tape, out, rng.normal(size=out.shape))
            got.update(x=x.grad, w=w.grad, gamma=gamma.grad, beta=beta.grad)
        return got

    @pytest.mark.parametrize("case", CBA_CASES)
    def test_train_matches_composition_byte_for_byte(self, case):
        got = self._run(conv_bn_act, case, True, 70)
        want = self._run(conv_bn_act_composed, case, True, 70)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), f"{case} {name}"

    @pytest.mark.parametrize("case", CBA_CASES)
    def test_eval_fold_matches_composition(self, case):
        got = self._run(conv_bn_act, case, False, 71)
        want = self._run(conv_bn_act_composed, case, False, 71)
        for name in want:
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-10,
                                       err_msg=f"{case} {name}")

    def test_forward_without_tape_gives_the_same_bytes(self):
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
                                  rm, rv, spec, "silu")
            assert len(tape) == int(record)
            return out.data.tobytes(), rm.data.tobytes(), rv.data.tobytes()

        assert run(False) == run(True)

    @pytest.mark.parametrize("act", ["silu", None])
    def test_train_reads_no_running_statistic(self, act):
        # under a tape batch norm normalizes by the batch's own statistics
        # and only writes the running ones, so any pair gives the same bytes
        rng = np.random.default_rng(74)
        arrays = [rng.normal(size=(2, 3, 6, 6)), rng.normal(0, 0.5, (4, 3, 3, 3)),
                  rng.normal(1.0, 0.3, (1, 4, 1, 1)), rng.normal(0.0, 0.3, (1, 4, 1, 1))]
        cot = rng.normal(size=(2, 4, 6, 6))

        def run(rm, rv):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            with Tape() as tape:
                out = conv_bn_act(*leaves, channel_vector(rm), channel_vector(rv),
                                  ConvSpec(3, 4, 3, 3, padding=1), act)
            backward(tape, out, cot)
            return [a.tobytes() for a in (out.data, *(t.grad for t in leaves))]

        assert run(np.zeros(4), np.ones(4)) == run(rng.normal(0, 5, 4), rng.uniform(0.01, 100, 4))

    def test_backward_empties_the_tape_and_frees_saved_arrays(self):
        rng = np.random.default_rng(73)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        gamma, beta = channel_vector(np.ones(4)), channel_vector(np.zeros(4))
        rm, rv = channel_vector(np.zeros(4)), channel_vector(np.ones(4))
        with Tape() as tape:
            out = conv_bn_act(x, w, gamma, beta, rm, rv, ConvSpec(3, 4, 3, 3, padding=1), "silu")
        assert len(tape) == 1
        # the arrays the fused rule saved, inv and xhat, not the caller's
        # weight; the tape holds the rule inside record_op's zero-argument
        # wrapper. No sigmoid (out-sized) beside xhat, and no padded copy of
        # x (2 * 3 * 8 * 8 entries).
        saved = [weakref.ref(c.cell_contents)
                 for r in tape._rules[0].__closure__ if callable(r.cell_contents)
                 for c in r.cell_contents.__closure__
                 if isinstance(c.cell_contents, np.ndarray) and c.cell_contents is not w.data]
        assert sorted(ref().size for ref in saved) == [4, out.data.size]
        backward(tape, out, rng.normal(size=out.shape))
        assert len(tape) == 0
        assert all(ref() is None for ref in saved)
        assert x.grad is not None and w.grad is not None

    def test_rejections(self):
        x = t(np.zeros((1, 3, 4, 4)))
        w = t(np.zeros((2, 3, 3, 3)))
        vecs = [channel_vector(np.ones(2)) for _ in range(4)]
        spec = ConvSpec(3, 2, 3, 3, padding=1)
        with pytest.raises(ValueError, match="unknown activation"):
            conv_bn_act(x, w, *vecs, spec, "relu")
        with pytest.raises(ValueError, match="weight shape"):
            conv_bn_act(x, t(np.zeros((1, 3, 3, 3))), *vecs, spec, "silu")
        with pytest.raises(ValueError, match="gamma"):
            conv_bn_act(x, w, channel_vector([1.0]), *vecs[1:], spec, None)

    @pytest.mark.parametrize("bad", ["running_mean", "running_var"])
    @pytest.mark.parametrize("taped", [False, True], ids=["no-tape", "tape"])
    def test_running_stats_of_the_wrong_shape_are_named(self, bad, taped):
        # one running mean and variance for four channels would broadcast
        # over every channel with no tape, and fail inside numpy under one
        x = t(np.zeros((1, 3, 4, 4)))
        w = t(np.zeros((4, 3, 3, 3)))
        gamma, beta = channel_vector(np.ones(4)), channel_vector(np.zeros(4))
        stats = {"running_mean": channel_vector(np.zeros(4)),
                 "running_var": channel_vector(np.ones(4))}
        stats[bad] = channel_vector([1.0])
        with Tape() if taped else contextlib.nullcontext():
            with pytest.raises(ValueError, match=re.escape(
                    f"batch_norm: {bad} shape (1, 1, 1, 1) != expected (1, 4, 1, 1)")):
                conv_bn_act(x, w, gamma, beta, stats["running_mean"], stats["running_var"],
                            ConvSpec(3, 4, 3, 3, padding=1), "silu")

    def test_nano_train_step_memory_and_rule_count(self):
        """Freeing rules during the replay, saving only xhat and inv per
        conv->BN->SiLU layer (no sigmoid, no padded input), and one rule per
        SAFM and per CE block bound a batch-16 step (the unfused, unfreed tape
        held 165 MB after the forward and peaked at 262 MB, with 103 rules;
        with 19 rules per SAFM block, 81 rules held 118 MB and peaked at 123
        MB; with saved sigmoids and whole-batch padded inputs, 108 MB and 113
        MB; with 12 rules per CE block, 45 rules)."""
        net, _ = build_network(nano_config(), seed=3)
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(0.0, 1.0, (16, 3, 64, 64)))
        labels = [int(v) for v in rng.integers(0, 4, 16)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                loss = cross_entropy_loss(net.forward(x), labels)
            held = tracemalloc.get_traced_memory()[0] - base
            rules = len(tape)
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rules == 23
        assert held <= 72e6, f"forward holds {held / 1e6:.1f} MB"
        assert peak <= 78e6, f"step peaks at {peak / 1e6:.1f} MB"

    @staticmethod
    def _traced_layer(record: bool) -> tuple[float, float]:
        """(held, peak) of one 3x3 padding-1 SiLU conv_bn_act forward, in
        output sizes, recording under a tape that is still open, or with no
        tape."""
        rng = np.random.default_rng(74)
        x = Tensor(rng.normal(size=(64, 8, 16, 16)), requires_grad=record)
        w = Tensor(rng.normal(0.0, 0.3, (16, 8, 3, 3)), requires_grad=record)
        vecs = [channel_vector(v) for v in (np.ones(16), np.zeros(16), np.zeros(16), np.ones(16))]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() if record else contextlib.nullcontext():
                out = conv_bn_act(x, w, *vecs, ConvSpec(8, 16, 3, 3, padding=1), "silu")
                held, peak = (v - base for v in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return held / out.data.nbytes, peak / out.data.nbytes

    def test_train_forward_holds_only_the_output_and_xhat(self):
        # a saved sigmoid and a padded input made this 3.64
        held, _ = self._traced_layer(True)
        assert held <= 2.1, f"holds {held:.2f} output sizes"

    def test_eval_forward_without_tape_peaks_near_one_output(self):
        # a padded input, a sigmoid and an out-of-place product made this 3.64
        _, peak = self._traced_layer(False)
        assert peak <= 1.5, f"peaks at {peak:.2f} output sizes"


class TestBackward:
    def test_sum_gives_ones(self):
        # an all-ones seed is the gradient of the sum of y's entries
        x = t(np.random.default_rng(20).normal(size=(2, 3, 2, 2)))
        x.requires_grad = True
        tape = Tape()
        with tape:
            y = add(x, t(np.zeros(x.shape)))
        backward(tape, y, np.ones(y.shape))
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_seed_is_copied(self):
        # y's gradient starts as a copy of the seed: add hands that buffer
        # on to x, and x's second gradient adds into it, not into the seed
        x = Tensor(np.ones((1, 2, 1, 1)), requires_grad=True)
        seed = np.array([2.0, 3.0]).reshape(1, 2, 1, 1)
        with Tape() as tape:
            y = add(x, x)
        backward(tape, y, seed)
        np.testing.assert_array_equal(seed.reshape(-1), [2.0, 3.0])
        np.testing.assert_array_equal(x.grad.reshape(-1), [4.0, 6.0])

    def test_non_scalar_loss_rejected(self):
        x = t(np.zeros((1, 2, 1, 1)))
        x.requires_grad = True
        tape = Tape()
        with tape:
            y = add(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, y)

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 2, 1, 2), (2, 2, 1, 1)])
    def test_grad_of_another_shape_rejected(self, shape):
        x = Tensor(np.zeros((1, 2, 1, 1)), requires_grad=True)
        with Tape() as tape:
            y = add(x, x)
        with pytest.raises(ValueError, match=r"grad shape .* != output shape \(1, 2, 1, 1\)"):
            backward(tape, y, np.ones(shape))
        assert len(tape) == 1  # nothing ran: the tape can still be replayed
        backward(tape, y, np.ones(y.shape))
        np.testing.assert_array_equal(x.grad, np.full(x.shape, 2.0))

    def test_tape_consumed_once(self):
        x = t(np.zeros((1, 1, 1, 1)))
        x.requires_grad = True
        tape = Tape()
        with tape:
            loss = add(x, x)
        backward(tape, loss)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(tape, loss)

    def test_grad_accumulates_across_uses(self):
        x = t(np.full((1, 1, 1, 1), 3.0))
        x.requires_grad = True
        tape = Tape()
        with tape:
            loss = add(x, x)
        backward(tape, loss)
        assert x.grad.reshape(-1)[0] == 2.0

    def test_no_recording_without_tape(self):
        x = t(np.zeros((1, 1, 2, 2)))
        x.requires_grad = True
        out = relu(x)
        assert out.requires_grad is False

    def test_consumed_tape_keeps_no_rule_and_batch_norm_still_uses_batch_stats(self):
        # code run under a tape after its backward (the oracle's probes) sees
        # a tape, so batch norm normalizes by batch statistics and moves its
        # running stats as under a fresh tape, but nothing is recorded
        rng = np.random.default_rng(28)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(0, 0.5, (4, 3, 3, 3)), requires_grad=True)
        spec = ConvSpec(3, 4, 3, 3, padding=1)

        def run(tape):
            gamma, beta = channel_vector(np.ones(4)), channel_vector(np.zeros(4))
            rm, rv = channel_vector(np.zeros(4)), channel_vector(np.ones(4))
            with tape:
                out = conv_bn_act(x, w, gamma, beta, rm, rv, spec, "silu")
            return out.data.tobytes(), rm.data.tobytes(), rv.data.tobytes()

        consumed = Tape()
        with consumed:
            y = add(x, x)
        backward(consumed, y, np.ones(y.shape))
        with consumed:
            add(x, x)
        got = run(consumed)
        assert len(consumed) == 0
        assert got == run(Tape())
        assert got[1] != np.zeros(4).tobytes() and got[2] != np.ones(4).tobytes()


class TestRuleContract:
    """record_op runs a rule only when its output received a gradient, and
    the tape holds zero-argument callables that a wrapper may call."""

    @pytest.mark.parametrize("op", [
        silu, lambda x: global_max(x),
        lambda x: window_max(x, 2), lambda x: dp_safm_forward(x, _safm(4)),
        lambda x: conv2d(x, t(np.ones((2, 4, 3, 3))), None, ConvSpec(4, 2, 3, 3, padding=1)),
        lambda x: batch_norm(x, channel_vector(np.ones(4)), channel_vector(np.zeros(4)),
                             channel_vector(np.zeros(4)), channel_vector(np.ones(4)))],
        ids=["activation", "global-max", "window-max", "dp_safm_forward",
             "conv2d", "batch_norm"])
    def test_output_that_misses_the_loss_leaves_input_grad_none(self, op):
        rng = np.random.default_rng(80)
        dead = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        live = Tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True)
        with Tape() as tape:
            op(dead)
            y = add(live, live)
        backward(tape, y, np.full(y.shape, 0.5))
        assert dead.grad is None
        np.testing.assert_array_equal(live.grad, np.ones_like(live.data))
        assert len(tape) == 0

    def test_dp_safm_forward_records_one_rule(self):
        x = Tensor(np.random.default_rng(81).normal(size=(2, 8, 6, 5)), requires_grad=True)
        with Tape() as tape:
            dp_safm_forward(x, _safm(8))
        assert len(tape) == 1

    @staticmethod
    def _nano_step():
        net, store = build_network(nano_config(), seed=31)
        rng = np.random.default_rng(32)
        x = Tensor(rng.uniform(0.0, 1.0, (4, 3, 64, 64)), requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy_loss(net.forward(x), [2, 0, 3, 1])
        backward(tape, loss)
        return [x.grad.tobytes()] + [p.data.tobytes() + (p.grad.tobytes() if p.grad is not None
                                                         else b"") for _, p in store.items()]

    def test_nano_step_under_a_wrapped_tape_record_is_unchanged(self, monkeypatch):
        # the benchmark's tracer rebinds Tape.record to wrap every recorded
        # rule in a zero-argument closure that calls rule()
        want = self._nano_step()
        real_record, recorded, calls = Tape.record, [], []

        def record(tape, rule):
            recorded.append(None)

            def traced_rule():
                calls.append(None)
                rule()
            return real_record(tape, traced_rule)

        monkeypatch.setattr(Tape, "record", record)
        got = self._nano_step()
        monkeypatch.undo()
        assert len(calls) == len(recorded) > 0
        assert got == want


class TestGradOwnership:
    """A rule's fresh gradient buffer is adopted without a copy; nothing
    else may end up shared between two tensors' gradients."""

    def test_add_gives_each_operand_its_own_buffer(self):
        rng = np.random.default_rng(60)
        a = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        gout = rng.normal(size=(2, 3, 2, 2))
        with Tape() as tape:
            y = add(a, b)
        backward(tape, y, gout)
        assert a.grad is not b.grad
        assert not np.shares_memory(a.grad, b.grad)
        a.grad[...] = 0.0
        np.testing.assert_array_equal(b.grad, gout)

    def test_x_plus_x_gives_twice_the_gradient(self):
        rng = np.random.default_rng(61)
        x = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        gout = rng.normal(size=(2, 3, 2, 2))
        with Tape() as tape:
            y = add(x, x)
        backward(tape, y, gout)
        np.testing.assert_array_equal(x.grad, 2.0 * gout)

    def test_second_use_of_global_avg_input_accumulates(self):
        # the global-avg rule runs first and hands x a fresh array that x
        # adopts; the relu rule then adds into x's gradient
        rng = np.random.default_rng(62)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        with Tape() as tape:
            h = relu(x)
            avg = pool(x)
            y = mul(h, avg)
        backward(tape, y, np.ones(y.shape))
        pos = np.maximum(x.data, 0.0)
        want = ((x.data > 0) * x.data.mean(axis=(2, 3), keepdims=True)
                + pos.sum(axis=(2, 3), keepdims=True) / 16.0)
        np.testing.assert_allclose(x.grad, want, rtol=0, atol=1e-14)
        assert x.grad.flags.writeable

    @pytest.mark.parametrize("fused", [False, True])
    def test_train_bn_gamma_and_beta_grads_own_their_memory(self, fused, monkeypatch):
        # the two per-channel sums are adopted, not copied out of a view: a
        # copy would own its memory too, so the handed array must be the grad
        handed = {}
        adopt = Tensor.accumulate_grad

        def spy(self, g):
            handed[id(self)] = g
            adopt(self, g)

        monkeypatch.setattr(Tensor, "accumulate_grad", spy)
        rng = np.random.default_rng(65)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        gamma = Tensor(rng.normal(1.0, 0.2, (1, 4, 1, 1)), requires_grad=True)
        beta = Tensor(rng.normal(0.0, 0.2, (1, 4, 1, 1)), requires_grad=True)
        rm, rv = channel_vector(np.zeros(4)), channel_vector(np.ones(4))
        spec = ConvSpec(3, 4, 3, 3, padding=1)
        with Tape() as tape:
            if fused:
                h = conv_bn_act(x, w, gamma, beta, rm, rv, spec, "silu")
            else:
                h = batch_norm(conv2d(x, w, None, spec), gamma, beta, rm, rv)
        backward(tape, h, rng.normal(size=h.shape))
        for p in (gamma, beta):
            assert p.grad.shape == (1, 4, 1, 1)
            assert p.grad.base is None
            assert p.grad is handed[id(p)]

    def test_nano_step_copies_no_gradient(self, monkeypatch):
        # every rule hands accumulate_grad a fresh array, so each tensor's
        # first gradient is adopted as is
        copies = []
        adopt = Tensor.accumulate_grad

        def spy(self, g):
            first = self.grad is None
            adopt(self, g)
            if first and self.grad is not g:
                copies.append((self.shape, g.shape))

        monkeypatch.setattr(Tensor, "accumulate_grad", spy)
        net, store = build_network(nano_config(), seed=3)
        rng = np.random.default_rng(5)
        x = Tensor(rng.uniform(0.0, 1.0, (16, 3, 64, 64)), requires_grad=True)
        with Tape() as tape:
            loss = cross_entropy_loss(net.forward(x), list(range(4)) * 4)
        backward(tape, loss)
        assert x.grad is not None and all(p.grad is not None for _, p in store.learnable_items())
        assert copies == []

    def test_every_leaf_gradient_is_writeable(self):
        rng = np.random.default_rng(64)
        x = Tensor(rng.normal(size=(3, 4, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4, 3, 3)), requires_grad=True)
        wp = Tensor(rng.normal(size=(4, 4, 1, 1)), requires_grad=True)
        bias = Tensor(rng.normal(size=(1, 4, 1, 1)), requires_grad=True)
        gamma = Tensor(np.ones((1, 4, 1, 1)), requires_grad=True)
        beta = Tensor(np.zeros((1, 4, 1, 1)), requires_grad=True)
        rm, rv = channel_vector(np.zeros(4)), channel_vector(np.ones(4))
        safm = _safm(4, np.random.default_rng(66))
        leaves = (x, w, wp, bias, gamma, beta, *safm.fuse[:2],
                  *(t for convs in safm.convs for cw, cb, _ in convs for t in (cw, cb)))
        with Tape() as tape:
            h = conv2d(x, w, bias, ConvSpec(4, 4, 3, 3, padding=1))
            h = silu(batch_norm(h, gamma, beta, rm, rv))
            gate = sigmoid(conv2d(pool(h), wp, None, ConvSpec(4, 4, 1, 1)))
            h = add(mul(h, gate), x)
            h = dp_safm_forward(h, safm)
            h = mul(h, global_max(h))
            h = window_max(h, 2)
        backward(tape, h, np.ones(h.shape))
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
        err = finite_diff_check(lambda v: mul(v, v), x)
        assert err < 1e-8
        np.testing.assert_allclose(x.grad.reshape(-1), [2.0, 4.0, 6.0], atol=1e-12)

    def test_linear_map_near_machine_precision(self):
        rng = np.random.default_rng(22)
        gate = t(rng.normal(size=(1, 4, 2, 2)))
        x = t(rng.normal(size=(1, 4, 2, 2)))
        err = finite_diff_check(lambda v: mul(v, gate), x)
        assert err < 1e-10

    def test_sigmoid_sum(self):
        x = t(np.random.default_rng(23).normal(size=(1, 3, 3, 3)))
        err = finite_diff_check(sigmoid, x)
        assert err < 1e-6

    def test_every_op_over_twenty_seeds(self):
        # one composite touching conv, pool, activation, batch norm, SAFM
        # and the broadcast multiply; fresh random tensors per seed
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            w = t(rng.normal(scale=0.5, size=(4, 4, 3, 3)))
            gamma = channel_vector(rng.normal(1.0, 0.1, 4))
            beta = channel_vector(rng.normal(0.0, 0.1, 4))
            rm = channel_vector(rng.normal(0.0, 0.2, 4))
            rv = channel_vector(rng.uniform(0.5, 1.5, 4))
            vec = channel_vector(rng.normal(size=4))
            safm = _safm(4, rng)

            def f(v):
                h = conv2d(v, w, None, ConvSpec(4, 4, 3, 3, padding=1))
                h = batch_norm(h, gamma, beta, rm, rv)
                h = gelu(h)
                h = dp_safm_forward(h, safm)
                h = window_max(h, 2)
                h = mul(h, vec)
                return silu(h)

            x = t(0.07 * (rng.permutation(144) - 72.0).reshape(1, 4, 6, 6))
            # the SAFM gate's curvature needs a finer step than 1e-3 to keep
            # the central difference's O(step^2) truncation error in check
            err = finite_diff_check(f, x, step=1e-4)
            assert err < 1e-4, f"seed {seed}: {err}"

    @pytest.mark.parametrize("name,tol", [
        ("window-max", 1e-4), ("gelu", 1e-4), ("silu", 1e-4),
        ("batch_norm train wrt x", 1e-3), ("batch_norm train wrt beta", 1e-3)])
    def test_reference_ops_match_central_differences(self, name, tol):
        # the tape-level references in helpers.py, at the tolerances of the
        # gradcheck entries they had while they were package ops
        rng = np.random.default_rng(26)
        if name == "window-max":
            # distinct values spaced far beyond the step: no argmax flips; 2
            # does not divide 5, so the edge windows are truncated
            x = t(0.05 * (rng.permutation(150) - 75.0).reshape(2, 3, 5, 5))

            def op(v):
                return window_max(v, 2)
        elif name in ("gelu", "silu"):
            x = t(rng.normal(0, 1.5, (2, 3, 4, 4)))
            op = gelu if name == "gelu" else silu
        else:
            wrt = name.split()[-1]
            args = {"x": t(rng.normal(size=(4, 3, 3, 3))),
                    "gamma": t(rng.normal(1.0, 0.2, (1, 3, 1, 1))),
                    "beta": t(rng.normal(0.0, 0.2, (1, 3, 1, 1)))}
            rm, rv = rng.normal(0.0, 0.3, 3), rng.uniform(0.5, 1.5, 3)
            x = args[wrt]

            def op(v):
                # fresh running stats: no update reaches the next probe
                a = dict(args, **{wrt: v})
                return batch_norm(a["x"], a["gamma"], a["beta"], channel_vector(rm),
                                  channel_vector(rv))
        gate = rng.normal(size=op(x).shape)
        assert finite_diff_check(op, x, cotangent=gate) < tol

    def test_list_of_tensors_gated_product(self):
        rng = np.random.default_rng(24)
        a = t(rng.normal(size=(1, 3, 2, 2)))
        b = t(rng.normal(size=(1, 3, 2, 2)))
        gate = rng.normal(size=(1, 3, 2, 2))
        err = finite_diff_check(lambda xs: mul(xs[0], xs[1]), [a, b], cotangent=gate)
        assert err < 1e-10
        np.testing.assert_allclose(a.grad, b.data * gate, rtol=0, atol=1e-15)
        np.testing.assert_allclose(b.grad, a.data * gate, rtol=0, atol=1e-15)

    def test_list_coordinates_span_the_concatenation_and_are_restored(self):
        rng = np.random.default_rng(25)
        a = t(rng.normal(size=(1, 2, 2, 2)))
        b = t(rng.normal(size=(1, 2, 1, 1)))
        before = np.concatenate([a.data.reshape(-1), b.data.reshape(-1)])
        probed = set()

        def f(xs):
            now = np.concatenate([x.data.reshape(-1) for x in xs])
            probed.update(np.flatnonzero(now != before).tolist())
            return mul(xs[0], xs[1])

        finite_diff_check(f, [a, b], max_coords=6, rng=np.random.default_rng(3))
        want = set(np.random.default_rng(3).choice(10, size=6, replace=False).tolist())
        assert probed == want
        assert min(want) < 8 <= max(want)  # entries of both tensors were probed
        np.testing.assert_array_equal(
            np.concatenate([a.data.reshape(-1), b.data.reshape(-1)]), before)

    @staticmethod
    def _identity_with_grad(grad):
        """The identity, whose rule hands x the fixed gradient grad."""
        def f(v):
            out = Tensor(v.data.copy())
            record_op(out, (v,), lambda g: v.accumulate_grad(grad.copy()))
            return out
        return f

    def test_all_nan_analytic_gradient_is_nan(self):
        x = t(np.random.default_rng(29).normal(size=(1, 3, 2, 2)))
        f = self._identity_with_grad(np.full(x.shape, np.nan))
        assert math.isnan(finite_diff_check(f, x))

    def test_one_nan_analytic_entry_among_correct_ones_is_nan(self):
        x = t(np.random.default_rng(30).normal(size=(1, 3, 2, 2)))
        grad = np.ones(x.shape)
        grad[0, 1, 1, 0] = np.nan
        assert math.isnan(finite_diff_check(self._identity_with_grad(grad), x))
        grad[0, 1, 1, 0] = 1.0
        assert finite_diff_check(self._identity_with_grad(grad), x) < 1e-10

    def test_forward_that_returns_nan_at_one_probe_is_nan(self):
        x = t(np.random.default_rng(31).normal(size=(1, 3, 2, 2)))
        calls = []

        def f(v):
            out = add(v, v)
            calls.append(None)
            if len(calls) == 4:  # the second coordinate's upper probe
                out.data[...] = np.nan
            return out

        assert math.isnan(finite_diff_check(f, x))
        assert len(calls) == 1 + 2 * x.numel

    def test_probes_record_no_rule(self):
        # the analytic forward records; the probes run under the same tape
        # after its backward, so they keep nothing
        x = t(np.random.default_rng(32).normal(size=(1, 2, 2, 2)))
        recorded = []

        def f(v):
            out = mul(v, v)
            recorded.append(len(tensor_module._TAPES[-1]))
            return out

        assert finite_diff_check(f, x) < 1e-8
        assert recorded[0] > 0
        assert recorded[1:] == [0] * (2 * x.numel)

    def test_cotangent_of_wrong_shape_rejected(self):
        x = t(np.zeros((1, 2, 1, 1)))
        with pytest.raises(ValueError, match="grad shape"):
            finite_diff_check(lambda v: add(v, v), x, cotangent=np.ones((1, 1, 1, 1)))

    @pytest.mark.parametrize("max_coords", [0, -1])
    def test_no_probed_coordinate_is_an_error(self, max_coords):
        # probing nothing would return 0.0, a pass at every tolerance
        x = t(np.ones((1, 2, 1, 1)))
        with pytest.raises(ValueError, match="max_coords must be >= 1"):
            finite_diff_check(lambda v: mul(v, v), x,
                              max_coords=max_coords)
