"""Adapters, fixture builders and tape-level references shared across test
modules.

The references are tape ops that no cev2 program records: batch norm on its
own, SiLU, GELU, ReLU and sigmoid on their own, a non-overlapping window
max, a global max and a multiply that broadcasts a channel vector. Each is
built on the same private kernels as the package's fused ops, so the unfused
compositions ``conv_bn_act_composed``, ``ce_composed`` and ``se_composed``
reproduce ``conv_bn_act``, ``ce_forward`` and ``se_forward`` byte for byte,
and the kernels keep tape-level tests of their own.
"""

from __future__ import annotations

import os

import numpy as np

from cev2 import CEParams, SAFMParams, SEParams, Tensor, add, conv2d, pool
from cev2.ppm import Raster, write_ppm
from cev2.tensor import (_TAPES, _bn_affine, _bn_check, _bn_fold, _bn_normalize,
                         _bn_train_grads, _gelu, _gelu_grad, _sigmoid, _silu, _silu_grad,
                         _window_max, _window_max_grad, record_op)


def ce_weights(params: CEParams) -> dict[str, np.ndarray]:
    """Flatten CEParams into the (C,C) matrices + (C,) biases ce_ref takes."""
    return _matrices(("1", "2", "o"), (*params.mlp, *params.post))


def se_weights(params: SEParams) -> dict[str, np.ndarray]:
    return _matrices(("r", "e"), params.mlp)


def _matrices(keys, convs) -> dict[str, np.ndarray]:
    """The 1x1 conv records convs as "w<key>" matrices and "b<key>" vectors."""
    out = {}
    for key, (w, b, _) in zip(keys, convs):
        out["w" + key] = w.data[:, :, 0, 0].copy()
        out["b" + key] = b.data.reshape(-1).copy()
    return out


def safm_weights(params: SAFMParams):
    """Per-branch weight dicts + fusion arrays in safm_ref's layout."""
    keys = ("dw", "pw") if params.mode == "depthwise-separable" else ("std",)
    branches = []
    for convs in params.convs:
        wset = {}
        for key, (w, b, _) in zip(keys, convs):
            wset[key] = w.data.copy()
            wset[key + "_b"] = b.data.reshape(-1).copy()
        branches.append(wset)
    fw, fb, _ = params.fuse
    return branches, fw.data.copy(), fb.data.reshape(-1).copy()


def bn_arrays(convbn, prefix: str) -> dict[str, np.ndarray]:
    """One _ConvBN's batch-norm vectors under bn_ref-style keys."""
    return {
        prefix + "_gamma": convbn.gamma.data.reshape(-1).copy(),
        prefix + "_beta": convbn.beta.data.reshape(-1).copy(),
        prefix + "_rm": convbn.rm.data.reshape(-1).copy(),
        prefix + "_rv": convbn.rv.data.reshape(-1).copy(),
    }


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor) -> Tensor:
    """Per-channel batch norm, which reads its mode from the tape as
    ``conv_bn_act`` does.

    Under a tape it normalizes by biased batch statistics and folds them into
    the running stats with momentum 0.9; with no tape it normalizes by the
    running stats (which start at mean 0 / var 1, so a forward before any
    train step is well defined) and records nothing. The running-stat update
    is a side effect, not part of the differentiated graph.
    """
    _bn_check(x.shape[1], gamma, beta, running_mean, running_var)
    if not _TAPES:
        # running stats are constants here, so normalize-then-affine folds
        # into one per-channel affine
        scale, shift = _bn_fold(gamma, beta, running_mean, running_var)
        out_data = x.data * scale
        out_data += shift
        return Tensor(out_data)
    xhat, inv = _bn_normalize(x.data.copy(), running_mean, running_var)
    out = Tensor(_bn_affine(xhat, gamma, beta))

    def rule(g):
        dx, dgamma, dbeta = _bn_train_grads(g, xhat, gamma, inv, x.requires_grad)
        if dx is not None:
            x.accumulate_grad(dx)
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)

    record_op(out, (x, gamma, beta), rule)
    return out


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) on the in-place SiLU kernel pair, over copies of x."""
    out = Tensor(_silu(x.data.copy()))
    record_op(out, (x,), lambda g: x.accumulate_grad(_silu_grad(g, x.data.copy())))
    return out


def gelu(x: Tensor) -> Tensor:
    """The exact Gaussian-CDF GELU x * Phi(x), not the tanh approximation."""
    out_data, phi = _gelu(x.data)
    out = Tensor(out_data)
    record_op(out, (x,), lambda g: x.accumulate_grad(_gelu_grad(g, x.data, phi)))
    return out


def window_max(x: Tensor, k: int) -> Tensor:
    """Non-overlapping k x k max (stride k), edge windows truncated
    (ceil-mode output dims)."""
    out = Tensor(_window_max(x.data, k))
    record_op(out, (x,), lambda g: x.accumulate_grad(_window_max_grad(g, x.data, k)))
    return out


def global_max(x: Tensor) -> Tensor:
    """Each channel map's max at 1x1: the window max over one window of side
    max(H, W), so a tie keeps the first entry in row-major order."""
    return window_max(x, max(x.shape[2:]))


def relu(x: Tensor) -> Tensor:
    """max(x, 0), elementwise."""
    d = x.data
    out = Tensor(np.maximum(d, 0.0))
    record_op(out, (x,), lambda g: x.accumulate_grad(np.multiply(g, d > 0.0)))
    return out


def sigmoid(x: Tensor) -> Tensor:
    """1 / (1 + exp(-x)), elementwise, on the package's sigmoid kernel."""
    sig = _sigmoid(x.data)
    out = Tensor(sig)

    def rule(g):
        gx = np.subtract(1.0, sig)
        gx *= sig
        gx *= g
        x.accumulate_grad(gx)

    record_op(out, (x,), rule)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b, with b of a's shape or an (N, C, 1, 1) channel vector broadcast
    across a's spatial positions."""
    N, C = a.shape[:2]
    if b.shape not in (a.shape, (N, C, 1, 1)):
        raise ValueError(f"mul: shapes {a.shape} and {b.shape} incompatible")
    out = Tensor(a.data * b.data)

    def rule(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            gb = g * a.data
            b.accumulate_grad(gb if b.shape == a.shape else gb.sum(axis=(2, 3), keepdims=True))

    record_op(out, (a, b), rule)
    return out


def ce_composed(f: Tensor, params: CEParams) -> Tensor:
    """ce_forward as the chain of tape ops it fuses: both pools, the shared
    Conv-ReLU-Conv MLP on each, their sum, the output conv, the sigmoid and
    the broadcast multiply (12 rules)."""
    f_avg = pool(f)
    f_max = global_max(f)

    (mlp1, mlp2), (out,) = params.mlp, params.post

    def mlp(v: Tensor) -> Tensor:
        return conv2d(relu(conv2d(v, *mlp1)), *mlp2)

    avg_c = mlp(f_avg)
    max_c = mlp(f_max)
    m_d = conv2d(add(max_c, avg_c), *out)
    return mul(f, sigmoid(m_d))


def se_composed(f: Tensor, params: SEParams) -> Tensor:
    """se_forward as the chain of tape ops it fuses (6 rules)."""
    reduce, expand = params.mlp
    return mul(f, sigmoid(conv2d(relu(conv2d(pool(f), *reduce)), *expand)))


def conv_bn_act_composed(x, weight, gamma, beta, running_mean, running_var, spec, act):
    """conv2d -> batch_norm -> silu as three tape ops: the reference that the
    fused conv_bn_act must reproduce."""
    h = conv2d(x, weight, None, spec)
    h = batch_norm(h, gamma, beta, running_mean, running_var)
    return h if act is None else silu(h)


CLASS_COLORS = ((200, 40, 40), (40, 200, 40), (40, 40, 200), (200, 200, 40),
                (200, 40, 200), (40, 200, 200), (120, 200, 70), (70, 120, 200))


def make_solid_dataset(root: str, n_classes: int = 4, per_class: int = 10,
                       size: int = 64, noise: int = 12, seed: int = 5) -> None:
    """Directory-per-class PPM fixture: solid colors plus mild uniform noise,
    linearly separable by color."""
    rng = np.random.default_rng(seed)
    for ci in range(n_classes):
        cdir = os.path.join(root, f"class{ci:02d}")
        os.makedirs(cdir, exist_ok=True)
        color = np.array(CLASS_COLORS[ci % len(CLASS_COLORS)], dtype=np.float64)
        for k in range(per_class):
            base = np.tile(color, (size, size, 1))
            jitter = rng.integers(-noise, noise + 1, size=(size, size, 3))
            img = np.clip(base + jitter, 0, 255).astype(np.uint8)
            write_ppm(os.path.join(cdir, f"img{k:03d}.ppm"), Raster(img))


def solid_gray(size: int, value: int) -> Raster:
    return Raster(np.full((size, size, 3), value, dtype=np.uint8))


def file_tree(root: str) -> set[str]:
    """Paths of every directory and file under root, relative to it."""
    return {os.path.relpath(os.path.join(d, n), root)
            for d, dirs, files in os.walk(root) for n in dirs + files}
