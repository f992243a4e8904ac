"""Channel attention blocks.

``ce_forward`` is the channel-efficient gate: global average and global max
pooling per channel, one shared Conv-ReLU-Conv MLP applied to both pooled
vectors (full width, no reduction bottleneck), elementwise sum, a final 1x1
conv, then a sigmoid gate multiplied back onto the input across spatial
positions. ``se_forward`` is the squeeze-and-excitation baseline it replaces:
average pooling only, a reduce/expand pair with ratio r.

Each gate is one tape op with one backward rule: a call of ``_channel_gate``,
which runs ``tensor``'s private conv, window-max and sigmoid kernels in the
order of the unfused chain of pool, conv, ReLU, add, sigmoid and multiply ops
that the tests keep as its reference, so the output and gradients keep its bytes.

Both gates preserve shape and keep the multiplier strictly inside (0, 1).
"""

from __future__ import annotations

import numpy as np

from .params import ParamStore, register_conv
from .tensor import (ConvSpec, Tensor, _conv_backward, _conv_forward, _sigmoid, _window_max,
                     _window_max_grad, record_op)

# the gate's global pools over f's data, as (forward, input gradient)
_POOLS = {"avg": (lambda fd: fd.mean(axis=(2, 3), keepdims=True),
                  lambda g, fd: np.broadcast_to(g / (fd.shape[2] * fd.shape[3]), fd.shape)),
          "max": (lambda fd: _window_max(fd, max(fd.shape[2:])),
                  lambda g, fd: _window_max_grad(g, fd, max(fd.shape[2:])))}


class CEParams:
    """Weights for one channel-efficient attention block, as (w, b, spec)
    conv records: ``mlp``, the Conv-ReLU-Conv MLP that the avg and max
    branches share, and ``post``, the output conv, all 1x1 at full width.
    Checkpoint names hang off the given block path: <path>.ce.mlp1.w/.b,
    .mlp2.w/.b, .out.w/.b.
    """

    def __init__(self, store: ParamStore, path: str, channels: int):
        if channels < 1:
            raise ValueError(f"CEParams: channels must be >= 1, got {channels}")
        self.channels = channels
        spec = ConvSpec(channels, channels, 1, 1)
        base = path + ".ce"
        self.mlp = [register_conv(store, f"{base}.{key}", spec) for key in ("mlp1", "mlp2")]
        self.post = [register_conv(store, base + ".out", spec)]


class SEParams:
    """Squeeze-and-excitation weights: ``mlp``, the (w, b, spec) records of
    reduce C -> C/r and expand C/r -> C."""

    def __init__(self, store: ParamStore, path: str, channels: int, r: int = 4):
        if r < 1:
            raise ValueError(f"SEParams: r must be >= 1, got {r}")
        if channels % r != 0:
            raise ValueError(f"SEParams: reduction ratio {r} does not divide channels {channels}")
        self.channels = channels
        c, base = channels, path + ".se"
        self.mlp = [register_conv(store, base + ".reduce", ConvSpec(c, c // r, 1, 1)),
                    register_conv(store, base + ".expand", ConvSpec(c // r, c, 1, 1))]


def _chain(v: np.ndarray, convs) -> tuple[np.ndarray, list[np.ndarray]]:
    """(fresh output, each conv's input) of 1x1 convs (w, b, spec) over v,
    with ReLU between them."""
    ins = []
    for i, (w, b, spec) in enumerate(convs):
        if i:
            v = np.maximum(v, 0.0)
        ins.append(v)
        v = _conv_forward(v, w.data, spec.stride, spec.padding, b.data)
    return v, ins


def _chain_grad(g: np.ndarray, convs, ins: list[np.ndarray]) -> np.ndarray:
    """Input gradient of ``_chain`` for its output gradient g (only read),
    accumulating each weight and bias gradient, the last conv's first."""
    for i, (w, b, spec) in reversed(list(enumerate(convs))):
        gin = _conv_backward(g, w, b, ins[i], spec.stride, spec.padding, True)
        g = np.multiply(gin, ins[i] > 0.0) if i else gin
    return g


def _channel_gate(f: Tensor, pools: tuple[str, ...], mlp, post) -> Tensor:
    """f * sigmoid(post(sum over pools of mlp(pool(f)))) as one op with one
    rule; mlp and post (maybe empty) are ``_chain`` lists of conv records.
    The rule keeps the (N, C, 1, 1) gate and conv inputs, and gives f its
    gradients in the chain's order: through the multiply, then each pool, the
    last first."""
    fd = f.data
    s, saved = None, []
    for kind in pools:
        v, ins = _chain(_POOLS[kind][0](fd), mlp)
        s = v if s is None else s + v
        saved.append(ins)
    gate, post_ins = _chain(s, post)
    _sigmoid(gate, out=gate)
    out = Tensor(fd * gate)

    def rule(g):
        if f.requires_grad:
            f.accumulate_grad(g * gate)
        gm = np.subtract(1.0, gate)
        gm *= gate
        gm *= (g * fd).sum(axis=(2, 3), keepdims=True)
        gs = _chain_grad(gm, post, post_ins)
        for kind, ins in zip(reversed(pools), reversed(saved)):
            gv = _chain_grad(gs, mlp, ins)
            if f.requires_grad:
                f.accumulate_grad(_POOLS[kind][1](gv, fd))

    weights = [t for w, b, _ in (*mlp, *post) for t in (w, b)]
    record_op(out, (f, *weights), rule)
    return out


def ce_forward(f: Tensor, params: CEParams) -> Tensor:
    """Gate f by sigmoid of the fused avg/max channel descriptor."""
    c = f.shape[1]
    if c != params.channels:
        raise ValueError(f"ce_forward: input has {c} channels, params sized for {params.channels}")
    return _channel_gate(f, ("avg", "max"), params.mlp, params.post)


def se_forward(f: Tensor, params: SEParams) -> Tensor:
    """Gate f by sigmoid(expand(relu(reduce(global-avg(f)))))."""
    c = f.shape[1]
    if c != params.channels:
        raise ValueError(f"se_forward: input has {c} channels, params sized for {params.channels}")
    return _channel_gate(f, ("avg",), params.mlp, ())
