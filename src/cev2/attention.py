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
    """Weights for one channel-efficient attention block: the Conv-ReLU-Conv
    MLP that the avg and max branches share, and the output conv, all 1x1 at
    full width (``spec``). Checkpoint names hang off the given block path:
    <path>.ce.mlp1.w/.b, .mlp2.w/.b, .out.w/.b.
    """

    def __init__(self, store: ParamStore, path: str, channels: int):
        if channels < 1:
            raise ValueError(f"CEParams: channels must be >= 1, got {channels}")
        self.channels = channels
        self.spec = ConvSpec(channels, channels, 1, 1)
        base = path + ".ce"
        self.mlp1_w, self.mlp1_b = register_conv(store, base + ".mlp1", self.spec)
        self.mlp2_w, self.mlp2_b = register_conv(store, base + ".mlp2", self.spec)
        self.out_w, self.out_b = register_conv(store, base + ".out", self.spec)


class SEParams:
    """Squeeze-and-excitation weights: reduce C -> C/r, expand C/r -> C."""

    def __init__(self, store: ParamStore, path: str, channels: int, r: int = 4):
        if r < 1:
            raise ValueError(f"SEParams: r must be >= 1, got {r}")
        if channels % r != 0:
            raise ValueError(f"SEParams: reduction ratio {r} does not divide channels {channels}")
        self.channels = channels
        self.reduce_spec = ConvSpec(channels, channels // r, 1, 1)
        self.expand_spec = ConvSpec(channels // r, channels, 1, 1)
        base = path + ".se"
        self.reduce_w, self.reduce_b = register_conv(store, base + ".reduce", self.reduce_spec)
        self.expand_w, self.expand_b = register_conv(store, base + ".expand", self.expand_spec)


def _chain(v: np.ndarray, convs) -> tuple[np.ndarray, list[np.ndarray]]:
    """(fresh output, each conv's input) of 1x1 convs (w, b, spec) over v,
    with ReLU between them."""
    ins = []
    for i, (w, b, spec) in enumerate(convs):
        if i:
            v = np.maximum(v, 0.0)
        ins.append(v)
        v = _conv_forward(v, w.data, spec.stride, spec.padding)
        v += b.data
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
    rule; mlp and post (maybe empty) are ``_chain`` conv lists. The rule keeps
    the (N, C, 1, 1) gate and conv inputs, and gives f its gradients in the
    chain's order: through the multiply, then each pool, the last first."""
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
    p, spec = params, params.spec
    mlp = ((p.mlp1_w, p.mlp1_b, spec), (p.mlp2_w, p.mlp2_b, spec))
    return _channel_gate(f, ("avg", "max"), mlp, ((p.out_w, p.out_b, spec),))


def se_forward(f: Tensor, params: SEParams) -> Tensor:
    """Gate f by sigmoid(expand(relu(reduce(global-avg(f)))))."""
    c = f.shape[1]
    if c != params.channels:
        raise ValueError(f"se_forward: input has {c} channels, params sized for {params.channels}")
    p = params
    return _channel_gate(f, ("avg",), ((p.reduce_w, p.reduce_b, p.reduce_spec),
                                       (p.expand_w, p.expand_b, p.expand_spec)), ())
