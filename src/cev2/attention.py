"""Channel attention blocks.

``ce_forward`` is the channel-efficient gate: global average and global max
pooling per channel, one shared Conv-ReLU-Conv MLP applied to both pooled
vectors (full width, no reduction bottleneck), elementwise sum, a final 1x1
conv, then a sigmoid gate multiplied back onto the input across spatial
positions. ``se_forward`` is the squeeze-and-excitation baseline it replaces:
average pooling only, a reduce/expand pair with ratio r.

Both gates preserve shape and keep the multiplier strictly inside (0, 1).
"""

from __future__ import annotations

from .params import ParamStore, register_conv
from .tensor import ConvSpec, Tensor, activation, conv2d, elementwise, pool


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


def ce_forward(f: Tensor, params: CEParams) -> Tensor:
    """Gate f by sigmoid of the fused avg/max channel descriptor."""
    c = f.shape[1]
    if c != params.channels:
        raise ValueError(f"ce_forward: input has {c} channels, params sized for {params.channels}")

    f_avg = pool(f, "global-avg")
    f_max = pool(f, "global-max")

    def mlp(v: Tensor) -> Tensor:
        h = conv2d(v, params.mlp1_w, params.mlp1_b, params.spec)
        h = activation(h, "relu")
        return conv2d(h, params.mlp2_w, params.mlp2_b, params.spec)

    avg_c = mlp(f_avg)
    max_c = mlp(f_max)
    m_c = elementwise(max_c, avg_c, "add")
    m_d = conv2d(m_c, params.out_w, params.out_b, params.spec)
    gate = activation(m_d, "sigmoid")
    return elementwise(f, gate, "mul")


def se_forward(f: Tensor, params: SEParams) -> Tensor:
    """Gate f by sigmoid(expand(relu(reduce(global-avg(f)))))."""
    c = f.shape[1]
    if c != params.channels:
        raise ValueError(f"se_forward: input has {c} channels, params sized for {params.channels}")
    squeezed = pool(f, "global-avg")
    h = conv2d(squeezed, params.reduce_w, params.reduce_b, params.reduce_spec)
    h = activation(h, "relu")
    h = conv2d(h, params.expand_w, params.expand_b, params.expand_spec)
    gate = activation(h, "sigmoid")
    return elementwise(f, gate, "mul")

