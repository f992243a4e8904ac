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


def _pointwise(c_in: int, c_out: int) -> ConvSpec:
    return ConvSpec(c_in, c_out, 1, 1)


class CEParams:
    """Weights for one channel-efficient attention block.

    shared_mlp=True (default) reuses one Conv-ReLU-Conv MLP for the avg and
    max branches; shared_mlp=False gives the max branch its own copy
    (mlp1m/mlp2m). Checkpoint names hang off the given block path:
    <path>.ce.mlp1.w/.b, .mlp2.w/.b, .out.w/.b (+ .mlp1m/.mlp2m when unshared).
    """

    def __init__(self, store: ParamStore, path: str, channels: int, shared_mlp: bool = True):
        if channels < 1:
            raise ValueError(f"CEParams: channels must be >= 1, got {channels}")
        self.channels = channels
        self.shared_mlp = bool(shared_mlp)
        base = path + ".ce"
        self.mlp1_w, self.mlp1_b = register_conv(store, base + ".mlp1", channels, channels, 1, 1)
        self.mlp2_w, self.mlp2_b = register_conv(store, base + ".mlp2", channels, channels, 1, 1)
        if not self.shared_mlp:
            self.mlp1m_w, self.mlp1m_b = register_conv(store, base + ".mlp1m", channels, channels, 1, 1)
            self.mlp2m_w, self.mlp2m_b = register_conv(store, base + ".mlp2m", channels, channels, 1, 1)
        self.out_w, self.out_b = register_conv(store, base + ".out", channels, channels, 1, 1)


class SEParams:
    """Squeeze-and-excitation weights: reduce C -> C/r, expand C/r -> C."""

    def __init__(self, store: ParamStore, path: str, channels: int, r: int = 4):
        if r < 1:
            raise ValueError(f"SEParams: r must be >= 1, got {r}")
        if channels % r != 0:
            raise ValueError(f"SEParams: reduction ratio {r} does not divide channels {channels}")
        self.channels = channels
        self.r = r
        hidden = channels // r
        base = path + ".se"
        self.reduce_w, self.reduce_b = register_conv(store, base + ".reduce", hidden, channels, 1, 1)
        self.expand_w, self.expand_b = register_conv(store, base + ".expand", channels, hidden, 1, 1)


def ce_forward(f: Tensor, params: CEParams) -> Tensor:
    """Gate f by sigmoid of the fused avg/max channel descriptor."""
    c = f.shape[1]
    if c != params.channels:
        raise ValueError(f"ce_forward: input has {c} channels, params sized for {params.channels}")
    spec = _pointwise(c, c)

    f_avg = pool(f, "global-avg")
    f_max = pool(f, "global-max")

    def mlp(v: Tensor, w1, b1, w2, b2) -> Tensor:
        h = conv2d(v, w1, b1, spec)
        h = activation(h, "relu")
        return conv2d(h, w2, b2, spec)

    avg_c = mlp(f_avg, params.mlp1_w, params.mlp1_b, params.mlp2_w, params.mlp2_b)
    if params.shared_mlp:
        max_c = mlp(f_max, params.mlp1_w, params.mlp1_b, params.mlp2_w, params.mlp2_b)
    else:
        max_c = mlp(f_max, params.mlp1m_w, params.mlp1m_b, params.mlp2m_w, params.mlp2m_b)

    m_c = elementwise(max_c, avg_c, "add")
    m_d = conv2d(m_c, params.out_w, params.out_b, spec)
    gate = activation(m_d, "sigmoid")
    return elementwise(f, gate, "mul")


def se_forward(f: Tensor, params: SEParams) -> Tensor:
    """Gate f by sigmoid(expand(relu(reduce(global-avg(f)))))."""
    c = f.shape[1]
    if c != params.channels:
        raise ValueError(f"se_forward: input has {c} channels, params sized for {params.channels}")
    hidden = c // params.r
    squeezed = pool(f, "global-avg")
    h = conv2d(squeezed, params.reduce_w, params.reduce_b, _pointwise(c, hidden))
    h = activation(h, "relu")
    h = conv2d(h, params.expand_w, params.expand_b, _pointwise(hidden, c))
    gate = activation(h, "sigmoid")
    return elementwise(f, gate, "mul")


def attention_param_count(kind: str, channels: int, r: int = 4,
                          shared_mlp: bool = True) -> int:
    """Closed-form scalar count of the corresponding params object."""
    c = channels
    if kind == "ce":
        n_mlps = 2 if shared_mlp else 4
        return n_mlps * (c * c + c) + (c * c + c)
    if kind == "se":
        if c % r != 0:
            raise ValueError(f"attention_param_count: r={r} does not divide C={c}")
        hidden = c // r
        return (hidden * c + hidden) + (c * hidden + c)
    raise ValueError(f"unknown attention kind {kind!r}")
