"""Rank-4 tensors, a reverse-mode tape, and the differentiable kernels the
network blocks compose.

Data lives in float64 numpy arrays laid out (batch, channels, height, width).
Ops record backward rules onto the innermost active ``Tape``; ``backward``
replays the rules last-to-first and fills the ``grad`` slots of every tensor
that asked for one. It drops each rule as the rule runs, so the arrays a rule
saved, and the output gradients only it still held, are freed during the
replay rather than when the tape goes; the tape is empty afterwards.
``finite_diff_check`` is the central-difference oracle the test suite and the
``gradcheck`` CLI command run against the analytic path.

Gradient buffers change hands without copies: ``accumulate_grad`` adopts the
first gradient a tensor receives when it is a fresh array the rule built
(writeable, C-contiguous float64 owning its memory), and copies views and
read-only arrays. A rule must therefore not reuse or write a buffer after
handing it over, and must not hand one buffer to two tensors; ``elementwise``
add, the one rule that passes the same gradient to both operands, copies it
for the second.

Kernels are vectorized numpy with no FFT/Winograd tricks. Every convolution,
whatever its groups (dense, pointwise, depthwise or grouped), is one grouped
im2col kernel: per chunk of samples, one batched GEMM over the groups for the
forward, and one each for grad-w and grad-x, with no per-kernel-offset loop
except the col2im scatter of grad-x onto the input. A chunk is one sample,
unless samples have fewer than 64 output pixels; then several sit side by
side in the GEMM columns. Work that only a backward pass needs (activation
derivatives, batch norm's normalized input) is computed inside the recorded
rule, so a forward with no recording tape does none of it, and eval-mode
batch norm is one per-channel affine. Backward rules build their result in
one fresh array and update it in place; train-mode batch norm takes its
statistics and its gamma, beta and input gradients from two per-channel sums.

``conv_bn_act`` is conv -> batch norm -> optional SiLU as one op with one
rule, sharing the conv kernels, the batch statistics and the SiLU derivative
with ``conv2d``, ``batch_norm`` and ``activation``. In train mode it
normalizes the conv output in place into ``xhat`` and saves only ``xhat``,
the sigmoid and the padded input; the rule rebuilds the batch-norm output
from ``xhat``, so every byte equals the unfused composition's, with one rule
in place of three and two full-size arrays fewer. In eval mode it folds
batch norm into the conv weight and a bias, so one conv and the activation
run. Channel vectors (per-channel biases, pooled statistics, gate logits) are
ordinary tensors with H = W = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# conv2d folds ceil(_FOLD_COLS / pixels) samples into each GEMM's columns, so
# a sample with fewer output pixels than this shares its GEMMs with others
_FOLD_COLS = 64
# batch norm's running-stat momentum and variance guard
_BN_MOMENTUM = 0.9
_BN_EPS = 1e-3


class Tensor:
    """A dense (N, C, H, W) array of float64 with an optional gradient slot.

    ``Tensor(arr)`` wraps a float64 C-contiguous ``arr`` without copying it
    (a copy here would cost every op one), so writes through either one show
    in the other; any other input is converted into a fresh array.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        if arr.ndim != 4:
            raise ValueError(f"tensor must be rank-4 (N,C,H,W), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"tensor dims must all be >= 1, got shape {arr.shape}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return self.data.shape

    @property
    def numel(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into this tensor's gradient.

        The first gradient is adopted without a copy when it is a writeable,
        C-contiguous float64 array that owns its memory: the fresh buffer a
        backward rule has just built. A rule that hands ``g`` over must not
        read, write or hand on that buffer again. Views (slices, reshapes,
        ``broadcast_to``) and read-only arrays are copied, since their memory
        belongs to another array.
        """
        if self.grad is not None:
            self.grad += g
        elif (g.base is None and g.dtype == np.float64 and g.flags.writeable
              and g.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = np.array(g, dtype=np.float64)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def channel_vector(values) -> Tensor:
    """Copy a 1-D sequence into a (1, C, 1, 1) tensor; the tensor never
    aliases ``values``."""
    arr = np.array(values, dtype=np.float64).reshape(-1)
    return Tensor(arr.reshape(1, arr.size, 1, 1))


# ---------------------------------------------------------------------------
# Tape


class Tape:
    """Ordered record of backward rules.

    Recording order is the op execution order, which is deterministic for a
    fixed program; ``backward`` replays it reversed, exactly once.
    """

    def __init__(self):
        self._rules: list[Callable[[], None]] = []
        self._consumed = False

    def record(self, rule: Callable[[], None]) -> None:
        self._rules.append(rule)

    def __len__(self) -> int:
        return len(self._rules)

    def __enter__(self) -> "Tape":
        _TAPES.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _TAPES.pop()
        return False


_TAPES: list[Tape] = []


def record_op(outs, inputs: Sequence[Tensor], rule: Callable[[], None]) -> None:
    """Attach a backward rule to the active tape if any input tracks grads."""
    if not _TAPES:
        return
    if not any(t.requires_grad for t in inputs):
        return
    if isinstance(outs, Tensor):
        outs.requires_grad = True
    else:
        for o in outs:
            o.requires_grad = True
    _TAPES[-1].record(rule)


def backward(tape: Tape, loss: Tensor) -> None:
    """Seed d(loss)/d(loss) = 1 and replay the tape reversed.

    Gradients accumulate into every tensor that requested them; the tape is
    consumed and cannot be replayed twice.
    """
    if loss.shape != (1, 1, 1, 1):
        raise ValueError(f"loss must be scalar (1,1,1,1), got shape {loss.shape}")
    if tape._consumed:
        raise RuntimeError("tape already consumed by a previous backward()")
    tape._consumed = True
    loss.accumulate_grad(np.ones((1, 1, 1, 1)))
    # each rule is dropped as it runs, freeing the arrays it saved and the
    # output gradients only it still held
    rules = tape._rules
    while rules:
        rules.pop()()


# ---------------------------------------------------------------------------
# Convolution


@dataclass(frozen=True)
class ConvSpec:
    """Static shape contract of one convolution.

    groups == in_channels == out_channels is a depthwise convolution;
    1x1 kernel with groups == 1 is a pointwise convolution.
    """

    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int = 1
    padding: int = 0
    groups: int = 1

    def __post_init__(self):
        for field in ("in_channels", "out_channels", "kernel_h", "kernel_w", "stride", "groups"):
            if getattr(self, field) < 1:
                raise ValueError(f"ConvSpec.{field} must be >= 1, got {getattr(self, field)}")
        if self.padding < 0:
            raise ValueError(f"ConvSpec.padding must be >= 0, got {self.padding}")
        if self.in_channels % self.groups != 0:
            raise ValueError(
                f"ConvSpec.in_channels {self.in_channels} not divisible by groups {self.groups}")
        if self.out_channels % self.groups != 0:
            raise ValueError(
                f"ConvSpec.out_channels {self.out_channels} not divisible by groups {self.groups}")


def _conv_check(x: Tensor, weight: Tensor, spec: ConvSpec) -> None:
    """Raise ValueError unless x and weight fit spec."""
    C, H, W = x.shape[1:]
    if C != spec.in_channels:
        raise ValueError(f"conv2d: input has {C} channels, spec.in_channels is {spec.in_channels}")
    expected = (spec.out_channels, C // spec.groups, spec.kernel_h, spec.kernel_w)
    if weight.shape != expected:
        raise ValueError(
            f"conv2d: weight shape {weight.shape} != expected {expected} "
            f"(out_channels, in_channels/groups, kernel_h, kernel_w)")
    Hp, Wp = H + 2 * spec.padding, W + 2 * spec.padding
    if Hp < spec.kernel_h or Wp < spec.kernel_w:
        raise ValueError(
            f"conv2d: kernel {spec.kernel_h}x{spec.kernel_w} larger than padded input {Hp}x{Wp}")


def _conv_chunks(N: int, P: int) -> list[tuple[int, int]]:
    """Sample ranges that share one GEMM: one sample each, unless a sample
    has fewer than _FOLD_COLS output pixels P."""
    fold = -(-_FOLD_COLS // P)
    return [(n, min(n + fold, N)) for n in range(0, N, fold)]


def _conv_cols(patches: np.ndarray, n0: int, n1: int) -> np.ndarray:
    """(G, K, b*P) patch matrix of samples n0..n1-1, sample-major columns;
    a view, copying nothing, for a one-sample stride-1 1x1 conv."""
    _, G, cg, KH, KW, H2, W2 = patches.shape
    return (patches[n0:n1].transpose(1, 2, 3, 4, 0, 5, 6)
            .reshape(G, cg * KH * KW, (n1 - n0) * H2 * W2))


def _conv_forward(xd: np.ndarray, wd: np.ndarray,
                  spec: ConvSpec) -> tuple[np.ndarray, np.ndarray]:
    """Convolve xd by the weight array wd, with no bias; ``_conv_check`` has
    passed. Returns the fresh (N, O, H2, W2) output and the patch view
    ``(N, G, cg, KH, KW, H2, W2)`` of the padded input that
    ``_conv_backward`` reads."""
    N, C, H, W = xd.shape
    G, s, p = spec.groups, spec.stride, spec.padding
    O, KH, KW = spec.out_channels, spec.kernel_h, spec.kernel_w
    cg, og = C // G, O // G
    Hp, Wp = H + 2 * p, W + 2 * p
    H2 = (Hp - KH) // s + 1
    W2 = (Wp - KW) // s + 1

    xp = np.pad(xd, ((0, 0), (0, 0), (p, p), (p, p))) if p else xd
    # im2col (Chellapilla et al. 2006), grouped: each output pixel of group g
    # is the dot of one (cg*KH*KW) patch of group g's input channels with a
    # weight row, so one batched matmul over the G groups gives a chunk's
    # output, and its two transposes give grad-w and grad-x. A chunk is one
    # sample, which keeps the patch copy at one image's worth; samples with
    # fewer than _FOLD_COLS output pixels fold side by side into the GEMM
    # column axis, so a 1x1 map costs one GEMM per chunk rather than one
    # matrix-vector product (or, for grad-w, one outer product) per sample.
    P = H2 * W2
    patches = (sliding_window_view(xp.reshape(N, G, cg, Hp, Wp), (KH, KW), axis=(3, 4))
               [:, :, :, ::s, ::s].transpose(0, 1, 2, 5, 6, 3, 4))  # (N,G,cg,KH,KW,H2,W2)
    wmat = wd.reshape(G, og, cg * KH * KW)
    out = np.empty((N, O, H2, W2))
    out4 = out.reshape(N, G, og, P)
    for n0, n1 in _conv_chunks(N, P):
        # one sample's GEMM writes straight into the output; a folded chunk's
        # sample-major columns are moved into place after it
        if n1 - n0 == 1:
            np.matmul(wmat, _conv_cols(patches, n0, n1), out=out4[n0])
        else:
            out4[n0:n1] = ((wmat @ _conv_cols(patches, n0, n1))
                           .reshape(G, og, n1 - n0, P).transpose(2, 0, 1, 3))
    return out, patches


def _conv_backward(g: np.ndarray, wd: np.ndarray, patches: np.ndarray,
                   in_shape: tuple[int, ...], spec: ConvSpec, need_w: bool,
                   need_x: bool) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(grad-w, grad-x) of ``_conv_forward`` for the output gradient g, each
    None unless asked for. grad-w is a fresh array; grad-x is a fresh array,
    or the interior view of a fresh padded buffer when the conv pads."""
    N, G, cg, KH, KW, H2, W2 = patches.shape
    C, H, W = in_shape[1:]
    s, p, O = spec.stride, spec.padding, spec.out_channels
    og, K, P = O // G, cg * KH * KW, H2 * W2
    Hp, Wp = H + 2 * p, W + 2 * p
    gg = g.reshape(N, G, og, P)
    gw = np.zeros((O, cg, KH, KW)) if need_w else None
    gxp = np.zeros((N, C, Hp, Wp)) if need_x else None
    gw3 = gw.reshape(G, og, K) if need_w else None
    gx5 = gxp.reshape(N, G, cg, Hp, Wp) if need_x else None
    wt = wd.reshape(G, og, K).transpose(0, 2, 1)
    for n0, n1 in _conv_chunks(N, P):
        b = n1 - n0
        gc = gg[n0:n1].transpose(1, 2, 0, 3).reshape(G, og, b * P)
        if need_w:
            gw3 += gc @ _conv_cols(patches, n0, n1).transpose(0, 2, 1)
        if need_x:
            # col2im: add each kernel offset's patch gradient back onto
            # the input pixels it was read from
            dcols = ((wt @ gc).reshape(G, cg, KH, KW, b, H2, W2)
                     .transpose(4, 0, 1, 2, 3, 5, 6))  # (b,G,cg,KH,KW,H2,W2)
            for i in range(KH):
                for j in range(KW):
                    gx5[n0:n1, :, :, i:i + s * (H2 - 1) + 1:s,
                        j:j + s * (W2 - 1) + 1:s] += dcols[:, :, :, i, j]
    if need_x and p:
        gxp = gxp[:, :, p:Hp - p, p:Wp - p]
    return gw, gxp


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, spec: ConvSpec) -> Tensor:
    """Grouped 2-D convolution (cross-correlation) with zero padding.

    weight is (out_channels, in_channels/groups, kernel_h, kernel_w); bias is a
    channel vector or None. Output spatial dims follow the usual
    floor((H + 2p - k)/s) + 1 rule.
    """
    _conv_check(x, weight, spec)
    O = spec.out_channels
    if bias is not None and bias.shape != (1, O, 1, 1):
        raise ValueError(f"conv2d: bias shape {bias.shape} != expected {(1, O, 1, 1)}")
    out_data, patches = _conv_forward(x.data, weight.data, spec)
    if bias is not None:
        out_data += bias.data
    out = Tensor(out_data)
    wd = weight.data

    def rule():
        g = out.grad
        if g is None:
            return
        gw, gx = _conv_backward(g, wd, patches, x.shape, spec, weight.requires_grad,
                                x.requires_grad)
        if gw is not None:
            weight.accumulate_grad(gw)
        if gx is not None:
            x.accumulate_grad(gx)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 2, 3), keepdims=True))

    inputs = (x, weight) if bias is None else (x, weight, bias)
    record_op(out, inputs, rule)
    return out


# ---------------------------------------------------------------------------
# Pooling / upsampling


def pool(x: Tensor, kind: str, window: int = 0) -> Tensor:
    """global-avg / global-max reduce each channel map to 1x1; window-max is a
    non-overlapping max (stride = window) with edge windows truncated
    (ceil-mode output dims), so a window covering the whole map gives
    global-max's output and gradient."""
    N, C, H, W = x.shape
    if kind == "global-avg":
        out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))

        def rule():
            g = out.grad
            if g is None or not x.requires_grad:
                return
            x.accumulate_grad(np.broadcast_to(g / (H * W), x.shape))

        record_op(out, (x,), rule)
        return out

    if kind == "global-max":
        flat = x.data.reshape(N, C, H * W)
        idx = flat.argmax(axis=2)
        out = Tensor(np.take_along_axis(flat, idx[:, :, None], axis=2).reshape(N, C, 1, 1))

        def rule():
            g = out.grad
            if g is None or not x.requires_grad:
                return
            gflat = np.zeros((N, C, H * W))
            np.put_along_axis(gflat, idx[:, :, None], g.reshape(N, C, 1), axis=2)
            x.accumulate_grad(gflat.reshape(N, C, H, W))

        record_op(out, (x,), rule)
        return out

    if kind == "window-max":
        if window < 1:
            raise ValueError(f"window-max needs window >= 1, got {window}")
        k = window
        Ho, Wo = -(-H // k), -(-W // k)
        ph, pw = Ho * k - H, Wo * k - W
        xpad = (np.pad(x.data, ((0, 0), (0, 0), (0, ph), (0, pw)), constant_values=-np.inf)
                if ph or pw else x.data)
        win = xpad.reshape(N, C, Ho, k, Wo, k).transpose(0, 1, 2, 4, 3, 5).reshape(N, C, Ho, Wo, k * k)
        idx = win.argmax(axis=4)
        out = Tensor(np.take_along_axis(win, idx[..., None], axis=4).reshape(N, C, Ho, Wo))

        def rule():
            g = out.grad
            if g is None or not x.requires_grad:
                return
            gwin = np.zeros((N, C, Ho, Wo, k * k))
            np.put_along_axis(gwin, idx[..., None], g.reshape(N, C, Ho, Wo, 1), axis=4)
            gpad = (gwin.reshape(N, C, Ho, Wo, k, k).transpose(0, 1, 2, 4, 3, 5)
                    .reshape(N, C, Ho * k, Wo * k))
            x.accumulate_grad(gpad[:, :, :H, :W])

        record_op(out, (x,), rule)
        return out

    raise ValueError(f"unknown pool kind {kind!r}")


def upsample_to(x: Tensor, target_h: int, target_w: int) -> Tensor:
    """Nearest-neighbor resize to (target_h, target_w); output cell (i, j)
    reads source cell (floor(i*h/target_h), floor(j*w/target_w))."""
    N, C, H, W = x.shape
    if target_h < H or target_w < W:
        raise ValueError(
            f"upsample_to target ({target_h}, {target_w}) smaller than input ({H}, {W})")
    rows = (np.arange(target_h) * H) // target_h
    cols = (np.arange(target_w) * W) // target_w
    out = Tensor(x.data[:, :, rows][:, :, :, cols])

    def rule():
        g = out.grad
        if g is None or not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None), slice(None), rows[:, None], cols[None, :]), g)
        x.accumulate_grad(gx)

    record_op(out, (x,), rule)
    return out


# ---------------------------------------------------------------------------
# Elementwise


def _sigmoid(d: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-d)) in one fresh array. Below d = -709.78 exp(-d)
    overflows to inf and the result is 0; the true value is under 1e-308 there,
    so the overflow is expected and not reported."""
    sig = np.negative(d)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += 1.0
    return np.reciprocal(sig, out=sig)


def _silu_grad(g: np.ndarray, d: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """g * silu'(d) in one fresh array, given sig = sigmoid(d):
    sig * (1 + d * (1 - sig)), built in place."""
    gx = np.subtract(1.0, sig)
    gx *= d
    gx += 1.0
    gx *= sig
    gx *= g
    return gx


def activation(x: Tensor, kind: str) -> Tensor:
    """relu | gelu | sigmoid | silu, elementwise. gelu is the exact
    Gaussian-CDF form x*Phi(x), not the tanh approximation."""
    d = x.data
    # each grad_x(g) builds g * f'(d) in one fresh array, in place
    if kind == "relu":
        out = Tensor(np.maximum(d, 0.0))
        grad_x = lambda g: np.multiply(g, d > 0.0)  # noqa: E731
    elif kind == "sigmoid":
        sig = _sigmoid(d)
        out = Tensor(sig)

        def grad_x(g):
            gx = np.subtract(1.0, sig)
            gx *= sig
            gx *= g
            return gx
    elif kind == "silu":
        sig = _sigmoid(d)
        out = Tensor(d * sig)
        grad_x = lambda g: _silu_grad(g, d, sig)  # noqa: E731
    elif kind == "gelu":
        phi = erf(d * _INV_SQRT2)
        phi += 1.0
        phi *= 0.5
        out = Tensor(d * phi)

        def grad_x(g):
            # phi + d * exp(-d^2 / 2) / sqrt(2 pi)
            gx = np.multiply(-0.5, d)
            gx *= d
            np.exp(gx, out=gx)
            gx *= d
            gx *= _INV_SQRT2PI
            gx += phi
            gx *= g
            return gx
    else:
        raise ValueError(f"unknown activation kind {kind!r}")

    def rule():
        g = out.grad
        if g is None or not x.requires_grad:
            return
        x.accumulate_grad(grad_x(g))

    record_op(out, (x,), rule)
    return out


def elementwise(a: Tensor, b: Tensor, kind: str) -> Tensor:
    """add | mul with equal shapes, or b as an (N,C,1,1) channel vector
    broadcast across a's spatial positions."""
    if kind not in ("add", "mul"):
        raise ValueError(f"unknown elementwise kind {kind!r}")
    broadcast = a.shape != b.shape
    if broadcast:
        N, C, _, _ = a.shape
        if b.shape != (N, C, 1, 1):
            raise ValueError(
                f"elementwise: shapes {a.shape} and {b.shape} incompatible; "
                f"second operand must match or be ({N}, {C}, 1, 1)")
    out = Tensor(a.data + b.data if kind == "add" else a.data * b.data)

    def rule():
        g = out.grad
        if g is None:
            return
        if kind == "add":
            if a.requires_grad:
                a.accumulate_grad(g)
            if b.requires_grad:
                # a may have adopted g as its own gradient buffer (x + x too)
                if broadcast:
                    b.accumulate_grad(g.sum(axis=(2, 3), keepdims=True))
                else:
                    b.accumulate_grad(g.copy() if a.grad is g else g)
        else:
            if a.requires_grad:
                a.accumulate_grad(g * b.data)
            if b.requires_grad:
                gb = g * a.data
                b.accumulate_grad(gb.sum(axis=(2, 3), keepdims=True) if broadcast else gb)

    record_op(out, (a, b), rule)
    return out


def sum_all(x: Tensor) -> Tensor:
    """Reduce every entry to a scalar (1,1,1,1) tensor."""
    out = Tensor(np.full((1, 1, 1, 1), x.data.sum()))

    def rule():
        g = out.grad
        if g is None or not x.requires_grad:
            return
        x.accumulate_grad(np.full_like(x.data, g.reshape(-1)[0]))

    record_op(out, (x,), rule)
    return out


# ---------------------------------------------------------------------------
# Channel split / concat


def channel_split4(x: Tensor) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """Split into four equal channel quarters; part i holds channels
    [i*C/4, (i+1)*C/4)."""
    N, C, H, W = x.shape
    if C % 4 != 0:
        raise ValueError(f"channel_split4: channel count {C} not divisible by 4")
    q = C // 4
    parts = tuple(Tensor(x.data[:, i * q:(i + 1) * q].copy()) for i in range(4))

    def rule():
        if not x.requires_grad:
            return
        chunks = [p.grad if p.grad is not None else np.zeros((N, q, H, W)) for p in parts]
        x.accumulate_grad(np.concatenate(chunks, axis=1))

    record_op(parts, (x,), rule)
    return parts


def channel_concat(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate along the channel axis; exact inverse of channel_split4."""
    if not parts:
        raise ValueError("channel_concat: need at least one part")
    n, _, h, w = parts[0].shape
    for p in parts[1:]:
        if p.shape[0] != n or p.shape[2:] != (h, w):
            raise ValueError(
                f"channel_concat: part shape {p.shape} incompatible with {parts[0].shape}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=1))
    offsets = np.cumsum([0] + [p.shape[1] for p in parts])

    def rule():
        g = out.grad
        if g is None:
            return
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                p.accumulate_grad(g[:, lo:hi])

    record_op(out, tuple(parts), rule)
    return out


# ---------------------------------------------------------------------------
# Batch normalization


def _bn_check(C: int, gamma: Tensor, beta: Tensor) -> None:
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (1, C, 1, 1):
            raise ValueError(f"batch_norm: {name} shape {t.shape} != expected {(1, C, 1, 1)}")


def _bn_normalize(xd: np.ndarray, running_mean: Tensor, running_var: Tensor,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Train-mode statistics: write xhat = (xd - mean) * inv into out (a
    fresh array when None; out may be xd itself), fold the biased batch mean
    and variance into the running stats, and return (xhat, inv) with
    inv = 1 / sqrt(var + eps) per channel."""
    N, C, H, W = xd.shape
    M = N * H * W
    # per-channel sums over an (N, C, H*W) view; xhat is built in place
    # from the centred input, which also gives the biased variance
    mu = np.einsum("nci->c", xd.reshape(N, C, H * W)).reshape(1, C, 1, 1)
    mu /= M
    xhat = np.subtract(xd, mu, out=out)
    xc3 = xhat.reshape(N, C, H * W)
    var = np.einsum("nci,nci->c", xc3, xc3).reshape(1, C, 1, 1)
    var /= M
    running_mean.data[...] = _BN_MOMENTUM * running_mean.data + (1.0 - _BN_MOMENTUM) * mu
    running_var.data[...] = _BN_MOMENTUM * running_var.data + (1.0 - _BN_MOMENTUM) * var
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat *= inv
    return xhat, inv


def _bn_affine(xhat: np.ndarray, gamma: Tensor, beta: Tensor) -> np.ndarray:
    """xhat * gamma + beta in one fresh array."""
    out = xhat * gamma.data
    out += beta.data
    return out


def _bn_train_grads(g: np.ndarray, xhat: np.ndarray, gamma: Tensor, inv: np.ndarray,
                    need_x: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(dx, dgamma, dbeta) of train-mode batch norm for the output gradient
    g; dx is None unless need_x. The beta and gamma grads are the two
    per-channel sums that the batch-statistics paths of dx feed back:
    dx = gamma*inv * (g - sum(g)/M - xhat * sum(g*xhat)/M)."""
    N, C, H, W = g.shape
    M = N * H * W
    g3 = g.reshape(N, C, H * W)
    sum_g = np.einsum("nci->c", g3).reshape(1, C, 1, 1)
    sum_gx = np.einsum("nci,nci->c", g3, xhat.reshape(N, C, H * W)).reshape(1, C, 1, 1)
    dx = None
    if need_x:
        dx = xhat * (sum_gx * (-1.0 / M))
        dx += g
        dx -= sum_g / M
        dx *= gamma.data * inv
    return dx, sum_gx, sum_g


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor, mode: str) -> Tensor:
    """Per-channel batch norm.

    train mode normalizes by biased batch statistics and folds them into the
    running stats with momentum _BN_MOMENTUM; eval mode normalizes by the
    running stats (which start at mean 0 / var 1, so eval before any train
    step is well defined). The running-stat update is a side effect, not part
    of the differentiated graph.
    """
    _bn_check(x.shape[1], gamma, beta)
    if mode == "train":
        xhat, inv = _bn_normalize(x.data, running_mean, running_var)
        out = Tensor(_bn_affine(xhat, gamma, beta))
    elif mode == "eval":
        # running stats are constants here, so normalize-then-affine folds
        # into one per-channel affine; the rule rebuilds xhat if it needs it
        mu = running_mean.data.copy()
        inv = 1.0 / np.sqrt(running_var.data + _BN_EPS)
        scale = gamma.data * inv
        out_data = x.data * scale
        out_data += beta.data - mu * scale
        out = Tensor(out_data)
    else:
        raise ValueError(f"unknown batch_norm mode {mode!r}")

    def train_rule():
        g = out.grad
        if g is None:
            return
        dx, dgamma, dbeta = _bn_train_grads(g, xhat, gamma, inv, x.requires_grad)
        if dx is not None:
            x.accumulate_grad(dx)
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)

    def eval_rule():
        g = out.grad
        if g is None:
            return
        if gamma.requires_grad:
            gamma.accumulate_grad((g * ((x.data - mu) * inv)).sum(axis=(0, 2, 3), keepdims=True))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=(0, 2, 3), keepdims=True))
        if x.requires_grad:
            x.accumulate_grad(g * gamma.data * inv)

    record_op(out, (x, gamma, beta), train_rule if mode == "train" else eval_rule)
    return out


# ---------------------------------------------------------------------------
# Fused conv -> batch norm -> activation


def conv_bn_act(x: Tensor, weight: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: Tensor, running_var: Tensor, spec: ConvSpec, mode: str,
                act: str | None) -> Tensor:
    """conv2d with no bias, then batch_norm, then activation ``act`` (silu,
    or None for none), as one op with one backward rule.

    train mode gives the composition's bytes: the output, the running-stat
    update and every gradient. The conv output is normalized in place into
    xhat, and the op saves only xhat, the sigmoid and the padded input; the
    rule rebuilds the batch-norm output as xhat * gamma + beta, in the
    composition's operation order, for the SiLU derivative.

    eval mode folds batch norm into the conv (Jacob et al. 2018): with
    scale = gamma / sqrt(running_var + eps), the weight's output channels are
    scaled by it and beta - running_mean * scale becomes a bias, so one conv
    and the activation run. The rule maps the folded weight and bias
    gradients back onto x, weight, gamma and beta.
    """
    _conv_check(x, weight, spec)
    O = spec.out_channels
    _bn_check(O, gamma, beta)
    if act not in (None, "silu"):
        raise ValueError(f"conv_bn_act: unknown activation kind {act!r}")
    wd = weight.data
    if mode == "train":
        xhat, patches = _conv_forward(x.data, wd, spec)
        xhat, inv = _bn_normalize(xhat, running_mean, running_var, out=xhat)
        z = _bn_affine(xhat, gamma, beta)
    elif mode == "eval":
        mu = running_mean.data.copy()
        inv = 1.0 / np.sqrt(running_var.data + _BN_EPS)
        scale = gamma.data * inv
        wf = wd * scale.reshape(O, 1, 1, 1)
        z, patches = _conv_forward(x.data, wf, spec)
        z += beta.data - mu * scale
    else:
        raise ValueError(f"unknown batch_norm mode {mode!r}")
    sig = None if act is None else _sigmoid(z)
    if sig is None:
        out = Tensor(z)
    elif mode == "train":
        # the rule rebuilds z from xhat, so the output takes its buffer
        z *= sig
        out = Tensor(z)
    else:
        out = Tensor(z * sig)

    def train_rule():
        g = out.grad
        if g is None:
            return
        if sig is not None:
            g = _silu_grad(g, _bn_affine(xhat, gamma, beta), sig)
        need_w, need_x = weight.requires_grad, x.requires_grad
        g, dgamma, dbeta = _bn_train_grads(g, xhat, gamma, inv, need_w or need_x)
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)
        if g is not None:
            gw, gx = _conv_backward(g, wd, patches, x.shape, spec, need_w, need_x)
            if gw is not None:
                weight.accumulate_grad(gw)
            if gx is not None:
                x.accumulate_grad(gx)

    def eval_rule():
        g = out.grad
        if g is None:
            return
        if sig is not None:
            g = _silu_grad(g, z, sig)
        gwf, gx = _conv_backward(g, wf, patches, x.shape, spec,
                                 weight.requires_grad or gamma.requires_grad, x.requires_grad)
        sum_g = g.sum(axis=(0, 2, 3), keepdims=True)
        if gamma.requires_grad:
            # the folded weight's row o is weight[o] * gamma[o] * inv[o] and
            # the folded bias's entry is beta[o] - mu[o] * gamma[o] * inv[o]
            dot = np.einsum("oijk,oijk->o", gwf, wd).reshape(1, O, 1, 1)
            gamma.accumulate_grad((dot - mu * sum_g) * inv)
        if beta.requires_grad:
            beta.accumulate_grad(sum_g)
        if weight.requires_grad:
            gwf *= scale.reshape(O, 1, 1, 1)
            weight.accumulate_grad(gwf)
        if gx is not None:
            x.accumulate_grad(gx)

    record_op(out, (x, weight, gamma, beta), train_rule if mode == "train" else eval_rule)
    return out


# ---------------------------------------------------------------------------
# Finite-difference oracle


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, step: float = 1e-3,
                      max_coords: int | None = None,
                      rng: np.random.Generator | None = None) -> float:
    """Compare the tape gradient of scalar-valued f against central
    differences on x.

    Returns max over checked coordinates of |analytic - numeric| divided by
    max(1, |analytic|, |numeric|) (the guard keeps near-zero derivatives from
    blowing up the ratio). f must be deterministic. max_coords, when given,
    subsamples coordinates for large tensors.
    """
    x.requires_grad = True
    x.zero_grad()
    tape = Tape()
    with tape:
        y = f(x)
    if y.shape != (1, 1, 1, 1):
        raise ValueError(f"finite_diff_check: f must return a scalar tensor, got {y.shape}")
    backward(tape, y)
    analytic = None if x.grad is None else x.grad.reshape(-1).copy()

    n = x.numel
    if max_coords is not None and max_coords < n:
        if rng is None:
            rng = np.random.default_rng(0)
        coords = rng.choice(n, size=max_coords, replace=False)
    else:
        coords = range(n)
    return _central_diff(lambda: f(x).item(), [x.data.reshape(-1)], [analytic], coords, step)


def _central_diff(probe: Callable[[], float], flats: list[np.ndarray],
                  grads: list[np.ndarray | None], coords, step: float) -> float:
    """Worst |analytic - numeric| / max(1, |analytic|, |numeric|) over coords,
    flat indices into the concatenated writeable views `flats`. grads holds
    each view's flat analytic gradient (None reads as zero); probe()
    re-evaluates the scalar. Each probed scalar is restored afterwards."""
    bounds = np.cumsum([flat.size for flat in flats])
    worst = 0.0
    for c in coords:
        i = int(np.searchsorted(bounds, c, side="right"))
        k = int(c - (bounds[i - 1] if i else 0))
        flat = flats[i]
        orig = flat[k]
        flat[k] = orig + step
        fp = probe()
        flat[k] = orig - step
        fm = probe()
        flat[k] = orig
        numeric = (fp - fm) / (2.0 * step)
        a = grads[i][k] if grads[i] is not None else 0.0
        worst = max(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
    return worst
