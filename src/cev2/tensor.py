"""Rank-4 tensors, a reverse-mode tape, and the differentiable kernels the
network blocks compose.

Data lives in float64 numpy arrays laid out (batch, channels, height, width).
Ops record backward rules onto the innermost active ``Tape``; ``backward``
replays the rules last-to-first and fills the ``grad`` slots of every tensor
that asked for one. It drops each rule as the rule runs, so the arrays a rule
saved, and the output gradients only it still held, are freed during the
replay rather than when the tape goes; the tape is empty afterwards.
``finite_diff_check`` is the one central-difference oracle the test suite and
the ``gradcheck`` CLI command run against the analytic path, over one tensor
or a list of tensors (such as a network's learnable parameters).

Every op has one output tensor, and every rule keeps one contract, enforced
by ``record_op``: nothing is recorded unless an input tracks gradients, and
backward calls ``rule(g)`` with the output's gradient only if the output
received one. So no rule reads its output's ``grad`` or checks that it was
reached, and a single-input rule does not check its input's ``requires_grad``.

Gradient buffers change hands without copies: ``accumulate_grad`` adopts the
first gradient a tensor receives when it is a fresh array the rule built
(writeable, C-contiguous float64 owning its memory), and copies views and
read-only arrays. A rule must therefore not reuse or write a buffer after
handing it over, and must not hand one buffer to two tensors; ``add``,
whose operands both take the output's gradient, copies it for the second.

Kernels are vectorized numpy with no FFT/Winograd tricks. Every convolution,
whatever its groups (dense, pointwise, depthwise or grouped), is one grouped
im2col kernel, ``_conv_forward``: per chunk of samples, one batched matmul,
one GEMM per sample and group, with no loop over kernel offsets. grad-w is one
GEMM per chunk against the output gradient. grad-x is the forward kernel
again, for every stride, padding and kernel shape: the output gradient, placed
``stride`` apart in the forward kernel's per-chunk zero map, correlated with
the weight flipped in space and with its in and out channels swapped within
each group. A chunk is one sample, unless samples have fewer than 64 output
pixels; then several share one call and one zero map, and still no sample's
forward bytes depend on the others. That map, reused from chunk to chunk, is
the one place an input is padded or placed, so a conv's rule keeps only the
unpadded input, and its grad-x is a fresh unpadded array. Work that only a
backward pass needs (activation derivatives, batch norm's normalized input) is
computed inside the recorded rule, so a forward with no recording tape does
none of it. Backward rules build their result in one fresh array and update it
in place; batch norm under a tape takes its statistics and its gamma, beta and
input gradients from two per-channel sums.

The public ops are the ones cev2's programs record: ``conv2d``,
``conv_bn_act``, ``pool`` (global-avg) and ``add`` (of equal shapes);
``backward`` starts from any output, seeded with a cotangent. ``conv_bn_act``
is conv -> batch norm -> optional SiLU as one op with one rule, on the conv
kernels and the private batch-norm (``_bn_*``) and SiLU kernels. Under a tape
it normalizes the conv output by batch statistics in place into ``xhat`` and
saves only ``xhat`` and the per-channel ``inv``; the rule rebuilds the
batch-norm output from ``xhat`` and recomputes the sigmoid from that, so every
byte equals the unfused composition's. With no tape it folds the running stats
into the conv weight and a bias: one conv and the in-place activation run.
``dp_safm_forward`` (safm.py) and the CE and SE gates (attention.py) are one
op each on the same terms, built on the private window-max, conv, GELU and
sigmoid kernels. Channel vectors (biases, pooled features) are tensors with
H = W = 1.

The module needs numpy alone. GELU's normal CDF comes from ``_erf``, two
rational pieces in the forms of Cody's layout, with coefficients that
``tools/fit_erf.py`` derives. It and the SiLU pair (``_silu``,
``_silu_grad``) overwrite their argument in blocks of ~128 KiB, so they
allocate nothing the size of their input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# conv2d takes ceil(_FOLD_COLS / pixels) samples per chunk: one numpy call
# and one zero map serve them, and grad-w sums them in one GEMM; each
# sample's forward GEMM keeps its one-sample shape, so no forward number moves
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
        """Keep rule for ``backward``; a consumed tape keeps nothing, so code
        run under it after its backward still sees a tape but stores no rule."""
        if not self._consumed:
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


def record_op(out: Tensor, inputs: Sequence[Tensor], rule: Callable) -> None:
    """Attach ``rule`` to the active tape if any input tracks grads.

    Backward calls ``rule(g)`` with the gradient g of out, and only if out
    received one; the tape holds the zero-argument callable that makes this
    check.
    """
    if not _TAPES or not any(t.requires_grad for t in inputs):
        return
    out.requires_grad = True

    def run():
        if out.grad is not None:
            rule(out.grad)

    _TAPES[-1].record(run)


def backward(tape: Tape, y: Tensor, grad: np.ndarray | None = None) -> None:
    """Seed y's gradient with a copy of grad, ones of shape (1,1,1,1) by
    default, and replay the tape reversed.

    grad must have y's shape, so y must be a scalar when no grad is given.
    Gradients accumulate into every tensor that requested them; the tape is
    consumed and cannot be replayed twice.
    """
    seed = np.ones((1, 1, 1, 1)) if grad is None else np.array(grad, dtype=np.float64)
    if seed.shape != y.shape:
        raise ValueError(f"backward: grad shape {seed.shape} != output shape {y.shape} "
                         f"(with no grad, the output must be scalar)")
    if tape._consumed:
        raise RuntimeError("tape already consumed by a previous backward()")
    tape._consumed = True
    y.accumulate_grad(seed)
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
    """Sample ranges that share one numpy call and one zero map: one sample
    each, unless a sample has fewer than _FOLD_COLS output pixels P."""
    fold = -(-_FOLD_COLS // P)
    return [(n, min(n + fold, N)) for n in range(0, N, fold)]


def _place(n: int, at: int, step: int, size: int) -> tuple[slice, slice, int]:
    """(source, target, size): the n values of one axis go ``step`` apart from
    index ``at`` of a zero map ``size`` long; those that fall outside it drop."""
    i0 = -(min(at, 0) // step)
    i1 = min(n, (size - 1 - at) // step + 1)
    d0 = at + i0 * step
    return slice(i0, i1), slice(d0, d0 + (i1 - i0) * step, step), size


def _conv_im2col(xd: np.ndarray, wshape: tuple[int, ...], s: int, p: int | tuple):
    """(H2, W2, chunks, cols) of a conv over xd by a weight of shape wshape,
    (out_channels, in_channels/groups, KH, KW), at stride s: the output map
    size, the ``_conv_chunks`` ranges, and cols(n0, n1), the (b, G, K, P)
    patch matrices of one range's b samples, one (K, P) matrix per sample and
    group.

    p is a padding or a (rows, cols) pair of ``_place`` triples. Each range's
    b samples are placed into one reused zero map, so nothing the size of the
    placed input is made; a placement that moves nothing reads xd itself. The
    matrices may be a view of that map or of xd (an unpadded stride-1 1x1
    conv copies nothing), so they must be used before the next call."""
    N, C, H, W = xd.shape
    _, cg, KH, KW = wshape
    G = C // cg
    (rs, rt, Hs), (cs, ct, Ws) = (
        p if isinstance(p, tuple) else (_place(H, p, 1, H + 2 * p), _place(W, p, 1, W + 2 * p)))
    H2 = (Hs - KH) // s + 1
    W2 = (Ws - KW) // s + 1
    chunks = _conv_chunks(N, H2 * W2)
    copy = (rt, ct) != (slice(0, Hs, 1), slice(0, Ws, 1))
    src = np.zeros((chunks[0][1], C, Hs, Ws)) if copy else xd[:, :, rs, cs]
    # one read-only window view (n, G, cg, KH, KW, H2, W2) per call, as a view
    # costs more than a small chunk's copy; its last row (H2-1)*s+KH-1 < Hs
    sn, sc, sh, sw = src.strides
    patches = as_strided(src, (len(src), G, cg, KH, KW, H2, W2),
                         (sn, cg * sc, sc, sh, sw, s * sh, s * sw), writeable=False)

    def cols(n0: int, n1: int) -> np.ndarray:
        if copy:
            src[:n1 - n0, :, rt, ct] = xd[n0:n1, :, rs, cs]
            n0, n1 = 0, n1 - n0
        return patches[n0:n1].reshape(n1 - n0, G, cg * KH * KW, H2 * W2)
    return H2, W2, chunks, cols


def _conv_forward(xd: np.ndarray, wd: np.ndarray, s: int, p: int | tuple,
                  bd: np.ndarray | None = None) -> np.ndarray:
    """Convolve xd by the weight array wd at stride s and padding p, plus the
    (1, O, 1, 1) bias array bd when given, into a fresh (N, O, H2, W2) array;
    the groups are xd's channels over wd's second dimension, and the shapes
    fit as ``_conv_check`` asks. The bias is added once the GEMMs are done.
    A padded conv pads one chunk of samples at a time, so the caller's xd is
    all the backward reads; grad-x passes a ``_place`` pair as p instead, to
    place g in that same per-chunk zero map. Each sample runs its own GEMMs,
    of the same shape whatever the chunk, so its output is the bytes of a
    call on that sample alone."""
    N = xd.shape[0]
    O, cg = wd.shape[:2]
    G = xd.shape[1] // cg
    og = O // G
    # im2col (Chellapilla et al. 2006), grouped: each output pixel of group g
    # is the dot of one (cg*KH*KW) patch of group g's input channels with a
    # weight row, so one matmul over a chunk's samples and groups, broadcasting
    # the weight, writes its output in place; grad-w is the same GEMM against
    # the output gradient, and grad-x is this kernel again (see
    # ``_conv_backward``). A chunk is one sample, which keeps the patch copy at
    # one image's worth; samples with fewer than _FOLD_COLS output pixels
    # share a chunk, so a 1x1 map costs one numpy call per chunk (and grad-w
    # one GEMM) rather than one per sample.
    H2, W2, chunks, cols = _conv_im2col(xd, wd.shape, s, p)
    P = H2 * W2
    wmat = wd.reshape(G, og, -1)
    out = np.empty((N, O, H2, W2))
    out4 = out.reshape(N, G, og, P)
    for n0, n1 in chunks:
        np.matmul(wmat, cols(n0, n1), out=out4[n0:n1])
    if bd is not None:
        out += bd
    return out


def _conv_backward(g: np.ndarray, w: Tensor, b: Tensor | None, xd: np.ndarray, s: int, p: int,
                   need_x: bool) -> np.ndarray | None:
    """Backward of ``_conv_forward(xd, w.data, s, p)`` with the bias b (or
    None) for the output gradient g: add the weight gradient and the bias
    gradient (g summed per channel) into w and b where they track one, and
    return grad-x as a fresh array, or None unless need_x.

    grad-w rebuilds each chunk's patches from xd. grad-x is one stride-1
    ``_conv_forward`` call (Dumoulin and Visin 2016, sec. 4): g, placed
    ``s`` apart from KH-1-p in a zero map H+KH-1 tall (and so for columns),
    correlated with the weight flipped in space and with its in and out
    channels swapped within each group."""
    N, C, H, W = xd.shape
    O, cg, KH, KW = w.shape
    G = C // cg
    og = O // G
    if w.requires_grad:
        H2, W2, chunks, cols = _conv_im2col(xd, w.shape, s, p)
        gg = g.reshape(N, G, og, H2 * W2)
        gw = np.zeros((O, cg, KH, KW))
        gw3 = gw.reshape(G, og, -1)
        for n0, n1 in chunks:
            gc = gg[n0:n1].transpose(1, 2, 0, 3).reshape(G, og, -1)
            gw3 += gc @ cols(n0, n1).transpose(1, 0, 3, 2).reshape(G, -1, cg * KH * KW)
        w.accumulate_grad(gw)
    if b is not None and b.requires_grad:
        b.accumulate_grad(g.sum(axis=(0, 2, 3), keepdims=True))
    if not need_x:
        return None
    wf = (w.data.reshape(G, og, cg, KH, KW).transpose(0, 2, 1, 3, 4)[..., ::-1, ::-1]
          .reshape(C, og, KH, KW))
    return _conv_forward(g, wf, 1, (_place(g.shape[2], KH - 1 - p, s, H + KH - 1),
                                    _place(g.shape[3], KW - 1 - p, s, W + KW - 1)))


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
    out = Tensor(_conv_forward(x.data, weight.data, spec.stride, spec.padding,
                               None if bias is None else bias.data))

    def rule(g):
        gx = _conv_backward(g, weight, bias, x.data, spec.stride, spec.padding, x.requires_grad)
        if gx is not None:
            x.accumulate_grad(gx)

    inputs = (x, weight) if bias is None else (x, weight, bias)
    record_op(out, inputs, rule)
    return out


# ---------------------------------------------------------------------------
# Pooling


def _windows(xd: np.ndarray, k: int) -> np.ndarray:
    """xd padded with -inf to whole k x k windows, as (N, C, Ho, k, Wo, k)."""
    N, C, H, W = xd.shape
    ph, pw = -H % k, -W % k
    xd = np.pad(xd, ((0, 0), (0, 0), (0, ph), (0, pw)), constant_values=-np.inf) if ph or pw else xd
    return xd.reshape(N, C, (H + ph) // k, k, (W + pw) // k, k)


def _window_max(xd: np.ndarray, k: int) -> np.ndarray:
    """Fresh non-overlapping k x k max of xd, edge windows truncated: row maxima,
    then their max. A tie keeps the first entry in row-major order, as argmax."""
    out = _windows(xd, k)
    for axis in (5, 3):
        parts = np.moveaxis(out, axis, 0)
        out = parts[0].copy()
        for part in parts[1:]:
            np.maximum(part, out, out=out)
    return out


def _window_max_grad(g: np.ndarray, xd: np.ndarray, k: int) -> np.ndarray:
    """Fresh input gradient of ``_window_max`` at input xd: each window's g goes
    to its first argmax (di, dj); windows do not overlap, so none is hit twice."""
    (N, C, H, W), (Ho, Wo) = xd.shape, g.shape[2:]
    idx = _windows(xd, k).transpose(0, 1, 2, 4, 3, 5).reshape(N, C, Ho, Wo, k * k).argmax(axis=4)
    di, dj = np.divmod(idx, k)
    pix = (di + (np.arange(Ho) * k)[:, None]) * W + dj + np.arange(Wo) * k
    gx = np.zeros((N, C, H, W))
    np.put_along_axis(gx.reshape(N, C, H * W), pix.reshape(N, C, Ho * Wo),
                      g.reshape(N, C, Ho * Wo), axis=2)
    return gx


def pool(x: Tensor) -> Tensor:
    """Global average pooling: each channel map reduced to its mean at 1x1."""
    H, W = x.shape[2:]
    out = Tensor(x.data.mean(axis=(2, 3), keepdims=True))
    record_op(out, (x,),
              lambda g: x.accumulate_grad(np.broadcast_to(g / (H * W), x.shape).copy()))
    return out


# ---------------------------------------------------------------------------
# Elementwise


def _sigmoid(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-d)) in out, or in one fresh array. Below d = -709.78
    exp(-d) overflows to inf and the result is 0; the true value is under
    1e-308 there, so the overflow is expected and not reported."""
    sig = np.negative(d, out=out)
    with np.errstate(over="ignore"):
        np.exp(sig, out=sig)
    sig += 1.0
    return np.reciprocal(sig, out=sig)


def _silu(z: np.ndarray) -> np.ndarray:
    """z * sigmoid(z) written over z, a C-contiguous float64 array, and
    returned, in blocks of _BLOCK elements with one block-sized scratch row
    for the sigmoid; the bytes of ``z * _sigmoid(z)``."""
    flat = z.reshape(-1)
    sig = np.empty(min(flat.size, _BLOCK))
    for start in range(0, flat.size, _BLOCK):
        zb = flat[start:start + _BLOCK]
        zb *= _sigmoid(zb, out=sig[:zb.size])
    return z


def _silu_grad(g: np.ndarray, z: np.ndarray) -> np.ndarray:
    """g * silu'(z) written over z, a C-contiguous float64 array, and
    returned: sig * (1 + z * (1 - sig)), with sig = sigmoid(z) recomputed per
    block of _BLOCK elements into a scratch row, so no rule keeps a sigmoid."""
    flat, gf = z.reshape(-1), g.reshape(-1)
    sig, one_minus = np.empty((2, min(flat.size, _BLOCK)))
    for start in range(0, flat.size, _BLOCK):
        zb, gb = flat[start:start + _BLOCK], gf[start:start + _BLOCK]
        s = _sigmoid(zb, out=sig[:zb.size])
        zb *= np.subtract(1.0, s, out=one_minus[:zb.size])
        zb += 1.0
        zb *= s
        zb *= gb
    return z


# _erf's two rational pieces as (P, Q), ascending powers, each Q's leading 1
# left out, and its cuts on |z|: tools/fit_erf.py derives them and checks
# them against erf's series
_ERF_SMALL = (
    (6169.033148813501, -15233.167696823517, -2322.386301806354, -423.6212916498243,
     -23.815826407517854, -0.9962654138250623),
    (48053.22614551482, 22129.12576777863, 4508.020649454737, 513.8369553598134, 33.2767732066146))
_ERF_LARGE = (
    (63.173477984771196, 87.84843999738042, 59.98552891741332, 23.60214770283176,
     5.328793378147053, 0.5641852188713411),
    (63.17348512421897, 159.13200931179264, 176.3736657614372, 111.00772858502546,
     42.33747357573714, 9.444793640845171))
_ERF_CUTS = (1.0, 6.0)
# float64 elements per block (128 KiB) of the in-place erf and SiLU kernels:
# their scratch rows stay block-sized
_BLOCK = 16384


def _rational(pq, v: np.ndarray, num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """P(v) / Q(v) by Horner into num, with den as scratch; Q is monic."""
    p, q = pq
    np.multiply(v, p[-1], out=num)
    num += p[-2]
    for c in reversed(p[:-2]):
        num *= v
        num += c
    np.add(v, q[-1], out=den)
    for c in reversed(q[:-1]):
        den *= v
        den += c
    return np.divide(num, den, out=num)


def _erf(z: np.ndarray) -> np.ndarray:
    """erf(z) written over z, a C-contiguous float64 array, and returned; z
    must be C-contiguous so that its flat reshape is a view, not a copy.

    The rational forms of Cody's layout (Math. Comp. 23:631, 1969) on
    a = |z|: z * (1 + P(z^2) / Q(z^2)) up to a = 1, sign(z) * (1 - exp(-a^2)
    * P(a) / Q(a)) beyond, with a clamped to 6, where erfc is under half an
    ulp of 1, so the result is exactly +-1 from there on. (tools/fit_erf.py
    says why the cuts differ from Cody's.) erf(-z) == -erf(z) bit for bit,
    and nan stays nan.

    z goes in blocks of _BLOCK elements with four block-sized scratch
    rows. The first piece runs over the whole block in place, its argument
    clamped to the cut so it stays finite; the elements past the cut are
    gathered beforehand, and their results written over it.
    """
    cut, saturation = _ERF_CUTS
    flat = z.reshape(-1)
    a, v, num, den = np.empty((4, min(flat.size, _BLOCK)))
    for start in range(0, flat.size, _BLOCK):
        x = flat[start:start + _BLOCK]
        n = x.size
        large = np.flatnonzero(np.abs(x, out=a[:n]) > cut)
        k = large.size
        xs = x.take(large, out=v[:k])
        y = np.minimum(a[:n], cut, out=a[:n])
        y *= y
        r = _rational(_ERF_SMALL, y, num[:n], den[:n])
        r += 1.0
        x *= r
        if k:
            t = np.minimum(np.abs(xs, out=a[:k]), saturation, out=a[:k])
            r = _rational(_ERF_LARGE, t, num[:k], den[:k])
            e = np.multiply(t, t, out=den[:k])
            r *= np.exp(np.negative(e, out=e), out=e)
            np.subtract(1.0, r, out=r)
            x[large] = np.copysign(r, xs, out=r)
    return z


def _gelu(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d * phi, phi) in two fresh arrays, with phi = Phi(d), the standard
    normal CDF, built in place as (1 + erf(d / sqrt 2)) / 2; ``_gelu_grad``
    reads phi."""
    phi = _erf(d * _INV_SQRT2)
    phi += 1.0
    phi *= 0.5
    return d * phi, phi


def _gelu_grad(g: np.ndarray, d: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """g * gelu'(d) in one fresh array, given phi = Phi(d):
    phi + d * exp(-d^2 / 2) / sqrt(2 pi), built in place."""
    gx = np.multiply(-0.5, d)
    gx *= d
    np.exp(gx, out=gx)
    gx *= d
    gx *= _INV_SQRT2PI
    gx += phi
    gx *= g
    return gx


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, of equal shapes."""
    if a.shape != b.shape:
        raise ValueError(f"add: shapes {a.shape} and {b.shape} incompatible")
    out = Tensor(a.data + b.data)

    def rule(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            # a may have adopted g as its own gradient buffer (x + x too)
            b.accumulate_grad(g.copy() if a.grad is g else g)

    record_op(out, (a, b), rule)
    return out


# ---------------------------------------------------------------------------
# Batch normalization


def _bn_check(C: int, gamma: Tensor, beta: Tensor, running_mean: Tensor,
              running_var: Tensor) -> None:
    for name, t in (("gamma", gamma), ("beta", beta), ("running_mean", running_mean),
                    ("running_var", running_var)):
        if t.shape != (1, C, 1, 1):
            raise ValueError(f"batch_norm: {name} shape {t.shape} != expected {(1, C, 1, 1)}")


def _bn_normalize(xd: np.ndarray, running_mean: Tensor,
                  running_var: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Batch statistics: normalize xd in place into xhat = (xd - mean)
    * inv, fold the biased batch mean and variance into the running stats,
    and return (xhat, inv), xhat being xd, with inv = 1 / sqrt(var + eps)
    per channel."""
    N, C, H, W = xd.shape
    M = N * H * W
    # per-channel sums over an (N, C, H*W) view; xhat is built in place
    # from the centred input, which also gives the biased variance
    mu = np.einsum("nci->c", xd.reshape(N, C, H * W)).reshape(1, C, 1, 1)
    mu /= M
    xhat = np.subtract(xd, mu, out=xd)
    xc3 = xhat.reshape(N, C, H * W)
    var = np.einsum("nci,nci->c", xc3, xc3).reshape(1, C, 1, 1)
    var /= M
    running_mean.data[...] = _BN_MOMENTUM * running_mean.data + (1.0 - _BN_MOMENTUM) * mu
    running_var.data[...] = _BN_MOMENTUM * running_var.data + (1.0 - _BN_MOMENTUM) * var
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    xhat *= inv
    return xhat, inv


def _bn_fold(gamma: Tensor, beta: Tensor, running_mean: Tensor,
             running_var: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Batch norm on the running stats as one per-channel affine (scale,
    shift): scale = gamma / sqrt(running_var + eps), shift = beta -
    running_mean * scale."""
    scale = gamma.data * (1.0 / np.sqrt(running_var.data + _BN_EPS))
    return scale, beta.data - running_mean.data * scale


def _bn_affine(xhat: np.ndarray, gamma: Tensor, beta: Tensor) -> np.ndarray:
    """xhat * gamma + beta in one fresh array."""
    out = xhat * gamma.data
    out += beta.data
    return out


def _bn_train_grads(g: np.ndarray, xhat: np.ndarray, gamma: Tensor, inv: np.ndarray,
                    need_x: bool) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """(dx, dgamma, dbeta) of batch norm on batch statistics for the output
    gradient g; dx is None unless need_x. The beta and gamma grads are the two
    per-channel sums that the batch-statistics paths of dx feed back:
    dx = gamma*inv * (g - sum(g)/M - xhat * sum(g*xhat)/M)."""
    N, C, H, W = g.shape
    M = N * H * W
    g3 = g.reshape(N, C, H * W)
    sum_g = np.einsum("nci->c", g3)
    sum_gx = np.einsum("nci,nci->c", g3, xhat.reshape(N, C, H * W))
    # reshaped in place, not as views, so accumulate_grad adopts them
    sum_g.shape = sum_gx.shape = (1, C, 1, 1)
    dx = None
    if need_x:
        dx = xhat * (sum_gx * (-1.0 / M))
        dx += g
        dx -= sum_g / M
        dx *= gamma.data * inv
    return dx, sum_gx, sum_g


# ---------------------------------------------------------------------------
# Fused conv -> batch norm -> activation


def conv_bn_act(x: Tensor, weight: Tensor, gamma: Tensor, beta: Tensor,
                running_mean: Tensor, running_var: Tensor, spec: ConvSpec,
                act: str | None) -> Tensor:
    """A conv with no bias, then batch norm, then activation ``act`` (silu,
    or None for none), as one op with one backward rule.

    Under any active ``Tape``, recording or not, batch norm uses batch
    statistics and updates the running stats, with the bytes of the three ops
    composed on the same kernels (the tests keep that composition as the
    reference): the output, the running-stat update and every gradient. The
    conv output is normalized in place into xhat, and the op saves only xhat
    and inv = 1 / sqrt(var + eps), beside the x and weight it already holds;
    the rule rebuilds the batch-norm output as xhat * gamma + beta, in the
    composition's operation order, and the SiLU derivative recomputes the
    sigmoid from it.

    With no tape, batch norm reads the running stats, folded into the conv
    (Jacob et al. 2018): the weight's output channels are scaled by scale =
    gamma / sqrt(running_var + eps), and beta - running_mean * scale becomes
    a bias, so one conv and the activation run, the SiLU in place.
    """
    _conv_check(x, weight, spec)
    O = spec.out_channels
    _bn_check(O, gamma, beta, running_mean, running_var)
    if act not in (None, "silu"):
        raise ValueError(f"conv_bn_act: unknown activation kind {act!r}")
    s, p = spec.stride, spec.padding
    if _TAPES:
        xhat, inv = _bn_normalize(_conv_forward(x.data, weight.data, s, p), running_mean,
                                  running_var)
        z = _bn_affine(xhat, gamma, beta)
    else:
        scale, shift = _bn_fold(gamma, beta, running_mean, running_var)
        z = _conv_forward(x.data, weight.data * scale.reshape(O, 1, 1, 1), s, p, shift)
    # the output takes z's buffer: the rule rebuilds z from xhat
    out = Tensor(z if act is None else _silu(z))

    def rule(g):
        if act is not None:
            g = _silu_grad(g, _bn_affine(xhat, gamma, beta))
        g, dgamma, dbeta = _bn_train_grads(g, xhat, gamma, inv,
                                           weight.requires_grad or x.requires_grad)
        if gamma.requires_grad:
            gamma.accumulate_grad(dgamma)
        if beta.requires_grad:
            beta.accumulate_grad(dbeta)
        if g is not None:
            gx = _conv_backward(g, weight, None, x.data, s, p, x.requires_grad)
            if gx is not None:
                x.accumulate_grad(gx)

    record_op(out, (x, weight, gamma, beta), rule)
    return out


# ---------------------------------------------------------------------------
# Finite-difference oracle


def finite_diff_check(f: Callable, x: Tensor | Sequence[Tensor], step: float = 1e-3,
                      max_coords: int | None = None, rng: np.random.Generator | None = None,
                      cotangent: np.ndarray | None = None) -> float:
    """Compare the tape gradient of the scalar <f(x), cotangent> against
    central differences on x, a tensor or a list of tensors. cotangent has
    f(x)'s shape and defaults to all ones, the sum of f(x)'s entries; the
    analytic side seeds ``backward`` with it.

    Returns max over checked coordinates of |analytic - numeric| divided by
    max(1, |analytic|, |numeric|) (the guard keeps near-zero derivatives
    from blowing up the ratio); a NaN on either side makes the result NaN.
    Coordinates index the tensors' concatenated flat entries; max_coords,
    when given, draws that many with rng (default seed 0). Each probed entry
    is restored afterwards. The forward, its backward and every probe run
    under one tape: probes see a tape, so batch norm uses batch statistics,
    but it is consumed by then and records nothing. f must be deterministic:
    state it changes must not feed back into its output.
    """
    if max_coords is not None and max_coords < 1:
        raise ValueError(f"finite_diff_check: max_coords must be >= 1, got {max_coords}")
    xs = [x] if isinstance(x, Tensor) else list(x)
    for t in xs:
        t.requires_grad = True
        t.zero_grad()
    with Tape() as tape:
        y = f(x)
        cotangent = np.ones(y.shape) if cotangent is None else cotangent
        backward(tape, y, cotangent)

        bounds = np.cumsum([t.numel for t in xs])
        n = int(bounds[-1])
        if max_coords is not None and max_coords < n:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)

        def probe(flat: np.ndarray, k: int, value: float) -> float:
            flat[k] = value
            return np.vdot(f(x).data, cotangent)

        worst = 0.0
        for c in coords:
            i = int(np.searchsorted(bounds, c, side="right"))
            k = int(c - (bounds[i - 1] if i else 0))
            flat = xs[i].data.reshape(-1)
            orig = flat[k]
            numeric = (probe(flat, k, orig + step) - probe(flat, k, orig - step)) / (2.0 * step)
            flat[k] = orig
            a = 0.0 if xs[i].grad is None else xs[i].grad.reshape(-1)[k]
            # np.maximum keeps a NaN where the builtin max drops it
            worst = np.maximum(worst, abs(a - numeric) / max(1.0, abs(a), abs(numeric)))
    return float(worst)
