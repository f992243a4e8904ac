"""Multi-scale spatially-adaptive feature modulation (after Sun et al.,
"Spatially-Adaptive Feature Modulation for Efficient Image Super-Resolution",
ICCV 2023).

The block reads its input as four channel quarters, max-pools quarter i by
a factor of 2^(i-1) (branch 1 keeps full resolution), runs a small
convolution on every branch, restores each branch to the input's spatial size
with nearest-neighbor upsampling, fuses the four with a 1x1 conv, and uses
GELU of the fused map as a multiplicative gate on the original input.

``dp_safm_forward`` does all of this as one tape op with one backward rule,
on the window-max, conv and GELU kernels of ``tensor``: each branch reads a
slice of the input and writes its upsampled output into its quarter of the
buffer the fuse conv reads, so the bytes equal the unfused composition's.
The rule's upsample backward sums each run of equal floor-map entries.

Two branch-conv layouts exist: depthwise-separable (depthwise 3x3 then
pointwise 1x1, the default) and standard (single 3x3), kept side by side so
the parameter-reduction claim is measurable from stored weights.
"""

from __future__ import annotations

import numpy as np

from .params import ParamStore, register_conv
from .tensor import (ConvSpec, Tensor, _conv_backward, _conv_forward, _gelu, _gelu_grad,
                     _window_max, _window_max_grad, record_op)

MODES = ("depthwise-separable", "standard")


class SAFMParams:
    """Weights for one SAFM block over C channels (C divisible by 4), as
    (w, b, spec) conv records: ``convs``, each branch's convs in order, and
    ``fuse``, the fusion conv. Checkpoint names:
    <path>.safm.b<i>.dw.w/.b + .b<i>.pw.w/.b in depthwise-separable mode,
    .b<i>.std.w/.b in standard mode, and .fuse.w/.b for the fusion conv.
    """

    def __init__(self, store: ParamStore, path: str, channels: int,
                 mode: str = "depthwise-separable"):
        if mode not in MODES:
            raise ValueError(f"SAFMParams: unknown mode {mode!r}, expected one of {MODES}")
        if channels % 4 != 0:
            raise ValueError(f"SAFMParams: channels {channels} not divisible by 4")
        self.channels = channels
        self.mode = mode
        c = channels // 4
        base = path + ".safm"
        # each mode's branch convs in order, as (checkpoint key, spec)
        layout = {"depthwise-separable": (("dw", ConvSpec(c, c, 3, 3, padding=1, groups=c)),
                                          ("pw", ConvSpec(c, c, 1, 1))),
                  "standard": (("std", ConvSpec(c, c, 3, 3, padding=1)),)}[mode]
        self.convs = [[register_conv(store, f"{base}.b{i}.{key}", spec) for key, spec in layout]
                      for i in range(1, 5)]
        self.fuse = register_conv(store, base + ".fuse", ConvSpec(channels, channels, 1, 1))


def dp_safm_forward(x: Tensor, params: SAFMParams) -> Tensor:
    """Multi-scale gate: pool/conv/upsample per channel quarter -> 1x1 fuse
    -> GELU -> multiply with x, as one op with one backward rule. Output
    shape equals input shape. The rule keeps each conv's unpadded input (for
    branch 1's first conv, its slice of x), not a padded copy."""
    N, C, H, W = x.shape
    if C != params.channels:
        raise ValueError(f"dp_safm_forward: input has {C} channels, params sized for {params.channels}")
    c = C // 4
    xd = x.data
    cat = np.empty((N, C, H, W))
    saved = []  # per branch: its input slice, floor maps, each conv's input
    for i, convs in enumerate(params.convs):
        h = xs = xd[:, i * c:(i + 1) * c]
        if i:
            h = _window_max(h, 2 ** i)
        conv_in = []
        for w, b, spec in convs:
            conv_in.append(h)
            h = _conv_forward(h, w.data, spec.stride, spec.padding, b.data)
        # nearest upsample: output (r, s) reads branch cell (rows[r], cols[s])
        rows = (np.arange(H) * h.shape[2]) // H
        cols = (np.arange(W) * h.shape[3]) // W
        cat[:, i * c:(i + 1) * c] = np.take(np.take(h, rows, axis=2), cols, axis=3) if i else h
        saved.append((xs, rows, cols, conv_in))
    fw, fb, fspec = params.fuse
    fused = _conv_forward(cat, fw.data, fspec.stride, fspec.padding, fb.data)
    out, phi = _gelu(fused)
    out *= xd
    out = Tensor(out)

    def rule(g):
        gx = None
        if x.requires_grad:
            gx = fused * phi  # the gate, rebuilt
            gx *= g
        gf = _gelu_grad(g * xd, fused, phi)
        gcat = _conv_backward(gf, fw, fb, cat, fspec.stride, fspec.padding, True)
        for i, (convs, (xs, rows, cols, conv_in)) in enumerate(zip(params.convs, saved)):
            gh = gcat[:, i * c:(i + 1) * c]
            if i:
                # each branch cell feeds a run of equal floor-map entries
                gh = np.add.reduceat(gh, np.flatnonzero(np.diff(rows, prepend=-1)), axis=2)
                gh = np.add.reduceat(gh, np.flatnonzero(np.diff(cols, prepend=-1)), axis=3)
            for j in reversed(range(len(convs))):
                w, b, spec = convs[j]
                gh = _conv_backward(gh, w, b, conv_in[j], spec.stride, spec.padding,
                                    j > 0 or gx is not None)
            if gx is not None:
                gx[:, i * c:(i + 1) * c] += _window_max_grad(gh, xs, 2 ** i) if i else gh
        if gx is not None:
            x.accumulate_grad(gx)

    weights = [t for convs in params.convs for w, b, _ in convs for t in (w, b)]
    record_op(out, (x, fw, fb, *weights), rule)
    return out

