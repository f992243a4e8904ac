"""Multi-scale spatially-adaptive feature modulation.

The block splits its input into four channel quarters, max-pools quarter i by
a factor of 2^(i-1) (branch 1 keeps full resolution), runs a small
convolution on every branch, restores each branch to the input's spatial size
with nearest-neighbor upsampling, concatenates, fuses with a 1x1 conv, and
uses GELU of the fused map as a multiplicative gate on the original input.

Two branch-conv layouts exist: depthwise-separable (depthwise 3x3 then
pointwise 1x1, the default) and standard (single 3x3), kept side by side so
the parameter-reduction claim is measurable from stored weights.
"""

from __future__ import annotations

from .params import ParamStore, register_conv
from .tensor import (ConvSpec, Tensor, activation, channel_concat, channel_split4,
                     conv2d, elementwise, pool, upsample_to)

MODES = ("depthwise-separable", "standard")


class SAFMParams:
    """Weights for one SAFM block over C channels (C divisible by 4).

    conv_x1=False drops the branch-1 convolution entirely (literal
    pass-through of the full-resolution quarter); the default convolves all
    four branches. Checkpoint names: <path>.safm.b<i>.dw.w/.b + .b<i>.pw.w/.b
    in depthwise-separable mode, .b<i>.std.w/.b in standard mode, and
    .fuse.w/.b for the fusion conv.
    """

    def __init__(self, store: ParamStore, path: str, channels: int,
                 mode: str = "depthwise-separable", conv_x1: bool = True):
        if mode not in MODES:
            raise ValueError(f"SAFMParams: unknown mode {mode!r}, expected one of {MODES}")
        if channels % 4 != 0:
            raise ValueError(f"SAFMParams: channels {channels} not divisible by 4")
        self.channels = channels
        self.mode = mode
        self.conv_x1 = bool(conv_x1)
        c = channels // 4
        base = path + ".safm"
        self.branches: list[dict | None] = []
        for i in range(1, 5):
            if i == 1 and not self.conv_x1:
                self.branches.append(None)
                continue
            bpath = f"{base}.b{i}"
            if mode == "depthwise-separable":
                dw_w, dw_b = register_conv(store, bpath + ".dw", c, 1, 3, 3)
                pw_w, pw_b = register_conv(store, bpath + ".pw", c, c, 1, 1)
                self.branches.append({"dw": (dw_w, dw_b), "pw": (pw_w, pw_b)})
            else:
                std_w, std_b = register_conv(store, bpath + ".std", c, c, 3, 3)
                self.branches.append({"std": (std_w, std_b)})
        self.fuse_w, self.fuse_b = register_conv(store, base + ".fuse", channels, channels, 1, 1)


def _branch_conv(h: Tensor, branch: dict | None, c: int, mode: str) -> Tensor:
    if branch is None:
        return h
    if mode == "depthwise-separable":
        dw_w, dw_b = branch["dw"]
        h = conv2d(h, dw_w, dw_b, ConvSpec(c, c, 3, 3, stride=1, padding=1, groups=c))
        pw_w, pw_b = branch["pw"]
        return conv2d(h, pw_w, pw_b, ConvSpec(c, c, 1, 1))
    std_w, std_b = branch["std"]
    return conv2d(h, std_w, std_b, ConvSpec(c, c, 3, 3, stride=1, padding=1))


def dp_safm_forward(x: Tensor, params: SAFMParams) -> Tensor:
    """Multi-scale gate: split4 -> pool/conv/upsample per branch -> concat ->
    1x1 fuse -> GELU -> multiply with x. Output shape equals input shape."""
    N, C, H, W = x.shape
    if C != params.channels:
        raise ValueError(f"dp_safm_forward: input has {C} channels, params sized for {params.channels}")
    if C % 4 != 0:
        raise ValueError(f"dp_safm_forward: channel count {C} not divisible by 4")
    c = C // 4

    parts = channel_split4(x)
    outs = []
    for i, part in enumerate(parts, start=1):
        h = part
        if i > 1:
            h = pool(h, "window-max", window=2 ** (i - 1))
        h = _branch_conv(h, params.branches[i - 1], c, params.mode)
        if i > 1:
            h = upsample_to(h, H, W)
        outs.append(h)

    fused = conv2d(channel_concat(outs), params.fuse_w, params.fuse_b, ConvSpec(C, C, 1, 1))
    gate = activation(fused, "gelu")
    return elementwise(gate, x, "mul")


def safm_param_count(channels: int, mode: str, conv_x1: bool = True) -> int:
    """Closed-form scalar count matching the stored weights."""
    if mode not in MODES:
        raise ValueError(f"safm_param_count: unknown mode {mode!r}")
    if channels % 4 != 0:
        raise ValueError(f"safm_param_count: channels {channels} not divisible by 4")
    c = channels // 4
    if mode == "standard":
        per_branch = 9 * c * c + c
    else:
        per_branch = (9 * c + c) + (c * c + c)
    n_branches = 4 if conv_x1 else 3
    fuse = channels * channels + channels
    return n_branches * per_branch + fuse
