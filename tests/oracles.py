"""Independent reference implementations for the test suite.

Everything here is written straight from the defining formulas, with plain
Python loops or numpy basics, and deliberately avoids the library's kernels:
convolution is a seven-nested-loop sum, pooling enumerates windows, erf comes
from a Taylor series or libm rather than scipy, and the block references are
straight-line compositions of these pieces.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# convolution


def conv2d_loops(x: np.ndarray, w: np.ndarray, b: np.ndarray | None,
                 stride: int = 1, padding: int = 0, groups: int = 1) -> np.ndarray:
    """Direct convolution: out[n,o,i,j] = sum_{c,kh,kw} x*w + bias."""
    N, C, H, W = x.shape
    O, cg, KH, KW = w.shape
    og = O // groups
    H2 = (H + 2 * padding - KH) // stride + 1
    W2 = (W + 2 * padding - KW) // stride + 1
    out = np.zeros((N, O, H2, W2))
    for n in range(N):
        for o in range(O):
            g = o // og
            for oh in range(H2):
                for ow in range(W2):
                    acc = 0.0
                    for c in range(cg):
                        ic = g * cg + c
                        for kh in range(KH):
                            ih = oh * stride + kh - padding
                            if ih < 0 or ih >= H:
                                continue
                            for kw in range(KW):
                                iw = ow * stride + kw - padding
                                if iw < 0 or iw >= W:
                                    continue
                                acc += x[n, ic, ih, iw] * w[o, c, kh, kw]
                    out[n, o, oh, ow] = acc + (b[o] if b is not None else 0.0)
    return out


def conv2d_backward_loops(x: np.ndarray, w: np.ndarray, gout: np.ndarray,
                          stride: int = 1, padding: int = 0,
                          groups: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of conv2d_loops for an output gradient gout: every product
    x[n,ic,ih,iw] * w[o,c,kh,kw] that fed out[n,o,oh,ow] sends
    gout[n,o,oh,ow] * w to grad-x and gout[n,o,oh,ow] * x to grad-w."""
    N, C, H, W = x.shape
    O, cg, KH, KW = w.shape
    og = O // groups
    _, _, H2, W2 = gout.shape
    gx = np.zeros_like(x)
    gw = np.zeros_like(w)
    for n in range(N):
        for o in range(O):
            g = o // og
            for oh in range(H2):
                for ow in range(W2):
                    go = gout[n, o, oh, ow]
                    for c in range(cg):
                        ic = g * cg + c
                        for kh in range(KH):
                            ih = oh * stride + kh - padding
                            if ih < 0 or ih >= H:
                                continue
                            for kw in range(KW):
                                iw = ow * stride + kw - padding
                                if iw < 0 or iw >= W:
                                    continue
                                gx[n, ic, ih, iw] += go * w[o, c, kh, kw]
                                gw[o, c, kh, kw] += go * x[n, ic, ih, iw]
    return gx, gw


# ---------------------------------------------------------------------------
# pooling / upsampling


def global_avg_loops(x: np.ndarray) -> np.ndarray:
    N, C, H, W = x.shape
    out = np.zeros((N, C, 1, 1))
    for n in range(N):
        for c in range(C):
            total = 0.0
            for i in range(H):
                for j in range(W):
                    total += x[n, c, i, j]
            out[n, c, 0, 0] = total / (H * W)
    return out


def global_max_loops(x: np.ndarray) -> np.ndarray:
    N, C, H, W = x.shape
    out = np.zeros((N, C, 1, 1))
    for n in range(N):
        for c in range(C):
            best = x[n, c, 0, 0]
            for i in range(H):
                for j in range(W):
                    if x[n, c, i, j] > best:
                        best = x[n, c, i, j]
            out[n, c, 0, 0] = best
    return out


def window_max_loops(x: np.ndarray, k: int) -> np.ndarray:
    """Non-overlapping k x k max with truncated edge windows (ceil dims)."""
    N, C, H, W = x.shape
    Ho = -(-H // k)
    Wo = -(-W // k)
    out = np.zeros((N, C, Ho, Wo))
    for n in range(N):
        for c in range(C):
            for i in range(Ho):
                for j in range(Wo):
                    block = [x[n, c, ii, jj]
                             for ii in range(i * k, min((i + 1) * k, H))
                             for jj in range(j * k, min((j + 1) * k, W))]
                    out[n, c, i, j] = max(block)
    return out


def upsample_to_ref(x: np.ndarray, th: int, tw: int) -> np.ndarray:
    """out[i,j] = x[floor(i*h/th), floor(j*w/tw)]."""
    N, C, H, W = x.shape
    out = np.zeros((N, C, th, tw))
    for i in range(th):
        for j in range(tw):
            out[:, :, i, j] = x[:, :, (i * H) // th, (j * W) // tw]
    return out


# ---------------------------------------------------------------------------
# activations (erf via Taylor series / libm, not scipy)


def erf_series(z: float, terms: int = 40) -> float:
    """Taylor series erf(z) = 2/sqrt(pi) * sum (-1)^n z^(2n+1) / (n!(2n+1)).
    Accurate to ~1e-16 for |z| <= 2 at 40 terms (longdouble accumulation)."""
    zl = np.longdouble(z)
    total = np.longdouble(0.0)
    term = zl  # z^(2n+1)/n! at n=0
    for n in range(terms):
        total += term / (2 * n + 1)
        term *= -zl * zl / (n + 1)
    return float(total * np.longdouble(2.0) / np.sqrt(np.longdouble(np.pi)))


def gelu_ref(x: np.ndarray) -> np.ndarray:
    """x * Phi(x) with Phi from libm's erf (independent of scipy)."""
    flat = np.asarray(x, dtype=np.float64).reshape(-1)
    out = np.array([v * 0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in flat])
    return out.reshape(np.asarray(x).shape)


def sigmoid_ref(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def relu_ref(x: np.ndarray) -> np.ndarray:
    return np.where(np.asarray(x) > 0, x, 0.0)


def silu_ref(x: np.ndarray) -> np.ndarray:
    return np.asarray(x) * sigmoid_ref(x)


# ---------------------------------------------------------------------------
# batch norm


def bn_ref(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
           mean: np.ndarray, var: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Normalize by the given per-channel moments (shape (C,))."""
    m = mean.reshape(1, -1, 1, 1)
    v = var.reshape(1, -1, 1, 1)
    g = gamma.reshape(1, -1, 1, 1)
    b = beta.reshape(1, -1, 1, 1)
    return (x - m) / np.sqrt(v + eps) * g + b


def bn_train_ref(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                 eps: float = 1e-3) -> np.ndarray:
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    return bn_ref(x, gamma, beta, mean, var, eps)


def bn_train_backward_ref(x: np.ndarray, gamma: np.ndarray, gout: np.ndarray,
                          running_mean: np.ndarray, running_var: np.ndarray,
                          momentum: float = 0.9, eps: float = 1e-3):
    """Textbook train-mode batch norm backward for an output gradient gout.

    Returns (dx, dgamma, dbeta, new_running_mean, new_running_var); the
    per-channel arrays have shape (C,). With dxhat = gout * gamma,
    dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), the means
    taken over every (n, h, w) of a channel.
    """
    axes = (0, 2, 3)
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    dxhat = gout * gamma.reshape(1, -1, 1, 1)
    dx = inv * (dxhat - dxhat.mean(axis=axes, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=axes, keepdims=True))
    dgamma = (gout * xhat).sum(axis=axes)
    dbeta = gout.sum(axis=axes)
    new_mean = momentum * running_mean + (1.0 - momentum) * mean.reshape(-1)
    new_var = momentum * running_var + (1.0 - momentum) * var.reshape(-1)
    return dx, dgamma, dbeta, new_mean, new_var


# ---------------------------------------------------------------------------
# attention / SAFM straight-line transcriptions


def ce_ref(x: np.ndarray, weights: dict[str, np.ndarray]) -> np.ndarray:
    """Channel gate: shared Conv-ReLU-Conv MLP on avg and max pooled vectors,
    summed, 1x1 conv, sigmoid, broadcast multiply.

    weights: w1/b1, w2/b2, wo/bo as (C, C) matrices and (C,) biases.
    """
    favg = global_avg_loops(x)[:, :, 0, 0]
    fmax = global_max_loops(x)[:, :, 0, 0]

    def mlp(v):
        h = relu_ref(v @ weights["w1"].T + weights["b1"])
        return h @ weights["w2"].T + weights["b2"]

    avg_c = mlp(favg)
    max_c = mlp(fmax)
    m_c = max_c + avg_c
    m_d = m_c @ weights["wo"].T + weights["bo"]
    gate = sigmoid_ref(m_d)
    return x * gate[:, :, None, None]


def se_ref(x: np.ndarray, wr: np.ndarray, br: np.ndarray,
           we: np.ndarray, be: np.ndarray) -> np.ndarray:
    v = global_avg_loops(x)[:, :, 0, 0]
    h = relu_ref(v @ wr.T + br)
    gate = sigmoid_ref(h @ we.T + be)
    return x * gate[:, :, None, None]


def safm_ref(x: np.ndarray, weights: list[dict], fuse_w: np.ndarray,
             fuse_b: np.ndarray, mode: str) -> np.ndarray:
    """Straight-line SAFM: quarter split, window-max by 2^(i-1), branch conv,
    nearest upsample back, concat, 1x1 fuse, GELU gate times input.

    weights[i] per branch: {dw (c,1,3,3), dw_b, pw (c,c,1,1), pw_b} or
    {std (c,c,3,3), std_b}.
    """
    N, C, H, W = x.shape
    c = C // 4
    branches = []
    for i in range(4):
        part = x[:, i * c:(i + 1) * c]
        k = 2 ** i
        h = part if k == 1 else window_max_loops(part, k)
        wset = weights[i]
        if mode == "depthwise-separable":
            h = conv2d_loops(h, wset["dw"], wset["dw_b"], 1, 1, groups=c)
            h = conv2d_loops(h, wset["pw"], wset["pw_b"], 1, 0, 1)
        else:
            h = conv2d_loops(h, wset["std"], wset["std_b"], 1, 1, 1)
        if k > 1:
            h = upsample_to_ref(h, H, W)
        branches.append(h)
    cat = np.concatenate(branches, axis=1)
    fused = conv2d_loops(cat, fuse_w, fuse_b, 1, 0, 1)
    return gelu_ref(fused) * x


# ---------------------------------------------------------------------------
# closed-form parameter counts


def attention_param_count(kind: str, channels: int, r: int = 4) -> int:
    """Learnable scalars of a CE block (three C x C 1x1 convs with biases) or
    of an SE block (C -> C/r -> C 1x1 convs with biases)."""
    c = channels
    if kind == "ce":
        return 3 * (c * c + c)
    if kind == "se":
        hidden = c // r
        return (hidden * c + hidden) + (c * hidden + c)
    raise ValueError(f"unknown attention kind {kind!r}")


def safm_param_count(channels: int, mode: str) -> int:
    """Learnable scalars of a SAFM block over C channels: four branches of
    C/4 channels (depthwise 3x3 then pointwise 1x1, or one dense 3x3, each
    conv with a bias) and a C x C 1x1 fusion conv with a bias."""
    c = channels // 4
    if mode == "standard":
        per_branch = 9 * c * c + c
    else:
        per_branch = (9 * c + c) + (c * c + c)
    return 4 * per_branch + channels * channels + channels


# ---------------------------------------------------------------------------
# block transcriptions


def fused_mbconv_ref(x: np.ndarray, p: dict, expansion: int, stride: int,
                     mode: str) -> np.ndarray:
    """p holds conv/proj weights plus BN params and running stats as numpy
    arrays: conv_w, bn1_*, and for expansion > 1 proj_w, bn2_*."""
    def bn(h, prefix):
        if mode == "train":
            return bn_train_ref(h, p[prefix + "_gamma"], p[prefix + "_beta"])
        return bn_ref(h, p[prefix + "_gamma"], p[prefix + "_beta"],
                      p[prefix + "_rm"], p[prefix + "_rv"])

    h = conv2d_loops(x, p["conv_w"], None, stride, 1, 1)
    h = silu_ref(bn(h, "bn1"))
    if expansion > 1:
        h = conv2d_loops(h, p["proj_w"], None, 1, 0, 1)
        h = bn(h, "bn2")
    cin, cout = x.shape[1], h.shape[1]
    if stride == 1 and cin == cout:
        h = h + x
    return h


def mbconv_ref(x: np.ndarray, p: dict, stride: int, mode: str,
               attention: str = "none", attn_weights: dict | None = None) -> np.ndarray:
    """exp (1x1) -> BN -> SiLU -> dw 3x3 -> BN -> SiLU -> attention ->
    proj (1x1) -> BN -> residual."""
    def bn(h, prefix):
        if mode == "train":
            return bn_train_ref(h, p[prefix + "_gamma"], p[prefix + "_beta"])
        return bn_ref(h, p[prefix + "_gamma"], p[prefix + "_beta"],
                      p[prefix + "_rm"], p[prefix + "_rv"])

    h = conv2d_loops(x, p["exp_w"], None, 1, 0, 1)
    h = silu_ref(bn(h, "bn1"))
    mid = h.shape[1]
    h = conv2d_loops(h, p["dw_w"], None, stride, 1, groups=mid)
    h = silu_ref(bn(h, "bn2"))
    if attention == "ce":
        h = ce_ref(h, attn_weights)
    elif attention == "se":
        h = se_ref(h, attn_weights["wr"], attn_weights["br"],
                   attn_weights["we"], attn_weights["be"])
    h = conv2d_loops(h, p["proj_w"], None, 1, 0, 1)
    h = bn(h, "bn3")
    cin, cout = x.shape[1], h.shape[1]
    if stride == 1 and cin == cout:
        h = h + x
    return h


# ---------------------------------------------------------------------------
# loss / optimizers


def cross_entropy_ref(logits: np.ndarray, labels) -> float:
    """Mean negative log softmax probability, evaluated in extended
    precision."""
    z = np.asarray(logits, dtype=np.longdouble)
    lab = np.asarray(labels, dtype=np.int64)
    total = np.longdouble(0.0)
    for i in range(z.shape[0]):
        row = z[i]
        m = row.max()
        lse = m + np.log(np.exp(row - m).sum())
        total += lse - row[lab[i]]
    return float(total / z.shape[0])


def sgd_momentum_seq(p0: float, grads: list[float], lr: float, mu: float) -> float:
    p, v = p0, 0.0
    for g in grads:
        v = mu * v + g
        p = p - lr * v
    return p


def adam_seq(p0: float, grad_fn, steps: int, lr: float = 1e-3, b1: float = 0.9,
             b2: float = 0.999, eps: float = 1e-8) -> float:
    """Scalar Adam recurrence; grad_fn(p) -> gradient."""
    p = p0
    m = v = 0.0
    for t in range(1, steps + 1):
        g = grad_fn(p)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - lr * mhat / (math.sqrt(vhat) + eps)
    return p


# ---------------------------------------------------------------------------
# raster measurement helpers


def centroid(pixels: np.ndarray) -> tuple[float, float]:
    """Intensity-weighted centroid (x, y) of an RGB raster."""
    gray = pixels.astype(np.float64).sum(axis=2)
    total = gray.sum()
    ys, xs = np.mgrid[0:gray.shape[0], 0:gray.shape[1]]
    return float((xs * gray).sum() / total), float((ys * gray).sum() / total)


def center_row_run_length(pixels: np.ndarray, threshold: int = 128) -> int:
    """Longest bright run in the center row (for bar-width measurements)."""
    row = pixels[pixels.shape[0] // 2].astype(np.float64).mean(axis=1) > threshold
    best = cur = 0
    for v in row:
        cur = cur + 1 if v else 0
        best = max(best, cur)
    return best


def warp_loops(px: np.ndarray, scale: float, angle: float) -> np.ndarray:
    """Inverse-mapped center scale+rotation, one pixel and channel at a time in
    Python floats: each output pixel reads the source at
    ((u cos - v sin) / scale + cx, (u sin + v cos) / scale + cy), bilinear over
    the four corners in the order (x0,y0), (x0+1,y0), (x0,y0+1), (x0+1,y0+1),
    where a corner outside the image reads 0.0; then round-half-even and a
    clip to [0, 255]."""
    h, w, _ = px.shape
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    theta = math.radians(angle)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    out = np.zeros(px.shape, dtype=np.uint8)
    for i in range(h):
        for j in range(w):
            u, v = j - cx, i - cy
            sx = (u * cos_t - v * sin_t) / scale + cx
            sy = (u * sin_t + v * cos_t) / scale + cy
            x0, y0 = math.floor(sx), math.floor(sy)
            fx, fy = sx - x0, sy - y0
            corners = ((x0, y0, (1 - fx) * (1 - fy)), (x0 + 1, y0, fx * (1 - fy)),
                       (x0, y0 + 1, (1 - fx) * fy), (x0 + 1, y0 + 1, fx * fy))
            for c in range(3):
                acc = 0.0
                for xi, yi, wgt in corners:
                    inside = 0 <= xi < w and 0 <= yi < h
                    acc += wgt * (float(px[yi, xi, c]) if inside else 0.0)
                out[i, j, c] = min(max(round(acc), 0), 255)
    return out
