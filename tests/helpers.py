"""Adapters and fixture builders shared across test modules."""

from __future__ import annotations

import os

import numpy as np

from cev2 import (CEParams, SAFMParams, SEParams, activation, batch_norm,
                  conv2d)
from cev2.ppm import Raster, write_ppm


def ce_weights(params: CEParams) -> dict[str, np.ndarray]:
    """Flatten CEParams into the (C,C) matrices + (C,) biases ce_ref takes."""
    return {
        "w1": params.mlp1_w.data[:, :, 0, 0].copy(),
        "b1": params.mlp1_b.data.reshape(-1).copy(),
        "w2": params.mlp2_w.data[:, :, 0, 0].copy(),
        "b2": params.mlp2_b.data.reshape(-1).copy(),
        "wo": params.out_w.data[:, :, 0, 0].copy(),
        "bo": params.out_b.data.reshape(-1).copy(),
    }


def se_weights(params: SEParams) -> dict[str, np.ndarray]:
    return {
        "wr": params.reduce_w.data[:, :, 0, 0].copy(),
        "br": params.reduce_b.data.reshape(-1).copy(),
        "we": params.expand_w.data[:, :, 0, 0].copy(),
        "be": params.expand_b.data.reshape(-1).copy(),
    }


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
    return branches, params.fuse_w.data.copy(), params.fuse_b.data.reshape(-1).copy()


def bn_arrays(convbn, prefix: str) -> dict[str, np.ndarray]:
    """One _ConvBN's batch-norm vectors under bn_ref-style keys."""
    return {
        prefix + "_gamma": convbn.gamma.data.reshape(-1).copy(),
        prefix + "_beta": convbn.beta.data.reshape(-1).copy(),
        prefix + "_rm": convbn.rm.data.reshape(-1).copy(),
        prefix + "_rv": convbn.rv.data.reshape(-1).copy(),
    }


def conv_bn_act_composed(x, weight, gamma, beta, running_mean, running_var, spec, mode,
                         act):
    """conv2d -> batch_norm -> activation as three tape ops: the reference
    that the fused conv_bn_act must reproduce."""
    h = conv2d(x, weight, None, spec)
    h = batch_norm(h, gamma, beta, running_mean, running_var, mode)
    return h if act is None else activation(h, act)


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
