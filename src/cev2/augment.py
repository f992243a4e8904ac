"""Raster augmentation ops and deterministic dataset expansion.

Geometric ops warp by inverse mapping about the image center with bilinear
sampling and black fill, so exact right angles and integer shifts stay exact.
Noise ops work in normalized [0,1] units on their own seeded streams. The
sampler draws one uniformly-chosen op per new image with parameters inside
the configured ranges; expansion is reproducible byte-for-byte from the
config seed, and rerunning over an already-expanded tree regenerates the
same files (previous aug_* outputs never join the source pool).
"""

from __future__ import annotations

import math
import os

import numpy as np

from .config import AugmentConfig
from .data import list_classes, list_images
from .ppm import Raster, read_image, write_ppm

OP_NAMES = ("rotate", "translate", "gaussian-noise", "salt-pepper", "hflip", "scale-rotate")

# namespace tag for per-class RNG streams (keeps them disjoint from the
# train/split streams derived from the same user seed)
_EXPAND_STREAM = 303


def _warp(img: Raster, scale: float, angle_deg: float) -> Raster:
    """Inverse-map center scale+rotation with bilinear sampling, black fill."""
    h, w = img.height, img.width
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    u = np.arange(w, dtype=np.float64)[None, :] - cx
    v = np.arange(h, dtype=np.float64)[:, None] - cy
    sx = (u * cos_t - v * sin_t) / scale + cx
    sy = (u * sin_t + v * cos_t) / scale + cy

    x0 = np.floor(sx).astype(np.int64)
    y0 = np.floor(sy).astype(np.int64)
    fx = (sx - x0)[:, :, None]
    fy = (sy - y0)[:, :, None]
    px = img.pixels.astype(np.float64)
    acc = np.zeros((h, w, 3))
    for yi, xi, wgt in ((y0, x0, (1 - fx) * (1 - fy)), (y0, x0 + 1, fx * (1 - fy)),
                        (y0 + 1, x0, (1 - fx) * fy), (y0 + 1, x0 + 1, fx * fy)):
        valid = ((xi >= 0) & (xi < w) & (yi >= 0) & (yi < h))[:, :, None]
        acc += wgt * np.where(valid, px[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)], 0.0)
    return Raster(np.clip(np.rint(acc), 0, 255).astype(np.uint8))


def rotate(img: Raster, angle_deg: float) -> Raster:
    """Rotate about the center; output dims unchanged, vacancies black."""
    return _warp(img, 1.0, angle_deg)


def scale_rotate(img: Raster, scale: float, angle_deg: float) -> Raster:
    """Center scaling then rotation in one resample."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    return _warp(img, scale, angle_deg)


def translate(img: Raster, dx: int, dy: int) -> Raster:
    """Shift content by (dx, dy) pixels (positive = right/down); vacated
    region black."""
    h, w = img.height, img.width
    out = np.zeros_like(img.pixels)
    if abs(dx) < w and abs(dy) < h:
        out[max(dy, 0):h + min(dy, 0), max(dx, 0):w + min(dx, 0)] = \
            img.pixels[max(-dy, 0):h + min(-dy, 0), max(-dx, 0):w + min(-dx, 0)]
    return Raster(out)


def add_gaussian_noise(img: Raster, std: float, seed: int) -> Raster:
    """Per-channel noise in normalized units: v/255 + N(0, std^2), clamped to
    [0,1], requantized."""
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    rng = np.random.default_rng(seed)
    v = img.pixels.astype(np.float64) / 255.0
    v = v + rng.normal(0.0, std, size=v.shape) if std > 0 else v
    return Raster(np.rint(np.clip(v, 0.0, 1.0) * 255.0).astype(np.uint8))


def add_salt_pepper(img: Raster, density: float, seed: int) -> Raster:
    """Replace each pixel with white (prob density/2) or black (density/2)."""
    if not (0.0 <= density < 1.0):
        raise ValueError(f"density must be in [0,1), got {density}")
    rng = np.random.default_rng(seed)
    u = rng.random((img.height, img.width))
    out = img.pixels.copy()
    out[u < density / 2.0] = 255
    out[(u >= density / 2.0) & (u < density)] = 0
    return Raster(out)


def hflip(img: Raster) -> Raster:
    """Mirror columns; applying twice is the identity."""
    return Raster(img.pixels[:, ::-1].copy())


def sample_augment(rng: np.random.Generator, config: AugmentConfig,
                   width: int, height: int) -> tuple[str, dict]:
    """Draw one op uniformly and its parameters from the config ranges."""
    op = OP_NAMES[int(rng.integers(len(OP_NAMES)))]
    lo, hi = config.rotation_deg
    if op == "rotate":
        return op, {"angle": float(rng.uniform(lo, hi))}
    if op == "translate":
        mx = math.floor(config.translate_frac * width)
        my = math.floor(config.translate_frac * height)
        return op, {"dx": int(rng.integers(-mx, mx + 1)), "dy": int(rng.integers(-my, my + 1))}
    if op == "gaussian-noise":
        return op, {"std": config.gauss_std, "seed": int(rng.integers(0, 2 ** 32))}
    if op == "salt-pepper":
        return op, {"density": config.sp_density, "seed": int(rng.integers(0, 2 ** 32))}
    if op == "hflip":
        return op, {"flip": bool(rng.random() < config.hflip_prob)}
    slo, shi = config.scale_range
    return op, {"scale": float(rng.uniform(slo, shi)), "angle": float(rng.uniform(lo, hi))}


def apply_augment(img: Raster, op: str, params: dict) -> Raster:
    if op == "rotate":
        return rotate(img, params["angle"])
    if op == "translate":
        return translate(img, params["dx"], params["dy"])
    if op == "gaussian-noise":
        return add_gaussian_noise(img, params["std"], params["seed"])
    if op == "salt-pepper":
        return add_salt_pepper(img, params["density"], params["seed"])
    if op == "hflip":
        return hflip(img) if params.get("flip", True) else Raster(img.pixels.copy())
    if op == "scale-rotate":
        return scale_rotate(img, params["scale"], params["angle"])
    raise ValueError(f"unknown augment op {op!r}")


def _format_params(params: dict) -> str:
    return " ".join(f"{k}={params[k]!r}" for k in sorted(params))


def list_source_images(class_dir: str) -> list[str]:
    """Sorted source files: decodable extensions only, previous aug_* outputs
    excluded so expansion is idempotent across reruns."""
    return [n for n in list_images(class_dir) if not n.startswith("aug_")]


def expand_dataset(root_dir: str, config: AugmentConfig) -> tuple[str, list[str]]:
    """Write config.per_class_new augmented images per class directory and a
    manifest at <root>/augment_manifest.tsv.

    Each new image applies one sampled op to a uniformly chosen source of its
    class. Per-class RNG streams derive from the config seed, so outputs are
    byte-identical across reruns. Returns (manifest path, manifest lines).
    """
    classes = list_classes(root_dir)
    lines: list[str] = []
    for idx, cls in enumerate(classes):
        cdir = os.path.join(root_dir, cls)
        sources: list[tuple[str, Raster]] = []
        for name in list_source_images(cdir):
            try:
                sources.append((name, read_image(os.path.join(cdir, name))))
            except (ValueError, OSError) as exc:
                lines.append(f"# warning: unreadable {cls}/{name}: {exc}")
        if not sources:
            lines.append(f"# skipped {cls}: no decodable source images")
            continue
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _EXPAND_STREAM, idx]))
        for k in range(config.per_class_new):
            src_name, src = sources[int(rng.integers(len(sources)))]
            op, params = sample_augment(rng, config, src.width, src.height)
            out = apply_augment(src, op, params)
            fname = f"aug_{config.seed}_{k}.ppm"
            write_ppm(os.path.join(cdir, fname), out)
            lines.append(f"{cls}/{fname}\t{cls}/{src_name}\t{op}\t{_format_params(params)}")
    manifest = os.path.join(root_dir, "augment_manifest.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return manifest, lines
