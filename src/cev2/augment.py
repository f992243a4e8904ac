"""Raster augmentation ops and deterministic dataset expansion.

Geometric ops warp by inverse mapping about the image center with bilinear
sampling and black fill, so exact right angles and integer shifts stay exact.
A warp reads the source as three uint8 channel planes with a 2-pixel black
border: the top-left tap's column and row are clipped once per axis, so a tap
outside the image lands in the border and reads 0. It works one channel
plane at a time on 2-D arrays and writes the output in row blocks, so its
temporaries stay block-sized, not image-sized; each pixel still sees the
same float operations, in the same order.
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
from .params import atomic_open
from .ppm import Raster, read_image, write_ppm

OP_NAMES = ("rotate", "translate", "gaussian-noise", "salt-pepper", "hflip", "scale-rotate")

# namespace tag for per-class RNG streams (keeps them disjoint from the
# train/split streams derived from the same user seed)
_EXPAND_STREAM = 303

# float64 accumulator bytes per row block of a warp: small enough that every
# per-block temporary is reused from the heap, not mapped afresh
_BLOCK_BYTES = 128 * 1024


def _warp(img: Raster, scale: float, angle_deg: float) -> Raster:
    """Inverse-map center scale+rotation with bilinear sampling, black fill.

    The source is read as three channel planes with a 2-pixel black border.
    floor(sx) is clipped into [-2, w] and floor(sy) into [-2, h], so both
    taps of a coordinate outside the image read 0 and a tap inside reads the
    pixel. Each pixel gets one flat index, and its four taps take that index
    from the plane viewed at offsets 0, 1, w+4 and w+5. Rows go in blocks
    whose float64 accumulator holds about _BLOCK_BYTES; per pixel the
    operations and their order are those of one whole-image pass.
    """
    h, w = img.height, img.width
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    theta = math.radians(angle_deg)
    cos_t, sin_t = math.cos(theta), math.sin(theta)
    u = np.arange(w, dtype=np.float64)[None, :] - cx
    pw = w + 4
    planes = np.pad(img.pixels.transpose(2, 0, 1), ((0, 0), (2, 2), (2, 2))).reshape(3, -1)
    out = np.empty((h, w, 3), dtype=np.uint8)
    rows = max(1, _BLOCK_BYTES // (24 * w))
    block = np.empty((3, min(rows, h), w))
    for r0 in range(0, h, rows):
        v = np.arange(r0, min(r0 + rows, h), dtype=np.float64)[:, None] - cy
        sx = (u * cos_t - v * sin_t) / scale + cx
        sy = (u * sin_t + v * cos_t) / scale + cy
        x0, y0 = np.floor(sx), np.floor(sy)
        fx, fy = np.subtract(sx, x0, out=sx), np.subtract(sy, y0, out=sy)
        gx, gy = 1 - fx, 1 - fy
        # top-left tap in the flat padded plane: row y0+2, column x0+2
        np.clip(y0, -2, h, out=y0)
        y0 += 2
        y0 *= pw
        np.clip(x0, -2, w, out=x0)
        x0 += 2
        x0 += y0
        idx = x0.astype(np.intp)
        # corner weights in the oracle's order, with each tap's offset from idx
        w00 = gx * gy
        taps = ((1, fx * gy), (pw, gx * fy), (pw + 1, fx * fy))
        acc = block[:, :len(idx)]
        for plane, a in zip(planes, acc):
            np.multiply(w00, plane.take(idx), out=a)
            for off, wgt in taps:
                a += wgt * plane[off:].take(idx)
        np.rint(acc, out=acc)
        out[r0:r0 + len(idx)] = np.clip(acc, 0, 255, out=acc).transpose(1, 2, 0)
    return Raster(out)


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def rotate(img: Raster, angle_deg: float) -> Raster:
    """Rotate about the center; output dims unchanged, vacancies black."""
    _check_finite("angle_deg", angle_deg)
    return _warp(img, 1.0, angle_deg)


def scale_rotate(img: Raster, scale: float, angle_deg: float) -> Raster:
    """Center scaling then rotation in one resample. A scale so small that
    max(width, height) / scale overflows is refused: below it, every source
    coordinate stays finite."""
    _check_finite("scale", scale)
    _check_finite("angle_deg", angle_deg)
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    if not math.isfinite(max(img.width, img.height) / scale):
        raise ValueError(f"scale {scale} too small for a {img.width}x{img.height} image")
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
    [0,1], requantized. Rows go in blocks of about _BLOCK_BYTES of float64;
    one generator draws the same numbers block by block as all at once."""
    _check_finite("std", std)
    if std < 0:
        raise ValueError(f"std must be >= 0, got {std}")
    rng = np.random.default_rng(seed)
    h, w = img.height, img.width
    out = np.empty_like(img.pixels)
    rows = max(1, _BLOCK_BYTES // (24 * w))
    buf = np.empty((min(rows, h), w, 3))
    for r0 in range(0, h, rows):
        v = np.divide(img.pixels[r0:r0 + rows], 255.0, out=buf[:min(rows, h - r0)])
        if std > 0:
            v += rng.normal(0.0, std, size=v.shape)
        np.clip(v, 0.0, 1.0, out=v)
        v *= 255.0
        out[r0:r0 + len(v)] = np.rint(v, out=v)
    return Raster(out)


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
    An op's ValueError is re-raised naming <class>/<source> and the op; the
    images written before it stay, and the manifest is left as it was.
    """
    # every name is listed, and so checked, before the first image is written
    listing = [(cls, list_source_images(os.path.join(root_dir, cls)))
               for cls in list_classes(root_dir)]
    lines: list[str] = []
    for idx, (cls, names) in enumerate(listing):
        cdir = os.path.join(root_dir, cls)
        sources: list[tuple[str, Raster]] = []
        for name in names:
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
            try:
                out = apply_augment(src, op, params)
            except ValueError as exc:
                raise ValueError(f"{cls}/{src_name}: {op}: {exc}") from exc
            fname = f"aug_{config.seed}_{k}.ppm"
            write_ppm(os.path.join(cdir, fname), out)
            lines.append(f"{cls}/{fname}\t{cls}/{src_name}\t{op}\t{_format_params(params)}")
    manifest = os.path.join(root_dir, "augment_manifest.tsv")
    with atomic_open(manifest, encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return manifest, lines
