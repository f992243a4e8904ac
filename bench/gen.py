"""Seeded dataset generator for the benchmark workloads.

Writes a directory-per-class tree of binary PPM (P6) and PGM (P5) images.
Each class has its own stripe orientation, stripe frequency and base colour,
so a network can learn to tell classes apart; every image adds a random
phase, contrast and pixel noise. The same (seed, shape) arguments always
write the same bytes. The generator writes raw netpbm itself and imports
nothing from the program under test.
"""

from __future__ import annotations

import os

import numpy as np

_PALETTE = ((200, 60, 50), (60, 180, 70), (50, 80, 200), (190, 180, 60),
            (170, 60, 170), (60, 170, 170), (130, 100, 60), (90, 90, 90))


def _texture(rng: np.random.Generator, cls: int, n_classes: int,
             width: int, height: int) -> np.ndarray:
    """One (height, width, 3) uint8 image of class `cls`."""
    theta = np.pi * cls / n_classes
    freq = 2.0 + 1.5 * cls
    phase = rng.uniform(0.0, 2.0 * np.pi)
    contrast = rng.uniform(40.0, 70.0)
    y, x = np.mgrid[0:height, 0:width].astype(np.float64)
    u = (x * np.cos(theta) + y * np.sin(theta)) / max(width, height)
    stripes = np.sin(2.0 * np.pi * freq * u + phase)[:, :, None]
    base = np.asarray(_PALETTE[cls % len(_PALETTE)], dtype=np.float64)
    noise = rng.normal(0.0, 12.0, size=(height, width, 3))
    return np.clip(np.rint(base + contrast * stripes + noise), 0, 255).astype(np.uint8)


def _write(path: str, pixels: np.ndarray, gray: bool) -> None:
    h, w, _ = pixels.shape
    if gray:
        body = np.rint(pixels.mean(axis=2)).astype(np.uint8)
        header = f"P5\n{w} {h}\n255\n"
    else:
        body = pixels
        header = f"P6\n{w} {h}\n255\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(body).tobytes())


def make_dataset(root: str, seed: int, n_classes: int, per_class: int,
                 sizes: list[tuple[int, int]], gray_every: int = 0) -> list[str]:
    """Write `per_class` images for each of `n_classes` classes under root.

    Image k of a class takes its (width, height) from sizes[k % len(sizes)];
    when gray_every > 0 every gray_every-th image is a P5 file. Returns the
    written paths relative to root, in write order.
    """
    written = []
    for cls in range(n_classes):
        cdir = os.path.join(root, f"class{cls:02d}")
        os.makedirs(cdir, exist_ok=True)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7919, cls]))
        for k in range(per_class):
            width, height = sizes[k % len(sizes)]
            gray = gray_every > 0 and k % gray_every == gray_every - 1
            name = f"img{k:04d}.{'pgm' if gray else 'ppm'}"
            _write(os.path.join(cdir, name), _texture(rng, cls, n_classes, width, height), gray)
            written.append(f"class{cls:02d}/{name}")
    return written
