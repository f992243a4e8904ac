"""Directory-per-class datasets: listing, split, manifests, batch loading.

A dataset is root/<class_name>/<images>. Classes index alphabetically.
Splitting shuffles each class with its own seed-derived stream and sends the
first ceil(fraction * n) files to train, the rest to test, so both manifests
partition the file set exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .params import atomic_open
from .ppm import IMAGE_EXTS, Raster, read_image, resize_bilinear
from .tensor import Tensor

_SPLIT_STREAM = 101


@dataclass
class Split:
    classes: list[str]
    train: list[tuple[str, int]]  # (path relative to root, class index)
    test: list[tuple[str, int]]
    warnings: list[str] = field(default_factory=list)


def _manifest_names(root: str, names: list[str]) -> list[str]:
    """names as given; ValueError naming the first one that is not UTF-8 or
    holds a TAB, CR or LF, since manifests are UTF-8 TSV lines."""
    for name in names:
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{root}: name {os.fsencode(name)!r} is not valid UTF-8") from None
        if any(c in name for c in "\t\r\n"):
            raise ValueError(f"{root}: name {name!r} holds a TAB, CR or LF")
    return names


def list_classes(root: str) -> list[str]:
    classes = sorted(d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d)))
    if not classes:
        raise ValueError(f"{root}: no class subdirectories")
    return _manifest_names(root, classes)


def list_images(class_dir: str) -> list[str]:
    """Sorted file names in class_dir with a decodable image extension."""
    return _manifest_names(class_dir, [n for n in sorted(os.listdir(class_dir))
                                       if n.lower().endswith(IMAGE_EXTS)])


def split_dataset(root: str, fraction: float, seed: int) -> Split:
    """Per-class seeded shuffle; first ceil(fraction*n) files to train."""
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must be in (0,1), got {fraction}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    classes = list_classes(root)
    split = Split(classes=classes, train=[], test=[])
    for idx, cls in enumerate(classes):
        files = list_images(os.path.join(root, cls))
        if not files:
            raise ValueError(f"{root}/{cls}: class directory has no images")
        rng = np.random.default_rng(np.random.SeedSequence([seed, _SPLIT_STREAM, idx]))
        order = rng.permutation(len(files))
        n_train = math.ceil(fraction * len(files))
        for rank, j in enumerate(order):
            rel = f"{cls}/{files[j]}"
            (split.train if rank < n_train else split.test).append((rel, idx))
        if n_train == len(files):
            split.warnings.append(f"class {cls}: all {len(files)} samples in train, test empty")
    return split


def write_manifest(path: str, entries: list[tuple[str, int]], classes: list[str]) -> None:
    """One `relpath<TAB>class_name` line per file, written atomically."""
    with atomic_open(path, encoding="utf-8") as fh:
        for rel, idx in entries:
            fh.write(f"{rel}\t{classes[idx]}\n")


def manifest_classes(path: str) -> list[str]:
    """Sorted distinct class names of a ``write_manifest`` file; ValueError
    naming the file and line of a line with no TAB. A byte that is not UTF-8
    decodes to a lone surrogate, which no listed class name holds."""
    classes = set()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            _, tab, cls = line.rstrip("\n").partition("\t")
            if not tab:
                raise ValueError(f"{path}:{lineno}: manifest line has no TAB")
            classes.add(cls)
    return sorted(classes)


def normalize(img: Raster, resize_to: int) -> np.ndarray:
    """Bilinear-resize to a square and scale to [0,1] as a
    (3, resize_to, resize_to) float64 array."""
    resized = resize_bilinear(img, resize_to, resize_to)
    return resized.pixels.astype(np.float64).transpose(2, 0, 1) / 255.0


def load_input(path: str, resize_to: int) -> np.ndarray:
    """Decode an image file and ``normalize`` it."""
    return normalize(read_image(path), resize_to)


def batch_tensor(arrays: list[np.ndarray]) -> Tensor:
    return Tensor(np.stack(arrays, axis=0))
