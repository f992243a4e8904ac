"""8-bit RGB rasters and the netpbm codecs.

Readers accept binary P6 (RGB) and P5 (grayscale, made RGB): the magic, then
width, height and maxval (1..255) in ASCII decimal, between whitespace and #
comments that run to LF, then one whitespace byte and samples in 0..maxval,
rescaled to rint(sample * 255 / maxval), ties to even, if maxval != 255. The
writer emits P6 maxval 255. Pixels are (height, width, 3) uint8 arrays, and
resize_bilinear, the loader's resize, samples center-aligned, edges clamped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# file extensions the dataset listings treat as decodable images
IMAGE_EXTS = (".ppm", ".pgm", ".pnm")
# whitespace and comments, then one header token (empty at the end of the
# file); in a bytes pattern \s is the six ASCII whitespace bytes
_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*([^\s#]*)")


@dataclass
class Raster:
    pixels: np.ndarray  # (H, W, 3) uint8

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.dtype != np.uint8 or px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"Raster needs (H, W, 3) uint8 pixels, got {px.dtype} {px.shape}")
        if px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"Raster dims must be >= 1, got {px.shape[:2]}")
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def read_image(path: str) -> Raster:
    """Decode a P6 or P5 file into an RGB raster."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] not in (b"P6", b"P5"):
        raise ValueError(f"{path}: unsupported netpbm magic {blob[:2]!r}")
    tokens, off = [], 0
    for _ in range(4):
        token = _TOKEN.match(blob, off)
        if not token[1]:
            raise ValueError(f"{path}: truncated netpbm header")
        tokens.append(token[1])
        off = token.end()
    if not blob[off:off + 1].isspace():
        raise ValueError(f"{path}: netpbm header not terminated by whitespace")
    off += 1
    magic, *fields = tokens
    if magic not in (b"P6", b"P5"):
        raise ValueError(f"{path}: unsupported netpbm magic {magic!r}")
    for field in fields:
        if not field.isdigit():
            raise ValueError(f"{path}: netpbm header field {field!r} is not a decimal number")
    width, height, maxval = map(int, fields)
    if width < 1 or height < 1:
        raise ValueError(f"{path}: bad dimensions {width}x{height}")
    if not (0 < maxval <= 255):
        raise ValueError(f"{path}: unsupported maxval {maxval} (need 1..255)")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    if len(blob) - off < need:
        raise ValueError(f"{path}: payload has {len(blob) - off} bytes, expected {need}")
    arr = np.frombuffer(blob, np.uint8, count=need, offset=off).reshape(height, width, channels)
    if maxval != 255:
        if arr.max() > maxval:
            raise ValueError(f"{path}: sample {arr.max()} above maxval {maxval}")
        arr = np.rint(arr.astype(np.float64) * 255.0 / maxval).astype(np.uint8)
    if channels == 1:
        arr = np.repeat(arr, 3, axis=2)
    return Raster(arr.copy())


def write_ppm(path: str, img: Raster) -> None:
    """Encode as binary P6, maxval 255."""
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(img.pixels))


def resize_bilinear(img: Raster, out_h: int, out_w: int) -> Raster:
    """Bilinear resize with center-aligned sampling and edge clamping."""
    if out_h < 1 or out_w < 1:
        raise ValueError(f"resize target must be >= 1, got {out_h}x{out_w}")
    h, w = img.height, img.width
    if (out_h, out_w) == (h, w):
        return Raster(img.pixels.copy())
    sy = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0.0, h - 1.0)
    sx = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0.0, w - 1.0)
    y0 = np.floor(sy).astype(np.int64)
    x0 = np.floor(sx).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (sy - y0)[:, None, None]
    fx = (sx - x0)[None, :, None]
    px = img.pixels.astype(np.float64)
    top = px[y0][:, x0] * (1 - fx) + px[y0][:, x1] * fx
    bot = px[y1][:, x0] * (1 - fx) + px[y1][:, x1] * fx
    out = top * (1 - fy) + bot * fy
    return Raster(np.clip(np.rint(out), 0, 255).astype(np.uint8))
