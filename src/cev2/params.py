"""Named parameter registry and the binary checkpoint codec.

A ``ParamStore`` maps dotted names to tensors in registration order.
Registering allocates a parameter at its deterministic starting value (zero
conv weights, unit BN scales); ``init_weights`` then draws every conv weight
in one pass over the store. Registration order therefore fixes both the init
draw order and the checkpoint layout, so two builds of the same architecture
from the same seed are bit-identical. Running batch-norm statistics register
as non-learnable: they ride along in checkpoints but are excluded from
gradients, optimizer steps, and parameter counts.

Checkpoint format (all integers little-endian):

    magic  b"CEV2"
    u32    version (1)
    u32    entry count
    per entry:
        u16    name byte length, then UTF-8 name
        4*u32  dims (N, C, H, W)
        dims-product float64 payload, little-endian, C-order
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .tensor import Tensor, channel_vector

MAGIC = b"CEV2"
VERSION = 1


class ParamStore:
    """Insertion-ordered name -> Tensor registry with learnable flags."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._learnable: dict[str, bool] = {}

    def register(self, name: str, tensor: Tensor, learnable: bool = True) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        tensor.requires_grad = bool(learnable)
        self._params[name] = tensor
        self._learnable[name] = bool(learnable)
        return tensor

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def learnable_items(self):
        return [(n, t) for n, t in self._params.items() if self._learnable[n]]

    def is_learnable(self, name: str) -> bool:
        return self._learnable[name]

    def count_learnable(self) -> int:
        return sum(t.numel for _, t in self.learnable_items())

    def zero_grads(self) -> None:
        for _, t in self.learnable_items():
            t.zero_grad()


def register_conv(store: ParamStore, name: str, out_channels: int, in_per_group: int,
                  kh: int, kw: int, bias: bool = True):
    """Register a zero conv weight and optional zero bias as name + '.w' /
    '.b'; ``init_weights`` draws the weight."""
    w = store.register(name + ".w", Tensor(np.zeros((out_channels, in_per_group, kh, kw))))
    b = store.register(name + ".b", channel_vector(np.zeros(out_channels))) if bias else None
    return w, b


def init_weights(store: ParamStore, rng: np.random.Generator) -> None:
    """Draw every conv weight (the '.w' entries) He-normal in registration
    order: Normal(0, sqrt(2 / fan_in)) with fan_in = in_per_group * kh * kw."""
    for name, t in store.items():
        if name.endswith(".w"):
            t.data[...] = rng.normal(0.0, np.sqrt(2.0 / math.prod(t.shape[1:])), size=t.shape)


def register_bn(store: ParamStore, name: str, channels: int):
    """Register batch-norm parameters: learnable gamma=1 / beta=0 and
    non-learnable running mean=0 / var=1 (serialized but never optimized)."""
    gamma = store.register(name + ".gamma", channel_vector(np.ones(channels)))
    beta = store.register(name + ".beta", channel_vector(np.zeros(channels)))
    rmean = store.register(name + ".rm", channel_vector(np.zeros(channels)), learnable=False)
    rvar = store.register(name + ".rv", channel_vector(np.ones(channels)), learnable=False)
    return gamma, beta, rmean, rvar


def save_checkpoint(path: str, store: ParamStore) -> None:
    entries = list(store.items())
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for name, tensor in entries:
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError(f"parameter name too long: {name!r}")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<IIII", *tensor.shape))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint into name -> array, validating the framing.

    A file cut short, a malformed entry or a non-finite weight raises
    ValueError naming the offset or the entry.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(off: int, size: int, what: str) -> None:
        if len(blob) - off < size:
            raise ValueError(
                f"truncated checkpoint: {what} at offset {off} needs {size} bytes, "
                f"{len(blob) - off} left")

    need(0, 12, "header")
    if blob[:4] != MAGIC:
        raise ValueError(f"not a CEV2 checkpoint: bad magic {blob[:4]!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    off = 12
    out: dict[str, np.ndarray] = {}
    for k in range(count):
        need(off, 2, f"entry {k} name length")
        (nlen,) = struct.unpack_from("<H", blob, off)
        off += 2
        need(off, nlen + 16, f"entry {k} name and dims")
        name = blob[off:off + nlen].decode("utf-8")
        off += nlen
        dims = struct.unpack_from("<IIII", blob, off)
        off += 16
        size = math.prod(dims)
        need(off, size * 8, f"entry {name!r} payload")
        arr = np.frombuffer(blob, dtype="<f8", count=size, offset=off).reshape(dims)
        off += size * 8
        if name in out:
            raise ValueError(f"duplicate entry {name!r} in checkpoint")
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint entry {name!r} holds non-finite values")
        out[name] = arr.astype(np.float64)
    if off != len(blob):
        raise ValueError(f"trailing bytes in checkpoint: {len(blob) - off}")
    return out


def load_into(path: str, store: ParamStore) -> None:
    """Load a checkpoint into an existing store; names and shapes must match
    the store's contents exactly (no extras, no missing)."""
    loaded = load_checkpoint(path)
    names = store.names()
    missing = [n for n in names if n not in loaded]
    extra = [n for n in loaded if n not in store]
    if missing or extra:
        raise ValueError(
            f"checkpoint mismatch: missing {missing[:5]}, unexpected {extra[:5]}")
    for name in names:
        tensor = store[name]
        arr = loaded[name]
        if arr.shape != tensor.shape:
            raise ValueError(
                f"checkpoint entry {name!r} has shape {arr.shape}, expected {tensor.shape}")
        tensor.data[...] = arr
