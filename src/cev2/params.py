"""Named parameter registry and the binary checkpoint codec.

A ``ParamStore`` maps dotted names to tensors in registration order.
Registering allocates a parameter at its deterministic starting value (zero
conv weights, unit BN scales); ``init_weights`` then draws every conv weight
in one pass over the store. Registration order therefore fixes both the init
draw order and the checkpoint layout, so two builds of the same architecture
from the same seed are bit-identical. A conv's ``ConvSpec`` is the one
statement of its shape: ``register_conv`` derives the weight and bias from
it and returns the conv's one record, (w, b, spec), which the params object
or layer keeps for its forward. Running batch-norm statistics register as
non-learnable: they ride along in checkpoints but are excluded from
gradients, optimizer steps, and parameter counts. ``atomic_open`` writes a
file through a temporary beside it, so a failed write leaves the last good
file in place; checkpoints and the train loop's metric files use it.

Checkpoint format (all integers little-endian):

    magic  b"CEV2"
    u32    version (1)
    u32    entry count
    per entry:
        u16    name byte length, then UTF-8 name
        4*u32  dims (N, C, H, W), each at least 1
        dims-product float64 payload, little-endian, C-order
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .tensor import ConvSpec, Tensor, channel_vector

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


def register_conv(store: ParamStore, name: str, spec: ConvSpec, bias: bool = True):
    """Register spec's zero weight (out, in/groups, kh, kw) and optional zero
    bias as name + '.w' / '.b', and return the record (w, b, spec), b None
    without a bias; ``init_weights`` draws the weight."""
    shape = (spec.out_channels, spec.in_channels // spec.groups, spec.kernel_h, spec.kernel_w)
    w = store.register(name + ".w", Tensor(np.zeros(shape)))
    b = store.register(name + ".b", channel_vector(np.zeros(spec.out_channels))) if bias else None
    return w, b, spec


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


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w", **kwargs):
    """Open a temporary file beside path for writing. When the block ends
    cleanly the temporary is synced to disk and replaces path in one step, so
    a crash leaves the old file or the new one whole; when the block raises,
    the temporary is removed and path keeps its previous bytes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def save_checkpoint(path: str, store: ParamStore) -> None:
    entries = list(store.items())
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(entries)))
        for name, tensor in entries:
            raw = name.encode("utf-8")
            if len(raw) > 0xFFFF:
                raise ValueError(f"parameter name too long: {name!r}")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<IIII", *tensor.shape))
            fh.write(np.ascontiguousarray(tensor.data, dtype="<f8"))


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a checkpoint into name -> array, validating the framing.

    Every field is taken through one bounds-checked cursor. A file cut short,
    a malformed entry, a zero dimension or a non-finite weight raises
    ValueError where it is found, naming the file and the offset or the entry.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    off = 0

    def take(size: int, what: str) -> memoryview:
        nonlocal off
        if len(blob) - off < size:
            raise ValueError(f"{path}: truncated checkpoint: {what} at offset {off} needs "
                             f"{size} bytes, {len(blob) - off} left")
        off += size
        return blob[off - size:off]

    magic, version, count = struct.unpack("<4sII", take(12, "header"))
    if magic != MAGIC:
        raise ValueError(f"{path}: not a CEV2 checkpoint: bad magic {magic!r}")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for k in range(count):
        (nlen,) = struct.unpack("<H", take(2, f"entry {k} name length"))
        field = take(nlen + 16, f"entry {k} name and dims")
        try:
            name = str(field[:nlen], "utf-8")
        except UnicodeDecodeError:
            raise ValueError(f"{path}: entry {k} name at offset {off - nlen - 16} "
                             "is not UTF-8") from None
        dims = struct.unpack("<IIII", field[nlen:])
        if 0 in dims:
            raise ValueError(f"{path}: checkpoint entry {name!r} has a zero dimension: {dims}")
        arr = np.frombuffer(take(8 * math.prod(dims), f"entry {name!r} payload"),
                            dtype="<f8").reshape(dims)
        if name in out:
            raise ValueError(f"{path}: duplicate entry {name!r} in checkpoint")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: checkpoint entry {name!r} holds non-finite values")
        out[name] = arr.astype(np.float64)
    if off != len(blob):
        raise ValueError(f"{path}: trailing bytes in checkpoint: {len(blob) - off}")
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
            f"{path}: checkpoint mismatch: missing {missing[:5]}, unexpected {extra[:5]}")
    for name in names:
        tensor = store[name]
        arr = loaded[name]
        if arr.shape != tensor.shape:
            raise ValueError(f"{path}: checkpoint entry {name!r} has shape {arr.shape}, "
                             f"expected {tensor.shape}")
        tensor.data[...] = arr
