"""Outside-in span tracer for the cev2 package.

A ``Tracer`` wraps functions of the cev2 modules by rebinding module and
class attributes; nothing under ``src/`` changes. Modules such as
``backbone`` and ``safm`` import ``conv2d`` and friends by name, so every
module attribute that refers to a wrapped function is rebound, not only the
defining module's.

Two depths exist:

* probe depth wraps only the calls that mark the units of work the
  end-to-end metrics count: train steps, eval batches and written images;
* full depth wraps every public function of every layer module, the block
  ``forward`` methods, the optimizer steps and ``Tape.record``. A backward
  rule recorded while a wrapped op runs is itself wrapped, so backward time
  lands on the op kind and block that recorded it.

Train steps, epochs, eval batches and augmented images have no function of
their own, so the tracer opens synthetic spans for them at the first call
that belongs to one and closes them at the last. Spans stay in memory as
``[name, parent, start, end, attrs]`` lists until the caller writes them.
"""

from __future__ import annotations

import inspect
import os
import sys
from time import perf_counter

LAYERS = ("tensor", "attention", "safm", "backbone", "train", "data", "ppm",
          "augment", "params", "config", "cli")

# tape bookkeeping called by every op; its time belongs to the op
_SKIP = {"tensor.record_op"}
# private helpers that make up a train step's data phase
_PRIVATE = {"train._raster_cache_get", "train._normalize"}
# optimizer steps close a train step; wrapped at both depths
_OPTIMIZERS = (("SGDMomentum", "step"), ("Adam", "step"))
_BLOCK_CLASSES = ("_ConvBN", "FusedMBConvBlock", "MBConvBlock", "SAFMBlock")

# op spans a backward rule is charged to, innermost first
OP_SPANS = {"tensor.conv2d", "tensor.batch_norm", "tensor.activation", "tensor.pool",
            "tensor.elementwise", "tensor.negate", "tensor.sum_all",
            "tensor.channel_split4", "tensor.channel_concat", "tensor.upsample_to",
            "tensor.upsample_nearest", "train.cross_entropy_loss"}
COMPOSITES = {"attention.ce_forward": "attention.ce", "safm.dp_safm_forward": "safm.dp_safm"}

# the probe set: calls that open, close or delimit the units of work
_PROBES = (("cli", "main"), ("train", "train"), ("train", "evaluate"),
           ("train", "_raster_cache_get"), ("train", "load_input"),
           ("train", "cross_entropy_loss"), ("augment", "expand_dataset"),
           ("augment", "sample_augment"), ("augment", "read_image"),
           ("augment", "write_ppm"))


def conv_kind(spec) -> str:
    """depthwise | pointwise | dense, by the shape contract of one conv."""
    groups = spec.groups
    if groups == spec.in_channels == spec.out_channels and groups > 1:
        return "depthwise"
    if spec.kernel_h == spec.kernel_w == 1 and groups == 1:
        return "pointwise"
    return "dense"


def conv_gflop(x, spec) -> float:
    """Forward multiply-adds times two, in GFLOP."""
    n, _, h, w = x.shape
    p, s = spec.padding, spec.stride
    h2 = (h + 2 * p - spec.kernel_h) // s + 1
    w2 = (w + 2 * p - spec.kernel_w) // s + 1
    per_out = (spec.in_channels // spec.groups) * spec.kernel_h * spec.kernel_w
    return 2.0 * n * spec.out_channels * h2 * w2 * per_out * 1e-9


def _conv_attrs(args, kwargs):
    x = args[0]
    spec = args[3] if len(args) > 3 else kwargs["spec"]
    return {"kind": conv_kind(spec), "gflop": conv_gflop(x, spec)}


def _store_bytes(store) -> int:
    return sum(t.data.nbytes for _, t in store.items())


# attributes recorded at span open, from the call's arguments
_ATTRS = {
    "tensor.conv2d": _conv_attrs,
    "train.evaluate": lambda a, k: {"images": len(a[2])},
    "augment.apply_augment": lambda a, k: {"op": a[1]},
    "ppm.read_image": lambda a, k: {"bytes": os.path.getsize(a[0])},
    "ppm.write_ppm": lambda a, k: {"bytes": a[1].pixels.nbytes},
    "params.load_into": lambda a, k: {"bytes": os.path.getsize(a[0])},
    "params.save_checkpoint": lambda a, k: {"bytes": _store_bytes(a[1])},
}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest (single thread, stack discipline), so the children of one
    span never overlap and their durations sum to the covered part.
    """
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= s[3] - s[2]
    return out


class Tracer:
    """Collects the spans of one program call; install(), call, uninstall()."""

    def __init__(self, full: bool):
        self.full = full
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._blocks: dict[int, str] = {}
        self._net = None

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, attrs])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """Close span idx and any synthetic span left open above it (an
        exception can unwind through a step before the step closes)."""
        now = perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][3] = now
            if top == idx:
                return

    def _top(self) -> str:
        return self.spans[self.stack[-1]][0] if self.stack else ""

    # -- synthetic spans ---------------------------------------------------

    def _before(self, name: str) -> None:
        top = self._top()
        if name == "train._raster_cache_get":
            if top == "train.train":
                self.open("train.epoch", {"evals": 0})
                top = "train.epoch"
            if top == "train.epoch":
                self.open("train.step")
        elif name == "data.load_input" and top == "train.evaluate":
            self.open("train.eval_batch")
        elif name == "augment.sample_augment" and top == "augment.expand_dataset":
            self.open("augment.image")

    def _after(self, name: str) -> None:
        top = self._top()
        if name in ("train.SGDMomentum.step", "train.Adam.step") and top == "train.step":
            self.close(self.stack[-1])
        elif name == "train.cross_entropy_loss" and top == "train.eval_batch":
            self.close(self.stack[-1])
        elif name == "ppm.write_ppm" and top == "augment.image":
            self.close(self.stack[-1])
        elif name == "train.evaluate" and top == "train.epoch":
            # train() evaluates the train split, then the test split, after
            # every epoch; the second evaluation ends the epoch
            epoch = self.spans[self.stack[-1]]
            epoch[4]["evals"] += 1
            if epoch[4]["evals"] == 2:
                self.close(self.stack[-1])

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        attrs_of = _ATTRS.get(name)
        hooked = name in _HOOKED

        def wrapper(*args, **kwargs):
            if hooked:
                tracer._before(name)
            idx = tracer.open(name, attrs_of(args, kwargs) if attrs_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if hooked:
                    tracer._after(name)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _block_forward(self, fn):
        tracer = self

        def forward(block, *args, **kwargs):
            name = tracer._blocks.get(id(block))
            if name is None:
                return fn(block, *args, **kwargs)
            idx = tracer.open(name)
            try:
                return fn(block, *args, **kwargs)
            finally:
                tracer.close(idx)

        forward.__wrapped__ = fn
        return forward

    def _network_forward(self, fn):
        tracer = self
        inner = self._wrap("backbone.Network.forward", fn)

        def forward(net, *args, **kwargs):
            if net is not tracer._net:
                tracer._name_blocks(net)
            return inner(net, *args, **kwargs)

        forward.__wrapped__ = fn
        return forward

    def _name_blocks(self, net) -> None:
        """Map the network's top-level blocks to their checkpoint paths, in
        the order Network.__init__ builds them. Holding the network keeps
        the ids valid."""
        names = {id(net.stem): "backbone.stem", id(net.head): "backbone.head"}
        blocks = iter(net.blocks)
        for i, st in enumerate(net.config.stages):
            for j in range(st.repeats):
                names[id(next(blocks))] = f"backbone.s{i}.r{j}"
            if st.safm_after:
                names[id(next(blocks))] = f"backbone.s{i}.safm"
        self._net = net
        self._blocks = names

    def _record(self, fn):
        tracer = self

        def record(tape, rule):
            info = tracer._charge()
            if info is None:
                return fn(tape, rule)
            name, attrs = info

            def traced_rule():
                idx = tracer.open(name, attrs)
                try:
                    rule()
                finally:
                    tracer.close(idx)

            return fn(tape, traced_rule)

        record.__wrapped__ = fn
        return record

    def _charge(self):
        """(backward span name, attrs) for a rule recorded now: the innermost
        op span, the block around it and any composite layer around it."""
        op = None
        attrs: dict = {}
        for idx in reversed(self.stack):
            name, _, _, _, a = self.spans[idx]
            if op is None:
                if name in OP_SPANS:
                    op = name
                    attrs = {"kind": a["kind"]} if a else {}
                continue
            if "composite" not in attrs and name in COMPOSITES:
                attrs["composite"] = COMPOSITES[name]
            elif name.startswith("backbone.") and name != "backbone.Network.forward":
                attrs["block"] = name
                break
            elif name == "backbone.Network.forward":
                attrs["block"] = "backbone.classifier"
                break
        if op is None:
            return None
        return op + ".bwd", attrs

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        mods = {m: sys.modules[f"cev2.{m}"] for m in LAYERS}
        targets: dict[int, tuple[object, str]] = {}
        if self.full:
            for short, mod in mods.items():
                for fname, fn in vars(mod).items():
                    name = f"{short}.{fname}"
                    if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                            and name not in _SKIP
                            and (not fname.startswith("_") or name in _PRIVATE)):
                        targets[id(fn)] = (fn, name)
        else:
            for short, fname in _PROBES:
                fn = getattr(mods[short], fname)
                home = fn.__module__.rsplit(".", 1)[-1]
                targets[id(fn)] = (fn, f"{home}.{fn.__name__}")
        wrapped = {key: self._wrap(name, fn) for key, (fn, name) in targets.items()}
        for mod in list(mods.values()) + [sys.modules["cev2"]]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])
        for cls_name, meth in _OPTIMIZERS:
            cls = getattr(mods["train"], cls_name)
            self._set(cls, meth, self._wrap(f"train.{cls_name}.{meth}", cls.__dict__[meth]))
        if self.full:
            net = mods["backbone"].Network
            self._set(net, "forward", self._network_forward(net.__dict__["forward"]))
            for cls_name in _BLOCK_CLASSES:
                cls = getattr(mods["backbone"], cls_name)
                self._set(cls, "forward", self._block_forward(cls.__dict__["forward"]))
            tape = mods["tensor"].Tape
            self._set(tape, "record", self._record(tape.__dict__["record"]))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()
        self._net = None
        self._blocks = {}


_HOOKED = {"train._raster_cache_get", "data.load_input", "augment.sample_augment",
           "train.SGDMomentum.step", "train.Adam.step", "train.cross_entropy_loss",
           "ppm.write_ppm", "train.evaluate"}
