"""Metric arithmetic over the spans of traced program calls.

``summarize_call`` turns the spans of one ``cev2`` call into the numbers the
end-to-end metrics are built from. ``per_layer`` turns the spans of the
fully traced calls into the per-layer metrics, and ``accounting`` checks
that the per-layer self times add up to the traced step and epoch wall
times. Every name here is listed, with its unit and normalisation, in
``bench/README.md``.
"""

from __future__ import annotations

import math
import statistics

from tracer import self_times

CONV_KINDS = ("dense", "depthwise", "pointwise")
OP_GROUPS = {
    "batch_norm": ("tensor.batch_norm",),
    "activation": ("tensor.activation",),
    "pool": ("tensor.pool",),
    "elementwise": ("tensor.elementwise", "tensor.negate", "tensor.sum_all"),
    "reshape": ("tensor.channel_split4", "tensor.channel_concat", "tensor.upsample_to",
                "tensor.upsample_nearest"),
}
BLOCKS = ("stem", "s0.r0", "s0.safm", "s1.r0", "s1.r1", "s1.safm", "s2.r0", "s2.r1",
          "head", "classifier")
AUGMENT_OPS = ("rotate", "translate", "gaussian-noise", "salt-pepper", "hflip",
               "scale-rotate")
STEP_PHASES = {
    "data_s": ("train._raster_cache_get", "augment.sample_augment",
               "augment.apply_augment", "train._normalize", "data.batch_tensor"),
    "forward_s": ("backbone.Network.forward",),
    "loss_s": ("train.cross_entropy_loss",),
    "backward_s": ("tensor.backward",),
    "optimizer_s": ("train.SGDMomentum.step", "train.Adam.step"),
}
# spans whose start ends a call's set-up: the first unit of work
WORK_START = ("train.epoch", "train.eval_batch", "ppm.read_image")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize_call(spans: list, op_span: str) -> dict:
    """Wall time, set-up time, unit-of-work durations and image count of the
    call whose root span is spans[0]."""
    root = spans[0]
    work_start = min((s[2] for s in spans if s[0] in WORK_START), default=root[3])
    ops = [s[3] - s[2] for s in spans if s[0] == op_span]
    if op_span == "train.step":
        images = sum(1 for s in spans if s[0] == "train._raster_cache_get")
    elif op_span == "train.eval_batch":
        images = sum(s[4]["images"] for s in spans if s[0] == "train.evaluate")
    else:
        images = len(ops)
    return {
        "call_s": root[3] - root[2],
        "setup_s": work_start - root[2],
        "work_s": root[3] - work_start,
        "ops": ops,
        "images": images,
        "epochs": [s[3] - s[2] for s in spans if s[0] == "train.epoch"],
    }


def end_to_end(calls: list[dict], tail_q: float, per_call: bool = False) -> dict:
    """The end-to-end metrics over the summaries of the measured calls.

    The op percentiles are taken over the ops of the whole run, or, with
    `per_call`, over the ops of each call and then the median over calls.
    """
    if per_call:
        p50 = statistics.median(percentile(c["ops"], 50.0) for c in calls)
        tail = statistics.median(percentile(c["ops"], tail_q) for c in calls)
    else:
        ops = [d for c in calls for d in c["ops"]]
        p50, tail = percentile(ops, 50.0), percentile(ops, tail_q)
    return {
        "setup_s": statistics.median(c["setup_s"] for c in calls),
        "call_s": statistics.median(c["call_s"] for c in calls),
        "images_per_s": statistics.median(c["images"] / c["work_s"] for c in calls),
        "op_s.p50": p50,
        "op_s.tail": tail,
    }


def _ancestor_index(spans: list, name: str) -> list[int]:
    """For every span, the index of its nearest ancestor-or-self called
    `name`, or -1. Parents precede children in the list."""
    out = []
    for i, s in enumerate(spans):
        if s[0] == name:
            out.append(i)
        else:
            out.append(out[s[1]] if s[1] >= 0 else -1)
    return out


def per_layer(traced: list[list]) -> dict:
    """Per-layer metrics from the span lists of the fully traced calls.

    Seconds are self times or inclusive span times as README.md states per
    metric; values are per traced call unless the name says per step/epoch.
    """
    m: dict[str, float] = {}
    totals: dict[str, float] = {}
    steps = epochs = 0

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for spans in traced:
        self_t = self_times(spans)
        in_eval = _ancestor_index(spans, "train.evaluate")
        for i, (name, parent, start, end, attrs) in enumerate(spans):
            dur = end - start
            add(name + "#n", 1)
            add(name + "#self", self_t[i])
            add(name + "#dur", dur)
            if name in ("tensor.conv2d", "tensor.conv2d.bwd"):
                add(f"{name}#{attrs['kind']}#self", self_t[i])
                if name == "tensor.conv2d":
                    add(f"conv#{attrs['kind']}#calls", 1)
                    add(f"conv#{attrs['kind']}#gflop", attrs["gflop"])
            if name.endswith(".bwd"):
                add("bwd#rules", 1)
                if attrs.get("composite"):
                    add(attrs["composite"] + "#bwd", self_t[i])
                if attrs.get("block"):
                    add(attrs["block"] + "#bwd", self_t[i])
            if parent >= 0 and spans[parent][0] == "backbone.Network.forward" \
                    and not name.startswith("backbone."):
                add("backbone.classifier#dur", dur)
            if name in ("ppm.read_image", "ppm.write_ppm", "params.save_checkpoint",
                        "params.load_into"):
                add(name + "#bytes", attrs["bytes"])
            if name == "augment.apply_augment":
                add(f"augment.{attrs['op']}#dur", dur)
                add(f"augment.{attrs['op']}#calls", 1)
            if name == "data.load_input" and in_eval[i] >= 0:
                add("eval#loads", 1)
            if name == "train.evaluate":
                add("eval#images", attrs["images"])
            if name.startswith("config."):
                add("config#self", self_t[i])
            if name == "train.step":
                steps += 1
                phases = 0.0
                for j in range(i + 1, len(spans)):
                    if spans[j][2] >= end:
                        break
                    if spans[j][1] != i:
                        continue
                    for phase, names in STEP_PHASES.items():
                        if spans[j][0] in names:
                            d = spans[j][3] - spans[j][2]
                            add("step#" + phase, d)
                            phases += d
                add("step#residual", dur - phases)
            if name == "train.epoch":
                epochs += 1
                add("epoch#residual", self_t[i])
            if name == "train.train":
                last_epoch_end = max((s[3] for s in spans if s[0] == "train.epoch"
                                      and s[1] == i), default=start)
                add("train#checkpoint", end - last_epoch_end)

    n = len(traced)
    t = lambda key: totals.get(key, 0.0)  # noqa: E731
    per_step = lambda key: t(key) / steps if steps else 0.0  # noqa: E731

    for kind in CONV_KINDS:
        base = f"tensor.conv2d.{kind}"
        m[base + ".fwd_s"] = t(f"tensor.conv2d#{kind}#self") / n
        m[base + ".bwd_s"] = t(f"tensor.conv2d.bwd#{kind}#self") / n
        m[base + ".calls"] = t(f"conv#{kind}#calls") / n
        m[base + ".gflop"] = t(f"conv#{kind}#gflop") / n
    for group, names in OP_GROUPS.items():
        m[f"tensor.{group}.fwd_s"] = sum(t(x + "#self") for x in names) / n
        m[f"tensor.{group}.bwd_s"] = sum(t(x + ".bwd#self") for x in names) / n
    m["tensor.backward_s"] = per_step("tensor.backward#dur")
    m["tensor.tape_rules"] = per_step("bwd#rules")
    m["attention.ce.fwd_s"] = t("attention.ce_forward#dur") / n
    m["attention.ce.bwd_s"] = t("attention.ce#bwd") / n
    m["safm.dp_safm.fwd_s"] = t("safm.dp_safm_forward#dur") / n
    m["safm.dp_safm.bwd_s"] = t("safm.dp_safm#bwd") / n
    for block in BLOCKS:
        m[f"backbone.{block}.fwd_s"] = t(f"backbone.{block}#dur") / n
        m[f"backbone.{block}.bwd_s"] = t(f"backbone.{block}#bwd") / n
    for phase in STEP_PHASES:
        m[f"train.step.{phase}"] = per_step("step#" + phase)
    m["train.eval_s"] = t("train.evaluate#dur") / n
    images = t("eval#images")
    m["train.eval.cache_hit_ratio"] = 1.0 - t("eval#loads") / images if images else 0.0
    m["train.checkpoint_s"] = t("train#checkpoint") / n
    m["data.split_s"] = t("data.split_dataset#dur") / n
    m["data.load_input_s"] = t("data.load_input#dur") / n
    m["data.load_input.calls"] = t("data.load_input#n") / n
    m["ppm.read_image_s"] = t("ppm.read_image#dur") / n
    m["ppm.read_image.mb"] = t("ppm.read_image#bytes") / 1e6 / n
    m["ppm.write_ppm_s"] = t("ppm.write_ppm#dur") / n
    m["ppm.write_ppm.mb"] = t("ppm.write_ppm#bytes") / 1e6 / n
    m["ppm.resize_bilinear_s"] = t("ppm.resize_bilinear#dur") / n
    for op in AUGMENT_OPS:
        m[f"augment.{op}.s"] = t(f"augment.{op}#dur") / n
        m[f"augment.{op}.calls"] = t(f"augment.{op}#calls") / n
    m["augment.sample_s"] = t("augment.sample_augment#dur") / n
    m["params.save_checkpoint_s"] = t("params.save_checkpoint#dur") / n
    m["params.load_into_s"] = t("params.load_into#dur") / n
    m["params.checkpoint.mb"] = (t("params.save_checkpoint#bytes")
                                 + t("params.load_into#bytes")) / 1e6 / n
    m["config.parse_s"] = t("config#self") / n
    m["cli.self_s"] = t("cli.main#self") / n
    m["trace.step.residual_s"] = per_step("step#residual")
    m["trace.epoch.residual_s"] = t("epoch#residual") / epochs if epochs else 0.0
    m["trace.spans"] = sum(len(s) for s in traced) / n
    return m


def accounting(traced: list[list]) -> dict:
    """Three views of the traced train steps and one of the epochs, each
    adding up to the wall time it covers, with the residual named.

    op_kinds: self time of tensor ops and the loss, forward and backward;
    blocks: block forward spans plus backward rules charged to a block;
    phases: the five step phases. Epochs: steps, evaluations, residual.
    """
    wall = op_kinds = blocks = phases = 0.0
    e_wall = e_steps = e_eval = 0.0
    for spans in traced:
        self_t = self_times(spans)
        in_step = _ancestor_index(spans, "train.step")
        for i, (name, parent, start, end, attrs) in enumerate(spans):
            dur = end - start
            if name == "train.epoch":
                e_wall += dur
            elif parent >= 0 and spans[parent][0] == "train.epoch":
                if name == "train.step":
                    e_steps += dur
                elif name == "train.evaluate":
                    e_eval += dur
            if in_step[i] < 0:
                continue
            if name == "train.step":
                wall += dur
            if name.removesuffix(".bwd") in _OPS:
                op_kinds += self_t[i]
            if name.startswith("backbone.") and name != "backbone.Network.forward":
                blocks += dur
            elif name.endswith(".bwd") and attrs.get("block"):
                blocks += self_t[i]
            elif parent >= 0 and spans[parent][0] == "backbone.Network.forward":
                blocks += dur
            if parent == in_step[i] and any(name in v for v in STEP_PHASES.values()):
                phases += dur
    return {
        "step_wall_s": wall,
        "op_kinds_s": op_kinds, "op_kinds_residual_s": wall - op_kinds,
        "blocks_s": blocks, "blocks_residual_s": wall - blocks,
        "phases_s": phases, "phases_residual_s": wall - phases,
        "epoch_wall_s": e_wall, "epoch_steps_s": e_steps, "epoch_eval_s": e_eval,
        "epoch_residual_s": e_wall - e_steps - e_eval,
    }


_OPS = {"tensor.conv2d", "train.cross_entropy_loss"} | {
    n for names in OP_GROUPS.values() for n in names}
