"""The three benchmark workloads, their generated inputs and output checks.

Every workload drives the public entry point ``cev2.cli.main`` with the
arguments a user would type. ``prepare`` writes the inputs (not timed);
``argv`` is the command each measured call runs; ``check`` inspects one
call's outputs and returns the failures it found.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
# fixed inputs of the reference case: their outputs are pinned in reference.json
CANARY_SEED = 20250327
# header without comments, as both cev2 and gen.py write it
_NETPBM = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s")


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _stdout_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def netpbm_size(blob: bytes) -> tuple[int, int]:
    """(width, height) of a binary P5/P6 image whose payload is complete."""
    head = _NETPBM.match(blob)
    if head is None:
        raise ValueError("not a binary netpbm file")
    width, height, maxval = (int(v) for v in head.groups()[1:])
    channels = 3 if head.group(1) == b"P6" else 1
    if maxval != 255 or len(blob) - head.end() != width * height * channels:
        raise ValueError(f"payload does not match {width}x{height}")
    return width, height


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


class Workload:
    """Base: a generated input tree under workdir and one CLI command."""

    name = ""
    op_span = ""        # synthetic span that is one operation
    tail_q = 50.0       # tail percentile, see README.md
    per_call_percentiles = False  # op percentiles per call, median over calls
    names: dict[str, str] = {}  # end-to-end metric -> this workload's name for it

    def __init__(self, workdir: str, seed: int, cli):
        self.workdir = workdir
        self.seed = seed
        self.cli = cli
        self.network = os.path.join(os.path.dirname(HERE), "configs", "nano.cfg")
        self.first: object = None

    def run(self, argv: list[str]) -> tuple[int, str]:
        """One call of the program; returns (exit code, captured stdout)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def canary(self) -> list[str]:
        """Train and evaluate on the fixed reference inputs and compare with
        reference.json. Returns failures; leaves the checkpoint at
        self.canary_ckpt for workloads that evaluate it."""
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)
        root = os.path.join(self.workdir, "canary")
        data = os.path.join(root, "data")
        gen.make_dataset(data, CANARY_SEED, 4, 5, [(64, 64), (80, 72)], gray_every=5)
        cfg = self._train_cfg(root, data, CANARY_SEED)
        failures = []
        code, out = self.run(["train", cfg])
        got = _stdout_values(out)
        if code != 0:
            return [f"canary train exited {code}"]
        for key in ("accuracy_avg", "loss_avg"):
            if not _close(float(got[key]), ref["train"][key], ref["train_rel_tol"]):
                failures.append(f"canary train {key} {got[key]} != reference "
                                f"{ref['train'][key]!r}")
        self.canary_ckpt = os.path.join(root, "out", "best.cev2")
        code, out = self.run(["eval", self.canary_ckpt, data, "--network", self.network,
                              "--batch", "64"])
        got = _stdout_values(out)
        if code != 0:
            return failures + [f"canary eval exited {code}"]
        for key in ("accuracy", "loss"):
            if not _close(float(got[key]), ref["eval"][key], ref["eval_rel_tol"]):
                failures.append(f"canary eval {key} {got[key]} != reference "
                                f"{ref['eval'][key]!r}")
        return failures

    def _train_cfg(self, root: str, data: str, seed: int) -> str:
        """Two epochs, so the second epoch's eval reads from the eval cache."""
        path = os.path.join(root, "train.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"network = {self.network}\ndataset = {data}\nepochs = 2\n"
                     f"window = 2\nbatch_size = 16\noptimizer = sgd-momentum\n"
                     f"augment = true\nseed = {seed}\nresize = 64\n"
                     f"out = {os.path.join(root, 'out')}\n")
        return path

    def _same_as_first(self, fingerprint) -> list[str]:
        if self.first is None:
            self.first = fingerprint
            return []
        if fingerprint != self.first:
            return [f"{self.name}: outputs differ from the first call with the same seed"]
        return []


class TrainNano(Workload):
    name = "train-nano"
    op_span = "train.step"
    tail_q = 75.0
    names = {"call_s": "train_run_s", "images_per_s": "train_images_per_s",
             "op_s.p50": "step_s.p50", "op_s.tail": "step_s.tail"}

    def prepare(self) -> list[str]:
        failures = self.canary()
        data = os.path.join(self.workdir, "data")
        gen.make_dataset(data, self.seed, 4, 20, [(64, 64)], gray_every=5)
        self.cfg = self._train_cfg(self.workdir, data, self.seed)
        self.out = os.path.join(self.workdir, "out")
        return failures

    def argv(self) -> list[str]:
        return ["train", self.cfg]

    def check(self, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"train exited {code}"]
        metrics = os.path.join(self.out, "metrics.tsv")
        ckpt = os.path.join(self.out, "best.cev2")
        if not (os.path.isfile(metrics) and os.path.isfile(ckpt)):
            return ["train: metrics.tsv or best.cev2 missing"]
        with open(metrics, encoding="utf-8") as fh:
            losses = [float(line.split("\t")[2]) for line in fh
                      if line[0].isdigit()]
        failures = []
        loss_avg = float(_stdout_values(stdout)["loss_avg"])
        if not losses or not all(math.isfinite(v) for v in losses + [loss_avg]):
            failures.append("train: non-finite loss")
        return failures + self._same_as_first((_digest(metrics), _digest(ckpt)))


class EvalNano(Workload):
    name = "eval-nano"
    op_span = "train.eval_batch"
    tail_q = 70.0
    names = {"call_s": "eval_run_s", "images_per_s": "eval_images_per_s",
             "op_s.p50": "eval_batch_s.p50", "op_s.tail": "eval_batch_s.tail"}
    images = 4 * 48

    def prepare(self) -> list[str]:
        failures = self.canary()
        self.data = os.path.join(self.workdir, "data")
        gen.make_dataset(self.data, self.seed, 4, self.images // 4,
                         [(80, 80), (96, 72), (72, 96), (100, 100)], gray_every=4)
        return failures

    def argv(self) -> list[str]:
        return ["eval", self.canary_ckpt, self.data, "--network", self.network,
                "--batch", "64"]

    def check(self, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"eval exited {code}"]
        got = _stdout_values(stdout)
        failures = []
        if int(got["images"]) != self.images:
            failures.append(f"eval: {got['images']} images, expected {self.images}")
        acc, loss = float(got["accuracy"]), float(got["loss"])
        if not (0.0 <= acc <= 1.0 and math.isfinite(loss)):
            failures.append(f"eval: accuracy {acc} or loss {loss} out of range")
        return failures + self._same_as_first(stdout)


class AugmentExpand(Workload):
    name = "augment-expand"
    op_span = "augment.image"
    # one call writes 192 images, so p95 leaves ten beyond it in every call,
    # and a median over calls is steadier than a percentile of the pooled run
    tail_q = 95.0
    per_call_percentiles = True
    names = {"call_s": "augment_run_s", "images_per_s": "augment_images_per_s",
             "op_s.p50": "image_s.p50", "op_s.tail": "image_s.tail"}
    classes = 4
    per_class_new = 48

    def prepare(self) -> list[str]:
        self.data = os.path.join(self.workdir, "data")
        gen.make_dataset(self.data, self.seed, self.classes, 12,
                         [(192, 128), (160, 224), (240, 180)], gray_every=3)
        self.sizes: dict[str, tuple[int, int]] = {}
        self.cfg = os.path.join(self.workdir, "augment.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(f"per_class_new = {self.per_class_new}\n")
        # one untimed call, so the measured calls all overwrite existing files
        code, stdout = self.run(self.argv())
        return self.check(code, stdout)

    def source_size(self, rel: str) -> tuple[int, int]:
        if rel not in self.sizes:
            with open(os.path.join(self.data, rel), "rb") as fh:
                self.sizes[rel] = netpbm_size(fh.read())
        return self.sizes[rel]

    def argv(self) -> list[str]:
        # no --seed: the program's default op sampler seed, so every workload
        # seed runs the same op mix and only the source images change
        return ["augment", self.data, self.cfg]

    def check(self, code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"augment exited {code}"]
        manifest = os.path.join(self.data, "augment_manifest.tsv")
        with open(manifest, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        want = self.classes * self.per_class_new
        failures = []
        if len(lines) != want or any(line.startswith("#") for line in lines):
            failures.append(f"augment: manifest has {len(lines)} lines, expected {want}")
        digests = []
        for line in lines:
            if line.startswith("#"):
                continue
            new, src = line.split("\t")[:2]
            try:
                with open(os.path.join(self.data, new), "rb") as fh:
                    blob = fh.read()
                if netpbm_size(blob) != self.source_size(src):
                    failures.append(f"augment: {new} size differs from {src}")
            except (ValueError, OSError) as exc:
                failures.append(f"augment: {new}: {exc}")
                continue
            digests.append(hashlib.sha256(blob).digest())
        return failures + self._same_as_first((_digest(manifest), tuple(digests)))


WORKLOADS = {w.name: w for w in (TrainNano, EvalNano, AugmentExpand)}

