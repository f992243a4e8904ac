"""Training loop, loss, optimizers, and the windowed run metrics.

Each epoch shuffles the train manifest with a stream derived from
(seed, epoch), optionally applies one sampled augmentation op per image,
runs forward/backward/step over mini-batches under a tape (batch norm on
batch statistics), then records accuracy and loss on both splits with no
tape (batch norm on its running stats), loading each image afresh at the
network's input size, as ``cev2 eval`` does. Final accuracy/loss are the
arithmetic means over the last `window` epoch records (exactly epochs 40..49
for the default 50/10). Each new best test accuracy rewrites best.cev2.

Everything is single-worker and seeded: identical config gives byte-identical
metrics files and checkpoints.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .augment import apply_augment, sample_augment
from .backbone import Network, build_network
from .config import AugmentConfig, TrainConfig, parse_network_config
from .data import (Split, batch_tensor, load_input, normalize, split_dataset,
                   write_manifest)
from .params import ParamStore, atomic_open, save_checkpoint
from .ppm import Raster, read_image
from .tensor import Tape, Tensor, backward, record_op

_EPOCH_STREAM = 202


@dataclass
class EpochRecord:
    epoch: int
    accuracy: float
    loss: float


@dataclass
class RunMetrics:
    records: list[EpochRecord]                 # test-split series
    train_records: list[EpochRecord]           # train-split series
    accuracy_avg: float
    loss_avg: float
    window: int = 10


def window_average(records: list[EpochRecord], window: int) -> tuple[float, float]:
    """Arithmetic means of the last `window` records; exactly-rounded sums so
    the result is order-independent within the window."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if len(records) < window:
        raise ValueError(f"need at least {window} records, got {len(records)}")
    tail = records[-window:]
    acc = math.fsum(r.accuracy for r in tail) / window
    loss = math.fsum(r.loss for r in tail) / window
    return acc, loss


def cross_entropy_loss(logits: Tensor, labels) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label], max-stabilized.
    logits are (N, K, 1, 1); labels an int sequence in [0, K)."""
    n, k, h, w = logits.shape
    if (h, w) != (1, 1):
        raise ValueError(f"logits must be (N, K, 1, 1), got {logits.shape}")
    lab = np.asarray(labels, dtype=np.int64).reshape(-1)
    if lab.size != n:
        raise ValueError(f"got {lab.size} labels for batch of {n}")
    if lab.size and (lab.min() < 0 or lab.max() >= k):
        raise ValueError(f"labels must lie in [0, {k}), got range "
                         f"[{lab.min()}, {lab.max()}]")
    z = logits.data.reshape(n, k)
    m = z.max(axis=1, keepdims=True)
    ex = np.exp(z - m)
    sumex = ex.sum(axis=1, keepdims=True)
    logprob = (z - m) - np.log(sumex)
    out = Tensor(np.full((1, 1, 1, 1), -logprob[np.arange(n), lab].mean()))

    def rule(g):
        gz = ex.reshape(n, k, 1, 1) / sumex.reshape(n, 1, 1, 1)
        gz[np.arange(n), lab] -= 1.0
        gz *= g.reshape(-1)[0] / n
        logits.accumulate_grad(gz)

    record_op(out, (logits,), rule)
    return out


class NonFiniteError(ValueError):
    """A train step produced a NaN or +-inf loss, or left one in a learnable
    parameter's gradient."""


def check_finite_grads(store: ParamStore, epoch: int, batch: int) -> None:
    """Raise NonFiniteError naming the first learnable parameter, in store
    order, whose gradient holds NaN or +-inf."""
    for name, t in store.learnable_items():
        if t.grad is not None and not np.isfinite(t.grad).all():
            raise NonFiniteError(
                f"non-finite gradient for parameter {name} at epoch {epoch}, batch {batch}")


class SGDMomentum:
    """v <- mu*v + g ; p <- p - lr*v."""

    def __init__(self, store: ParamStore, lr: float = 0.01, momentum: float = 0.9):
        self.store = store
        self.lr = lr
        self.momentum = momentum
        self.velocity = {name: np.zeros_like(t.data) for name, t in store.learnable_items()}

    def step(self) -> None:
        for name, t in self.store.learnable_items():
            v = self.velocity[name]
            v *= self.momentum
            if t.grad is not None:
                v += t.grad
            t.data -= self.lr * v


class Adam:
    """Bias-corrected Adam; epsilon added after the square root."""

    def __init__(self, store: ParamStore, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(t.data) for name, t in store.learnable_items()}
        self.v = {name: np.zeros_like(t.data) for name, t in store.learnable_items()}

    def step(self) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for name, t in self.store.learnable_items():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            t.data -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def make_optimizer(store: ParamStore, config: TrainConfig):
    if config.optimizer == "sgd-momentum":
        return SGDMomentum(store, lr=config.learning_rate, momentum=config.momentum)
    return Adam(store, lr=config.learning_rate, beta1=config.beta1,
                beta2=config.beta2, eps=config.adam_eps)


def evaluate(net: Network, root: str, entries: list[tuple[str, int]],
             batch_size: int) -> tuple[float, float]:
    """Accuracy and mean loss over a manifest; batch norm reads running stats.
    Each batch loads its images at the network's input size."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if not entries:
        return 0.0, 0.0
    correct = 0
    loss_sum = 0.0
    for start in range(0, len(entries), batch_size):
        chunk = entries[start:start + batch_size]
        xs = [load_input(os.path.join(root, rel), net.config.input_size) for rel, _ in chunk]
        labels = [lab for _, lab in chunk]
        logits = net.forward(batch_tensor(xs))
        z = logits.data.reshape(len(chunk), -1)
        correct += int((z.argmax(axis=1) == np.asarray(labels)).sum())
        loss_sum += cross_entropy_loss(logits, labels).item() * len(chunk)
    return correct / len(entries), loss_sum / len(entries)


def _raster_cache_get(cache: dict[str, Raster], root: str, rel: str) -> Raster:
    img = cache.get(rel)
    if img is None:
        img = read_image(os.path.join(root, rel))
        cache[rel] = img
    return img


def format_metrics(records: list[EpochRecord], acc_avg: float, loss_avg: float) -> str:
    lines = [f"{r.epoch}\t{r.accuracy!r}\t{r.loss!r}" for r in records]
    lines.append(f"accuracy_avg\t{acc_avg!r}")
    lines.append(f"loss_avg\t{loss_avg!r}")
    return "\n".join(lines) + "\n"


def train(config: TrainConfig, stop_at_train_acc: float | None = None
          ) -> tuple[RunMetrics, Split]:
    """Run the full loop; writes the manifests, then best.cev2 in each epoch
    that sets a new best test accuracy, then metrics.tsv and
    train_metrics.tsv after the last epoch, all under config.out_dir. A run
    that raises midway (NonFiniteError, KeyboardInterrupt) keeps the best
    checkpoint so far and writes no metrics. A split that leaves the test
    set empty raises ValueError before anything is written. After every
    epoch, ``evaluate`` loads both splits again from disk; only the train
    split's decoded rasters are kept, for augmentation.

    stop_at_train_acc, when set, ends training at the first epoch whose
    train-split accuracy reaches the threshold, provided at least `window`
    epochs have completed (so the windowed averages stay well defined).
    """
    net_config = parse_network_config(config.network)
    if net_config.input_size != config.resize_to:
        raise ValueError(
            f"resize_to {config.resize_to} does not match network input size "
            f"{net_config.input_size}")
    net, store = build_network(net_config, config.seed)
    split = split_dataset(config.dataset, config.split_frac, config.seed)
    if len(split.classes) != net_config.num_classes:
        raise ValueError(
            f"dataset has {len(split.classes)} classes, network expects "
            f"{net_config.num_classes}")
    if not split.test:
        raise ValueError(
            f"{config.dataset}: split = {config.split_frac!r} sends every image to train, "
            f"so there is no test split to evaluate or pick best.cev2 by")

    os.makedirs(config.out_dir, exist_ok=True)
    write_manifest(os.path.join(config.out_dir, "train_manifest.tsv"), split.train, split.classes)
    write_manifest(os.path.join(config.out_dir, "test_manifest.tsv"), split.test, split.classes)

    optimizer = make_optimizer(store, config)
    aug_config = AugmentConfig()
    raster_cache: dict[str, Raster] = {}

    records: list[EpochRecord] = []
    train_records: list[EpochRecord] = []
    best_acc = -1.0

    for epoch in range(config.epochs):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, _EPOCH_STREAM, epoch]))
        order = rng.permutation(len(split.train))
        for start in range(0, len(order), config.batch_size):
            idxs = order[start:start + config.batch_size]
            xs = []
            labels = []
            for i in idxs:
                rel, lab = split.train[i]
                img = _raster_cache_get(raster_cache, config.dataset, rel)
                if config.augment:
                    op, op_params = sample_augment(rng, aug_config, img.width, img.height)
                    img = apply_augment(img, op, op_params)
                xs.append(normalize(img, config.resize_to))
                labels.append(lab)
            store.zero_grads()
            tape = Tape()
            with tape:
                logits = net.forward(batch_tensor(xs))
                loss = cross_entropy_loss(logits, labels)
            value = loss.item()
            batch = start // config.batch_size
            if not np.isfinite(value):
                raise NonFiniteError(f"non-finite loss {value} at epoch {epoch}, batch {batch}")
            backward(tape, loss)
            check_finite_grads(store, epoch, batch)
            optimizer.step()

        tr_acc, tr_loss = evaluate(net, config.dataset, split.train, config.batch_size)
        te_acc, te_loss = evaluate(net, config.dataset, split.test, config.batch_size)
        train_records.append(EpochRecord(epoch, tr_acc, tr_loss))
        records.append(EpochRecord(epoch, te_acc, te_loss))
        if te_acc > best_acc:
            best_acc = te_acc
            save_checkpoint(os.path.join(config.out_dir, "best.cev2"), store)
        if (stop_at_train_acc is not None and tr_acc >= stop_at_train_acc
                and len(records) >= config.window):
            break

    acc_avg, loss_avg = window_average(records, config.window)
    tr_acc_avg, tr_loss_avg = window_average(train_records, config.window)

    with atomic_open(os.path.join(config.out_dir, "metrics.tsv"), encoding="utf-8") as fh:
        fh.write(format_metrics(records, acc_avg, loss_avg))
    with atomic_open(os.path.join(config.out_dir, "train_metrics.tsv"), encoding="utf-8") as fh:
        fh.write(format_metrics(train_records, tr_acc_avg, tr_loss_avg))

    return RunMetrics(records=records, train_records=train_records,
                      accuracy_avg=acc_avg, loss_avg=loss_avg,
                      window=config.window), split
