"""Command-line entry point.

Subcommands: train, eval, augment, gradcheck, params, split. Exit codes:
0 success, 1 failure (including a failed gradcheck), 2 usage errors (argparse
default).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .attention import CEParams, SEParams
from .augment import expand_dataset
from .backbone import Network, stage_blocks
from .config import (AugmentConfig, TrainConfig, parse_augment_config,
                     parse_network_config, parse_train_config)
from .data import list_classes, list_images, manifest_classes, split_dataset, write_manifest
from .gradcheck import GROUPS, run_gradcheck
from .params import ParamStore, load_into
from .safm import SAFMParams
from .train import evaluate, train


def _cmd_train(args) -> int:
    config = parse_train_config(args.config)
    metrics, split = train(config)
    for warning in split.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"epochs run: {len(metrics.records)}")
    print(f"accuracy_avg: {metrics.accuracy_avg!r}")
    print(f"loss_avg: {metrics.loss_avg!r}")
    print(f"outputs in: {config.out_dir}")
    return 0


def _cmd_eval(args) -> int:
    net_config = parse_network_config(args.network)
    store = ParamStore()
    net = Network(net_config, store)
    load_into(args.checkpoint, store)
    classes = list_classes(args.dataset)
    if len(classes) != net_config.num_classes:
        raise ValueError(f"dataset has {len(classes)} classes, network expects "
                         f"{net_config.num_classes}")
    manifest = os.path.join(os.path.dirname(args.checkpoint), "train_manifest.tsv")
    trained = manifest_classes(manifest) if os.path.exists(manifest) else classes
    if trained != classes:
        raise ValueError(f"{manifest}: trained on classes {trained}, dataset has {classes}")
    entries = [(f"{cls}/{name}", idx)
               for idx, cls in enumerate(classes)
               for name in list_images(os.path.join(args.dataset, cls))]
    if not entries:
        raise ValueError(f"{args.dataset}: no images in any class directory")
    acc, loss = evaluate(net, args.dataset, entries, args.batch)
    print(f"images: {len(entries)}")
    print(f"accuracy: {acc!r}")
    print(f"loss: {loss!r}")
    return 0


def _cmd_augment(args) -> int:
    config = parse_augment_config(args.config) if args.config else AugmentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    manifest, lines = expand_dataset(args.dataset, config)
    written = sum(1 for ln in lines if not ln.startswith("#"))
    print(f"wrote {written} files")
    print(f"manifest: {manifest}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradcheck(args.module)
    failed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: max rel err {r.max_err:.3e} "
              f"(tol {r.tol:.0e}, {r.seconds:.2f}s)")
        failed += 0 if r.passed else 1
    # np.max keeps a NaN where the builtin max drops it
    worst = np.max([r.max_err for r in results], initial=0.0)
    print(f"max relative error: {worst:.3e}; {len(results) - failed}/{len(results)} passed")
    return 0 if failed == 0 else 1


def _registered(params_cls, *args) -> int:
    """Learnable scalars that params_cls(store, path, *args) registers."""
    store = ParamStore()
    params_cls(store, "x", *args)
    return store.count_learnable()


def _cmd_params(args) -> int:
    net_config = parse_network_config(args.config)
    store = ParamStore()
    Network(net_config, store)
    groups: dict[str, int] = {}
    for name, tensor in store.items():
        if not store.is_learnable(name):
            continue
        comps = name.split(".")
        block = comps[0] if comps[0] in ("stem", "head", "classifier") else ".".join(comps[:2])
        groups[block] = groups.get(block, 0) + tensor.numel
    width = max(len(b) for b in groups)
    for block, n in groups.items():
        print(f"{block:<{width}}  {n}")
    total = store.count_learnable()
    print(f"{'total':<{width}}  {total}")

    for i, j, st, cin, _ in stage_blocks(net_config):
        if st.attention != "none":
            mid = cin * st.expansion
            ce = _registered(CEParams, mid)
            try:
                se = _registered(SEParams, mid, net_config.se_ratio)
            except ValueError as exc:
                print(f"s{i}.r{j} attention C={mid}: ce {ce} vs se not defined ({exc})")
            else:
                print(f"s{i}.r{j} attention C={mid}: ce {ce} vs se {se} (delta {ce - se:+d})")
        if st.safm_after and j == st.repeats - 1:
            dp = _registered(SAFMParams, st.out_channels, "depthwise-separable")
            std = _registered(SAFMParams, st.out_channels, "standard")
            print(f"s{i}.safm C={st.out_channels}: depthwise-separable {dp} "
                  f"vs standard {std} ({100.0 * (1 - dp / std):.1f}% reduction)")
    return 0


def _cmd_split(args) -> int:
    split = split_dataset(args.dataset, args.frac, args.seed)
    out_dir = args.out or args.dataset
    os.makedirs(out_dir, exist_ok=True)
    train_path = os.path.join(out_dir, "train_manifest.tsv")
    test_path = os.path.join(out_dir, "test_manifest.tsv")
    write_manifest(train_path, split.train, split.classes)
    write_manifest(test_path, split.test, split.classes)
    for warning in split.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"train: {len(split.train)} files -> {train_path}")
    print(f"test: {len(split.test)} files -> {test_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cev2",
        description="Channel-efficient EfficientNetV2 toolkit: train, evaluate, "
                    "augment, and verify.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop from a config file")
    p_train.add_argument("config", help="train config (key = value lines)")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset directory")
    p_eval.add_argument("checkpoint")
    p_eval.add_argument("dataset")
    p_eval.add_argument("--network", required=True, help="network config the checkpoint matches")
    p_eval.add_argument("--batch", type=int, default=16)
    p_eval.set_defaults(fn=_cmd_eval)

    p_aug = sub.add_parser("augment", help="expand a dataset with augmented images")
    p_aug.add_argument("dataset")
    p_aug.add_argument("config", nargs="?", help="augment config; defaults used if omitted")
    p_aug.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_aug.set_defaults(fn=_cmd_augment)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p_grad.add_argument("--module", default="all", choices=("all",) + GROUPS)
    p_grad.set_defaults(fn=_cmd_gradcheck)

    p_params = sub.add_parser("params", help="per-block and total parameter counts")
    p_params.add_argument("config", help="network config file")
    p_params.set_defaults(fn=_cmd_params)

    p_split = sub.add_parser("split", help="write train/test manifests for a dataset")
    p_split.add_argument("dataset")
    p_split.add_argument("--frac", type=float, default=0.8)
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--out", default=None, help="manifest directory (default: dataset root)")
    p_split.set_defaults(fn=_cmd_split)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
