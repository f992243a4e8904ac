"""Check that the working tree gives the same numbers as a git revision.

    python tools/same_numbers.py --base REV

REV is checked out as a git worktree in a temporary directory, and removed
again afterwards. One dataset is generated with bench/gen.py (4 classes x 10
images at 64x64 and 80x72, every fifth a P5 file) and made read-only. Then,
for REV and for the working tree, each step in a fresh process that imports
that tree's src/:
- a seeded 3-epoch train of configs/nano.cfg (batch 8, augment on) for each
  attention kind (ce, se), each SAFM mode (depthwise-separable, standard)
  and OPENBLAS_NUM_THREADS 1 and 2, followed by `cev2 eval` of its
  best.cev2;
- run_gradcheck(), once.

It prints one line per output: `identical`, or what differs - the largest
absolute difference per checkpoint entry, the changed lines of a text
output, or the gradcheck error pairs that differ. It exits 0 only when every
output is identical.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cev2.params import load_checkpoint  # noqa: E402

SEED = 7
ATTENTION = ("ce", "se")
SAFM_MODES = ("depthwise-separable", "standard")
THREADS = (1, 2)
RUN_FILES = ("metrics.tsv", "train_metrics.tsv", "best.cev2", "train_manifest.tsv",
             "test_manifest.tsv")
# entries of a differing checkpoint that a report line names, largest first
SHOWN = 5
_GRADCHECK = ("import json; from cev2.gradcheck import run_gradcheck; "
              "print(json.dumps([[r.name, r.max_err] for r in run_gradcheck()]))")


def checkpoint_report(path_a: str, path_b: str) -> str:
    """`identical`, or the entries of two checkpoints that differ, each with
    its largest absolute difference."""
    a, b = load_checkpoint(path_a), load_checkpoint(path_b)
    if [(k, v.shape) for k, v in a.items()] != [(k, v.shape) for k, v in b.items()]:
        return "entry names or shapes differ"
    diffs = sorted(((float(abs(a[k] - b[k]).max()), k) for k in a
                    if a[k].tobytes() != b[k].tobytes()), reverse=True)
    if not diffs:
        return "identical"
    shown = ", ".join(f"{k} {d:.3g}" for d, k in diffs[:SHOWN])
    more = f", +{len(diffs) - SHOWN} more" if len(diffs) > SHOWN else ""
    return f"{len(diffs)} of {len(a)} entries differ, largest |diff|: {shown}{more}"


def lines_report(text_a: str, text_b: str) -> str:
    """`identical`, or the lines of two texts that differ."""
    if text_a == text_b:
        return "identical"
    a, b = text_a.splitlines(), text_b.splitlines()
    changed = [f"line {i + 1}: {x!r} -> {y!r}" for i, (x, y) in enumerate(zip(a, b)) if x != y]
    if len(a) != len(b):
        changed.append(f"{len(a)} lines -> {len(b)}")
    return "; ".join(changed)


def gradcheck_report(errs_a: list, errs_b: list) -> str:
    """`identical`, or the (check, error) pairs that differ."""
    if [n for n, _ in errs_a] != [n for n, _ in errs_b]:
        return "check names differ"
    changed = [f"{n}: {x!r} -> {y!r}" for (n, x), (_, y) in zip(errs_a, errs_b)
               if repr(x) != repr(y)]
    return "; ".join(changed) or "identical"


def _run(tree: str, args: list[str], cwd: str, threads: int = 1) -> str:
    """stdout of `python args` in a fresh process importing tree's src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS=str(threads))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _make_dataset(data: str) -> None:
    spec = importlib.util.spec_from_file_location("gen", os.path.join(ROOT, "bench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.make_dataset(data, SEED, 4, 10, [(64, 64), (80, 72)], gray_every=5)
    _set_writable(data, False)


def _set_writable(root: str, writable: bool) -> None:
    for dirpath, _, files in os.walk(root):
        os.chmod(dirpath, 0o755 if writable else 0o555)
        for name in files:
            os.chmod(os.path.join(dirpath, name), 0o644 if writable else 0o444)


def run_tree(tree: str, work: str, data: str) -> dict[str, object]:
    """Every output of the recipe for one tree, keyed by its report name."""
    with open(os.path.join(ROOT, "configs", "nano.cfg"), encoding="utf-8") as fh:
        nano = fh.read()
    outputs: dict[str, object] = {}
    for attn in ATTENTION:
        for mode in SAFM_MODES:
            net = os.path.join(work, f"{attn}-{mode}.cfg")
            with open(net, "w", encoding="utf-8") as fh:
                fh.write(nano.replace("attn=ce", f"attn={attn}") + f"safm.mode = {mode}\n")
            for threads in THREADS:
                run = f"{attn} {mode} threads={threads}"
                out = os.path.join(work, run.replace(" ", "_"))
                cfg = out + ".cfg"
                with open(cfg, "w", encoding="utf-8") as fh:
                    fh.write(f"network = {net}\ndataset = {data}\nepochs = 3\nwindow = 3\n"
                             f"batch_size = 8\naugment = true\nseed = {SEED}\nout = {out}\n")
                _run(tree, ["-m", "cev2.cli", "train", cfg], work, threads)
                for name in RUN_FILES:
                    outputs[f"{run} {name}"] = os.path.join(out, name)
                outputs[f"{run} eval stdout"] = _run(
                    tree, ["-m", "cev2.cli", "eval", os.path.join(out, "best.cev2"), data,
                           "--network", net], work, threads)
    outputs["gradcheck errors"] = json.loads(_run(tree, ["-c", _GRADCHECK], work))
    return outputs


def report(key: str, a: object, b: object) -> str:
    if key.endswith(".cev2"):
        return checkpoint_report(a, b)
    if key == "gradcheck errors":
        return gradcheck_report(a, b)
    if key.endswith("stdout"):
        return lines_report(a, b)
    with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
        return lines_report(fa.read(), fb.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-numbers-") as tmp:
        base = os.path.join(tmp, "base")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--quiet", "--detach", base,
                        args.base], check=True)
        data = os.path.join(tmp, "data")
        try:
            _make_dataset(data)
            trees = {}
            for name, tree in (("base", base), ("work", ROOT)):
                os.makedirs(os.path.join(tmp, name + "-runs"))
                trees[name] = run_tree(tree, os.path.join(tmp, name + "-runs"), data)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", base],
                           check=True)
            _set_writable(data, True)
        lines = [(key, report(key, trees["base"][key], trees["work"][key]))
                 for key in trees["base"]]
    for key, line in lines:
        print(f"{key}: {line}")
    return 0 if all(line == "identical" for _, line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
