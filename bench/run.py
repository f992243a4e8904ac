"""cev2 benchmark: one command, three workloads, end-to-end and per-layer.

Usage, from the repository root:

    python3 bench/run.py --workload train-nano --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from --seed, calls ``cev2.cli.main`` in
this process until --seconds of measured calls have passed, checks every
call's outputs and prints, as its last stdout line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With --trace 0 the
metrics are the end-to-end ones; with --trace 1, every other call is fully
traced and the metrics are the per-layer ones. Inputs and outputs live in
bench/_work (removed at exit); a detailed record of each run, with the
environment and, when traced, the spans, goes to bench/_results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap every BLAS thread variable at the CPUs this process may use.
    Must run before numpy is imported."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        n = int(value) if value.isdigit() and int(value) > 0 else ncpu
        os.environ[var] = str(min(n, ncpu))
    return ncpu


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over src/cev2/*.py, which identifies the code when the
    checkout is not a git work tree."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "cev2")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(ncpu: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": ncpu,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def load_spec() -> dict[str, dict[str, str]]:
    """Metric name -> unit, for the end_to_end and per_layer lists of
    BENCHMARK.json, which fixes what a run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def measure(wl, seconds: float, trace: bool):
    """Call the program until `seconds` of calls have passed (at least two
    calls). When tracing, even-numbered calls are fully traced and odd ones
    carry only the probes, so the overhead is measured in the same run.
    Returns the call summaries, the spans of the traced calls and the
    failures the output checks found."""
    from metrics import summarize_call
    from tracer import Tracer

    calls, traced, failures = [], [], []
    spent = 0.0
    while spent < seconds or len(calls) < 2:
        full = trace and len(calls) % 2 == 0
        tracer = Tracer(full).install()
        try:
            code, stdout = wl.run(wl.argv())
        finally:
            tracer.uninstall()
        failures += wl.check(code, stdout)
        summary = summarize_call(tracer.spans, wl.op_span)
        summary["traced"] = full
        calls.append(summary)
        spent += summary["call_s"]
        if full:
            traced.append(tracer.spans)
        if failures:
            break
    return calls, traced, failures


def named_metrics(wl, e2e: dict, calls: list[dict], error_rate: float) -> dict:
    """The end-to-end metrics under the names this workload gives them."""
    out = {wl.names.get(k, k): v for k, v in e2e.items()}
    epochs = [d for c in calls for d in c["epochs"]]
    if epochs:
        out["epoch_s"] = statistics.median(epochs)
    out["error_rate"] = error_rate
    return out


def report(record: dict) -> None:
    """Human-readable summary; the JSON result line follows it."""
    env = record["environment"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"calls={record['calls']} ops={record['attempted']} "
          f"tail=p{record['tail_percentile']:g}")
    print(f"# cpus={env['cpus_usable']} blas={env['blas']['version']} "
          f"threads={env['blas_threads']['OPENBLAS_NUM_THREADS']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"commit={env['git_commit'][:12]}")
    for failure in record["failures"]:
        print(f"# FAIL {failure}")
    for name, value in record["named"].items():
        print(f"{name:<36} {value:.6g}")
    for name, value in record.get("per_layer", {}).items():
        print(f"{name:<36} {value:.6g}")
    for name, value in record.get("accounting", {}).items():
        print(f"accounting.{name:<25} {value:.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cev2", "cli.py")):
        print(f"error: no cev2 sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    ncpu = cap_blas_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import cev2.cli
    from metrics import end_to_end, per_layer, accounting
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    wl = WORKLOADS[args.workload](workdir, args.seed, cev2.cli)
    try:
        failures = wl.prepare()
        calls, traced, more = measure(wl, args.seconds, bool(args.trace))
        failures += more
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(c["ops"]) for c in calls)
    failed = attempted if failures else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced = [c for c in calls if not c["traced"]]
    e2e = end_to_end(untraced or calls, wl.tail_q, wl.per_call_percentiles)
    e2e["peak_rss_mb"] = peak_rss_mb
    error_rate = failed / attempted if attempted else 1.0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": environment(ncpu),
        "calls": len(calls),
        "per_call": [{k: c[k] for k in ("call_s", "setup_s", "work_s", "images", "traced")}
                     for c in calls],
        "attempted": attempted, "failed": failed,
        "error_rate": error_rate,
        "failures": failures[:20],
        "tail_percentile": wl.tail_q,
        "end_to_end": e2e,
        "named": named_metrics(wl, e2e, calls, error_rate),
    }
    values = e2e
    if args.trace:
        values = per_layer(traced)
        values["trace.overhead_s"] = (
            statistics.median(c["call_s"] for c in calls if c["traced"])
            - statistics.median(c["call_s"] for c in untraced) if untraced else 0.0)
        record["per_layer"] = values
        record["accounting"] = accounting(traced)
        record["spans"] = traced
    units = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} are computed or listed "
              "in BENCHMARK.json but not both", file=sys.stderr)
        return 2
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    os.makedirs(os.path.join(HERE, "_results"), exist_ok=True)
    with open(os.path.join(HERE, "_results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    report(record)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
