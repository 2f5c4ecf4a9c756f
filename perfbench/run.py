"""Benchmark of the `rga` library and CLI.

    python3 perfbench/run.py --workload n2-elements --seed 1 --seconds 28 --trace 0

Runs one workload on inputs made from the seed, checks every output, and
prints one JSON object as the last line of stdout: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are the end-to-end
ones (set-up time, throughput, median operation time, peak memory); with
`--trace 1` they are per-layer counts and self times from a run in which
every public `rga` function is wrapped.  Run it from the repository root;
it imports `rga` from `src/`.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

sys.path.insert(0, HERE)

from harness import (LAYERS, Tally, Tracer, load_rga,  # noqa: E402
                     peak_rss_mb, run_op, run_rounds, slowness,
                     tail_percentiles)
import workloads  # noqa: E402

SETUP_REPEATS = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(workload, seed, workdir):
    """Import rga, build the workload's systems and inputs; several times.

    Returns (modules, rounds, median seconds, slowness).  Each repetition
    imports `rga` afresh, so the median covers import, construction and
    input generation; the objects of the last repetition are the ones
    measured.
    """
    before = slowness()
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        mods = load_rga()
        ctx = {"workdir": workdir}
        if workload == "cli-reports":
            ctx["snapshots"] = workloads.read_snapshots(ROOT)
        raw = workloads.generate(workload, seed)
        rounds = workloads.SETUPS[workload](mods, raw, ctx)
        times.append(time.perf_counter() - t0)
    # the inputs live for the whole run: keep them out of the collector's
    # full passes, whose cost would otherwise grow with the input pool
    gc.collect()
    gc.freeze()
    return (mods, rounds, statistics.median(times),
            (before + slowness()) / 2)


def end_to_end(rounds, seconds, setup_s, setup_slowness):
    """Times at reference speed: each measured time divided by the
    machine's slowness when it was taken, throughput multiplied by it.

    The speed of a shared machine drifts, by up to 1.8x between runs a
    few minutes apart; dividing by a reference timed alongside removes
    most of that drift.  Throughput and median operation time are then
    medians over rounds.
    """
    per_round = run_rounds(rounds, seconds)
    tally = Tally()
    for t in per_round:
        tally.merge(t)
    tails = tail_percentiles(tally.times)
    slow = statistics.median(t.slowness for t in per_round)
    print(f"rounds={len(per_round)} ops={tally.attempted} "
          f"failed={tally.failed} busy_s={sum(tally.times):.3f} "
          f"slowness={slow:.3f} setup_slowness={setup_slowness:.3f}")
    print("wall clock: setup_s={:.4f} ".format(setup_s) + " ".join(
        f"{k}_ms={v * 1e3:.4f}" for k, v in tails.items()))
    metrics = {
        "setup_s": (setup_s / setup_slowness, "s"),
        "ops_per_s": (statistics.median(
            t.completed / sum(t.times) * t.slowness for t in per_round),
            "ops/s"),
        "op_p50_ms": (statistics.median(
            statistics.median(t.times) / t.slowness for t in per_round)
            * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return tally, metrics


# per-layer metric -> span names whose calls it counts
CALL_METRICS = {
    "scalar.mul.calls": ("scalar.Scalar.__mul__", "scalar.Scalar.__rmul__"),
    "scalar.inverse.calls": ("scalar.Scalar.inverse",),
    "rewrite.normal_form.calls": ("rewrite.RewriteSystem.normal_form",),
    "linalg.rref.calls": ("linalg.Matrix.rref",),
    "linalg.inverse.calls": ("linalg.Matrix.inverse",),
    "linalg.matmul.calls": ("linalg.Matrix.__mul__",),
    "algebra.mul.calls": ("algebra.mul",),
    "algebra.element_new.calls": ("algebra.Element.__init__",),
    "wick.psi_apply.calls": ("wick.CrossSymmetry.apply",),
}
CALLS_OF = tuple(layer for layer in LAYERS if layer != "reports")
EXTRA_METRICS = {
    "scalar.max_bits": "bits",
    "rewrite.letters_in": "count",
    "rewrite.letters_removed": "count",
    "rewrite.enumerated_words": "count",
    "linalg.rref.max_dim": "count",
    "category.base_change_maps": "count",
}


def traced(mods, rounds, seconds, workload):
    """Alternate an untraced and a traced pass over round 0.

    Counts come from the first traced pass, so they repeat exactly for a
    seed; self times and the tracing overhead are medians over the pairs.
    """
    tracer = Tracer(mods)
    ops = rounds(0)
    tally = Tally()
    first = None
    selfs, overheads = [], []
    start = time.perf_counter()
    while True:
        plain = Tally()
        for op in ops:
            run_op(op, plain)
        tracer.install()
        try:
            traced_pass = Tally()
            for op in ops:
                run_op(op, traced_pass, tracer)
        finally:
            tracer.uninstall()
        for t in (plain, traced_pass):
            tally.merge(t)
        overheads.append(sum(traced_pass.times) - sum(plain.times))
        selfs.append(dict(tracer.layer_self))
        if first is None:
            first = (dict(tracer.counts), dict(tracer.extra))
        tracer.reset()
        if time.perf_counter() - start >= seconds:
            break
    print(f"trace pairs={len(overheads)} ops_per_pass={len(ops)}")
    tracer.dump(os.path.join(WORK, f"spans-{workload}.jsonl"))

    counts, extra = first
    layer_calls = {}
    for name, c in counts.items():
        layer = name.split(".", 1)[0]
        layer_calls[layer] = layer_calls.get(layer, 0) + c
    metrics = {}
    for layer in CALLS_OF:
        metrics[f"{layer}.calls"] = (layer_calls.get(layer, 0), "count")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (
            statistics.median(s.get(layer, 0.0) for s in selfs), "s")
    for metric, names in CALL_METRICS.items():
        metrics[metric] = (sum(counts.get(n, 0) for n in names), "count")
    for metric, unit in EXTRA_METRICS.items():
        metrics[metric] = (extra.get(metric, 0), unit)
    apply_calls = metrics["wick.psi_apply.calls"][0]
    distinct = extra.get("wick.psi_apply.distinct", 0)
    metrics["wick.psi_apply.hit_ratio"] = (
        1 - distinct / apply_calls if apply_calls else 0.0, "ratio")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return tally, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rga", "__init__.py")):
        print(f"error: no rga package under {SRC}; run from a checkout of "
              "the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}.", dir=WORK)
    try:
        mods, rounds, setup_s, setup_slowness = set_up(
            args.workload, args.seed, workdir)
        if os.path.dirname(os.path.abspath(mods["rga"].__file__)) \
                != os.path.join(SRC, "rga"):
            print(f"error: imported rga from {mods['rga'].__file__}",
                  file=sys.stderr)
            return 2
        if args.trace:
            tally, metrics = traced(mods, rounds, args.seconds, args.workload)
        else:
            tally, metrics = end_to_end(rounds, args.seconds, setup_s,
                                        setup_slowness)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for label, k in sorted(tally.failures.items()):
        print(f"failed x{k}: {label}")
    for message in tally.incorrect[:10]:
        print(f"incorrect: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
