"""One benchmark process: either one set-up sample or one measuring process.

Started by run.py with the BLAS thread variables already in its
environment, so numpy reads them when it loads. Writes one JSON object to
--result and nothing else that run.py parses.

    python perfbench/child.py --role setup|measure --workload NAME --seed N
        --trace 0|1 --work DIR --result FILE [--seconds S] [--reference]
        [--first KIND] [--spans-out FILE] [--tiny]
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402,F401  (timed as part of set-up)

import fairclust  # noqa: E402,F401

T_IMPORTED = time.perf_counter()

import spans  # noqa: E402  (this directory is sys.path[0])
import workloads  # noqa: E402

# Data-layer spans are measured in the set-up processes; everything else in
# the measuring processes.
SETUP_SPANS = ("data.synth_blobs", "data.normalize", "data.save_csv")


def setup_role(args, cfg):
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    workloads.setup(args.workload, cfg, args.seed, Path(args.work))
    t1 = time.perf_counter()
    out = {"setup_s": (T_IMPORTED - T_START) + (t1 - t0), "import_s": T_IMPORTED - T_START}
    if tracer:
        tracer.uninstall()
        totals = spans.span_totals(tracer.spans)
        out["layers"] = {f"{name}.s": totals.get(name, {}).get("s", 0.0) for name in SETUP_SPANS}
    if args.reference:
        workloads.write_reference(args.workload, cfg, Path(args.work))
    return out


def _layer_metrics(tracer, planned_steps, epochs_run):
    totals = spans.span_totals(tracer.spans)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    refresh = spans.refresh_spans(tracer.spans)
    out = {
        "nn.forward.calls": get("nn.forward", "calls"),
        "nn.forward.self_s": get("nn.forward", "self_s"),
        "nn.forward.gflop": get("nn.forward", "counter") / 1e9,
        "nn.backward.calls": get("nn.backward", "calls"),
        "nn.backward.self_s": get("nn.backward", "self_s"),
        "nn.backward.gflop": get("nn.backward", "counter") / 1e9,
        "nn.sgd_step.calls": get("nn.sgd_step", "calls"),
        "nn.sgd_step.self_s": get("nn.sgd_step", "self_s"),
        "nn.sgd_step.mb": get("nn.sgd_step", "counter") / 1e6,
        "nn.clip_gradients.calls": get("nn.clip_gradients", "calls"),
        "nn.clip_gradients.self_s": get("nn.clip_gradients", "self_s"),
        "autoencoder.pretrain.self_s": get("autoencoder.pretrain", "self_s"),
        "autoencoder.sgd_step_ratio": (spans.pretrain_sgd_steps(tracer.spans) / planned_steps
                                       if planned_steps else 0.0),
        "model.refresh.s": sum(s.duration for s in refresh),
        "model.fair_objective.calls": get("model.fair_objective", "calls"),
        "model.fair_objective.self_s": get("model.fair_objective", "self_s"),
        "model.train.self_s": get("model.train", "self_s"),
        "model.init_centroids.self_s": get("model.init_centroids", "self_s"),
        "model.epochs_run": epochs_run,
        "model.batch_centroids.calls": get("model.batch_centroids", "calls"),
        "model.batch_centroids.self_s": get("model.batch_centroids", "self_s"),
        "clustering.kmeans_pp_init.self_s": get("clustering.kmeans_pp_init", "self_s"),
        "clustering.lloyd.self_s": get("clustering.lloyd", "self_s"),
        "clustering.hungarian_match.self_s": get("clustering.hungarian_match", "self_s"),
        "metrics.report_from_assignments.calls": get("metrics.report_from_assignments", "calls"),
        "metrics.report_from_assignments.self_s": get("metrics.report_from_assignments", "self_s"),
        "data.load_csv.s": get("data.load_csv", "s"),
        "model.load_model.s": get("model.load_model", "s"),
        "cli.eval.self_s": get("cli.eval", "self_s"),
    }
    return out


def _memory_metrics(tracer):
    totals = spans.span_totals(tracer.spans)
    refresh = spans.refresh_spans(tracer.spans)
    return {
        "autoencoder.pretrain.peak_mb": totals.get("autoencoder.pretrain", {}).get("peak_bytes", 0) / 1e6,
        "model.refresh.peak_mb": max((s.peak_bytes for s in refresh), default=0) / 1e6,
        "data.load_csv.mb": totals.get("data.load_csv", {}).get("peak_bytes", 0) / 1e6,
    }


def measure_role(args, cfg):
    work = Path(args.work)
    inputs = workloads.measure_inputs(args.workload, cfg, args.seed, work)
    checks = workloads.Checks()
    planned = workloads.planned_pretrain_steps(cfg) if "ae" in cfg else 0
    # Repetition kinds: plain (end-to-end figures), traced (span timings) and
    # memory (tracemalloc peaks). After the first, a traced run alternates
    # plain and traced; an untraced run is all plain.
    kind = args.first
    reps = {"plain": [], "traced": [], "memory": []}
    fingerprint = None
    start = time.perf_counter()
    i = 0
    while True:
        tracer = spans.Tracer(memory=(kind == "memory")) if kind != "plain" else None
        if tracer:
            tracer.install()
        try:
            times, quality, fp = workloads.run_rep(args.workload, cfg, args.seed, inputs, work,
                                                   checks, time.perf_counter)
        finally:
            if tracer:
                tracer.uninstall()
        if fingerprint is None:
            fingerprint = fp
        else:
            checks("repeat_bit_identical", fp == fingerprint)
        record = {"times": times, "quality": quality}
        if kind == "traced":
            record["layers"] = _layer_metrics(tracer, planned, quality.get("epochs_run", 0))
            if args.spans_out and not reps["traced"]:
                Path(args.spans_out).write_text(json.dumps([s.to_dict() for s in tracer.spans]))
        elif kind == "memory":
            record["layers"] = _memory_metrics(tracer)
        reps[kind].append(record)
        i += 1
        elapsed = time.perf_counter() - start
        # Stop where the expected finish is nearest to the time budget.
        if elapsed + elapsed / i / 2 >= args.seconds:
            break
        kind = ("plain", "traced")[i % 2] if args.trace else "plain"
    return {
        "reps": reps,
        "measured_s": elapsed,
        "fingerprint": fingerprint,
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "context": workloads.context(args.seed, cfg),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.CONFIGS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--reference", action="store_true",
                        help="after timing set-up, write the reference outputs the checks use")
    parser.add_argument("--first", choices=("plain", "traced", "memory"), default="plain",
                        help="kind of the first repetition")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    cfg = workloads.config(args.workload, args.tiny)
    role = setup_role if args.role == "setup" else measure_role
    try:
        out = role(args, cfg)
    except Exception:
        out = {"error": traceback.format_exc()}
    Path(args.result).write_text(json.dumps(out))
    return 1 if "error" in out else 0


if __name__ == "__main__":
    sys.exit(main())
