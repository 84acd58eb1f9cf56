"""fairclust benchmark: runs one workload (or all three) and prints its metrics.

    python3 perfbench/run.py --workload quickstart|paper_arch|eval_cli|all \
        --seed N --seconds S --trace 0|1 [--out BENCH.json]

Run from the repository root. Each workload runs in child processes of
this one, one at a time: SETUPS set-up processes (import plus building the
inputs, timed for setup_s), each followed by a measuring process that
repeats the workload until the run has measured its share of --seconds,
and reports
per-repetition times, output checks and its own peak RSS. Interleaving
spreads the measured repetitions over the whole run, so a stretch of
slow machine time weighs less on the medians. Children are
single-threaded: BLAS and fairclust thread counts are pinned in their
environment before numpy loads.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics from the traced repetitions.
Every other figure (stage times, quality, failed_frac, run context) is
printed on the lines before it and written to --out when given. This
process imports only the standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("quickstart", "paper_arch", "eval_cli")
SETUPS = 3
# First repetition of each measuring process in a traced run: spans, an
# untraced reference for the overhead, and tracemalloc peaks.
TRACED_FIRST = ("traced", "plain", "memory")
TIME_LIMIT_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1", "FAIRCLUST_THREADS": "1"}

# name -> unit. The end-to-end set is what every workload reports and the
# benchmark gates; the stage and quality figures apply to some workloads
# only and are reported as context.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
STAGES = {"pretrain_s": "s", "train_s": "s", "eval_s": "s", "train_rows_per_s": "rows/s"}
QUALITY = {"acc": "ratio", "nmi": "ratio", "fwd_mean": "ratio", "fwd_max": "ratio"}
PER_LAYER = {
    "nn.forward.calls": "count", "nn.forward.self_s": "s", "nn.forward.gflop": "GFLOP",
    "nn.backward.calls": "count", "nn.backward.self_s": "s", "nn.backward.gflop": "GFLOP",
    "nn.sgd_step.calls": "count", "nn.sgd_step.self_s": "s", "nn.sgd_step.mb": "MB",
    "nn.clip_gradients.calls": "count", "nn.clip_gradients.self_s": "s",
    "autoencoder.pretrain.self_s": "s", "autoencoder.pretrain.peak_mb": "MB",
    "autoencoder.sgd_step_ratio": "ratio",
    "model.refresh.s": "s", "model.refresh.peak_mb": "MB",
    "model.fair_objective.calls": "count", "model.fair_objective.self_s": "s",
    "model.train.self_s": "s", "model.init_centroids.self_s": "s", "model.epochs_run": "count",
    "model.batch_centroids.calls": "count", "model.batch_centroids.self_s": "s",
    "clustering.kmeans_pp_init.self_s": "s", "clustering.lloyd.self_s": "s",
    "clustering.hungarian_match.self_s": "s",
    "metrics.report_from_assignments.calls": "count",
    "metrics.report_from_assignments.self_s": "s",
    "data.synth_blobs.s": "s", "data.normalize.s": "s", "data.save_csv.s": "s",
    "data.load_csv.s": "s", "data.load_csv.mb": "MB", "model.load_model.s": "s",
    "cli.eval.self_s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def source_identity(root):
    """The git commit when there is one, and a hash of the package sources,
    which identifies the code also in an exported tree without git."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fairclust").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def _run_child(root, env, argv, result, deadline):
    result.unlink(missing_ok=True)
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.Popen([sys.executable, str(root / "perfbench" / "child.py"), *argv,
                             "--result", str(result)], cwd=root, env=env)
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildFailed(f"{argv[1]} process exceeded the time limit")
    out = json.loads(result.read_text()) if result.exists() else {"error": "no result written"}
    if proc.returncode != 0 or "error" in out:
        raise ChildFailed(out.get("error", f"exit code {proc.returncode}"))
    return out


def _median_of(records, key, median=statistics.median):
    values = [r[key] for r in records if key in r]
    return median(values) if values else None


def run_workload(root, name, seed, seconds, trace, tiny):
    """Run one workload; returns its full record (metrics, context, checks)."""
    deadline = time.monotonic() + TIME_LIMIT_S
    work = root / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, **THREAD_ENV,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    common = ["--workload", name, "--seed", str(seed), "--trace", str(trace),
              "--work", str(work)] + (["--tiny"] if tiny else [])
    attempted, failed = 0, []
    setups, chunks = [], []
    try:
        for i in range(SETUPS):
            attempted += 1
            extra = ["--reference"] if i == 0 else []
            setups.append(_run_child(root, env, ["--role", "setup", *common, *extra],
                                     work / f"setup_{i}.json", deadline))
            extra = ["--first", TRACED_FIRST[i] if trace else "plain"]
            if trace and i == 0:
                extra += ["--spans-out", str(work / "spans.json")]
            # Each measuring process runs until the run's measured time
            # reaches its share of --seconds.
            budget = seconds * (i + 1) / SETUPS - sum(c["measured_s"] for c in chunks)
            attempted += 1
            chunks.append(_run_child(root, env, ["--role", "measure", *common, *extra,
                                                 "--seconds", str(budget)],
                                     work / f"measure_{i}.json", deadline))
    except ChildFailed as exc:
        failed.append(str(exc))
        print(f"{name}: {exc}", file=sys.stderr)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    for chunk in chunks:
        attempted += chunk["checks_attempted"]
        failed += chunk["checks_failed"]
    for chunk in chunks[1:]:
        attempted += 1
        if chunk["fingerprint"] != chunks[0]["fingerprint"]:
            failed.append("repeat_bit_identical")
    if len(chunks) == SETUPS:
        record.update(_summarize(setups, chunks, trace))
    record.update({"attempted": attempted, "failed": len(failed), "failures": failed,
                   "failed_frac": len(failed) / attempted})
    return record


def _summarize(setups, chunks, trace):
    reps = {kind: [r for chunk in chunks for r in chunk["reps"][kind]]
            for kind in chunks[0]["reps"]}
    plain = [r["times"] for r in reps["plain"]]
    out = {
        "context": chunks[0]["context"],
        "repetitions": {kind: len(rs) for kind, rs in reps.items()},
        "samples": {"setup_s": [s["setup_s"] for s in setups],
                    "import_s": [s["import_s"] for s in setups],
                    "wall_s": [t["wall_s"] for t in plain]},
        "end_to_end": {"setup_s": statistics.median(s["setup_s"] for s in setups),
                       "wall_s": _median_of(plain, "wall_s"),
                       "peak_rss_mb": max(chunk["peak_rss_mb"] for chunk in chunks)},
        "stages": {k: _median_of(plain, k) for k in STAGES if _median_of(plain, k) is not None},
        "quality": {k: v for k, v in reps["plain"][0]["quality"].items() if v is not None},
    }
    if trace:
        # The lower median keeps counts whole; per-layer values are samples.
        layer_records = [r["layers"] for r in reps["traced"] + reps["memory"]]
        layers = {k: _median_of(layer_records, k, statistics.median_low)
                  for r in layer_records for k in r}
        for key in setups[0]["layers"]:
            layers[key] = _median_of([s["layers"] for s in setups], key, statistics.median_low)
        traced_wall = _median_of([r["times"] for r in reps["traced"]], "wall_s")
        layers["trace.overhead_s"] = traced_wall - out["end_to_end"]["wall_s"]
        out["per_layer"] = layers
    return out


def _metric_block(values, units):
    return {k: {"value": values[k], "unit": units[k]} for k in units if k in values}


def _print_record(rec):
    print(f"== {rec['workload']} (seed {rec['seed']}, trace {rec['trace']})")
    print(f"  {'checks':10s} {'failed_frac':40s} {rec['failed_frac']!r} ratio"
          f" ({rec['failed']} of {rec['attempted']} checks failed)")
    for section, units in (("end_to_end", END_TO_END), ("stages", STAGES),
                           ("quality", QUALITY), ("per_layer", PER_LAYER)):
        for key, value in rec.get(section, {}).items():
            if key in units:
                print(f"  {section:10s} {key:40s} {value!r} {units[key]}")
    print(json.dumps({"workload": rec["workload"], "context": rec.get("context"),
                      "repetitions": rec.get("repetitions"), "samples": rec.get("samples"),
                      "failures": rec["failures"]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write every figure to this JSON file")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "fairclust" / "__init__.py").is_file():
        print("perfbench: run from the repository root (src/fairclust not found)", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(root, name, args.seed, args.seconds, args.trace, args.tiny)
               for name in names]
    identity = source_identity(root)
    for rec in records:
        rec.setdefault("context", {}).update(identity)
    for rec in records:
        _print_record(rec)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")

    section, units = ("per_layer", PER_LAYER) if args.trace else ("end_to_end", END_TO_END)
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}." if len(records) > 1 else ""
        for key, block in _metric_block(rec.get(section, {}), units).items():
            metrics[prefix + key] = block
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    complete = all(len(_metric_block(r.get(section, {}), units)) == len(units) for r in records)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and complete else 1


if __name__ == "__main__":
    sys.exit(main())
