"""The three benchmark workloads: configuration, set-up, one repetition and
the output checks. Imported only by ``child.py``, after the BLAS thread
environment is pinned.

Why each workload exists (see README.md for the metric map):

- ``quickstart``: the README quick-start configuration at a larger n. Its
  GEMMs are tiny, so per-call Python overhead in ``nn`` sets the time. The
  only workload whose quality numbers are meaningful.
- ``paper_arch``: 784-wide blobs through the paper's 784-500-500-2000-10
  network with fixed epoch counts and the streaming (minibatch
  least-squares) refresh. Forward and backward GEMMs dominate.
- ``eval_cli``: the read path, ``fairclust eval`` on a saved
  paper-architecture checkpoint and a CSV. No backward pass and no SGD.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform

import numpy as np
import scipy

import fairclust
from fairclust import autoencoder, cli, clustering, data, metrics, model
from fairclust.nn import Rng

PAPER_DIMS = (784, 500, 500, 2000, 10)

CONFIGS = {
    "quickstart": {
        "synth": {"n_points": 3000, "dims": 10, "n_blobs": 4, "T": 4,
                  "correlation": 0.9, "blob_spread": 0.5},
        "normalize": None,
        "ae": {"dims": (10, 64, 32, 4), "layerwise_epochs": 60, "global_epochs": 60,
               "lr_pretrain": 0.05, "batch": 128},
        "train": {"K": 4, "gamma": 10.0, "recon_weight": 0.1, "max_epochs": 60},
    },
    "paper_arch": {
        "synth": {"n_points": 2048, "dims": 784, "n_blobs": 10, "T": 4,
                  "correlation": 0.9, "blob_spread": 0.1},
        "normalize": "minmax",
        "ae": {"dims": PAPER_DIMS, "layerwise_epochs": 1, "global_epochs": 1,
               "lr_pretrain": 0.01, "batch": 256},
        "train": {"K": 10, "gamma": 10.0, "max_epochs": 2, "convergence_tol": 0.0,
                  "refresh": "streaming"},
    },
    "eval_cli": {
        "synth": {"n_points": 2048, "dims": 784, "n_blobs": 10, "T": 4,
                  "correlation": 0.9, "blob_spread": 0.1},
        "normalize": "minmax",
        "dims": PAPER_DIMS,
        "K": 10,
    },
}

# Same shapes of work at a size that runs in seconds; used by the smoke test.
TINY = {
    "quickstart": {"synth": {"n_points": 300}, "ae": {"layerwise_epochs": 2, "global_epochs": 2},
                   "train": {"max_epochs": 3}},
    "paper_arch": {"synth": {"n_points": 200, "dims": 24},
                   "ae": {"dims": (24, 16, 16, 32, 4)}, "train": {"K": 4}},
    "eval_cli": {"synth": {"n_points": 200, "dims": 24}, "dims": (24, 16, 16, 32, 4), "K": 4},
}


def config(name, tiny=False):
    cfg = json.loads(json.dumps(CONFIGS[name]))
    if tiny:
        for key, value in TINY[name].items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg


class Checks:
    """Counts output checks; a failed check is kept by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def __call__(self, name, ok):
        self.attempted += 1
        if not ok:
            self.failed.append(name)
        return ok


def _dataset(cfg, seed):
    ds = data.synth_blobs(data.SynthSpec(seed=seed, **cfg["synth"]))
    return (ds, data.normalize(ds, cfg["normalize"])) if cfg["normalize"] else (ds, ds)


def setup(name, cfg, seed, work):
    """Build the workload's inputs: the dataset for a training workload; for
    eval_cli, files in work: the CSV with its manifest and an untrained
    paper-architecture checkpoint (random encoder, k-means++ centroids)."""
    raw, ds = _dataset(cfg, seed)
    if name != "eval_cli":
        return ds
    work.mkdir(parents=True, exist_ok=True)
    data.save_csv(raw, work / "data.csv")
    rng = Rng(seed)
    params = autoencoder.init_params(cfg["dims"], rng.stream("init"))
    Z = autoencoder.encode(params, ds.features)
    trained = model.TrainedModel(
        params=params,
        centroids=clustering.kmeans_pp_init(Z, cfg["K"], rng.stream("kmeans")),
        fairoids=model.compute_fairoids(Z, ds.protected, ds.T),
        config=model.TrainConfig(K=cfg["K"], seed=seed),
    )
    model.save_model(trained, work / "model.json")
    return None


def write_reference(name, cfg, work):
    """For eval_cli, write the report the library computes in process from
    the same model and data files the CLI reads; report.json must equal it."""
    if name != "eval_cli":
        return
    ds = data.load_with_manifest(work / "data.csv")
    if cfg["normalize"]:
        ds = data.normalize(ds, cfg["normalize"])
    rep = metrics.report(model.load_model(work / "model.json"), ds)
    (work / "reference_report.json").write_text(rep.to_json())


def measure_inputs(name, cfg, seed, work):
    """What a repetition needs, built before timing starts."""
    if name == "eval_cli":
        return json.loads((work / "reference_report.json").read_text())
    return setup(name, cfg, seed, work)


def _check_report(checks, rep, K, T, n):
    sizes = [c["size"] for c in rep["per_cluster"]]
    checks("assignments_in_range", len(sizes) == K and sum(sizes) == n)
    fwds = [c["fwd"] for c in rep["per_cluster"] if "fwd" in c]
    fwds += [rep["fwd_mean"], rep["fwd_max"]]
    checks("fwd_bounds", all(0.0 <= f <= (T - 1) / T + 1e-12 for f in fwds))
    for key in ("acc", "nmi"):
        checks(f"{key}_in_unit_interval", rep[key] is not None and 0.0 <= rep[key] <= 1.0)


def planned_pretrain_steps(cfg):
    """SGD steps pretraining takes when no epoch is rolled back."""
    ae = cfg["ae"]
    batches = math.ceil(cfg["synth"]["n_points"] / ae["batch"])
    pairs = len(ae["dims"]) - 1
    return batches * (pairs * ae["layerwise_epochs"] + ae["global_epochs"])


def run_rep(name, cfg, seed, inputs, work, checks, clock):
    """One repetition. Returns (stage times, quality numbers, fingerprint);
    the fingerprint must be identical across repetitions of one seed."""
    if name == "eval_cli":
        return _run_eval(cfg, inputs, work, checks, clock)
    ds = inputs
    ae_cfg = autoencoder.AeConfig(seed=seed, **cfg["ae"])
    train_cfg = model.TrainConfig(seed=seed, **cfg["train"])
    t0 = clock()
    ae_params, log = autoencoder.pretrain(ds.features, ae_cfg)
    t1 = clock()
    trained = model.train(ds, ae_params, train_cfg)
    t2 = clock()
    rep = metrics.report(trained, ds)
    t3 = clock()

    checks("pretrain_loss_finite", all(math.isfinite(e["loss"]) for e in log))
    swept = [e for e in trained.history if e.get("L") is not None]
    checks("train_loss_finite",
           all(math.isfinite(e[k]) for e in swept for k in ("L", "L_cl", "L_fr")))
    assign = model.predict(trained, ds.features)
    checks("predict_in_range", int(assign.min()) >= 0 and int(assign.max()) < train_cfg.K)
    _check_report(checks, json.loads(rep.to_json()), train_cfg.K, ds.T, ds.n)
    times = {"wall_s": t3 - t0, "pretrain_s": t1 - t0, "train_s": t2 - t1, "eval_s": t3 - t2,
             "train_rows_per_s": ds.n * len(swept) / (t2 - t1)}
    quality = {"acc": rep.acc, "nmi": rep.nmi, "fwd_mean": rep.fwd_mean, "fwd_max": rep.fwd_max,
               "epochs_run": len(swept)}
    return times, quality, [rep.acc.hex(), rep.fwd_mean.hex()]


def _run_eval(cfg, expected, work, checks, clock):
    out = work / "eval_out"
    argv = ["eval", "--model", str(work / "model.json"), "--data", str(work / "data.csv"),
            "--normalize", cfg["normalize"] or "none", "--out", str(out)]
    t0 = clock()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    t1 = clock()
    checks("cli_exit_zero", code == 0)
    text = (out / "report.json").read_text() if code == 0 else "{}"
    rep = json.loads(text)
    checks("report_matches_in_process", rep == expected)
    if rep:
        _check_report(checks, rep, cfg["K"], rep["t"], cfg["synth"]["n_points"])
    times = {"wall_s": t1 - t0, "eval_s": t1 - t0}
    quality = {k: rep.get(k) for k in ("acc", "nmi", "fwd_mean", "fwd_max")}
    return times, quality, [text]


def context(seed, cfg):
    """Versions and thread settings recorded with every result."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "FAIRCLUST_THREADS")}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fairclust": fairclust.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": threads,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
        "config": cfg,
    }
