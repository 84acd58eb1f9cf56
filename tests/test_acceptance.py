"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with -s to see them). The experiment criteria drive the
command-line interface end to end on frozen synthetic scenarios; the
numeric criteria check the core operations against independent oracles.
"""

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import fairclust as fc
from fairclust.autoencoder import encode
from fairclust.cli import main as cli_main
from fairclust.metrics import cv_score, fwd
from fairclust.model import (
    CENTROIDS,
    TrainConfig,
    batch_centroids,
    compute_fairoids,
    fair_objective,
    sharpen_target,
    smooth_target,
    soft_assign,
)
from fairclust.nn import AffineLayer, ParamSet, backward, forward, squared_error, squared_error_grad

from gradcheck import finite_diff_check


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {label}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {label}: PASS")


def run_cli(*args):
    code = cli_main([str(a) for a in args])
    assert code == 0, f"command failed with exit code {code}: {args}"


def read_aggregate(path):
    return json.loads((Path(path) / "aggregate.json").read_text())


SEEDS = "1,2,3,4,5"

# Paired-run scenario: four overlapping blobs whose protected states track
# blob identity, heterogeneous center spacing (generator seed 42).
TREND_DATA = dict(n=2000, dims=10, blobs=4, t=4, corr=0.9, spread=0.5, seed=42)
# FWD-versus-K scenario: eight blobs carrying four states, so clusters can
# subdivide below the protected-group structure.
KSWEEP_DATA = dict(n=2000, dims=10, blobs=8, t=4, corr=0.9, spread=0.45, seed=7)

AE_ARGS = ("--normalize", "none", "--hidden", "64,32", "--latent", 4,
           "--layerwise-epochs", 60, "--global-epochs", 60,
           "--lr-pretrain", 0.05, "--ae-batch", 128, "--ae-seed", 0)
TRAIN_ARGS = ("--lr", 0.01, "--batch", 256, "--max-epochs", 60,
              "--convergence-tol", 0.001, "--recon-weight", 0.1,
              "--seeds", SEEDS)


def make_dataset(root, spec):
    out = root / "data"
    run_cli("synth", "--n", spec["n"], "--dims", spec["dims"],
            "--blobs", spec["blobs"], "--t", spec["t"], "--corr", spec["corr"],
            "--spread", spec["spread"], "--seed", spec["seed"], "--out", out)
    return out / "data.csv"


def pretrain_shared(root, csv_path):
    out = root / "ae"
    run_cli("pretrain", "--data", csv_path, *AE_ARGS, "--out", out)
    return out / "ae.ckpt"


@pytest.fixture(scope="session")
def trend_env(tmp_path_factory):
    """Shared dataset, autoencoder, and paired gamma arms for criteria 6/7/10."""
    root = tmp_path_factory.mktemp("trend")
    started = time.monotonic()
    csv_path = make_dataset(root, TREND_DATA)
    ae_path = pretrain_shared(root, csv_path)
    arms = {}
    for gamma in (0.0, 10.0):
        out = root / f"gamma_{gamma:g}"
        run_cli("train", "--data", csv_path, "--normalize", "none",
                "--pretrain", ae_path, "--k", 4, "--gamma", gamma,
                *TRAIN_ARGS, "--out", out)
        arms[gamma] = read_aggregate(out)
    elapsed = time.monotonic() - started
    return {"root": root, "csv": csv_path, "ae": ae_path, "arms": arms,
            "elapsed": elapsed}


def test_criterion_1_gradient_correctness():
    with criterion(1, "gradient correctness"):
        started = time.monotonic()
        rng = np.random.default_rng(42)

        # (a) three-layer autoencoder under squared reconstruction error
        dims = (6, 5, 4, 6)
        ae = ParamSet((f"layer{i}", AffineLayer(
            0.7 * rng.standard_normal((dims[i], dims[i + 1])),
            0.1 * rng.standard_normal(dims[i + 1]), "identity" if i == 2 else "relu"))
            for i in range(3))
        X = rng.random((10, 6))

        def recon_loss(p):
            out, tape = forward(p.layers(), X)
            grads = p.zeros_like()
            backward(tape, squared_error_grad(out, X), grads.layers())
            return squared_error(out, X), grads

        err_ae = finite_diff_check(recon_loss, ae, h=1e-5, sample=ae.n_params)
        assert err_ae <= 1e-4, f"autoencoder gradient error {err_ae:.2e}"

        # (b) the combined objective on N=12, D=4, d=2, K=T=2, with respect
        # to the encoder weights and the centroids jointly
        N, D, d, K, T = 12, 4, 2, 2, 2
        X = rng.random((N, D))
        protected = np.arange(N) % T
        params = ParamSet([
            ("enc0", AffineLayer(0.6 * rng.standard_normal((D, 6)),
                                 0.1 * rng.standard_normal(6), "relu")),
            ("enc1", AffineLayer(0.6 * rng.standard_normal((6, d)),
                                 0.1 * rng.standard_normal(d), "identity")),
            (CENTROIDS, rng.standard_normal((K, d))),
        ])
        M = params[CENTROIDS]
        Z = encode(params, X)
        fairoids = compute_fairoids(Z, protected, T)
        P = sharpen_target(soft_assign(Z, M))
        Psi = smooth_target(soft_assign(M, fairoids))
        cfg = TrainConfig(K=K, gamma=2.5, seed=0)

        def joint_loss(p):
            grads = p.zeros_like()
            comps = fair_objective(p, grads, X, P, Psi, fairoids, cfg)
            return comps["loss"], grads

        err_joint = finite_diff_check(joint_loss, params, h=1e-5,
                                      sample=params.n_params)
        assert err_joint <= 1e-4, f"joint objective gradient error {err_joint:.2e}"

        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"


def test_criterion_2_cv_score_is_twice_fwd():
    with criterion(2, "binary CV score equals twice FWD"):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            h1 = rng.random()
            h = np.array([h1, 1.0 - h1])
            assert abs(cv_score(h) - 2.0 * fwd(h)) <= 1e-12


def test_criterion_3_batch_centroid_estimates():
    with criterion(3, "minibatch centroid least squares"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(8, 64))
            K = int(rng.integers(2, 6))
            d = int(rng.integers(1, 5))
            assign = rng.integers(0, K, size=n)
            while len(np.unique(assign)) < K:
                assign = rng.integers(0, K, size=n)
            Z = rng.standard_normal((n, d))
            one_hot = np.zeros((n, K))
            one_hot[np.arange(n), assign] = 1.0
            means = np.stack([Z[assign == k].mean(axis=0) for k in range(K)])
            np.testing.assert_allclose(batch_centroids(one_hot, Z)[0], means,
                                       atol=1e-10)
            soft = rng.uniform(0.05, 1.0, size=(n, K))
            soft /= soft.sum(axis=1, keepdims=True)
            reference = np.linalg.lstsq(soft, Z, rcond=None)[0]
            np.testing.assert_allclose(batch_centroids(soft, Z)[0], reference,
                                       atol=1e-8)


def test_criterion_4_self_training_targets():
    with criterion(4, "self-training target properties"):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 1000:
            k = int(rng.integers(2, 6))
            base = rng.uniform(0.05, 1.0, size=k)
            base /= base.sum()
            if len(np.unique(base)) < k:
                continue
            # stacking all rotations equalizes the cluster frequencies
            rows = np.stack([np.roll(base, s) for s in range(k)])
            P = sharpen_target(rows)
            assert (P.argmax(axis=1) == rows.argmax(axis=1)).all()
            checked += k

        for _ in range(1000):
            k = int(rng.integers(2, 9))
            t = int(rng.integers(2, 6))
            Phi = rng.uniform(0.1, 1.0, size=(k, t))
            Phi /= Phi.sum(axis=1, keepdims=True)
            freq = Phi.sum(axis=0)
            limit = (1.0 / freq) / (1.0 / freq).sum()
            Psi = smooth_target(Phi, beta=1000.0, epsilon=1e-9)
            assert np.abs(Psi - limit[None, :]).max() <= 1e-3


def test_criterion_5_plain_clustering_baseline():
    with criterion(5, "plain-clustering baseline accuracy"):
        started = time.monotonic()
        accs = []
        for synth_seed in (1, 2, 3, 4, 5):
            spec = fc.SynthSpec(n_points=1000, dims=10, n_blobs=2, T=2,
                                correlation=0.5, blob_spread=0.1,
                                seed=synth_seed)
            ds = fc.synth_blobs(spec)
            ae, _ = fc.pretrain(ds.features, fc.AeConfig(
                dims=(10, 64, 32, 2), layerwise_epochs=30, global_epochs=30,
                lr_pretrain=0.05, batch=128, seed=0))
            model = fc.train(ds, ae, TrainConfig(K=2, gamma=0.0, max_epochs=40,
                                                 batch=256, recon_weight=0.1,
                                                 seed=1))
            accs.append(fc.report(model, ds).acc)
        assert np.median(accs) >= 0.98, f"median accuracy {np.median(accs):.3f}"
        elapsed = time.monotonic() - started
        assert elapsed < 120.0, f"baseline runs took {elapsed:.0f}s"


def test_criterion_6_fairness_improvement(trend_env):
    with criterion(6, "fairness weight improves FWD at small accuracy cost"):
        base = trend_env["arms"][0.0]["metrics"]
        fair = trend_env["arms"][10.0]["metrics"]
        fwd_drop = (base["fwd_mean"]["median"] - fair["fwd_mean"]["median"])
        rel_drop = fwd_drop / base["fwd_mean"]["median"]
        acc_drop = base["acc"]["median"] - fair["acc"]["median"]
        assert rel_drop >= 0.20, f"relative FWD drop {rel_drop:.1%}"
        assert acc_drop <= 0.10, f"accuracy drop {acc_drop:.3f}"
        assert trend_env["elapsed"] < 300.0, f"paired runs took {trend_env['elapsed']:.0f}s"


def test_criterion_7_gamma_tradeoff_trend(trend_env):
    with criterion(7, "fairness weight trade-off is monotone"):
        out = trend_env["root"] / "gamma_sweep"
        run_cli("sweep", "--data", trend_env["csv"], "--normalize", "none",
                "--pretrain", trend_env["ae"], "--k", 4,
                "--gamma-list", "0.01,1,100", *TRAIN_ARGS, "--out", out)
        stats = {}
        for value in (0.01, 1.0, 100.0):
            agg = read_aggregate(out / f"gamma_{value:g}")
            values = np.asarray(agg["metrics"]["fwd_mean"]["values"])
            stats[value] = (float(np.median(values)),
                            float(np.median(np.abs(values - np.median(values)))))
        for low, high in ((100.0, 1.0), (1.0, 0.01)):
            med_low, mad_low = stats[low]
            med_high, mad_high = stats[high]
            gap = med_high - med_low
            assert gap > 0, f"fwd medians not ordered at gamma {low} vs {high}"
            assert gap > max(mad_low, mad_high), (
                f"gap {gap:.4f} within seed noise ({mad_low:.4f}, {mad_high:.4f})")


def test_criterion_8_fwd_grows_with_cluster_count(tmp_path_factory):
    with criterion(8, "FWD per cluster grows with K, fairness helps at every K"):
        root = tmp_path_factory.mktemp("ksweep")
        csv_path = make_dataset(root, KSWEEP_DATA)
        ae_path = pretrain_shared(root, csv_path)
        medians = {}
        for gamma in (0.0, 10.0):
            out = root / f"gamma_{gamma:g}"
            run_cli("sweep", "--data", csv_path, "--normalize", "none",
                    "--pretrain", ae_path, "--gamma", gamma,
                    "--k-list", "2,4,8", *TRAIN_ARGS, "--out", out)
            medians[gamma] = [
                read_aggregate(out / f"k_{k}")["metrics"]["fwd_mean"]["median"]
                for k in (2, 4, 8)
            ]
        for gamma, values in medians.items():
            assert values[0] <= values[1] <= values[2], (
                f"fwd not non-decreasing in K at gamma={gamma}: {values}")
        for fair, base in zip(medians[10.0], medians[0.0]):
            assert fair <= base, f"fairness arm above baseline: {fair} > {base}"


@pytest.mark.slow
def test_criterion_9_adult_direction():
    """Directional check on the public Adult census extract.

    Provide the CSV (with header) via FAIRCLUST_ADULT_CSV or place it at
    tests/data/adult.csv. Runs reduced pretraining (30 + 15 epochs) and
    compares the fairness-weighted model against the plain baseline.
    """
    path = os.environ.get("FAIRCLUST_ADULT_CSV",
                          str(Path(__file__).parent / "data" / "adult.csv"))
    if not Path(path).exists():
        pytest.skip("Adult extract not available; set FAIRCLUST_ADULT_CSV")
    with criterion(9, "Adult direction (slow)"):
        schema = {
            "age": "feature", "education-num": "feature",
            "capital-gain": "feature", "capital-loss": "feature",
            "hours-per-week": "feature",
            "workclass": "categorical", "marital-status": "categorical",
            "occupation": "categorical", "relationship": "categorical",
            "race": "categorical",
            "sex": "protected", "income": "label",
        }
        ds = fc.load_csv(path, schema)
        keep = np.sort(fc.Rng(0).stream("subsample").permutation(ds.n)[:4000])
        ds = fc.Dataset(ds.features[keep], ds.protected[keep],
                        labels=ds.labels[keep], T=ds.T,
                        feature_names=ds.feature_names)
        ds = fc.normalize(ds, "zscore")
        ae, _ = fc.pretrain(ds.features, fc.AeConfig(
            dims=(ds.d, 64, 32, 2), layerwise_epochs=30, global_epochs=15,
            lr_pretrain=0.05, batch=128, seed=0))
        outcomes = {0.0: [], 30.0: []}
        for gamma in outcomes:
            for seed in (1, 2, 3, 4, 5):
                model = fc.train(ds, ae, TrainConfig(
                    K=2, gamma=gamma, max_epochs=40, batch=256,
                    recon_weight=0.1, seed=seed))
                rep = fc.report(model, ds)
                outcomes[gamma].append((rep.fwd_mean, rep.balance_min))
        base_fwd = np.median([v[0] for v in outcomes[0.0]])
        fair_fwd = np.median([v[0] for v in outcomes[30.0]])
        base_bal = np.median([v[1] for v in outcomes[0.0]])
        fair_bal = np.median([v[1] for v in outcomes[30.0]])
        assert fair_fwd <= base_fwd
        assert fair_bal >= base_bal


def test_criterion_10_deterministic_aggregates(trend_env):
    with criterion(10, "byte-identical rerun"):
        out = trend_env["root"] / "gamma_10_rerun"
        run_cli("train", "--data", trend_env["csv"], "--normalize", "none",
                "--pretrain", trend_env["ae"], "--k", 4, "--gamma", 10.0,
                *TRAIN_ARGS, "--out", out)
        first = (trend_env["root"] / "gamma_10" / "aggregate.json").read_bytes()
        second = (out / "aggregate.json").read_bytes()
        assert first == second
