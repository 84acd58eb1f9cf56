import csv
import io
import json
import subprocess
import sys
from dataclasses import asdict, fields

import pytest

from fairclust import autoencoder, cli, clustering, data, metrics, model, nn
from fairclust.autoencoder import AeConfig
from fairclust.cli import (AE_OPTS, FIELD_OF, SYNTH_OPTS, TRAIN_OPTS, _config, _write_jsonl,
                           build_parser, main, parse_config_file, resolve)
from fairclust.data import Dataset, SynthSpec, save_csv, synth_blobs
from fairclust.model import TrainConfig
from fairclust.ckpt import read_checkpoint, save_params
from fairclust.nn import Rng


def run_cli(*args):
    return main([str(a) for a in args])


def no_reads(*args, **kwargs):
    raise AssertionError("a file was read")


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run_cli("synth", "--n", 300, "--dims", 4, "--blobs", 2, "--t", 2,
                   "--corr", 0.9, "--spread", 0.08, "--seed", 3, "--out", out)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def ae_ckpt(tmp_path_factory, synth_dir):
    """The autoencoder checkpoint that train and sweep runs start from."""
    out = tmp_path_factory.mktemp("ae")
    code = run_cli("pretrain", "--data", synth_dir / "data.csv", "--normalize", "none",
                   "--hidden", "8", "--latent", 2, "--layerwise-epochs", 8,
                   "--global-epochs", 8, "--ae-batch", 128, "--out", out)
    assert code == 0
    return out / "ae.ckpt"


TRAIN_ARGS = ("--normalize", "none", "--k", 2, "--gamma", 0, "--batch", 128,
              "--max-epochs", 10, "--seeds", "1,2")


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir, ae_ckpt):
    out = tmp_path_factory.mktemp("train")
    code = run_cli("train", "--data", synth_dir / "data.csv", "--pretrain", ae_ckpt,
                   *TRAIN_ARGS, "--out", out)
    assert code == 0
    return out


class TestSynth:
    def test_writes_csv_manifest_and_index(self, synth_dir):
        assert (synth_dir / "data.csv").exists()
        manifest = json.loads((synth_dir / "data.manifest.json").read_text())
        assert manifest["n"] == 300 and manifest["t"] == 2
        index = json.loads((synth_dir / "manifest.json").read_text())
        assert index["command"] == "synth"
        assert "data.csv" in index["artifacts"]

    def test_byte_identical_rerun(self, synth_dir, tmp_path):
        code = run_cli("synth", "--n", 300, "--dims", 4, "--blobs", 2, "--t", 2,
                       "--corr", 0.9, "--spread", 0.08, "--seed", 3,
                       "--out", tmp_path)
        assert code == 0
        assert (tmp_path / "data.csv").read_bytes() == (synth_dir / "data.csv").read_bytes()

    def test_invalid_correlation_is_usage_error(self, tmp_path, capsys):
        code = run_cli("synth", "--corr", 1.5, "--out", tmp_path)
        assert code == 1
        assert "correlation" in capsys.readouterr().err

    # the retired training settings are no flags: see
    # test_unknown_config_key_rejected
    @pytest.mark.parametrize("command, flag", [
        ("synth", "--frobnicate"), ("train", "--clip-norm"), ("train", "--dof"),
        ("train", "--epsilon"), ("sweep", "--refresh-interval")])
    def test_unknown_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        code = run_cli(command, flag, 1, "--out", tmp_path)
        assert code == 1
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_missing_required_out(self, capsys):
        code = run_cli("synth", "--n", 10)
        assert code == 1
        assert "out" in capsys.readouterr().err


class TestPretrain:
    @pytest.mark.parametrize("setting, message", [
        ("--lr-pretrain=nan", "lr_pretrain must be finite, got nan"),
        ("--ae-seed=-2", "seed must be non-negative"),
        ("--dropout=1.5", "dropout must lie in [0, 1)"),
        ("--latent=0", "layer widths must be positive"),
    ])
    def test_invalid_setting_is_usage_error(self, synth_dir, tmp_path, capsys, setting,
                                            message):
        code = run_cli("pretrain", "--data", synth_dir / "data.csv", "--hidden", "8",
                       "--latent", 2, setting, "--out", tmp_path / "o")
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_checkpoint_and_log(self, synth_dir, tmp_path):
        code = run_cli("pretrain", "--data", synth_dir / "data.csv",
                       "--normalize", "none", "--hidden", "8", "--latent", 2,
                       "--layerwise-epochs", 2, "--global-epochs", 3,
                       "--ae-batch", 128, "--out", tmp_path)
        assert code == 0
        assert (tmp_path / "ae.ckpt").exists()
        lines = [json.loads(l) for l in
                 (tmp_path / "pretrain_log.jsonl").read_text().splitlines()]
        layerwise = [l for l in lines if l["stage"] == "layerwise"]
        global_ = [l for l in lines if l["stage"] == "global"]
        # per epoch plus the starting loss: two layer pairs, then the stack
        assert [(l["layer"], l["epoch"]) for l in layerwise] == [(0, 0), (0, 1), (0, 2),
                                                                 (1, 0), (1, 1), (1, 2)]
        assert [l["epoch"] for l in global_] == [0, 1, 2, 3]
        assert all({"stage", "epoch", "loss", "lr"} <= set(l) for l in lines)

    def test_encoder_with_dead_units_is_refused(self, synth_dir, tmp_path, monkeypatch,
                                               capsys):
        # pretraining that ends with every enc0 unit dead on every row
        # (zero weights, negative biases) writes nothing and names the cause
        def dead_pretrain(X, cfg):
            params = autoencoder.init_params(cfg.dims, Rng(0).stream("init"))
            params["enc0"].weight[...] = 0.0
            params["enc0"].bias[...] = -1.0
            return params, [{"stage": "global", "epoch": 0, "loss": 1.0, "lr": 0.1}]

        monkeypatch.setattr(autoencoder, "pretrain", dead_pretrain)
        code = run_cli("pretrain", "--data", synth_dir / "data.csv", "--hidden", "8",
                       "--latent", 2, "--out", tmp_path / "o")
        assert code == 2
        assert capsys.readouterr().err == ("error: every row encodes to the same latent "
                                           "vector; the autoencoder checkpoint is unusable\n")
        assert not (tmp_path / "o").exists()

    def test_checkpoint_loadable_by_train(self, synth_dir, tmp_path):
        pre = tmp_path / "pre"
        code = run_cli("pretrain", "--data", synth_dir / "data.csv",
                       "--normalize", "none", "--hidden", "8", "--latent", 2,
                       "--layerwise-epochs", 2, "--global-epochs", 2,
                       "--out", pre)
        assert code == 0
        code = run_cli("train", "--data", synth_dir / "data.csv",
                       "--normalize", "none", "--pretrain", pre / "ae.ckpt",
                       "--k", 2, "--max-epochs", 4, "--batch", 128,
                       "--seeds", "1", "--out", tmp_path / "run")
        assert code == 0


class TestTrain:
    @pytest.mark.parametrize("flag, field", [("--convergence-tol", "convergence_tol"),
                                             ("--lr", "lr"), ("--gamma", "gamma")])
    def test_non_finite_setting_refused_before_any_read(self, tmp_path, monkeypatch,
                                                        capsys, flag, field):
        monkeypatch.setattr(data, "load_csv", no_reads)
        monkeypatch.setattr(data, "load_with_manifest", no_reads)
        value = "inf" if field == "gamma" else "nan"
        code = run_cli("train", "--data", tmp_path / "data.csv", "--pretrain",
                       tmp_path / "ae.ckpt", "--k", 2, flag, value, "--out", tmp_path / "t")
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {field} must be finite, got {value}\n"

    @pytest.mark.parametrize("argv, message", [
        (("train", "--k", 2, "--seeds=-1"), "seed must be non-negative"),
        (("train", "--k", 2, "--seeds", "1,1"), "--seeds lists 1 twice"),
        (("sweep", "--k", 2, "--gamma-list", "0,1", "--seeds", "3,2,3"),
         "--seeds lists 3 twice"),
        (("sweep", "--k", 2, "--gamma-list", "0.1,0.1000001,0.1"),
         "--gamma-list: 0.1 and 0.1000001 would both write gamma_0.1"),
        (("sweep", "--k", 2, "--gamma-list", "1,1e0"), "--gamma-list lists 1.0 twice"),
        (("sweep", "--k-list", "2,3,2"), "--k-list lists 2 twice"),
    ])
    def test_seed_and_point_lists_refused_before_any_read(self, tmp_path, monkeypatch,
                                                          capsys, argv, message):
        monkeypatch.setattr(data, "load_csv", no_reads)
        monkeypatch.setattr(data, "load_with_manifest", no_reads)
        code = run_cli(*argv, "--data", tmp_path / "data.csv", "--pretrain",
                       tmp_path / "ae.ckpt", "--out", tmp_path / "o")
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, axis", [("train", ()), ("sweep", ("--gamma-list", "0,1"))])
    def test_empty_seed_list_is_usage_error(self, synth_dir, tmp_path, capsys, command, axis):
        code = run_cli(command, "--data", synth_dir / "data.csv", "--pretrain",
                       tmp_path / "ae.ckpt", "--k", 2, *axis, "--seeds", "", "--out", tmp_path)
        assert code == 1
        assert "--seeds" in capsys.readouterr().err

    def test_seeds_sharing_a_checkpoint_train_independently(self, synth_dir, ae_ckpt,
                                                            tmp_path):
        # every seed trains from the same loaded autoencoder; in-place SGD
        # on it would make seed 2 depend on whether seed 1 ran first
        ae_bytes = ae_ckpt.read_bytes()
        for seeds in ("1,2", "2"):
            assert run_cli("train", "--data", synth_dir / "data.csv",
                           "--normalize", "none", "--pretrain", ae_ckpt,
                           "--k", 2, "--max-epochs", 4, "--batch", 128,
                           "--recon-weight", 0.5, "--seeds", seeds,
                           "--out", tmp_path / seeds) == 0
        assert ((tmp_path / "1,2" / "seed_2" / "model.ckpt").read_bytes()
                == (tmp_path / "2" / "seed_2" / "model.ckpt").read_bytes())
        assert ae_ckpt.read_bytes() == ae_bytes

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_seed_records_its_cause(self, synth_dir, ae_ckpt, tmp_path, monkeypatch,
                                           capsys, threads):
        real = model.train

        def fails_for_seed_2(ds, ae_params, cfg):
            if cfg.seed == 2:
                raise ValueError("boom")
            return real(ds, ae_params, cfg)

        monkeypatch.setattr(model, "train", fails_for_seed_2)
        monkeypatch.setenv("FAIRCLUST_THREADS", threads)
        code = run_cli("train", "--data", synth_dir / "data.csv", "--normalize", "none",
                       "--pretrain", ae_ckpt, "--k", 2, "--max-epochs", 2,
                       "--seeds", "1,2", "--out", tmp_path)
        assert code == 2
        agg = json.loads((tmp_path / "aggregate.json").read_text())
        assert agg["seeds"] == [1]
        [failure] = agg["failures"]
        assert failure["seed"] == 2 and failure["error"] == "ValueError: boom"
        trace = failure["traceback"]
        assert trace.startswith("Traceback (most recent call last):")
        assert "in fails_for_seed_2" in trace and trace.endswith("ValueError: boom\n")
        err = capsys.readouterr().err.splitlines()
        assert err == ["seed 2 failed: ValueError: boom", "1 seed(s) failed"]

    def test_encoder_with_dead_units_is_refused(self, synth_dir, tmp_path, capsys):
        # a checkpoint whose enc0 units are all dead on every row (zero
        # weights, negative biases) encodes every row to one vector: train
        # fails the seed and names the cause instead of fitting one cluster
        ae = autoencoder.init_params((4, 8, 2), Rng(0).stream("init"))
        ae["enc0"].weight[...] = 0.0
        ae["enc0"].bias[...] = -1.0
        save_params(ae, tmp_path / "dead.ckpt")
        code = run_cli("train", "--data", synth_dir / "data.csv", "--normalize", "none",
                       "--pretrain", tmp_path / "dead.ckpt", "--k", 2, "--seeds", "0",
                       "--out", tmp_path / "t")
        assert code == 2
        cause = ("RuntimeError: every row encodes to the same latent vector; "
                 "the autoencoder checkpoint is unusable")
        [failure] = json.loads((tmp_path / "t" / "aggregate.json").read_text())["failures"]
        assert failure["seed"] == 0 and failure["error"] == cause
        assert capsys.readouterr().err.splitlines() == [f"seed 0 failed: {cause}",
                                                        "1 seed(s) failed"]

    def test_per_seed_artifacts_and_aggregate(self, trained_dir):
        for seed in (1, 2):
            seed_dir = trained_dir / f"seed_{seed}"
            assert (seed_dir / "model.ckpt").exists()
            assert (seed_dir / "history.jsonl").exists()
            assert (seed_dir / "report.json").exists()
        agg = json.loads((trained_dir / "aggregate.json").read_text())
        assert agg["seeds"] == [1, 2]
        assert set(agg["metrics"]) == {"acc", "nmi", "fwd_mean", "fwd_max",
                                       "balance_min"}
        stats = agg["metrics"]["acc"]
        assert {"mean", "median", "std", "values"} <= set(stats)
        assert len(stats["values"]) == 2

    def test_manifest_lists_the_aggregate_and_the_seed_dirs(self, trained_dir):
        index = json.loads((trained_dir / "manifest.json").read_text())
        assert index["command"] == "train"
        assert index["artifacts"] == ["aggregate.json", "seed_1", "seed_2"]
        assert sorted(p.name for p in trained_dir.iterdir()) \
            == ["aggregate.json", "manifest.json", "seed_1", "seed_2"]

    def test_rerun_is_byte_identical(self, synth_dir, ae_ckpt, trained_dir, tmp_path):
        code = run_cli("train", "--data", synth_dir / "data.csv", "--pretrain", ae_ckpt,
                       *TRAIN_ARGS, "--out", tmp_path)
        assert code == 0
        assert ((tmp_path / "aggregate.json").read_bytes()
                == (trained_dir / "aggregate.json").read_bytes())

    def test_threaded_seeds_same_aggregate(self, synth_dir, ae_ckpt, trained_dir,
                                           tmp_path, monkeypatch):
        monkeypatch.setenv("FAIRCLUST_THREADS", "2")
        code = run_cli("train", "--data", synth_dir / "data.csv", "--pretrain", ae_ckpt,
                       *TRAIN_ARGS, "--out", tmp_path)
        assert code == 0
        assert ((tmp_path / "aggregate.json").read_bytes()
                == (trained_dir / "aggregate.json").read_bytes())


class TestEval:
    def test_report_schema_and_accuracy(self, synth_dir, trained_dir, tmp_path,
                                        capsys):
        code = run_cli("eval", "--model", trained_dir / "seed_1" / "model.ckpt",
                       "--data", synth_dir / "data.csv", "--normalize", "none",
                       "--out", tmp_path)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["acc"] == 1.0
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "histograms.csv").exists()

    def test_latent_dump(self, synth_dir, trained_dir, tmp_path):
        code = run_cli("eval", "--model", trained_dir / "seed_1" / "model.ckpt",
                       "--data", synth_dir / "data.csv", "--normalize", "none",
                       "--dump-latent", "true", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "latent.csv").read_text().strip().splitlines()
        assert lines[0] == "z0,z1,assignment,protected"
        assert len(lines) == 301
        # the dump's assignments are the ones the report counted
        assignments = [int(line.split(",")[2]) for line in lines[1:]]
        report = json.loads((tmp_path / "report.json").read_text())
        assert [assignments.count(entry["cluster"]) for entry in report["per_cluster"]] \
            == [entry["size"] for entry in report["per_cluster"]]

    def test_latent_dump_equals_the_per_cell_writer(self, synth_dir, trained_dir, tmp_path):
        path = trained_dir / "seed_1" / "model.ckpt"
        code = run_cli("eval", "--model", path, "--data", synth_dir / "data.csv",
                       "--normalize", "none", "--dump-latent", "true", "--out", tmp_path)
        assert code == 0
        trained = model.load_model(path)
        ds = data.load_with_manifest(synth_dir / "data.csv")
        Z = autoencoder.encode(trained.params, ds.features)
        assignments = clustering.nearest_assign(Z, trained.centroids)
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["z0", "z1", "assignment", "protected"])
        for i in range(len(Z)):
            writer.writerow([repr(float(v)) for v in Z[i]]
                            + [int(assignments[i]), int(ds.protected[i])])
        assert (tmp_path / "latent.csv").read_bytes() == expected.getvalue().encode("utf-8")

    def test_latent_dump_reuses_the_one_encoding(self, synth_dir, trained_dir, tmp_path,
                                                 monkeypatch):
        calls = []
        real = autoencoder.encode

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(autoencoder, "encode", counted)
        monkeypatch.setattr(model, "encode", counted)
        reports = []
        for dump in ("false", "true"):
            calls.clear()
            out = tmp_path / dump
            code = run_cli("eval", "--model", trained_dir / "seed_1" / "model.ckpt",
                           "--data", synth_dir / "data.csv", "--normalize", "none",
                           "--dump-latent", dump, "--out", out)
            assert code == 0 and len(calls) == 1
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_eval_across_chunk_boundaries(self, trained_dir, tmp_path):
        # 2 * APPLY_ROWS + 1 rows encode as two full chunks and a one-row one
        rows = nn.APPLY_ROWS
        ds = synth_blobs(SynthSpec(n_points=2 * rows + 1, dims=4, n_blobs=2, T=2,
                                   correlation=0.9, blob_spread=0.08, seed=4))
        head = Dataset(ds.features[:rows], ds.protected[:rows], labels=ds.labels[:rows],
                       T=ds.T)
        path = trained_dir / "seed_1" / "model.ckpt"
        latents = {}
        for name, part in (("all", ds), ("head", head)):
            save_csv(part, tmp_path / f"{name}.csv")
            code = run_cli("eval", "--model", path, "--data", tmp_path / f"{name}.csv",
                           "--normalize", "none", "--dump-latent", "true",
                           "--out", tmp_path / name)
            assert code == 0
            latents[name] = (tmp_path / name / "latent.csv").read_bytes().splitlines()
        rep = metrics.report(model.load_model(path), data.load_with_manifest(tmp_path / "all.csv"))
        assert (tmp_path / "all" / "report.json").read_text() == rep.to_json()
        # the first chunk is the same product as the head file's one pass
        assert len(latents["all"]) == 2 * rows + 2 and len(latents["head"]) == rows + 1
        assert latents["all"][: rows + 1] == latents["head"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--normalize", "bogus", "unknown normalization mode 'bogus'"),
        ("--dump-latent", "true", "--dump-latent needs --out"),
    ])
    def test_usage_error_before_any_read(self, tmp_path, monkeypatch, capsys, flag, value,
                                         message):
        monkeypatch.setattr(data, "load_csv", no_reads)
        monkeypatch.setattr(data, "load_with_manifest", no_reads)
        monkeypatch.setattr(model, "load_model", no_reads)
        code = run_cli("eval", "--model", tmp_path / "model.ckpt",
                       "--data", tmp_path / "data.csv", flag, value)
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_state_count_mismatch_names_both(self, trained_dir, tmp_path, capsys):
        other = tmp_path / "other"
        run_cli("synth", "--n", 120, "--dims", 4, "--blobs", 3, "--t", 3,
                "--corr", 0.8, "--seed", 5, "--out", other)
        code = run_cli("eval", "--model", trained_dir / "seed_1" / "model.ckpt",
                       "--data", other / "data.csv", "--normalize", "none")
        assert code == 2
        err = capsys.readouterr().err
        assert "model T=2" in err and "dataset T=3" in err

    def test_feature_width_mismatch(self, trained_dir, tmp_path, capsys):
        other = tmp_path / "wide"
        run_cli("synth", "--n", 60, "--dims", 6, "--blobs", 2, "--t", 2,
                "--corr", 0.8, "--seed", 5, "--out", other)
        code = run_cli("eval", "--model", trained_dir / "seed_1" / "model.ckpt",
                       "--data", other / "data.csv", "--normalize", "none")
        assert code == 2
        assert "feature mismatch" in capsys.readouterr().err


class TestSweep:
    def test_gamma_sweep_table(self, synth_dir, ae_ckpt, tmp_path):
        code = run_cli("sweep", "--data", synth_dir / "data.csv",
                       "--normalize", "none", "--pretrain", ae_ckpt,
                       "--k", 2, "--gamma-list", "0.01,1", "--batch", 128,
                       "--max-epochs", 5, "--seeds", "1", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + one row per value
        assert lines[0].startswith("gamma,")
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert [r["value"] for r in rows] == [0.01, 1.0]
        index = json.loads((tmp_path / "manifest.json").read_text())
        assert index["artifacts"] == ["gamma_0.01", "gamma_1", "sweep.csv", "sweep.json"]

    def test_k_sweep(self, synth_dir, ae_ckpt, tmp_path):
        # every K trains from the one checkpoint, whatever its latent width
        code = run_cli("sweep", "--data", synth_dir / "data.csv",
                       "--normalize", "none", "--pretrain", ae_ckpt,
                       "--gamma", 0, "--k-list", "2,3", "--batch", 128,
                       "--max-epochs", 5, "--seeds", "1", "--out", tmp_path)
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("k,")
        assert len(lines) == 3
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert [(r["value"], "error" in r) for r in rows] == [(2, False), (3, False)]

    @pytest.mark.parametrize("point_flags, message", [
        (("--gamma-list", "0,1", "--k", 2, "--lr", "nan"), "lr must be finite, got nan"),
        (("--gamma-list", "0,-1", "--k", 2), "gamma must be non-negative"),
        (("--k-list", "1,3"), "K must be at least 2"),
    ])
    def test_every_point_checked_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                 point_flags, message):
        monkeypatch.setattr(data, "load_csv", no_reads)
        monkeypatch.setattr(data, "load_with_manifest", no_reads)
        code = run_cli("sweep", "--data", tmp_path / "data.csv", "--pretrain",
                       tmp_path / "ae.ckpt", *point_flags, "--out", tmp_path / "w")
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("axis, value, values", [("k", "5", "2,3"), ("gamma", "7", "0,1")])
    def test_swept_setting_set_on_its_own_refused_before_any_read(
            self, tmp_path, monkeypatch, capsys, source, axis, value, values):
        # the sweep sets the swept field at each point, so a value of its
        # own would be silently dropped
        monkeypatch.setattr(data, "load_csv", no_reads)
        monkeypatch.setattr(data, "load_with_manifest", no_reads)
        monkeypatch.setattr(cli, "load_params", no_reads)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{axis} = {value}\n")
        own = ("--" + axis, value) if source == "flag" else ("--config", cfg)
        code = run_cli("sweep", "--data", tmp_path / "data.csv", "--pretrain",
                       tmp_path / "ae.ckpt", f"--{axis}-list", values, *own,
                       "--out", tmp_path / "w")
        assert code == 1
        assert capsys.readouterr().err == f"usage error: pass --{axis}-list or --{axis}, not both\n"
        assert not (tmp_path / "w").exists()

    def test_both_axes_rejected(self, synth_dir, ae_ckpt, tmp_path, capsys):
        code = run_cli("sweep", "--data", synth_dir / "data.csv", "--pretrain", ae_ckpt,
                       "--gamma-list", "1", "--k-list", "2", "--out", tmp_path)
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_no_axis_rejected(self, synth_dir, ae_ckpt, tmp_path, capsys):
        code = run_cli("sweep", "--data", synth_dir / "data.csv", "--pretrain", ae_ckpt,
                       "--out", tmp_path)
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", [("--gamma-list", ",", "--k", 2), ("--k-list", ",")])
    def test_empty_value_list_refused_before_any_read(self, tmp_path, monkeypatch, capsys,
                                                      axis):
        monkeypatch.setattr(data, "load_csv", no_reads)
        monkeypatch.setattr(data, "load_with_manifest", no_reads)
        code = run_cli("sweep", "--data", tmp_path / "data.csv", "--pretrain",
                       tmp_path / "ae.ckpt", *axis, "--out", tmp_path / "w")
        assert code == 1
        assert capsys.readouterr().err == f"usage error: {axis[0]} must list at least one value\n"
        assert not (tmp_path / "w").exists()


class TestClassDefaults:
    """An option left unset keeps the default of the config class it sets."""

    def test_train_config(self, synth_dir, tmp_path):
        ae = tmp_path / "ae"
        assert run_cli("pretrain", "--data", synth_dir / "data.csv", "--hidden", "8",
                       "--latent", 2, "--layerwise-epochs", 2, "--global-epochs", 2,
                       "--out", ae) == 0
        out = tmp_path / "train"
        assert run_cli("train", "--data", synth_dir / "data.csv", "--k", 2,
                       "--pretrain", ae / "ae.ckpt", "--out", out) == 0
        header, _ = read_checkpoint(out / "seed_0" / "model.ckpt", model.MODEL_FORMAT)
        assert header["config"] == asdict(TrainConfig(K=2, seed=0))

    def test_pretrain_config(self, synth_dir, tmp_path, monkeypatch):
        seen = []

        def capture(X, cfg):
            seen.append(cfg)
            return autoencoder.init_params((X.shape[1], 2), Rng(0).stream("init")), []

        monkeypatch.setattr(autoencoder, "pretrain", capture)
        assert run_cli("pretrain", "--data", synth_dir / "data.csv", "--latent", 2,
                       "--out", tmp_path) == 0
        assert seen == [AeConfig(dims=(4, 500, 500, 2000, 2))]

    def test_synth_spec(self, tmp_path):
        assert run_cli("synth", "--out", tmp_path / "cli") == 0
        save_csv(synth_blobs(SynthSpec(n_points=1000, dims=10, n_blobs=4, T=4,
                                       correlation=0.9)), tmp_path / "lib.csv")
        assert (tmp_path / "cli" / "data.csv").read_bytes() \
            == (tmp_path / "lib.csv").read_bytes()


class TestConfigFile:
    def test_parse_key_value_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nn = 50\ndims= 3  # trailing\n\nseed =7\n")
        assert parse_config_file(path) == {"n": "50", "dims": "3", "seed": "7"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n 50\n")
        from fairclust.cli import CliError

        with pytest.raises(CliError, match="key = value"):
            parse_config_file(path)

    def test_precedence_flag_over_file_over_default(self, tmp_path):
        # every synth field: file overrides the default, flag overrides both
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("n = 40\ndims = 3\nblobs = 2\nt = 2\ncorr = 0.5\n"
                       "spread = 0.2\nseed = 9\n")
        out_file = tmp_path / "from_file"
        assert run_cli("synth", "--config", cfg, "--out", out_file) == 0
        manifest = json.loads((out_file / "data.manifest.json").read_text())
        assert manifest["n"] == 40 and manifest["d"] == 3

        out_flag = tmp_path / "from_flag"
        assert run_cli("synth", "--config", cfg, "--n", 60, "--out", out_flag) == 0
        manifest = json.loads((out_flag / "data.manifest.json").read_text())
        assert manifest["n"] == 60  # flag wins
        assert manifest["d"] == 3   # file still applies elsewhere

    @pytest.mark.parametrize("argv, message", [
        (("train", "--data", "d.csv", "--k", "abc"), "--k: invalid value 'abc'"),
        (("synth", "--n", "1.5"), "--n: invalid value '1.5'"),
        (("sweep", "--data", "d.csv", "--gamma-list", "1", "--lr", "fast"),
         "--lr: invalid value 'fast'"),
    ])
    def test_flag_that_does_not_convert_is_usage_error(self, tmp_path, capsys, argv,
                                                       message):
        assert run_cli(*argv, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_config_value_that_does_not_convert_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data = d.csv\nk = abc\n")
        assert run_cli("train", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"usage error: {cfg}: k: invalid value 'abc'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, key, raw", [
        (("train", "--data", "d.csv", "--k", "2"), "seeds", "1,a"),
        (("pretrain", "--data", "d.csv", "--latent", "2"), "hidden", "8,x"),
        (("sweep", "--data", "d.csv", "--gamma-list", "0"), "k_list", "2,3.5"),
        (("sweep", "--data", "d.csv", "--k-list", "2"), "gamma_list", "0,high"),
        (("eval", "--model", "m.json", "--data", "d.csv"), "dump_latent", "maybe"),
    ])
    def test_list_or_bool_that_does_not_convert_names_flag_or_key(self, tmp_path, capsys,
                                                                  argv, key, raw):
        flag, cfg = "--" + key.replace("_", "-"), tmp_path / "run.cfg"
        assert run_cli(*argv, flag, raw, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"usage error: {flag}: invalid value {raw!r}\n"
        cfg.write_text(f"{key} = {raw}\n")
        assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"usage error: {cfg}: {key}: invalid value {raw!r}\n"
        assert not (tmp_path / "o").exists()

    # the retired training settings are constants: nn.CLIP_NORM,
    # model.DOF, smooth_target's floor and a refresh at every epoch
    @pytest.mark.parametrize("command, key", [
        ("synth", "frobnicate"), ("train", "clip_norm"), ("train", "dof"),
        ("train", "epsilon"), ("sweep", "refresh_interval")])
    def test_unknown_config_key_rejected(self, tmp_path, capsys, command, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 1\n")
        code = run_cli(command, "--config", cfg, "--out", tmp_path / "o")
        assert code == 1
        assert capsys.readouterr().err == f"usage error: unknown config keys: ['{key}']\n"

    @pytest.mark.parametrize("content, reason", [
        (None, "No such file or directory"),
        (b"n = 5\n\xff\n", "not UTF-8: invalid start byte at byte 6"),
    ])
    def test_unreadable_config_file_is_usage_error(self, tmp_path, capsys, content, reason):
        cfg = tmp_path / "run.cfg"
        if content is not None:
            cfg.write_bytes(content)
        assert run_cli("synth", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"usage error: {cfg}: {reason}\n"
        assert not (tmp_path / "o").exists()

    def test_key_set_twice_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 30\ndims = 2\n# n = 35\nn = 40\n")
        assert run_cli("synth", "--config", cfg, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == f"usage error: {cfg}:4: n is already set on line 1\n"
        assert not (tmp_path / "o").exists()

    def test_precedence_mechanism_for_every_field(self, tmp_path):
        # for each command and each option: a config-file value overrides
        # the default, and a flag overrides the file
        from fairclust.cli import COMMAND_OPTS, build_parser, resolve

        samples = {int: ("11", "22"), float: ("0.125", "0.875")}
        required_fill = {"data": "d.csv", "latent": "2", "pretrain": "ae.ckpt", "k": "2",
                         "model": "m.json"}
        parser = build_parser()
        from fairclust.cli import REQUIRED

        for command, opts in COMMAND_OPTS.items():
            for dest, (convert, default, _) in opts.items():
                base = []
                for req in REQUIRED[command]:
                    if req not in (dest, "out"):
                        base += ["--" + req.replace("_", "-"), required_fill[req]]
                file_raw, flag_raw = "7,8", "9,10"
                if isinstance(default, bool):
                    file_raw, flag_raw = "true", "false"
                else:
                    for py_type, pair in samples.items():
                        if isinstance(default, py_type) or (default is None
                                                            and convert is py_type):
                            file_raw, flag_raw = pair
                if convert is str:
                    file_raw, flag_raw = "fileval", "flagval"
                cfg = tmp_path / f"{command}_{dest}.cfg"
                cfg.write_text(f"{dest} = {file_raw}\n")
                args = parser.parse_args([command, "--config", str(cfg),
                                          "--out", "o", *base])
                assert resolve(args, command)[dest] == convert(file_raw), dest
                args = parser.parse_args([command, "--config", str(cfg),
                                          "--" + dest.replace("_", "-"),
                                          flag_raw, "--out", "o", *base])
                assert resolve(args, command)[dest] == convert(flag_raw), dest

    def test_out_can_come_from_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "dest"
        cfg.write_text(f"n = 30\ndims = 2\nblobs = 2\nt = 2\nout = {out}\n")
        assert run_cli("synth", "--config", cfg) == 0
        assert (out / "data.csv").exists()


class TestOutOfSample:
    def test_train_then_eval_on_held_out_split(self, tmp_path, capsys):
        import fairclust as fc2

        ds = fc2.synth_blobs(fc2.SynthSpec(n_points=400, dims=4, n_blobs=2,
                                           T=2, correlation=0.9,
                                           blob_spread=0.08, seed=1))
        train_ds, test_ds = fc2.split(ds, 0.25, seed=3)
        train_csv = tmp_path / "train.csv"
        test_csv = tmp_path / "test.csv"
        fc2.save_csv(train_ds, train_csv)
        fc2.save_csv(test_ds, test_csv)
        ae, run = tmp_path / "ae", tmp_path / "run"
        assert run_cli("pretrain", "--data", train_csv, "--normalize", "none",
                       "--hidden", "8", "--latent", 2,
                       "--layerwise-epochs", 15, "--global-epochs", 15,
                       "--ae-batch", 128, "--out", ae) == 0
        assert run_cli("train", "--data", train_csv, "--normalize", "none",
                       "--pretrain", ae / "ae.ckpt",
                       "--k", 2, "--batch", 128, "--max-epochs", 10,
                       "--seeds", "1", "--out", run) == 0
        capsys.readouterr()
        assert run_cli("eval", "--model", run / "seed_1" / "model.ckpt",
                       "--data", test_csv, "--normalize", "none") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["acc"] >= 0.95
        assert payload["t"] == 2


class TestNoOutputOnRefusal:
    @pytest.mark.parametrize("argv", [("train", "--k", 2),
                                      ("sweep", "--k", 2, "--gamma-list", "0,1")])
    def test_out_is_made_only_after_the_checkpoint_is_checked(self, synth_dir, tmp_path,
                                                              monkeypatch, capsys, argv):
        # the --pretrain checkpoint is checked after the read, but before
        # --out is made (the autoencoder's settings: TestPretrain)
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--pretrain", "missing.json", "--data", synth_dir / "data.csv",
                       "--out", "o") == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [("train", "--k", 2), ("sweep", "--k-list", "2,3")])
    def test_pretrain_checkpoint_is_required(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setattr(data, "load_csv", no_reads)
        monkeypatch.setattr(data, "load_with_manifest", no_reads)
        assert run_cli(*argv, "--data", tmp_path / "data.csv", "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == "usage error: missing required options: ['pretrain']\n"
        assert not (tmp_path / "o").exists()

    # train and sweep take the autoencoder only from the --pretrain checkpoint
    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("dest", sorted(AE_OPTS))
    @pytest.mark.parametrize("argv", [("train", "--k", 2),
                                      ("sweep", "--k", 2, "--gamma-list", "0,1")])
    def test_autoencoder_setting_refused(self, tmp_path, monkeypatch, capsys, argv, dest,
                                         source):
        for module, name in ((data, "load_csv"), (data, "load_with_manifest"),
                             (cli, "load_params")):
            monkeypatch.setattr(module, name, no_reads)
        flag, cfg = "--" + dest.replace("_", "-"), tmp_path / "run.cfg"
        cfg.write_text(f"{dest} = 7\n")
        setting = (flag, 7) if source == "flag" else ("--config", cfg)
        assert run_cli(*argv, "--data", tmp_path / "data.csv", "--pretrain",
                       tmp_path / "ae.ckpt", *setting, "--out", tmp_path / "o") == 1
        assert capsys.readouterr().err == (
            f"usage error: unrecognized arguments: {flag} 7\n" if source == "flag"
            else f"usage error: unknown config keys: ['{dest}']\n")
        assert not (tmp_path / "o").exists()


    REQUIRED_FLAGS = {
        "synth": (),
        "pretrain": ("--data", "d.csv", "--latent", 2),
        "train": ("--data", "d.csv", "--k", 2, "--pretrain", "ae.ckpt"),
        "eval": ("--model", "m.json", "--data", "d.csv"),
        "sweep": ("--data", "d.csv", "--k", 2, "--pretrain", "ae.ckpt", "--gamma-list", "0"),
    }

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command", sorted(REQUIRED_FLAGS))
    def test_empty_out_refused_before_any_read_or_write(self, tmp_path, monkeypatch,
                                                        capsys, command, source):
        for module, name in ((data, "load_csv"), (data, "load_with_manifest"),
                             (model, "load_model"), (cli, "load_params")):
            monkeypatch.setattr(module, name, no_reads)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out =\n")
        workdir = tmp_path / "wd"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        where = ("--out", "") if source == "flag" else ("--config", cfg)
        assert run_cli(command, *self.REQUIRED_FLAGS[command], *where) == 1
        expected = "--out" if source == "flag" else f"{cfg}: out"
        assert capsys.readouterr().err == f"usage error: {expected} must name a directory\n"
        assert list(workdir.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "eval", "pretrain"])
    def test_json_that_is_not_utf8_names_its_file(self, synth_dir, tmp_path, monkeypatch,
                                                  capsys, command):
        # the --pretrain checkpoint, the --model checkpoint, and the data
        # manifest: each is read once, and its path leads the message. A
        # checkpoint is read as JSON only when it starts with "{".
        bad = b"\xff{}" if command == "pretrain" else b"{\xff}"
        csv_path = synth_dir / "data.csv"
        if command == "pretrain":
            csv_path = tmp_path / "data.csv"
            csv_path.write_bytes((synth_dir / "data.csv").read_bytes())
            (path := tmp_path / "data.manifest.json").write_bytes(bad)
            argv = ("pretrain", "--latent", 2, "--out", "o")
        else:
            (path := tmp_path / f"{command}.json").write_bytes(bad)
            argv = (("train", "--k", 2, "--pretrain", path, "--out", "o")
                    if command == "train" else ("eval", "--model", path))
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--data", csv_path) == 2
        at = 0 if command == "pretrain" else 1
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8: invalid start byte at byte {at}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_checkpoint_of_neither_kind_names_its_file(self, synth_dir, tmp_path, monkeypatch,
                                                       capsys, command):
        (path := tmp_path / "ckpt").write_bytes(b"\xff{}")
        argv = (("train", "--k", 2, "--pretrain", path, "--out", "o")
                if command == "train" else ("eval", "--model", path, "--out", "o"))
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--data", synth_dir / "data.csv") == 2
        assert capsys.readouterr().err == f"error: {path}: not a fairclust checkpoint\n"
        assert not (tmp_path / "o").exists()


class TestEnvironment:
    def test_invalid_thread_env_is_usage_error(self, synth_dir, ae_ckpt, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.setenv("FAIRCLUST_THREADS", "zero")
        code = run_cli("train", "--data", synth_dir / "data.csv",
                       "--normalize", "none", "--pretrain", ae_ckpt,
                       "--k", 2, "--seeds", "1", "--out", tmp_path / "o")
        assert code == 1
        assert "FAIRCLUST_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_invalid_thread_env_stops_a_sweep_before_any_work(self, synth_dir, ae_ckpt,
                                                              tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FAIRCLUST_THREADS", "zero")
        code = run_cli("sweep", "--data", synth_dir / "data.csv", "--normalize", "none",
                       "--pretrain", ae_ckpt, "--k", 2, "--gamma-list", "0.1,1",
                       "--out", tmp_path / "o")
        assert code == 1
        assert "FAIRCLUST_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_console_script_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "fairclust.cli", "synth", "--n", "20",
             "--dims", "2", "--blobs", "2", "--t", "2", "--out",
             str(tmp_path)],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert (tmp_path / "data.csv").exists()

    def test_import_leaves_scipy_optimize_out(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, fairclust, fairclust.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_import_loads_no_scipy_module(self):
        result = subprocess.run(
            [sys.executable, "-c", "import sys, fairclust, fairclust.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))"],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


def other_value(value):
    """A valid setting of a config field that differs from value."""
    if isinstance(value, str):
        return "streaming" if value == "incore" else "incore"
    if isinstance(value, int):
        return value + 1
    return value / 2 if value else 0.5


class TestConfigBuilder:
    @pytest.mark.parametrize("command, required, table, factory, fixed", [
        ("pretrain", ("--data", "d.csv", "--latent", "2"), AE_OPTS, AeConfig, {"dims": (4, 2)}),
        ("train", ("--data", "d.csv", "--pretrain", "ae.ckpt", "--k", "2"), TRAIN_OPTS,
         TrainConfig, {"seed": 0}),
        ("synth", (), SYNTH_OPTS, SynthSpec, {}),
    ])
    def test_every_option_sets_the_field_it_names(self, command, required, table, factory,
                                                  fixed):
        # a misspelt FIELD_OF entry would leave its option without effect
        parser = build_parser()

        def built(*flags):
            args = parser.parse_args([command, *required, "--out", "o", *flags])
            return _config(factory, table, resolve(args, command), **fixed)

        options = [d for d in table if d not in ("hidden", "latent", "pretrain", "seeds")]
        assert sorted([FIELD_OF.get(d, d) for d in options] + list(fixed)) \
            == sorted(f.name for f in fields(factory))
        baseline = built()
        for dest in options:
            name = FIELD_OF.get(dest, dest)
            value = other_value(getattr(baseline, name))
            cfg = built("--" + dest.replace("_", "-"), str(value))
            assert getattr(cfg, name) == value != getattr(baseline, name), dest
            assert asdict(cfg) == {**asdict(baseline), name: value}, dest

    def test_one_jsonl_writer_for_logs_and_histories(self, ae_ckpt, trained_dir, tmp_path):
        _write_jsonl([{"b": 1, "a": [0.1, None]}, {}], tmp_path / "x.jsonl")
        assert (tmp_path / "x.jsonl").read_bytes() == b'{"a": [0.1, null], "b": 1}\n{}\n'
        for path in (ae_ckpt.parent / "pretrain_log.jsonl",
                     trained_dir / "seed_1" / "history.jsonl"):
            entries = [json.loads(line) for line in path.read_text().splitlines()]
            assert entries
            _write_jsonl(entries, tmp_path / "again.jsonl")
            assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
