"""Command-line entry point: synth, pretrain, train, eval, sweep.

Every command is deterministic given its config and seeds. Values resolve
as flag > config file > default; config files are UTF-8 ``key = value``
lines with ``#`` comments, keyed by the flag names with underscores. An
option that sets a field of AeConfig, TrainConfig or SynthSpec has no
default here: left unset, it keeps the class's own.
Only pretrain takes the autoencoder's settings; train and sweep take the
checkpoint it writes, as --pretrain. Config objects are built once, from
the option tables: the SynthSpec and one TrainConfig per seed (and sweep
point) before any file is read, and the AeConfig, which needs the data
width, once after the read; --out is made only once it or the --pretrain
checkpoint is checked, and by pretrain only once the pretrained encoder
is: latents that are not finite or that are one vector for every row are
a runtime failure. Invalid settings, a --config file that cannot be
read or that sets a key twice, an empty --out, an empty list or a value
listed twice in --seeds, --gamma-list or --k-list, sweep values that
would share a directory, and a swept setting also set on its own (--k
with --k-list, --gamma with --gamma-list) are usage errors, as is
--dump-latent without --out.
Artifacts land under --out with a manifest.json index. Exit codes:
0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import autoencoder, clustering, data, metrics, model
from .ckpt import load_params, save_params

SCHEMA_VERSION = 1

# Checkpoint file names under --out. --pretrain and --model take any path:
# a checkpoint's reader is chosen by its content.
AE_CHECKPOINT = "ae.ckpt"
MODEL_CHECKPOINT = "model.ckpt"


class CliError(Exception):
    """Usage error; exits with status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _int_list(text):
    return [int(v) for v in str(text).split(",") if v != ""]


def _float_list(text):
    return [float(v) for v in str(text).split(",") if v != ""]


def _bool(text):
    value = str(text).strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Option tables: dest -> (converter, default, help). The converter also
# parses config-file values, so flags and files share one type system; a
# ValueError from it is a usage error naming the flag or the file key.
DATA_OPTS = {
    "data": (str, None, "input CSV path"),
    "feature_cols": (lambda s: str(s).split(","), None, "numeric feature columns"),
    "categorical_cols": (lambda s: str(s).split(","), None, "categorical feature columns"),
    "protected_col": (str, None, "protected attribute column"),
    "label_col": (str, None, "ground-truth label column"),
    "normalize": (str, "minmax", "minmax, zscore, or none"),
}

AE_OPTS = {
    "hidden": (_int_list, [500, 500, 2000], "hidden encoder widths"),
    "latent": (int, None, "bottleneck width d"),
    "layerwise_epochs": (int, None, "epochs per layer pair"),
    "global_epochs": (int, None, "end-to-end fine-tuning epochs"),
    "lr_pretrain": (float, None, "pretraining learning rate"),
    "dropout": (float, None, "input corruption rate for pretraining"),
    "ae_batch": (int, None, "pretraining minibatch size"),
    "ae_seed": (int, None, "pretraining seed"),
}

TRAIN_OPTS = {
    "pretrain": (str, None, "autoencoder checkpoint written by fairclust pretrain"),
    "k": (int, None, "number of clusters"),
    "gamma": (float, None, "fairness weight"),
    "beta": (float, None, "smoothing root for the fairness target"),
    "lr": (float, None, "training learning rate"),
    "batch": (int, None, "training minibatch size"),
    "max_epochs": (int, None, "epoch cap"),
    "convergence_tol": (float, None, "stop when fewer assignments change"),
    "recon_weight": (float, None, "reconstruction term weight"),
    "refresh": (str, None, "fairness-target centroids: incore (live) or streaming (estimated)"),
    "seeds": (_int_list, [0], "training seeds"),
}

SYNTH_OPTS = {
    "n": (int, 1000, "number of points"),
    "dims": (int, 10, "feature dimension"),
    "blobs": (int, 4, "number of Gaussian blobs"),
    "t": (int, 4, "number of protected states"),
    "corr": (float, 0.9, "blob-to-state correlation in [0, 1]"),
    "spread": (float, None, "blob standard deviation, relative to the unit center gap"),
    "seed": (int, None, "generator seed"),
}

# Options named unlike the config field they set, and the options of the
# config tables that set no field directly (hidden and latent make
# AeConfig.dims; seeds gives one TrainConfig.seed per run).
FIELD_OF = {"k": "K", "ae_batch": "batch", "ae_seed": "seed", "n": "n_points",
            "blobs": "n_blobs", "t": "T", "corr": "correlation", "spread": "blob_spread"}
NOT_A_FIELD = ("hidden", "latent", "pretrain", "seeds")


COMMAND_OPTS = {
    "synth": {**SYNTH_OPTS},
    "pretrain": {**DATA_OPTS, **AE_OPTS},
    "train": {**DATA_OPTS, **TRAIN_OPTS},
    "eval": {
        "model": (str, None, "model checkpoint path"),
        **DATA_OPTS,
        "dump_latent": (_bool, False, "also export latent embeddings as CSV"),
    },
    "sweep": {**DATA_OPTS, **TRAIN_OPTS,
              "gamma_list": (_float_list, None, "gamma sweep values"),
              "k_list": (_int_list, None, "K sweep values")},
}

REQUIRED = {
    "synth": ("out",),
    "pretrain": ("data", "latent", "out"),
    "train": ("data", "pretrain", "k", "out"),
    "eval": ("model", "data"),
    "sweep": ("data", "pretrain", "out"),
}


def build_parser():
    parser = _Parser(prog="fairclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMAND_OPTS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        for dest, (_, _, help_text) in opts.items():
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, default=None,
                           help=help_text)
    return parser


def parse_config_file(path):
    values, line_of = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise CliError(f"{path}:{line_no}: {key} is already set on line {line_of[key]}")
        values[key], line_of[key] = value, line_no
    return values


def resolve(args, command):
    """Merge flag > file > default into a plain options dict. A value its
    converter refuses is a usage error naming the flag or file key."""
    opts = COMMAND_OPTS[command]
    from_file = parse_config_file(args.config) if args.config else {}
    unknown = set(from_file) - set(opts) - {"out"}
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for dest, (convert, default, _) in opts.items():
        raw, where = getattr(args, dest), "--" + dest.replace("_", "-")
        if raw is None and dest in from_file:
            raw, where = from_file[dest], f"{args.config}: {dest}"
        try:
            resolved[dest] = convert(raw) if raw is not None else default
        except ValueError:
            raise CliError(f"{where}: invalid value {raw!r}") from None
    resolved["out"] = args.out if args.out is not None else from_file.get("out")
    if resolved["out"] == "":
        raise CliError("--out must name a directory" if args.out is not None
                       else f"{args.config}: out must name a directory")
    missing = [k for k in REQUIRED[command] if resolved.get(k) is None]
    if missing:
        raise CliError(f"missing required options: {missing}")
    if resolved.get("seeds") == []:
        raise CliError("--seeds must list at least one seed")
    _refuse_shared_dirs("--seeds", resolved.get("seeds", []), "seed_{}".format)
    return resolved


def _thread_count():
    raw = os.environ.get("FAIRCLUST_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise CliError(f"FAIRCLUST_THREADS must be an integer, got {raw!r}")
    if count < 1:
        raise CliError("FAIRCLUST_THREADS must be at least 1")
    return count


def _config(factory, table, opts, **fixed):
    """Build a config object from the options of table that are set, each
    passed to the field it sets, plus the fixed fields. An option left
    unset keeps the class's default; invalid values are usage errors."""
    fields = {FIELD_OF.get(dest, dest): opts[dest] for dest in table
              if dest not in NOT_A_FIELD and opts[dest] is not None}
    try:
        return factory(**fields, **fixed)
    except ValueError as exc:
        raise CliError(str(exc))


def _refuse_shared_dirs(flag, values, name):
    """Each value writes the directory name(value); two values that would
    write one directory are a usage error."""
    owner = {}
    for value in values:
        path = name(value)
        if path in owner:
            raise CliError(f"{flag} lists {value!r} twice" if owner[path] == value else
                           f"{flag}: {owner[path]!r} and {value!r} would both write {path}")
        owner[path] = value


def _json_dump(payload, path):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_jsonl(entries, path):
    with path.open("w", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _write_manifest(out, command, artifacts):
    _json_dump({"schema_version": SCHEMA_VERSION, "command": command,
                "artifacts": sorted(str(a) for a in artifacts)}, Path(out) / "manifest.json")


def _load_dataset(opts):
    path = Path(opts["data"])
    if opts["feature_cols"] or opts["categorical_cols"]:
        schema = {}
        for col in opts["feature_cols"] or []:
            schema[col] = "feature"
        for col in opts["categorical_cols"] or []:
            schema[col] = "categorical"
        if not opts["protected_col"]:
            raise CliError("--protected-col is required when the schema is given by flags")
        schema[opts["protected_col"]] = "protected"
        if opts["label_col"]:
            schema[opts["label_col"]] = "label"
        ds = data.load_csv(path, schema)
    else:
        ds = data.load_with_manifest(path)
    if opts["normalize"] != "none":
        ds = data.normalize(ds, opts["normalize"])
    return ds


def cmd_synth(opts):
    ds = data.synth_blobs(_config(data.SynthSpec, SYNTH_OPTS, opts))
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "data.csv"
    manifest_path = data.save_csv(ds, csv_path)
    _write_manifest(out, "synth", [csv_path.name, manifest_path.name])
    print(f"wrote {csv_path} ({ds.n} rows, {ds.d} features, T={ds.T})")
    return 0


def cmd_pretrain(opts):
    ds = _load_dataset(opts)
    dims = tuple([ds.d] + list(opts["hidden"]) + [opts["latent"]])
    cfg = _config(autoencoder.AeConfig, AE_OPTS, opts, dims=dims)
    params, log = autoencoder.pretrain(ds.features, cfg)
    autoencoder.require_usable_latents(autoencoder.encode(params, ds.features))
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)
    save_params(params, out / AE_CHECKPOINT)
    _write_jsonl(log, out / "pretrain_log.jsonl")
    _write_manifest(out, "pretrain", [AE_CHECKPOINT, "pretrain_log.jsonl"])
    print(f"wrote {out / AE_CHECKPOINT}")
    return 0


def _seed_configs(opts):
    """One TrainConfig per seed of --seeds."""
    return [_config(model.TrainConfig, TRAIN_OPTS, opts, seed=s) for s in opts["seeds"]]


def _run_one_seed(ds, ae_params, cfg, out):
    seed_dir = out / f"seed_{cfg.seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    trained = model.train(ds, ae_params, cfg)
    model.save_model(trained, seed_dir / MODEL_CHECKPOINT)
    _write_jsonl(trained.history, seed_dir / "history.jsonl")
    rep = metrics.report(trained, ds)
    (seed_dir / "report.json").write_text(rep.to_json())
    return rep


def _aggregate(reports_by_seed, failures):
    """failures maps each failed seed to its exception."""
    agg = {"schema_version": SCHEMA_VERSION, "seeds": sorted(reports_by_seed),
           "failures": [{"seed": seed,
                         "error": traceback.format_exception_only(exc)[-1].strip(),
                         "traceback": "".join(traceback.format_exception(exc))}
                        for seed, exc in sorted(failures.items())],
           "metrics": {}}
    for name in metrics.SUMMARY_FIELDS:
        values = [getattr(reports_by_seed[s], name) for s in sorted(reports_by_seed)]
        if any(v is None for v in values) or not values:
            agg["metrics"][name] = None
            continue
        agg["metrics"][name] = {
            "mean": float(np.mean(values)),
            "median": float(np.median(values)),
            "std": float(np.std(values)),
            "values": [float(v) for v in values],
        }
    return agg


def _run_seeds(ds, ae_params, configs, out, threads):
    out.mkdir(parents=True, exist_ok=True)
    reports, failures = {}, {}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {cfg.seed: pool.submit(_run_one_seed, ds, ae_params, cfg, out)
                   for cfg in configs}
    for seed, future in futures.items():
        try:
            reports[seed] = future.result()
        except Exception as exc:  # per-seed failure; the summary records it
            failures[seed] = exc
    agg = _aggregate(reports, failures)
    _json_dump(agg, out / "aggregate.json")
    return agg


def _checked_ae(ds, path):
    """The ParamSet of the --pretrain checkpoint at path, checked against
    the data before train or sweep makes --out."""
    params = load_params(path)
    encoder = params.layers("enc")
    if not encoder:
        raise ValueError(f"{path}: no encoder layers")
    if encoder[0].n_in != ds.d:
        raise ValueError(f"checkpoint expects {encoder[0].n_in} features, dataset has {ds.d}")
    return params


def cmd_train(opts):
    configs = _seed_configs(opts)
    threads = _thread_count()
    ds = _load_dataset(opts)
    ae_params = _checked_ae(ds, opts["pretrain"])
    out = Path(opts["out"])
    agg = _run_seeds(ds, ae_params, configs, out, threads)
    _write_manifest(out, "train", ["aggregate.json"] + [f"seed_{s}" for s in opts["seeds"]])
    print(json.dumps(agg["metrics"], sort_keys=True, indent=2))
    if agg["failures"]:
        for failure in agg["failures"]:
            print(f"seed {failure['seed']} failed: {failure['error']}", file=sys.stderr)
        print(f"{len(agg['failures'])} seed(s) failed", file=sys.stderr)
        return 2
    return 0


def cmd_eval(opts):
    if opts["dump_latent"] and not opts["out"]:
        raise CliError("--dump-latent needs --out")
    trained = model.load_model(opts["model"])
    ds = _load_dataset(opts)
    if trained.fairoids.shape[0] != ds.T:
        raise ValueError(
            f"protected-state mismatch: model T={trained.fairoids.shape[0]}, "
            f"dataset T={ds.T}"
        )
    expected = trained.params.layers("enc")[0].n_in
    if expected != ds.d:
        raise ValueError(f"feature mismatch: model D={expected}, dataset D={ds.d}")
    Z = autoencoder.encode(trained.params, ds.features)
    assignments = clustering.nearest_assign(Z, trained.centroids)
    rep = metrics.report_from_assignments(assignments, ds.protected, ds.T,
                                          trained.centroids.shape[0], labels=ds.labels)
    sys.stdout.write(rep.to_json())
    if opts["out"]:
        out = Path(opts["out"])
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(rep.to_json())
        artifacts = ["report.json"]
        hist_path = metrics.histograms_to_csv(rep, out / "histograms.csv")
        artifacts.append(hist_path.name)
        if opts["dump_latent"]:
            latent_path = out / "latent.csv"
            data.write_rows(latent_path, [f"z{j}" for j in range(Z.shape[1])]
                            + ["assignment", "protected"], Z, assignments, ds.protected)
            artifacts.append(latent_path.name)
        _write_manifest(out, "eval", artifacts)
    return 0


def cmd_sweep(opts):
    if (opts["gamma_list"] is None) == (opts["k_list"] is None):
        raise CliError("pass exactly one of --gamma-list or --k-list")
    axis = "gamma" if opts["gamma_list"] is not None else "k"
    values = opts["gamma_list"] if axis == "gamma" else opts["k_list"]
    if not values:
        raise CliError(f"--{axis}-list must list at least one value")
    if opts[axis] is not None:
        raise CliError(f"pass --{axis}-list or --{axis}, not both")
    if axis == "gamma" and opts["k"] is None:
        raise CliError("--k is required for a gamma sweep")
    point_dir = "gamma_{:g}".format if axis == "gamma" else "k_{}".format
    _refuse_shared_dirs(f"--{axis}-list", values, point_dir)
    points = [(value, _seed_configs({**opts, axis: value})) for value in values]
    threads = _thread_count()

    ds = _load_dataset(opts)
    # One shared autoencoder per dataset isolates the swept axis.
    ae_params = _checked_ae(ds, opts["pretrain"])
    out = Path(opts["out"])
    out.mkdir(parents=True, exist_ok=True)

    rows, artifacts = [], []
    for value, configs in points:
        try:
            agg = _run_seeds(ds, ae_params, configs, out / point_dir(value), threads)
        except Exception as exc:
            rows.append({"value": value, "error": str(exc)})
            continue
        row = {"value": value}
        for name in metrics.SUMMARY_FIELDS:
            stats = agg["metrics"][name]
            row[name] = stats if stats is None else {k: stats[k] for k in ("mean", "median", "std")}
        if agg["failures"]:
            row["error"] = f"{len(agg['failures'])} seed(s) failed"
        rows.append(row)
        artifacts.append(point_dir(value))

    table_path = out / "sweep.csv"
    with table_path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [axis]
        for name in metrics.SUMMARY_FIELDS:
            header += [f"{name}_median", f"{name}_mean", f"{name}_std"]
        writer.writerow(header + ["error"])
        for row in rows:
            line = [repr(float(row["value"]))]
            for name in metrics.SUMMARY_FIELDS:
                stats = row.get(name)
                if stats is None:
                    line += ["", "", ""]
                else:
                    line += [repr(stats["median"]), repr(stats["mean"]), repr(stats["std"])]
            line.append(row.get("error", ""))
            writer.writerow(line)
    _json_dump({"schema_version": SCHEMA_VERSION, "axis": axis, "rows": rows},
               out / "sweep.json")
    _write_manifest(out, "sweep", artifacts + ["sweep.csv", "sweep.json"])
    print(f"wrote {table_path}")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = resolve(args, args.command)
        if opts.get("normalize", "none") not in (*data.NORMALIZATIONS, "none"):
            raise CliError(f"unknown normalization mode {opts['normalize']!r}")
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](opts)
    except CliError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
