"""The full command-line workflow in one script.

Drives the `fairclust` CLI end to end inside a temporary directory:
generate data, hold out a test split, pretrain, train over several seeds,
evaluate out of sample, and sweep the fairness weight. Every artifact but
the checkpoints (`ae.ckpt`, `model.ckpt`) is a CSV or JSON file; rerunning
the script reproduces them all byte for byte.
"""

import json
import tempfile
from pathlib import Path

import fairclust as fc
from fairclust.cli import main

root = Path(tempfile.mkdtemp(prefix="fairclust_demo_"))
print(f"working under {root}")


def run(*args):
    args = [str(a) for a in args]
    print(f"\n$ fairclust {' '.join(args)}")
    code = main(args)
    assert code == 0, f"exit code {code}"


# 1. synthesize a dataset and hold out a stratified test split
run("synth", "--n", 2000, "--dims", 10, "--blobs", 4, "--t", 4,
    "--corr", 0.9, "--spread", 0.5, "--seed", 42, "--out", root / "data")
full = fc.load_with_manifest(root / "data" / "data.csv")
train_ds, test_ds = fc.split(full, 0.2, seed=0)
fc.save_csv(train_ds, root / "data" / "train.csv")
fc.save_csv(test_ds, root / "data" / "test.csv")
print(f"split: {train_ds.n} train / {test_ds.n} test rows")

# 2. pretrain one autoencoder checkpoint shared by all later runs
run("pretrain", "--data", root / "data" / "train.csv", "--normalize", "none",
    "--hidden", "64,32", "--latent", 4, "--layerwise-epochs", 60,
    "--global-epochs", 60, "--lr-pretrain", 0.05, "--ae-batch", 128,
    "--out", root / "ae")

# 3. joint fair training over three seeds
run("train", "--data", root / "data" / "train.csv", "--normalize", "none",
    "--pretrain", root / "ae" / "ae.ckpt", "--k", 4, "--gamma", 10,
    "--recon-weight", 0.1, "--max-epochs", 60, "--seeds", "1,2,3",
    "--out", root / "run")

# 4. evaluate the first seed on the held-out rows
run("eval", "--model", root / "run" / "seed_1" / "model.ckpt",
    "--data", root / "data" / "test.csv", "--normalize", "none",
    "--dump-latent", "true", "--out", root / "eval")

# 5. sweep the fairness weight, reusing the same checkpoint
run("sweep", "--data", root / "data" / "train.csv", "--normalize", "none",
    "--pretrain", root / "ae" / "ae.ckpt", "--k", 4,
    "--gamma-list", "0.01,1,100", "--recon-weight", 0.1,
    "--max-epochs", 60, "--seeds", "1,2,3", "--out", root / "sweep")

print("\nsweep table:")
print((root / "sweep" / "sweep.csv").read_text())

aggregate = json.loads((root / "run" / "aggregate.json").read_text())
print("training aggregate (median over seeds):")
for name, stats in aggregate["metrics"].items():
    if stats:
        print(f"  {name}: {stats['median']:.4f}")
print(f"\nall artifacts live under {root}")
