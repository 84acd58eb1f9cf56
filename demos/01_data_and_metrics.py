"""Generating protected-attribute data and reading the fairness metrics.

Builds a synthetic dataset of Gaussian blobs whose protected states track
blob identity, then walks through the metric suite on hand-made
partitions: per-cluster histograms, the Wasserstein fairness distance
(FWD), balance, and the Calders-Verwer score.
"""

import numpy as np

import fairclust as fc
from fairclust.clustering import contingency
from fairclust.metrics import balance, cv_score, fwd

# Four blobs, four protected states. With correlation 0.9 each point's
# state matches its blob 92.5% of the time, so clustering by geometry
# alone produces very unfair clusters.
spec = fc.SynthSpec(n_points=2000, dims=10, n_blobs=4, T=4,
                    correlation=0.9, blob_spread=0.3, seed=7)
ds = fc.synth_blobs(spec)
print(f"dataset: {ds.n} points, {ds.d} features, T={ds.T} protected states")
print(f"state counts: {np.bincount(ds.protected, minlength=ds.T)}")

# The ideal geometric clustering is simply the blob labels.
print("\nclustering by blob identity (geometrically perfect, very unfair):")
# Each row of the cluster-by-state count table is one cluster's counts.
for counts in contingency(ds.labels, ds.protected, 4, 4):
    h = counts / counts.sum()
    print(f"  histogram {np.round(h, 3)}  fwd={fwd(h):.3f}")

# A random partition is fair but useless.
rng = np.random.default_rng(0)
random_assign = rng.integers(0, 4, size=ds.n)
print("\nrandom partition (useless, very fair):")
for counts in contingency(random_assign, ds.protected, 4, 4):
    h = counts / counts.sum()
    print(f"  histogram {np.round(h, 3)}  fwd={fwd(h):.3f}")

# FWD ranges from 0 (uniform histogram) to (T-1)/T (monochromatic).
print(f"\nfwd bounds for T=4: 0 .. {fwd([1, 0, 0, 0]):.2f}")

# For binary attributes the suite adds balance and the Calders-Verwer
# score; the CV score is exactly twice the binary FWD.
h = np.array([0.8, 0.2])
print(f"\nbinary histogram {h}: fwd={fwd(h):.2f}, cv={cv_score(h):.2f}, "
      f"balance={balance([80, 20]):.2f}")

# Datasets round trip through CSV plus a JSON manifest.
out = fc.save_csv(ds, "/tmp/fairclust_demo_data.csv")
print(f"\nwrote /tmp/fairclust_demo_data.csv with manifest {out.name}")
back = fc.load_with_manifest("/tmp/fairclust_demo_data.csv")
print(f"round trip ok: {np.allclose(back.features, ds.features)}")
