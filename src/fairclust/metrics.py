"""Evaluation quantities: the Wasserstein fairness distance (FWD) of a
cluster's protected histogram, balance and Calders-Verwer scores for binary
attributes, clustering accuracy, normalized mutual information, and the
aggregate report, which holds each cluster's counts and histogram.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.special import rel_entr

from .clustering import contingency, hungarian_match

REPORT_VERSION = 1

# The headline fields of a report: recorded each training epoch and
# aggregated across seeds.
SUMMARY_FIELDS = ("acc", "nmi", "fwd_mean", "fwd_max", "balance_min")


def fwd(h, T=None, ordered=False):
    """Wasserstein distance between a protected histogram and uniform.

    Protected states are categorical, so the default ground metric is the
    discrete 0/1 metric, under which W1 reduces to half the L1 distance:
    0.5 * sum |h_t - 1/T|. Zero iff the histogram is uniform; the maximum
    (T-1)/T is reached by a monochromatic cluster. Pass ordered=True for
    ordinal attributes to use unit-spaced bins instead.
    """
    h = np.asarray(h, dtype=float)
    T = len(h) if T is None else T
    if len(h) != T:
        raise ValueError("histogram length does not match T")
    if abs(h.sum() - 1.0) > 1e-8:
        raise ValueError("histogram must sum to 1")
    dev = h - 1.0 / T
    if ordered:
        return float(np.abs(np.cumsum(dev)[:-1]).sum())
    return float(0.5 * np.abs(dev).sum())


def balance(counts):
    """min(N1/N2, N2/N1) for a binary protected attribute; 0 when either
    count is zero. Undefined for T != 2 (FWD covers the multi-state case)."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (2,):
        raise ValueError("balance is defined only for T=2")
    if counts[0] == 0 or counts[1] == 0:
        return 0.0
    return float(min(counts[0] / counts[1], counts[1] / counts[0]))


def cv_score(h):
    """Calders-Verwer score |h1 - h2| for a binary histogram. Equals twice
    the discrete-metric fwd exactly."""
    h = np.asarray(h, dtype=float)
    if h.shape != (2,):
        raise ValueError("the Calders-Verwer score is defined only for T=2")
    if abs(h.sum() - 1.0) > 1e-8:
        raise ValueError("histogram must sum to 1")
    return float(abs(h[0] - h[1]))


def acc(pred, truth):
    """Clustering accuracy: matched agreement under the optimal label
    permutation, divided by N. Invariant to relabeling of pred."""
    _, agreement = hungarian_match(pred, truth)
    return agreement / len(pred)


def nmi(pred, truth):
    """Normalized mutual information with the geometric-mean normalization
    I(pred; truth) / sqrt(H(pred) H(truth)), natural log.

    Defined as 1 when both partitions are trivial (each a single class)
    and 0 when exactly one is. Triviality is read off the count table, not
    off a vanishing entropy: a single class's summed probabilities can
    round to just above 1, which makes its entropy a tiny negative number.
    """
    table = contingency(pred, truth)
    trivial_pred = np.count_nonzero(table.sum(axis=1)) == 1
    trivial_truth = np.count_nonzero(table.sum(axis=0)) == 1
    if trivial_pred or trivial_truth:
        return float(trivial_pred and trivial_truth)
    joint = table / len(pred)
    p_pred = joint.sum(axis=1)
    p_truth = joint.sum(axis=0)

    def entropy(p):
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    h_pred, h_truth = entropy(p_pred), entropy(p_truth)
    mutual = float(rel_entr(joint, np.outer(p_pred, p_truth)).sum())
    value = mutual / np.sqrt(h_pred * h_truth)
    return float(min(max(value, 0.0), 1.0))


@dataclass(frozen=True)
class MetricsReport:
    K: int
    T: int
    K_effective: int
    per_cluster: list
    fwd_mean: float
    fwd_max: float
    balance_min: float | None = None
    acc: float | None = None
    nmi: float | None = None
    schema_version: int = REPORT_VERSION

    def to_dict(self):
        return {name.lower(): value for name, value in asdict(self).items()}

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def report_from_assignments(assignments, protected, T, K, labels=None):
    """All applicable metrics for one hard clustering.

    fwd_mean is the unweighted mean over non-empty clusters, fwd_max the
    worst (unfairest) cluster. Each cluster is one row of the contingency
    table (counts, size and, when non-empty, histogram counts / size).
    Empty clusters are excluded from the fairness aggregates but still
    counted against K_effective.
    """
    per_cluster = []
    fwd_values = []
    balance_values = []
    for k, counts in enumerate(contingency(assignments, protected, K, T)):
        size = int(counts.sum())
        entry = {"cluster": k, "size": size, "counts": counts.tolist()}
        if size:
            h = counts / size
            entry["histogram"] = h.tolist()
            entry["fwd"] = fwd(h, T)
            fwd_values.append(entry["fwd"])
            if T == 2:
                entry["balance"] = balance(counts)
                entry["cv"] = cv_score(h)
                balance_values.append(entry["balance"])
        per_cluster.append(entry)
    if not fwd_values:
        raise ValueError("no non-empty clusters")
    report = MetricsReport(
        K=K,
        T=T,
        K_effective=len(fwd_values),
        per_cluster=per_cluster,
        fwd_mean=float(np.mean(fwd_values)),
        fwd_max=float(np.max(fwd_values)),
        balance_min=float(np.min(balance_values)) if balance_values else None,
        acc=acc(assignments, labels) if labels is not None else None,
        nmi=nmi(assignments, labels) if labels is not None else None,
    )
    return report


def report(model, ds):
    """Evaluate a trained model on a dataset (nearest-centroid prediction)."""
    from .model import predict

    assignments = predict(model, ds.features)
    return report_from_assignments(assignments, ds.protected, ds.T,
                                   model.centroids.shape[0], labels=ds.labels)


def histograms_to_csv(rep, path):
    """Per-cluster histogram table for external plotting."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "size", "fwd"] + [f"h{t}" for t in range(rep.T)])
        for entry in rep.per_cluster:
            if entry["size"] == 0:
                continue
            writer.writerow([entry["cluster"], entry["size"], repr(entry["fwd"])]
                            + [repr(v) for v in entry["histogram"]])
    return path
