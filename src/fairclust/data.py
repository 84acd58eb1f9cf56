"""Datasets with protected-attribute annotations: CSV ingestion, one-hot
expansion, normalization, stratified splitting, synthetic blob generation,
and CSV + manifest export.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .nn import Rng, read_json

ROLES = ("feature", "categorical", "label", "protected")
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with protected-state annotations and optional labels.

    protected holds integer states in 0..T-1. Instances are immutable after
    construction and safe to share across threads.
    """

    features: np.ndarray
    protected: np.ndarray
    labels: np.ndarray | None = None
    T: int | None = None
    feature_names: tuple = ()

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features contain non-finite values")
        prot = np.asarray(self.protected, dtype=int)
        if prot.shape != (feats.shape[0],):
            raise ValueError("protected must have one state per row")
        t = self.T
        if t is None:
            states = np.unique(prot)
            if states.size == 0 or states[0] != 0 or states[-1] != states.size - 1:
                raise ValueError("protected states must form a contiguous range 0..T-1")
            t = int(states.size)
        elif prot.size and (prot.min() < 0 or prot.max() >= t):
            raise ValueError(f"protected states must lie in 0..{t - 1}")
        if t < 2:
            raise ValueError("T=1: fairness undefined")
        labels = self.labels
        if labels is not None:
            labels = np.asarray(labels, dtype=int)
            if labels.shape != (feats.shape[0],):
                raise ValueError("labels must have one entry per row")
            labels.setflags(write=False)
        names = tuple(self.feature_names) or tuple(f"f{j}" for j in range(feats.shape[1]))
        if len(names) != feats.shape[1]:
            raise ValueError("feature_names length must match the feature width")
        feats.setflags(write=False)
        prot.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "protected", prot)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def state_counts(self):
        return np.bincount(self.protected, minlength=self.T)


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for Gaussian-blob data with controllable protected structure."""

    n_points: int
    dims: int
    n_blobs: int
    T: int
    correlation: float
    blob_spread: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 1 or self.dims < 1 or self.n_blobs < 1:
            raise ValueError("n_points, dims and n_blobs must be positive")
        if self.T < 2:
            raise ValueError("T must be at least 2")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must lie in [0, 1]")
        if self.blob_spread <= 0:
            raise ValueError("blob_spread must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def encode_first_appearance(values):
    """Re-code raw values to 0..T-1.

    Values that are already a contiguous block of integers 0..T-1 are kept
    as they are, so exported files round trip without permuting the state
    coding. Anything else is re-coded in first-appearance order.
    """
    try:
        ints = [int(v) for v in values]
    except (TypeError, ValueError):
        ints = None
    if ints is not None:
        present = sorted(set(ints))
        if present and present[0] == 0 and present[-1] == len(present) - 1:
            return np.asarray(ints, dtype=int), [str(v) for v in present]
    codes, levels = [], {}
    for v in values:
        if v not in levels:
            levels[v] = len(levels)
        codes.append(levels[v])
    return np.asarray(codes, dtype=int), list(levels)


def one_hot(codes, n_levels):
    block = np.zeros((len(codes), n_levels))
    block[np.arange(len(codes)), codes] = 1.0
    return block


def load_csv(path, schema):
    """Read a header-first CSV into a Dataset.

    schema maps column names to roles: feature (numeric), categorical
    (one-hot expanded), label (at most one), protected (exactly one).
    Columns absent from the schema are ignored; a schema column named more
    than once in the header is an error. Features keep the file's column
    order, not the schema's (a manifest's roles are key-sorted: f0, f1,
    f10, ...).

    The file is opened and read once. Each row's numeric cells are
    converted by one numpy call, which parses each cell as `float()` does
    (surrounding whitespace and CSV quotes are dropped; "1_000" and
    non-ASCII digits are accepted). The first bad row in file order is an
    error naming the row: a blank line, the wrong number of cells, or a
    missing, unparseable or non-finite numeric cell, whose column is named
    too.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    bad = [r for r in schema.values() if r not in ROLES]
    if bad:
        raise ValueError(f"unknown column roles: {sorted(set(bad))}")
    protected_cols = [c for c, r in schema.items() if r == "protected"]
    label_cols = [c for c, r in schema.items() if r == "label"]
    if len(protected_cols) != 1:
        raise ValueError("schema must name exactly one protected column")
    if len(label_cols) > 1:
        raise ValueError("schema must name at most one label column")
    feature_cols = [c for c, r in schema.items() if r == "feature"]
    categorical_cols = [c for c, r in schema.items() if r == "categorical"]
    if not feature_cols and not categorical_cols:
        raise ValueError("schema must name at least one feature column")

    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV file")
        missing = [c for c in schema if c not in header]
        if missing:
            raise ValueError(f"columns not present in the file: {missing}")
        repeated = [c for c in schema if header.count(c) > 1]
        if repeated:
            raise ValueError(f"columns named more than once in the header: {repeated}")
        col_idx = {c: header.index(c) for c in schema}
        feature_cols.sort(key=col_idx.get)
        categorical_cols.sort(key=col_idx.get)
        text_cols = categorical_cols + protected_cols + label_cols
        numeric, text = _read_rows(reader, len(header), col_idx, feature_cols, text_cols)
    raw_cat = text[: len(categorical_cols)]
    raw_prot = text[len(categorical_cols)]

    if not raw_prot:
        raise ValueError("CSV contains no data rows")
    protected, prot_levels = encode_first_appearance(raw_prot)
    if len(prot_levels) == 1:
        raise ValueError("T=1: fairness undefined")

    blocks, names = [numeric], list(feature_cols)
    for c, cells in zip(categorical_cols, raw_cat):
        codes, levels = encode_first_appearance(cells)
        blocks.append(one_hot(codes, len(levels)))
        names.extend(f"{c}={level}" for level in levels)
    features = np.hstack(blocks)

    labels = None
    if label_cols:
        labels, _ = encode_first_appearance(text[-1])
    return Dataset(features, protected, labels=labels, feature_names=names)


def _read_rows(reader, width, col_idx, feature_cols, text_cols):
    """(numeric block, stripped text columns) from the data rows left in
    `reader`, each row read once. Raises on the first bad row in file order;
    only that row is scanned cell by cell, to name the column."""
    numeric_idx = [col_idx[c] for c in feature_cols]
    text_idx = [col_idx[c] for c in text_cols]
    text = [[] for _ in text_cols]

    def numeric_rows():
        for row_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(f"row {row_no}: expected {width} cells, got {len(row)}")
            try:
                values = np.array([row[i] for i in numeric_idx], dtype=float)
            except ValueError:
                values = None
            if values is None or not np.all(np.isfinite(values)):
                values = _checked_cells(row_no, row, numeric_idx, feature_cols)
            for cells, i in zip(text, text_idx):
                cells.append(row[i].strip())
            yield values

    if not numeric_idx:  # np.fromiter takes no zero-width rows
        for _ in numeric_rows():
            pass
        return np.empty((len(text[0]), 0)), text
    # one growing buffer: stacking per-row arrays fragments the heap
    return np.fromiter(numeric_rows(), dtype=np.dtype((float, len(numeric_idx)))), text


def _checked_cells(row_no, row, numeric_idx, feature_cols):
    """`float()` on each stripped numeric cell of one row. Raises the first
    error, naming the row and column."""
    values = []
    for i, c in zip(numeric_idx, feature_cols):
        cell = row[i].strip()
        try:
            value = float(cell)
        except ValueError:
            raise ValueError(f"row {row_no}, column {c!r}: cannot parse {cell!r}")
        if not math.isfinite(value):
            raise ValueError(f"row {row_no}, column {c!r}: non-finite value {cell!r}")
        values.append(value)
    return values


def normalize(ds, mode="minmax"):
    """Column-wise rescaling; constant columns map to all zeros."""
    if ds.n < 2:
        raise ValueError("normalization needs at least 2 rows")
    x = ds.features
    if mode == "minmax":
        lo, hi = x.min(axis=0), x.max(axis=0)
        span = hi - lo
        safe = np.where(span == 0, 1.0, span)
        out = np.where(span == 0, 0.0, (x - lo) / safe)
    elif mode == "zscore":
        mean, std = x.mean(axis=0), x.std(axis=0, ddof=1)
        safe = np.where(std == 0, 1.0, std)
        out = np.where(std == 0, 0.0, (x - mean) / safe)
    else:
        raise ValueError(f"unknown normalization mode {mode!r}")
    return Dataset(out, ds.protected, labels=ds.labels, T=ds.T,
                   feature_names=ds.feature_names)


def split(ds, test_fraction, seed):
    """Deterministic train/test split, stratified by protected state.

    Every state with at least 2 members appears in both parts; singleton
    states go to the training part. Both parts keep the parent's T, so the
    test part may lack singleton states.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    stream = Rng(seed).stream("split")
    test_idx = []
    for t in range(ds.T):
        members = np.flatnonzero(ds.protected == t)
        if members.size < 2:
            continue
        n_test = int(round(members.size * test_fraction))
        n_test = max(1, min(members.size - 1, n_test))
        picked = stream.permutation(members.size)[:n_test]
        test_idx.append(members[picked])
    test_idx = np.sort(np.concatenate(test_idx)) if test_idx else np.zeros(0, dtype=int)
    mask = np.zeros(ds.n, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    if train_idx.size == 0 or test_idx.size == 0:
        raise ValueError("split produced an empty part")

    def take(idx):
        labels = ds.labels[idx] if ds.labels is not None else None
        return Dataset(ds.features[idx], ds.protected[idx], labels=labels, T=ds.T,
                       feature_names=ds.feature_names)

    return take(train_idx), take(test_idx)


def synth_blobs(spec):
    """Isotropic Gaussian blobs with protected states tied to blob identity.

    Blob centers are random with minimum pairwise distance 1, and points
    scatter around them with standard deviation blob_spread, so the spread
    is expressed as a fraction of the center gap. Each point's protected
    state is (blob mod T) with probability `correlation`, else uniform over
    0..T-1. Labels are blob ids. Deterministic given the seed.
    """
    rng = Rng(spec.seed)
    centers = rng.stream("centers").standard_normal((spec.n_blobs, spec.dims))
    if spec.n_blobs > 1:
        d2 = np.sum((centers[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        gap = math.sqrt(d2[~np.eye(spec.n_blobs, dtype=bool)].min())
        if gap == 0:
            raise ValueError("degenerate blob centers; use another seed")
        centers = centers / gap
    blob = np.arange(spec.n_points) % spec.n_blobs
    points = centers[blob] + spec.blob_spread * rng.stream("noise").standard_normal(
        (spec.n_points, spec.dims)
    )
    prot_stream = rng.stream("protected")
    aligned = blob % spec.T
    uniform = prot_stream.integers(0, spec.T, size=spec.n_points)
    protected = np.where(prot_stream.random(spec.n_points) < spec.correlation,
                         aligned, uniform)
    order = rng.stream("shuffle").permutation(spec.n_points)
    points, blob, protected = points[order], blob[order], protected[order]

    present = np.unique(protected)
    if present.size < spec.T:
        # Degenerate draw (for example correlation 1 with fewer blobs than
        # states): compress to the realized states, order preserving.
        remap = np.full(spec.T, -1, dtype=int)
        remap[present] = np.arange(present.size)
        protected = remap[protected]
        t_actual = int(present.size)
    else:
        t_actual = spec.T
    if t_actual < 2:
        raise ValueError("synthetic draw produced a single protected state")
    return Dataset(points, protected, labels=blob, T=t_actual)


def save_csv(ds, path):
    """Write the dataset as CSV plus a sidecar JSON manifest.

    The manifest records n, d, t and the column roles so the file round
    trips through load_csv without repeating the schema.
    """
    path = Path(path)
    header = list(ds.feature_names)
    roles = {name: "feature" for name in header}
    if ds.labels is not None:
        header.append("label")
        roles["label"] = "label"
    header.append("protected")
    roles["protected"] = "protected"
    # data rows need no quoting: one format writes each as csv.writer would
    row_format = ",".join(["%r"] * ds.d + ["%d"] * (len(header) - ds.d)) + "\r\n"
    ints = [a.tolist() for a in (ds.labels, ds.protected) if a is not None]
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(row_format % (*row, *tail) for row, *tail in zip(ds.features.tolist(), *ints))
    manifest = {
        "schema_version": MANIFEST_VERSION,
        "n": ds.n,
        "d": ds.d,
        "t": ds.T,
        "column_roles": roles,
    }
    manifest_path = manifest_path_for(path)
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest_path


def manifest_path_for(csv_path):
    csv_path = Path(csv_path)
    return csv_path.with_name(csv_path.stem + ".manifest.json")


def load_with_manifest(csv_path):
    """Load a CSV whose schema is recorded in its sidecar manifest."""
    manifest_path = manifest_path_for(csv_path)
    if not manifest_path.exists():
        raise FileNotFoundError(
            f"no manifest next to {csv_path}; pass the schema explicitly"
        )
    manifest = read_json(manifest_path)
    version = manifest.get("schema_version") if isinstance(manifest, dict) else None
    if version != MANIFEST_VERSION:
        raise ValueError(f"{manifest_path}: schema_version must be {MANIFEST_VERSION}, "
                         f"got {version!r}")
    roles = manifest.get("column_roles")
    if not isinstance(roles, dict):
        raise ValueError(f"{manifest_path}: column_roles must map column names to roles, "
                         f"got {roles!r}")
    return load_csv(csv_path, roles)
