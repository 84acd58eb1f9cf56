"""Centroid initialization (k-means++ seeding plus Lloyd refinement) and
optimal cluster-to-label matching for accuracy evaluation. The matching is
solved here by a shortest-augmenting-path assignment solver rather than
scipy.optimize: the package imports no scipy module (metrics computes its
relative entropy itself too).
"""

from __future__ import annotations

import math

import numpy as np


def squared_distances(A, B):
    """Pairwise squared Euclidean distances, (len(A), len(B))."""
    d2 = np.sum(A * A, axis=1)[:, None] + np.sum(B * B, axis=1)[None, :] - 2.0 * A @ B.T
    return np.maximum(d2, 0.0)


def nearest_assign(Z, centroids):
    """Index of the nearest centroid per row; ties go to the lowest index."""
    return np.argmin(squared_distances(Z, centroids), axis=1)


def distortion(Z, centroids, assign):
    return float(np.sum((Z - centroids[assign]) ** 2))


def kmeans_pp_init(Z, K, rng):
    """Standard D^2 seeding: the first center is uniform, each later center
    is sampled proportionally to the squared distance to its nearest chosen
    center. Points already at distance zero carry no selection weight; if
    every remaining point does, the next center is drawn uniformly from the
    unchosen indices.
    """
    Z = np.asarray(Z, dtype=float)
    n = len(Z)
    if K > n:
        raise ValueError(f"K={K} exceeds the number of points {n}")
    chosen = [int(rng.integers(n))]
    d2 = squared_distances(Z, Z[chosen[-1]][None, :])[:, 0]
    while len(chosen) < K:
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            unchosen = np.setdiff1d(np.arange(n), chosen)
            idx = int(unchosen[rng.integers(len(unchosen))])
        chosen.append(idx)
        d2 = np.minimum(d2, squared_distances(Z, Z[idx][None, :])[:, 0])
    return Z[chosen].copy()


def lloyd(Z, init, max_iters=20, tol=1e-4):
    """Alternate nearest-center assignment and mean updates.

    Stops when the largest centroid shift drops below tol or the iteration
    cap is hit. An empty cluster is reseeded to the point farthest from its
    assigned center (deterministic, reused points excluded).
    """
    Z = np.asarray(Z, dtype=float)
    centroids = np.asarray(init, dtype=float).copy()
    K = len(centroids)
    assign = nearest_assign(Z, centroids)
    for _ in range(max_iters):
        new_centroids = centroids.copy()
        empties = []
        for k in range(K):
            members = assign == k
            if members.any():
                new_centroids[k] = Z[members].mean(axis=0)
            else:
                empties.append(k)
        if empties:
            own = np.sqrt(np.sum((Z - new_centroids[assign]) ** 2, axis=1))
            for k in empties:
                far = int(np.argmax(own))
                new_centroids[k] = Z[far]
                own[far] = -1.0
        shift = np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1)).max()
        centroids = new_centroids
        assign = nearest_assign(Z, centroids)
        if shift < tol:
            break
    return centroids, assign


def contingency(a, b, rows=None, cols=None):
    """Count table of two label arrays: entry (i, j) counts the positions
    where a is i and b is j. rows and cols default to the largest label
    plus one, so empty arrays need both given. Arrays that are not 1-d and
    of equal length, or a label outside 0..rows-1 or 0..cols-1, are a
    ValueError naming the range."""
    a = np.asarray(a, dtype=int)
    b = np.asarray(b, dtype=int)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"label arrays must be 1-d and of equal length, "
                         f"got shapes {a.shape} and {b.shape}")
    if a.size == 0 and (rows is None or cols is None):
        raise ValueError("label arrays are empty, so rows and cols must be given")
    rows = int(a.max()) + 1 if rows is None else rows
    cols = int(b.max()) + 1 if cols is None else cols
    for side, labels, size in (("row", a, rows), ("column", b, cols)):
        if labels.size and (labels.min() < 0 or labels.max() >= size):
            raise ValueError(f"{side} labels must lie in 0..{size - 1}, "
                             f"got {labels.min()}..{labels.max()}")
    return np.bincount(a * cols + b, minlength=rows * cols).reshape(rows, cols)


def max_assignment(table):
    """Column assigned to each row of a square table so that the assigned
    entries have the largest sum.

    Crouse's shortest augmenting path (Crouse, 2016, "On implementing 2D
    rectangular assignment algorithms", IEEE TAES 52(4)) on the negated
    table, as scipy.optimize.linear_sum_assignment runs it, ties included:
    rows are added in index order; each search scans the remaining columns
    from a list filled n-1, ..., 0, takes the last unassigned column of
    least reduced cost (else the first assigned one), and removes it by
    moving the list's last entry into its slot.
    """
    cost = (-np.asarray(table, dtype=float)).tolist()
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        shortest = [math.inf] * n
        remaining = list(range(n - 1, -1, -1))
        rows_seen, cols_seen = [], []
        i, min_val, sink = cur, 0.0, -1
        while sink == -1:
            rows_seen.append(i)
            lowest, index = math.inf, -1
            row, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                # an unassigned column ends the search, so it wins a tie
                if shortest[j] < lowest or (shortest[j] == lowest and row4col[j] == -1):
                    lowest, index = shortest[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        # dual update over the rows and columns the search reached;
        # rows_seen[0] is cur, which has no column yet
        u[cur] += min_val
        for i in rows_seen[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]
        # augment: shift each row on the path back to cur one column over
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def hungarian_match(pred, truth):
    """Optimal label mapping over the zero-padded square contingency table.

    Returns (mapping from predicted label to matched true label, matched
    agreement count). Among equally good mappings it returns the one
    scipy.optimize.linear_sum_assignment(table, maximize=True) returns, as
    max_assignment runs the same algorithm (Crouse, 2016). Empty label
    arrays are a ValueError.
    """
    if np.size(pred) == 0 or np.size(truth) == 0:
        raise ValueError(f"pred and truth must not be empty, got "
                         f"{np.size(pred)} and {np.size(truth)} labels")
    n_pred = int(np.max(pred)) + 1
    side = max(n_pred, int(np.max(truth)) + 1)
    table = contingency(pred, truth, side, side)
    cols = max_assignment(table)
    mapping = {r: c for r, c in enumerate(cols) if r < n_pred}
    agreement = int(table[np.arange(side), cols].sum())
    return mapping, agreement
