"""Independent oracles the tests check the package against.

Nothing here imports from speclust: the point is a second, dumber route to
the same answers.  The eigensolver oracle is shifted power iteration with
deflation; the Jacobi kernel reference is the element-by-element loop of
the round-robin schedule that the vectorized kernel must reproduce bit for
bit; the component oracle is breadth-first search over positive weights,
and the component-indicator check measures embedding rows by broadcast
differences, not by the package's distance helper; the PCA Laplacian is the
closed form of the shifted-dot graph's Laplacian, written without any graph;
sample-space PCA is LAPACK's `eigh` on the Gram matrix.  The CSV loader,
the kNN neighbour choice, k-means and the eigenvector sign rule are copies
of earlier one-cell, one-row, one-pick and one-column loops that the
whole-array code must reproduce bit for bit.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass

import numpy as np


def power_eigensystem(a, residual_tol=1e-11, max_mults=200_000):
    """All eigenpairs of a small symmetric matrix, ascending.

    Works on B = sigma*I - A with sigma = ||A||_F + 1, which is positive
    definite with its largest eigenvalue at A's smallest, so plain power
    iteration plus rank-one deflation walks A's spectrum from the bottom up.
    Convergence is judged by the residual ||B x - mu x||, which settles even
    inside (near-)degenerate clusters where the iterate itself wanders.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    sigma = float(np.sqrt((a * a).sum())) + 1.0
    b = sigma * np.eye(n) - a
    rng = np.random.default_rng(987654321)

    values = []
    vectors = []
    for _ in range(n):
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        mu = float(x @ b @ x)
        for _ in range(max_mults):
            y = b @ x
            norm = np.linalg.norm(y)
            if norm == 0.0:
                # B annihilates x: mu = 0 exactly, x is the eigenvector
                mu = 0.0
                break
            x = y / norm
            mu = float(x @ b @ x)
            if np.linalg.norm(b @ x - mu * x) <= residual_tol * sigma:
                break
        values.append(sigma - mu)
        vectors.append(x.copy())
        b -= mu * np.outer(x, x)

    order = np.argsort(values, kind="stable")
    lam = np.array(values)[order]
    vec = np.column_stack(vectors)[:, order]
    return lam, vec


def round_robin_rounds(n):
    """The rounds of one Jacobi sweep over n indices, as lists of (p, q), p < q.

    Circle method: index 0 stays put and the others move one place per
    round.  An odd n gets a dummy index n, and the pair holding it is
    dropped, so there are n - 1 rounds for even n and n for odd n.
    """
    m = n + n % 2
    rounds = []
    others = list(range(1, m))
    for r in range(m - 1):
        cut = len(others) - r
        ring = [0] + others[cut:] + others[:cut]
        pairs = [tuple(sorted((ring[k], ring[m - 1 - k]))) for k in range(m // 2)]
        rounds.append([(p, q) for p, q in pairs if q < n])
    return rounds


def _sum_of_squares(a, n, weight, upper_only):
    total = 0.0
    for i in range(n):
        for j in range(i + 1 if upper_only else 0, n):
            total += weight * a[i, j] * a[i, j]
    return total


def _scalar_round(a, v, n, pairs):
    # every pair reads its entries as they stood at the start of the round
    rotations = []
    for p, q in pairs:
        apq = a[p, q]
        if apq == 0.0:
            continue
        app = a[p, p]
        aqq = a[q, q]
        tiny = 100.0 * abs(apq)
        if abs(app) + tiny == abs(app) and abs(aqq) + tiny == abs(aqq):
            a[p, q] = 0.0
            a[q, p] = 0.0
            continue
        tau = (aqq - app) / (2.0 * apq)
        if tau >= 0.0:
            t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
        else:
            t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
        c = 1.0 / np.sqrt(1.0 + t * t)
        rotations.append((p, q, app, aqq, apq, t, c, t * c))
    for p, q, _, _, _, _, c, s in rotations:  # rows
        for j in range(n):
            apj = a[p, j]
            aqj = a[q, j]
            a[p, j] = apj * c - aqj * s
            a[q, j] = aqj * c + apj * s
    for p, q, _, _, _, _, c, s in rotations:  # then columns
        for i in range(n):
            aip = a[i, p]
            aiq = a[i, q]
            a[i, p] = aip * c - aiq * s
            a[i, q] = aiq * c + aip * s
            vip = v[i, p]
            viq = v[i, q]
            v[i, p] = vip * c - viq * s
            v[i, q] = viq * c + vip * s
    for p, q, app, aqq, apq, t, _, _ in rotations:
        a[p, p] = app - t * apq
        a[q, q] = aqq + t * apq
        a[p, q] = 0.0
        a[q, p] = 0.0
    for i in range(n):  # mirror the upper triangle onto the lower one
        for j in range(i):
            a[i, j] = a[j, i]


def scalar_jacobi_sweeps(a, v, max_sweeps, rel_tol):
    """Round-robin Jacobi on a (b, n, n) stack of blocks, one element at a time.

    The scalar reference for speclust's vectorized kernel: same rounds, same
    per-element arithmetic, so the two must agree bit for bit.  Each round
    applies its rotations together, rows first and then columns, resets the
    rotated diagonal and pair entries, and copies the upper triangle onto
    the lower one.  Each block runs on its own until its off-diagonal norm
    is <= rel_tol * its Frobenius norm, or until `max_sweeps`.

    Works in place on `a` and on `v`, the stack of rotation accumulators.
    Returns (most sweeps any block used, per-block off-norms, per-block
    thresholds).
    """
    b, n, _ = a.shape
    rounds = round_robin_rounds(n)
    most, offs, thresholds = 0, [], []
    for blk in range(b):
        x, y = a[blk], v[blk]
        threshold = rel_tol * np.sqrt(_sum_of_squares(x, n, 1.0, upper_only=False))
        sweeps = 0
        while True:
            off = np.sqrt(_sum_of_squares(x, n, 2.0, upper_only=True))
            if off <= threshold or sweeps == max_sweeps:
                break
            for pairs in rounds:
                _scalar_round(x, y, n, pairs)
            sweeps += 1
        most = max(most, sweeps)
        offs.append(off)
        thresholds.append(threshold)
    return most, np.array(offs), np.array(thresholds)


def column_signs(vectors):
    """Each column times -1 if its first largest-|x| entry is negative."""
    flips = np.ones(vectors.shape[1])
    for t in range(vectors.shape[1]):
        lead = np.argmax(np.abs(vectors[:, t]))
        if vectors[lead, t] < 0.0:
            flips[t] = -1.0
    return vectors * flips


def pca_laplacian(x):
    """2n I - 2 H - X X^T for standardized rows X (H the all-ones matrix).

    With X centered and scaled so |x_i.x_j| < 2, the fully connected graph
    with weights 2 + x_i.x_j has every degree exactly 2n, so its
    unnormalized Laplacian D - W reduces to this.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return 2.0 * n * np.eye(n) - 2.0 - x @ x.T


def gram_topk(x, k):
    """Top-k eigenvalues and eigenvectors of X X^T by LAPACK, descending."""
    x = np.asarray(x, dtype=float)
    values, vectors = np.linalg.eigh(x @ x.T)
    return values[::-1][:k], vectors[:, ::-1][:, :k]


def bfs_components(weights):
    """Component labels in order of first vertex occurrence, plus the count."""
    w = np.asarray(weights)
    n = w.shape[0]
    labels = np.full(n, -1, dtype=int)
    count = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in range(n):
                if w[i, j] > 0.0 and labels[j] == -1:
                    labels[j] = count
                    queue.append(j)
        count += 1
    return labels, count


@dataclass(frozen=True)
class IndicatorCheckResult:
    passed: bool
    max_intra_spread: float
    min_inter_gap: float


def indicator_check(coords, labeling, tolerance=1e-7):
    """Whether embedding rows are constant per component and distinct across.

    Passes iff every within-component row pair lies within `tolerance` and
    every cross-component row pair at least 10 * tolerance apart, in
    Euclidean distance.  `labeling` has `labels` and `component_count`; the
    embedding must have one column per component (the classical embedding
    with k = component count).
    """
    coords = np.asarray(coords, dtype=float)
    c = labeling.component_count
    if coords.shape[1] != c:
        raise ValueError(
            f"embedding has {coords.shape[1]} columns but the graph has {c} components"
        )
    labels = np.asarray(labeling.labels)
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    max_intra = float(dist[same].max()) if same.any() else 0.0
    cross = labels[:, None] != labels[None, :]
    min_inter = float(dist[cross].min()) if cross.any() else np.inf
    passed = max_intra <= tolerance and min_inter >= 10.0 * tolerance
    return IndicatorCheckResult(passed, max_intra, min_inter)


def scalar_load_csv(path, has_header=False, delimiter=","):
    """(points, column names) of a numeric CSV, read one cell at a time.

    The csv-module loop that `load_csv` keeps for files its single numpy
    call does not take; it raises the same messages.
    """
    if len(delimiter) != 1:
        raise ValueError(f"delimiter must be a single character, got {delimiter!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        rows = [row for row in reader if row]

    column_names = None
    if has_header:
        if not rows:
            raise ValueError(f"{path}: empty file, header expected")
        column_names = tuple(cell.strip() for cell in rows[0])
        rows = rows[1:]

    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(rows)}")

    width = len(rows[0])
    parsed = np.empty((len(rows), width), dtype=float)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: ragged row {i + 1} has {len(row)} cells, expected {width}"
            )
        for j, cell in enumerate(row):
            try:
                parsed[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {i + 1}, column {j + 1}: {cell!r}"
                ) from None

    bad = np.argwhere(~np.isfinite(parsed))
    if bad.size:
        i, j = bad[0]
        raise ValueError(f"{path}: non-finite cell at row {i + 1}, column {j + 1}: {rows[i][j]!r}")

    return parsed, column_names


def knn_adjacency(sq, k_neighbors):
    """Union-symmetrized kNN adjacency from squared distances, row by row.

    Each row is sorted stably, so distance ties go to the lower vertex
    index, and vertex i is then removed from its own row.
    """
    n = sq.shape[0]
    adjacency = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = np.argsort(sq[i], kind="stable")
        order = order[order != i]
        adjacency[i, order[:k_neighbors]] = True
    return adjacency | adjacency.T


def _sq_distances(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class _Lcg64:
    def __init__(self, seed):
        self.state = seed & ((1 << 64) - 1)

    def next_float(self):
        self.state = (6364136223846793005 * self.state + 1442695040888963407) & ((1 << 64) - 1)
        return (self.state >> 11) / float(1 << 53)


def _plus_plus_init(rows, k, rng):
    n = rows.shape[0]
    chosen = [min(int(rng.next_float() * n), n - 1)]
    d2 = _sq_distances(rows, rows[chosen])[:, 0]
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            used = set(chosen)
            idx = next(i for i in range(n) if i not in used)
        else:
            r = rng.next_float() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, _sq_distances(rows, rows[[idx]])[:, 0])
    return rows[chosen].copy()


def _repair_empty(rows, centroids, labels, d2):
    out = centroids.copy()
    point_d2 = d2[np.arange(len(labels)), labels].copy()
    counts = np.bincount(labels, minlength=out.shape[0])
    for cid in np.flatnonzero(counts == 0):
        far = int(np.argmax(point_d2))
        if point_d2[far] <= 0.0:
            raise ValueError(
                f"cannot repair empty cluster {cid}: all points coincide with "
                "their centroids; k is too large for this data"
            )
        out[cid] = rows[far]
        point_d2[far] = 0.0
    return out


def scalar_kmeans(rows, k, seed, max_iter=300):
    """One k-means run with a distance pass per k-means++ pick.

    Returns (labels, centroids, inertia, iterations, inertia trace), the
    fields of a ClusterResult.  The LCG is the documented recurrence.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    n = rows.shape[0]
    centroids = _plus_plus_init(rows, k, _Lcg64(seed))
    d2 = _sq_distances(rows, centroids)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    trace = [inertia]

    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        new_centroids = centroids.copy()
        for cid in range(k):
            members = labels == cid
            if members.any():
                new_centroids[cid] = rows[members].mean(axis=0)
        new_centroids = _repair_empty(rows, new_centroids, labels, d2)

        d2 = _sq_distances(rows, new_centroids)
        new_labels = np.argmin(d2, axis=1)
        new_inertia = float(d2[np.arange(n), new_labels].sum())
        trace.append(new_inertia)

        fixed_point = np.array_equal(new_labels, labels)
        small_drop = inertia <= 0.0 or (inertia - new_inertia) <= 1e-9 * inertia
        centroids, labels, inertia = new_centroids, new_labels, new_inertia
        if fixed_point or small_drop:
            break

    return labels, centroids, inertia, iterations, tuple(trace)
