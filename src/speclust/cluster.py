"""k-means on embedding rows, plus the adjusted Rand index.

The generator behind k-means++ is pinned down exactly (see Lcg64) so that a
reimplementation in another language can reproduce a run from the seed alone.
Nothing here consults global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import _squared_distances

# Lloyd update rounds per k-means run, at most
MAX_ITER = 300

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg64:
    """64-bit linear congruential generator (Knuth's MMIX constants).

    state_{t+1} = (6364136223846793005 * state_t + 1442695040888963407) mod 2^64
    with state_0 = seed mod 2^64.  next_float() returns the top 53 bits of the
    advanced state divided by 2^53, a uniform double in [0, 1).  This exact
    recurrence is part of the external contract: same seed, same run, on any
    platform or thread count.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _MASK64
        return self.state

    def next_float(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)


@dataclass(frozen=True)
class ClusterResult:
    """labels[i] in 0..k-1; inertia_trace records one value per assignment."""

    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    iterations: int
    inertia_trace: tuple

    def __post_init__(self):
        self.labels.setflags(write=False)
        self.centroids.setflags(write=False)


def _plus_plus_init(pair_d2: np.ndarray, k: int, rng: Lcg64) -> list[int]:
    """Indices of the k-means++ picks.

    pair_d2 holds the rows' pairwise squared distances; it is exactly
    symmetric, so its row j, read contiguously, is the distance column of j.
    """
    n = pair_d2.shape[0]
    chosen = [min(int(rng.next_float() * n), n - 1)]
    d2 = pair_d2[chosen[0]]
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0.0:
            # remaining mass is zero: every point sits on a chosen centroid;
            # fall back to the lowest-index unused point
            used = set(chosen)
            idx = next(i for i in range(n) if i not in used)
        else:
            r = rng.next_float() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, pair_d2[idx])
    return chosen


def _repair_empty(
    rows: np.ndarray, centroids: np.ndarray, labels: np.ndarray, d2: np.ndarray
) -> np.ndarray:
    """Give each empty cluster the point currently farthest from its centroid."""
    out = centroids.copy()
    point_d2 = d2[np.arange(len(labels)), labels].copy()
    counts = np.bincount(labels, minlength=out.shape[0])
    for cid in np.flatnonzero(counts == 0):
        far = int(np.argmax(point_d2))  # argmax takes the lowest index on ties
        if point_d2[far] <= 0.0:
            raise ValueError(
                f"cannot repair empty cluster {cid}: all points coincide with "
                "their centroids; k is too large for this data"
            )
        out[cid] = rows[far]
        point_d2[far] = 0.0
    return out


def _lloyd(rows: np.ndarray, pair_d2: np.ndarray, k: int, seed: int) -> ClusterResult:
    n = rows.shape[0]
    chosen = _plus_plus_init(pair_d2, k, Lcg64(seed))
    centroids = rows[chosen].copy()
    # column j of pair_d2 holds the bits of _squared_distances(rows, rows[[j]])
    d2 = pair_d2[:, chosen]
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    trace = [inertia]

    iterations = 0
    for _ in range(MAX_ITER):
        iterations += 1
        new_centroids = centroids.copy()
        for cid in range(k):
            members = labels == cid
            if members.any():
                new_centroids[cid] = rows[members].mean(axis=0)
        new_centroids = _repair_empty(rows, new_centroids, labels, d2)

        d2 = _squared_distances(rows, new_centroids)
        new_labels = np.argmin(d2, axis=1)
        new_inertia = float(d2[np.arange(n), new_labels].sum())
        trace.append(new_inertia)

        fixed_point = np.array_equal(new_labels, labels)
        small_drop = inertia <= 0.0 or (inertia - new_inertia) <= 1e-9 * inertia
        centroids, labels, inertia = new_centroids, new_labels, new_inertia
        if fixed_point or small_drop:
            break

    return ClusterResult(labels, centroids, inertia, iterations, tuple(trace))


def kmeans(rows, k: int, seed: int, restarts: int = 1) -> ClusterResult:
    """Lloyd's algorithm with k-means++ seeding, deterministic for a fixed seed.

    Stops at an assignment fixed point, when the relative inertia drop falls
    to 1e-9 or below, or after MAX_ITER update rounds.  Assignment ties go to
    the lowest centroid index; the final step is always an assignment, so
    every returned label is a nearest centroid.

    With restarts = R, runs seeds seed .. seed + R - 1 and returns the run
    with the lowest inertia, the lower seed on ties.  The rows' pairwise
    squared distances, which k-means++ reads, are formed once for the fan,
    as one n x n matrix.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[:, None]
    n = rows.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n={n}, got k={k}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("rows must be finite")
    if restarts < 1:
        raise ValueError(f"restarts must be positive, got {restarts}")

    pair_d2 = _squared_distances(rows)
    best = None
    for restart in range(restarts):
        result = _lloyd(rows, pair_d2, k, seed + restart)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def adjusted_rand_index(a, b) -> float:
    """Chance-corrected pair-counting agreement between two labelings."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"label vectors must share one length, got {a.shape} and {b.shape}")
    n = len(a)
    if n < 2:
        return 1.0  # no pairs to disagree on
    table = _contingency(a, b)
    index = sum(math.comb(int(x), 2) for x in table.ravel())
    row_pairs = sum(math.comb(int(x), 2) for x in table.sum(axis=1))
    col_pairs = sum(math.comb(int(x), 2) for x in table.sum(axis=0))
    expected = row_pairs * col_pairs / math.comb(n, 2)
    max_index = (row_pairs + col_pairs) / 2.0
    if max_index == expected:
        # both partitions degenerate the same way (all one cluster, or all
        # singletons), which only happens when they are identical
        return 1.0
    return float((index - expected) / (max_index - expected))
