"""Weighted similarity graphs and a union-find components oracle.

All builders produce dense n x n matrices that are symmetric by construction
(the strict upper triangle is computed once and mirrored), with nonnegative
weights and recomputed degree vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative affinity matrix plus its degree vector."""

    weights: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be exactly symmetric")
        if w.min(initial=0.0) < 0.0:
            raise ValueError("weights must be nonnegative")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        w.setflags(write=False)
        deg = np.asarray(self.degrees, dtype=float)
        deg.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "degrees", deg)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ComponentLabeling:
    """Component ids in 0..c-1, assigned in order of first vertex occurrence."""

    labels: np.ndarray
    component_count: int


# rows of the pairwise difference tensor held at once: the temporary is
# _DISTANCE_ROWS x n x m doubles instead of n x n x m
_DISTANCE_ROWS = 16


def _squared_distances(points: np.ndarray) -> np.ndarray:
    # pairwise (x_i - x_j) is evaluated per pair, which keeps the matrix
    # exactly symmetric; the expansion trick does not
    n = points.shape[0]
    out = np.empty((n, n))
    for start in range(0, n, _DISTANCE_ROWS):
        diff = points[start : start + _DISTANCE_ROWS, None, :] - points[None, :, :]
        out[start : start + _DISTANCE_ROWS] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def _mirror_upper(w: np.ndarray, keep_diagonal: bool = False) -> np.ndarray:
    upper = np.triu(w, 0 if keep_diagonal else 1)
    out = upper + np.triu(w, 1).T
    return out


def _gram(points: np.ndarray) -> np.ndarray:
    """X X^T, exactly symmetric: the upper triangle mirrored onto the lower."""
    return _mirror_upper(points @ points.T, keep_diagonal=True)


def _from_weights(w: np.ndarray) -> WeightedGraph:
    return WeightedGraph(w, w.sum(axis=1))


def build_full_graph(d: Dataset, kernel: str = "rbf", delta: float | None = None) -> WeightedGraph:
    """Connect every vertex pair and weight the edges.

    kernel "rbf": w_ij = exp(-||x_i - x_j||^2 / (2 delta^2)), zero diagonal.
    kernel "shifted_dot": w_ij = 2 + x_i.x_j including the diagonal
    w_ii = 2 + ||x_i||^2; the caller must have standardized the data so that
    |x_i.x_j| < 2, which makes all weights positive and every degree 2n.
    """
    if kernel == "rbf":
        if delta is None or delta <= 0:
            raise ValueError(f"rbf kernel needs positive delta, got {delta}")
        w = np.exp(-_squared_distances(d.points) / (2.0 * delta * delta))
        np.fill_diagonal(w, 0.0)
        return _from_weights(_mirror_upper(w))
    if kernel == "shifted_dot":
        w = 2.0 + _gram(d.points)
        if w.min() <= 0.0:
            i, j = np.unravel_index(np.argmin(w), w.shape)
            raise ValueError(
                f"shifted_dot weight w[{i},{j}] = {w[i, j]} is not positive; "
                "standardize the dataset first (center_columns + scale_global)"
            )
        return _from_weights(w)
    raise ValueError(f"unknown kernel {kernel!r} for full graph (rbf | shifted_dot)")


def build_knn_graph(d: Dataset, k_neighbors: int, delta: float) -> WeightedGraph:
    """Union-symmetrized k-nearest-neighbor graph with RBF weights.

    An edge i-j exists iff j is among the k nearest neighbors of i or i is
    among those of j.  Distance ties are broken by lower vertex index.
    """
    n = d.n
    if not 1 <= k_neighbors < n:
        raise ValueError(f"k_neighbors must be in [1, {n - 1}], got {k_neighbors}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    sq = _squared_distances(d.points)
    adjacency = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = np.argsort(sq[i], kind="stable")
        order = order[order != i]
        adjacency[i, order[:k_neighbors]] = True
    adjacency |= adjacency.T
    w = np.where(adjacency, np.exp(-sq / (2.0 * delta * delta)), 0.0)
    np.fill_diagonal(w, 0.0)
    return _from_weights(_mirror_upper(w))


def build_epsilon_graph(
    d: Dataset, epsilon: float, kernel: str = "unit", delta: float | None = None
) -> WeightedGraph:
    """Connect pairs with ||x_i - x_j|| <= epsilon; weight by RBF or 1."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    sq = _squared_distances(d.points)
    adjacency = sq <= epsilon * epsilon
    np.fill_diagonal(adjacency, False)
    if kernel == "unit":
        w = adjacency.astype(float)
    elif kernel == "rbf":
        if delta is None or delta <= 0:
            raise ValueError(f"rbf kernel needs positive delta, got {delta}")
        w = np.where(adjacency, np.exp(-sq / (2.0 * delta * delta)), 0.0)
    else:
        raise ValueError(f"unknown kernel {kernel!r} for epsilon graph (rbf | unit)")
    return _from_weights(_mirror_upper(w))


class _UnionFind:
    """Disjoint sets over 0..n-1 with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]


def connected_components(g: WeightedGraph) -> ComponentLabeling:
    """Label vertices by connectivity through strictly positive weights.

    Ids are assigned in order of first vertex occurrence, so vertex 0 is
    always in component 0.
    """
    n = g.n
    uf = _UnionFind(n)
    rows, cols = np.nonzero(np.triu(g.weights, 1))
    for i, j in zip(rows.tolist(), cols.tolist()):
        uf.union(i, j)
    labels = np.empty(n, dtype=int)
    next_id = 0
    root_to_id: dict[int, int] = {}
    for v in range(n):
        root = uf.find(v)
        if root not in root_to_id:
            root_to_id[root] = next_id
            next_id += 1
        labels[v] = root_to_id[root]
    return ComponentLabeling(labels, next_id)
