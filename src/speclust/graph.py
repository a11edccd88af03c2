"""Weighted similarity graphs and their connected components.

The component labeling also splits the eigensolver's matrices into blocks,
so one routine answers "which vertices are connected" for both.

All builders produce dense n x n matrices that are exactly symmetric by
construction (every pair term is computed the same way in both orders), with
nonnegative weights and recomputed degree vectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import Dataset


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative affinity matrix plus its degree vector, the row sums."""

    weights: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        # finiteness first: NaN != NaN would fail the symmetry test instead
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not np.array_equal(w, w.T):
            raise ValueError("weights must be exactly symmetric")
        if w.min(initial=0.0) < 0.0:
            raise ValueError("weights must be nonnegative")
        w.setflags(write=False)
        deg = w.sum(axis=1)
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


# entries of the pairwise difference tensor held at once, in whole rows of
# a: the temporary stays near 256 KiB instead of len(a) x len(b) x m
# doubles, small enough to stay in a core's L2 cache between the
# subtraction and the reduction (2 MiB blocks made a 240 x 256 triangle
# about 1.5x slower on a Xeon with 2 MiB of L2 per core)
_DISTANCE_ENTRIES = 1 << 15


def _squared_distances(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """||a_i - b_j||^2 for every row pair (b defaults to a).

    Each difference a_i - b_j is formed and reduced elementwise, never by a
    BLAS product, which keeps the result independent of the BLAS and a's
    self-distances exactly symmetric (the expansion trick does neither).
    Without b only the upper block triangle is computed and then mirrored:
    (x - y)^2 and (y - x)^2 round alike, so the bits are those of a full pass.
    """
    if b is not None:
        out = np.empty((a.shape[0], b.shape[0]))
        rows = max(1, _DISTANCE_ENTRIES // max(1, b.size))
        for start in range(0, a.shape[0], rows):
            diff = a[start : start + rows, None, :] - b[None, :, :]
            out[start : start + rows] = np.einsum("ijk,ijk->ij", diff, diff)
        return out
    n = a.shape[0]
    out = np.empty((n, n))
    start = 0
    while start < n:
        # rows start..stop against columns start..n-1
        stop = min(n, start + max(1, _DISTANCE_ENTRIES // max(1, (n - start) * a.shape[1])))
        diff = a[start:stop, None, :] - a[None, start:, :]
        out[start:stop, start:] = np.einsum("ijk,ijk->ij", diff, diff)
        start = stop
    lower = np.tril_indices(n, -1)
    out[lower] = out.T[lower]
    return out


def _gram(points: np.ndarray) -> np.ndarray:
    """X X^T by an elementwise einsum, not BLAS; exactly symmetric.

    Its bits depend on the memory layout of `points`; Dataset keeps it C-contiguous.
    """
    return np.einsum("ik,jk->ij", points, points)


# fdlibm's e_exp.c constants: ln 2 split in two, 1/ln 2, the polynomial for
# exp on [-ln2/2, ln2/2], and the argument below which exp rounds to 0
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e00
_EXP_P = (1.66666666666666019037e-01, -2.77777777770155933842e-03, 6.61375632143793436117e-05,
          -1.65339022054652515390e-06, 4.13813679705723846039e-08)
_EXP_UNDERFLOW = -7.45133219101941108420e02


def _rbf_weights(sq: np.ndarray, delta: float) -> np.ndarray:
    """exp(-sq / (2 delta^2)) from IEEE basic operations only.

    numpy's exp picks a SIMD kernel per CPU and the kernels round
    differently.  Here x = k ln2 + r with |r| <= ln2 / 2, exp(r) comes from
    a fixed polynomial and 2^k from ldexp, within 1 ulp of exp on every
    CPU.  Arguments below the underflow threshold give exactly 0; NaN
    passes through.
    """
    x = -sq / (2.0 * delta * delta)
    keep = x >= _EXP_UNDERFLOW  # False for NaN and for underflow
    x_kept = np.where(keep, x, 0.0)
    k = np.rint(x_kept * _INV_LN2)
    hi = x_kept - k * _LN2_HI
    lo = k * _LN2_LO
    r = hi - lo
    t = r * r
    p1, p2, p3, p4, p5 = _EXP_P
    c = r - t * (p1 + t * (p2 + t * (p3 + t * (p4 + t * p5))))
    y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi)
    return np.where(keep, np.ldexp(y, k.astype(int)), np.where(np.isnan(x), x, 0.0))


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
        w = _rbf_weights(_squared_distances(d.points), delta)
        np.fill_diagonal(w, 0.0)
        return WeightedGraph(w)
    if kernel == "shifted_dot":
        w = 2.0 + _gram(d.points)
        if w.min() <= 0.0:
            i, j = np.unravel_index(np.argmin(w), w.shape)
            raise ValueError(
                f"shifted_dot weight w[{i},{j}] = {w[i, j]} is not positive; "
                "standardize the dataset first (center_columns + scale_global)"
            )
        return WeightedGraph(w)
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
    order = np.argsort(sq, axis=1, kind="stable")
    vertex = np.arange(n)[:, None]
    # drop vertex i from row i by value: a lower-index twin at distance 0
    # sorts ahead of it
    others = order[order != vertex].reshape(n, n - 1)
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[vertex, others[:, :k_neighbors]] = True
    adjacency |= adjacency.T
    w = np.where(adjacency, _rbf_weights(sq, delta), 0.0)
    np.fill_diagonal(w, 0.0)
    return WeightedGraph(w)


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
        w = np.where(adjacency, _rbf_weights(sq, delta), 0.0)
    else:
        raise ValueError(f"unknown kernel {kernel!r} for epsilon graph (rbf | unit)")
    return WeightedGraph(w)


def _component_labels(linked: np.ndarray) -> np.ndarray:
    """Component ids of a symmetric boolean adjacency, in order of first vertex.

    Min-label propagation in whole-array rounds, with the hooking and pointer
    jumping of Shiloach & Vishkin (J. Algorithms 3, 1982): each vertex takes
    the lowest label it or a neighbour holds, each label the lowest one its
    vertices see, and then each label its own label's.  Labels only fall and
    always name a vertex of the same component, so they settle on its lowest index.
    """
    n = linked.shape[0]
    label = np.arange(n)
    while True:
        # initial=n: a 0-vertex graph has no rows to take a minimum over
        low = np.where(linked, label, n).min(axis=1, initial=n)
        step = np.minimum(label, low)
        np.minimum.at(step, label, low)
        step = step[step]
        if np.array_equal(step, label):
            return np.unique(label, return_inverse=True)[1]
        label = step


def connected_components(g: WeightedGraph) -> ComponentLabeling:
    """Label vertices by connectivity through strictly positive weights.

    Ids are assigned in order of first vertex occurrence, so vertex 0 is
    always in component 0.
    """
    labels = _component_labels(g.weights > 0.0)
    return ComponentLabeling(labels, int(labels.max(initial=-1)) + 1)
