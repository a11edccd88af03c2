"""Graph Laplacians: unnormalized, symmetric, random-walk, and the PCA form.

L      = D - W
L_sym  = D^{-1/2} L D^{-1/2}   (entrywise L_ij / sqrt(D_ii D_jj))
L_rw   = D^{-1} L
L_pca  = 2n I - 2 H - X X^T    (H the all-ones matrix; X standardized)

L_pca is the unnormalized Laplacian of the fully connected graph with
weights 2 + x_i.x_j, written without building that graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .graph import WeightedGraph, _gram

VARIANTS = ("unnormalized", "sym", "rw", "pca")


@dataclass(frozen=True)
class LaplacianMatrix:
    matrix: np.ndarray
    variant: str
    degrees: np.ndarray

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        m = np.asarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _require_positive_degrees(g: WeightedGraph) -> None:
    zero = np.flatnonzero(g.degrees <= 0.0)
    if zero.size:
        raise ValueError(
            f"vertex {zero[0]} is isolated (degree 0); normalized Laplacians "
            "need positive degrees. Remove isolated vertices or densify the "
            "graph (larger epsilon / more neighbors)."
        )


def laplacian_unnormalized(g: WeightedGraph) -> LaplacianMatrix:
    """L = D - W."""
    lap = np.diag(g.degrees) - g.weights
    return LaplacianMatrix(lap, "unnormalized", g.degrees)


def laplacian_sym(g: WeightedGraph) -> LaplacianMatrix:
    """L_sym[i,j] = L[i,j] / sqrt(D_ii D_jj). Rejects isolated vertices."""
    _require_positive_degrees(g)
    inv_sqrt = 1.0 / np.sqrt(g.degrees)
    lap = (np.diag(g.degrees) - g.weights) * np.outer(inv_sqrt, inv_sqrt)
    return LaplacianMatrix(lap, "sym", g.degrees)


def laplacian_rw(g: WeightedGraph) -> LaplacianMatrix:
    """L_rw = D^{-1} L. Row sums are zero; the matrix is not symmetric."""
    _require_positive_degrees(g)
    lap = (np.diag(g.degrees) - g.weights) / g.degrees[:, None]
    return LaplacianMatrix(lap, "rw", g.degrees)


def laplacian_pca(d_standardized: Dataset) -> LaplacianMatrix:
    """2n I - 2 H - X X^T for centered data scaled so |x_i.x_j| < 2.

    Identical (entrywise, up to rounding) to laplacian_unnormalized of the
    fully connected shifted-dot graph; the preconditions make that graph's
    weights positive and all degrees exactly 2n.
    """
    x = d_standardized.points
    n = d_standardized.n
    col_means = np.abs(x.mean(axis=0))
    if col_means.max() > 1e-10:
        raise ValueError(
            f"dataset is not centered: max |column mean| = {col_means.max():.3e}"
        )
    gram = _gram(x)
    if np.abs(gram).max() >= 2.0:
        raise ValueError(
            f"max |x_i.x_j| = {np.abs(gram).max()} >= 2; scale the dataset "
            "(scale_global with target 1) before building the PCA Laplacian"
        )
    lap = 2.0 * n * np.eye(n) - 2.0 - gram
    degrees = (2.0 + gram).sum(axis=1)
    return LaplacianMatrix(lap, "pca", degrees)


def zero_eigenvalue_multiplicity(eigenvalues, tolerance: float = 1e-8) -> int:
    """Count eigenvalues <= tolerance * max(lambda_max, 1).

    The threshold is relative to the largest eigenvalue with floor 1, so the
    count is invariant under rescaling the graph weights.  Input must be
    ascending, as produced by the eigensolver.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    if np.any(np.diff(ev) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    threshold = tolerance * max(ev[-1], 1.0)
    return int(np.sum(ev <= threshold))
