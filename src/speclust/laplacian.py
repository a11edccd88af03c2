"""Graph Laplacians: unnormalized, symmetric, random-walk.

L      = D - W
L_sym  = D^{-1/2} L D^{-1/2}   (entrywise L_ij / sqrt(D_ii D_jj))
L_rw   = D^{-1} L
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph

VARIANTS = ("unnormalized", "sym", "rw")


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


def zero_eigenvalue_multiplicity(eigenvalues, tolerance: float = 1e-8) -> int:
    """Count eigenvalues <= tolerance * max(lambda_max, 1).

    The threshold is relative to the largest eigenvalue with floor 1, so the
    count is invariant under rescaling the graph weights only while
    lambda_max stays >= 1; below that the threshold is `tolerance` itself.
    Input must be ascending, as produced by the eigensolver.
    """
    ev = np.asarray(eigenvalues, dtype=float)
    if np.any(np.diff(ev) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    threshold = tolerance * max(ev[-1], 1.0)
    return int(np.sum(ev <= threshold))
