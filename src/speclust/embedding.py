"""Spectral embeddings and the covariance objective they optimize.

For a connected graph, mapping points to the first k non-constant Laplacian
eigenvectors maximizes the covariance between the graph weights w_ij and the
negated embedding dissimilarities -d_ij = -||y_i - y_j||^2, subject to zero
column sums and orthonormal columns.  The identity underneath, valid for any
coordinate matrix Y, is

    cov(-d, w) = -(1/n) tr(Y^T L Y) + (wbar/n) (n sum_i ||y_i||^2 - ||sum_i y_i||^2)

and `covariance_objective` evaluates both sides independently so the
identity is a runtime-checkable oracle, not a hand-wave.

For a graph with c > 1 components, the first c eigenvectors span the
component indicators instead; `indicator_check` verifies that block
structure on an embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import EigenSystem
from .graph import ComponentLabeling, WeightedGraph
from .laplacian import LaplacianMatrix, zero_eigenvalue_multiplicity

VARIANTS = ("nonconstant", "classical", "sym", "sym_scaled", "rw")


@dataclass(frozen=True)
class Embedding:
    """n x k coordinate matrix; row i is the image y_i of data point i."""

    coordinates: np.ndarray
    variant: str
    source_eigenvalues: np.ndarray

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown embedding variant {self.variant!r}")
        n, k = self.coordinates.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k} with n={n}")
        if self.variant == "nonconstant":
            # columns skip the constant eigenvector, so each must sum to 0
            worst = float(np.abs(self.coordinates.sum(axis=0)).max())
            if worst > 1e-8:
                raise ValueError(
                    f"nonconstant embedding columns must sum to 0, worst sum {worst:.3e}; "
                    "a near-zero Fiedler eigenvalue usually means the graph is "
                    "effectively disconnected at working precision"
                )
        self.coordinates.setflags(write=False)
        self.source_eigenvalues.setflags(write=False)

    @property
    def n(self) -> int:
        return self.coordinates.shape[0]

    @property
    def k(self) -> int:
        return self.coordinates.shape[1]


@dataclass(frozen=True)
class ObjectiveReport:
    """Both routes to the embedding objective, plus their gap.

    covariance: literal double sum -(1/2n) sum_ij (d_ij - dbar)(w_ij - wbar)
    trace_term: -(1/n) tr(Y^T L Y)
    constant_term: (wbar/n) (n sum_i ||y_i||^2 - ||sum_i y_i||^2)
    identity_gap: |covariance - trace_term - constant_term|
    """

    covariance: float
    trace_term: float
    constant_term: float
    identity_gap: float


@dataclass(frozen=True)
class IndicatorCheckResult:
    passed: bool
    max_intra_spread: float
    min_inter_gap: float


def _coords(y) -> np.ndarray:
    if isinstance(y, Embedding):
        return y.coordinates
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    return arr


def _check_k(k: int, upper: int, what: str) -> None:
    if not 1 <= k <= upper:
        raise ValueError(f"k must be in [1, {upper}] for {what}, got {k}")


def embed_nonconstant(
    es: EigenSystem, k: int, tolerance: float = 1e-8, variant: str = "nonconstant"
) -> Embedding:
    """Columns 1..k of the eigensystem, skipping the constant eigenvector.

    Requires a connected graph's Laplacian (one zero eigenvalue, counted by
    zero_eigenvalue_multiplicity at `tolerance`); on a multi-component graph
    the leading eigenvectors are component indicators and the caller should
    take that path explicitly via embed_classical.  Pass variant="rw" for an
    eig_rw eigensystem, whose columns are unit-norm but not zero-sum.
    """
    n = len(es.eigenvalues)
    _check_k(k, n - 1, "a nonconstant embedding")
    mult = zero_eigenvalue_multiplicity(es.eigenvalues, tolerance)
    if mult != 1:
        raise ValueError(
            f"zero eigenvalue multiplicity is {mult}, not 1; the graph is not "
            "connected. Use embed_classical with k = component count to read "
            "off the component indicators."
        )
    return Embedding(es.eigenvectors[:, 1 : k + 1].copy(), variant, es.eigenvalues[1 : k + 1].copy())


def embed_classical(es: EigenSystem, k: int) -> Embedding:
    """Columns 0..k-1, keeping the constant eigenvector."""
    n = len(es.eigenvalues)
    _check_k(k, n, "a classical embedding")
    return Embedding(es.eigenvectors[:, :k].copy(), "classical", es.eigenvalues[:k].copy())


def embed_normalized(
    es_sym: EigenSystem, degrees, k: int, scaled: bool = False, tolerance: float = 1e-8
) -> Embedding:
    """Columns 1..k of a symmetric-normalized eigensystem.

    With scaled=True each row i is divided by sqrt(D_ii), mapping the
    symmetric-normalized coordinates onto the random-walk ones.  The graph
    must be connected: one zero eigenvalue at `tolerance`.
    """
    deg = np.asarray(degrees, dtype=float)
    n = len(es_sym.eigenvalues)
    _check_k(k, n - 1, "a normalized embedding")
    if np.any(deg <= 0.0):
        raise ValueError("degrees must all be positive")
    mult = zero_eigenvalue_multiplicity(es_sym.eigenvalues, tolerance)
    if mult != 1:
        raise ValueError(
            f"zero eigenvalue multiplicity is {mult}, not 1; normalized "
            "embeddings assume a connected graph"
        )
    coords = es_sym.eigenvectors[:, 1 : k + 1].copy()
    if scaled:
        coords = coords / np.sqrt(deg)[:, None]
    return Embedding(coords, "sym_scaled" if scaled else "sym", es_sym.eigenvalues[1 : k + 1].copy())


def eigenvalue_scale(e: Embedding) -> Embedding:
    """Divide each column by sqrt of its eigenvalue.

    Alternative scaling that weights coordinates by inverse eigenvalue
    magnitude instead of vertex degree; offered separately because the two
    conventions disagree and neither subsumes the other.
    """
    if np.any(e.source_eigenvalues <= 0.0):
        raise ValueError("eigenvalue scaling needs strictly positive eigenvalues")
    coords = e.coordinates / np.sqrt(e.source_eigenvalues)[None, :]
    return Embedding(coords, e.variant, e.source_eigenvalues)


def pairwise_dissimilarity(y) -> np.ndarray:
    """d_ij = ||y_i - y_j||^2, symmetric with zero diagonal."""
    coords = _coords(y)
    diff = coords[:, None, :] - coords[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def covariance_objective(y, g: WeightedGraph, lap: LaplacianMatrix) -> ObjectiveReport:
    """Evaluate cov(-d, w) by the double sum and by the trace shortcut.

    For an unnormalized Laplacian the dissimilarities are taken between the
    rows of Y; for the sym variant they are taken between the degree-scaled
    rows z_i = y_i / sqrt(D_ii), which is the substitution that makes the
    trace identity hold with L_sym.  Other variants are rejected.
    """
    coords = _coords(y)
    n = g.n
    if coords.shape[0] != n or lap.matrix.shape[0] != n:
        raise ValueError(
            f"shape mismatch: embedding has {coords.shape[0]} rows, graph {n} "
            f"vertices, Laplacian {lap.matrix.shape[0]}"
        )
    if lap.variant == "unnormalized" or lap.variant == "pca":
        rows = coords
    elif lap.variant == "sym":
        rows = coords / np.sqrt(g.degrees)[:, None]
    else:
        raise ValueError(
            f"objective is defined for unnormalized/pca/sym Laplacians, got {lap.variant!r}"
        )

    d = pairwise_dissimilarity(rows)
    w = g.weights
    dbar = d.mean()
    wbar = w.mean()
    covariance = -((d - dbar) * (w - wbar)).sum() / (2.0 * n)

    trace_term = -np.trace(coords.T @ lap.matrix @ coords) / n
    col_sum = rows.sum(axis=0)
    constant_term = (wbar / n) * (n * (rows**2).sum() - col_sum @ col_sum)
    gap = abs(covariance - trace_term - constant_term)
    return ObjectiveReport(float(covariance), float(trace_term), float(constant_term), float(gap))


def indicator_check(
    y, labeling: ComponentLabeling, tolerance: float = 1e-7
) -> IndicatorCheckResult:
    """Verify that embedding rows are constant per component and distinct across.

    Passes iff every within-component row pair agrees within `tolerance` and
    every cross-component row pair is at least 10 * tolerance apart.  The
    embedding must have one column per component (embed_classical with
    k = component count).
    """
    coords = _coords(y)
    c = labeling.component_count
    if coords.shape[1] != c:
        raise ValueError(
            f"embedding has {coords.shape[1]} columns but the graph has {c} components"
        )
    labels = labeling.labels
    dist = np.sqrt(pairwise_dissimilarity(coords))
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    max_intra = float(dist[same].max()) if same.any() else 0.0
    cross = labels[:, None] != labels[None, :]
    min_inter = float(dist[cross].min()) if cross.any() else np.inf
    passed = max_intra <= tolerance and min_inter >= 10.0 * tolerance
    return IndicatorCheckResult(passed, max_intra, min_inter)


def write_embedding(e: Embedding, path) -> None:
    """CSV dump, n rows by k columns, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in e.coordinates:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")
