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

from .eigen import OFFDIAG_REL_TOL, EigenSystem
from .graph import ComponentLabeling, WeightedGraph, _squared_distances
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


def _column_sum_bound(eigenvalues: np.ndarray) -> float:
    """Largest column sum the solver's accuracy allows past the constant vector.

    The solver stops at an off-diagonal norm of at most
    tau = OFFDIAG_REL_TOL * ||L||_F, so its eigenvectors are exact for a
    matrix within tau of L, whose eigenvalues are within tau of L's.  By
    Davis-Kahan (SIAM J. Numer. Anal. 7, 1970) the computed u_0 is then
    within an angle of tau / (gap - tau) <= 2 tau / gap of the constant
    vector 1/sqrt(n), where gap = lambda_1 - lambda_0 >= 2 tau; each column
    orthogonal to u_0 sums to at most sqrt(n) times that.  Below 2 tau the
    bound exceeds sqrt(n), which no unit column's sum can.
    """
    n = len(eigenvalues)
    tau = OFFDIAG_REL_TOL * np.sqrt((eigenvalues * eigenvalues).sum())
    return float(2.0 * np.sqrt(n) * tau / (eigenvalues[1] - eigenvalues[0]))


def embed_nonconstant(
    es: EigenSystem, k: int, tolerance: float = 1e-8, variant: str = "nonconstant"
) -> Embedding:
    """Columns 1..k of the eigensystem, skipping the constant eigenvector.

    Requires a connected graph's Laplacian (one zero eigenvalue, counted by
    zero_eigenvalue_multiplicity at `tolerance`); on a multi-component graph
    the leading eigenvectors are component indicators and the caller should
    take that path explicitly via embed_classical.  Pass variant="sym" or
    "rw" for an L_sym or eig_rw eigensystem, whose columns are not zero-sum.
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
    coords = es.eigenvectors[:, 1 : k + 1].copy()
    if variant == "nonconstant":
        # the columns skip the constant eigenvector, so each must sum to 0
        # within what the solver guarantees at this spectral gap
        worst = float(np.abs(coords.sum(axis=0)).max())
        bound = _column_sum_bound(es.eigenvalues)
        if worst > bound:
            raise ValueError(
                f"nonconstant embedding columns must sum to 0, worst sum {worst:.3e} "
                f"exceeds the solver's bound {bound:.3e} at gap "
                f"{es.eigenvalues[1] - es.eigenvalues[0]:.3e}"
            )
    return Embedding(coords, variant, es.eigenvalues[1 : k + 1].copy())


def embed_classical(es: EigenSystem, k: int) -> Embedding:
    """Columns 0..k-1, keeping the constant eigenvector."""
    n = len(es.eigenvalues)
    _check_k(k, n, "a classical embedding")
    return Embedding(es.eigenvectors[:, :k].copy(), "classical", es.eigenvalues[:k].copy())


def embed_normalized(
    es_sym: EigenSystem, degrees, k: int, scaled: bool = False, tolerance: float = 1e-8
) -> Embedding:
    """Columns 1..k of a symmetric-normalized eigensystem.

    embed_nonconstant with variant "sym"; with scaled=True each row i is then
    divided by sqrt(D_ii), mapping it onto the random-walk coordinates.
    """
    deg = np.asarray(degrees, dtype=float)
    if np.any(deg <= 0.0):
        raise ValueError("degrees must all be positive")
    emb = embed_nonconstant(es_sym, k, tolerance=tolerance, variant="sym")
    if not scaled:
        return emb
    return Embedding(emb.coordinates / np.sqrt(deg)[:, None], "sym_scaled", emb.source_eigenvalues)


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
    return _squared_distances(_coords(y))


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
    if lap.variant == "unnormalized":
        rows = coords
    elif lap.variant == "sym":
        rows = coords / np.sqrt(g.degrees)[:, None]
    else:
        raise ValueError(
            f"objective is defined for unnormalized/sym Laplacians, got {lap.variant!r}"
        )

    d = pairwise_dissimilarity(rows)
    w = g.weights
    dbar = d.mean()
    wbar = w.mean()
    covariance = -((d - dbar) * (w - wbar)).sum() / (2.0 * n)

    # einsum and elementwise sums, not BLAS: the same bits under any BLAS kernel
    trace_term = -(coords * np.einsum("ij,jt->it", lap.matrix, coords)).sum() / n
    col_sum = rows.sum(axis=0)
    constant_term = (wbar / n) * (n * (rows**2).sum() - (col_sum * col_sum).sum())
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
