"""Gram-matrix PCA and the spectral/PCA equivalence verifier.

After standardization (zero column means, global scaling so every row norm
is at most 1), the shifted-dot-product graph has degree exactly 2n at every
vertex, and its Laplacian reduces to 2nI - 2H - G for the all-ones matrix H
and Gram matrix G = X X^T.  Each non-constant Laplacian eigenpair (beta_t,
u_t) then satisfies G u_t = (2n - beta_t) u_t, so the smallest k non-constant
Laplacian eigenvectors and the top-k Gram eigenvectors span the same
subspace.  `pca_equivalence_report` runs both routes and measures the
agreement with principal angles, which stay well defined even when repeated
eigenvalues make individual eigenvectors ambiguous.

PCA here is sample-space PCA: eigenvectors of G, not feature-space loadings.
The dual (feature-space) route is exercised in tests as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, standardize
from .eigen import EigenSystem, eig_symmetric
from .graph import _mirror_upper
from .laplacian import laplacian_pca


@dataclass(frozen=True)
class PcaModel:
    """Top-k sample-space principal directions, columns descending by eigenvalue."""

    components: np.ndarray
    eigenvalues: np.ndarray
    gram: np.ndarray

    def __post_init__(self):
        lam = self.eigenvalues
        if np.any(np.diff(lam) > 0.0):
            raise ValueError("eigenvalues must be non-increasing")
        lam_max = max(float(lam[0]), 0.0) if len(lam) else 0.0
        if np.any(lam < -1e-9 * max(lam_max, 1.0)):
            raise ValueError(f"Gram matrix must be PSD, got eigenvalue {float(lam.min()):.3e}")
        gram_err = np.abs(self.components.T @ self.components - np.eye(self.components.shape[1]))
        if float(gram_err.max()) > 1e-9:
            raise ValueError(f"components must be orthonormal, worst deviation {float(gram_err.max()):.3e}")
        self.components.setflags(write=False)
        self.eigenvalues.setflags(write=False)
        self.gram.setflags(write=False)

    @property
    def k(self) -> int:
        return self.components.shape[1]


@dataclass(frozen=True)
class EquivalenceReport:
    """Agreement between the Laplacian route and the Gram route at dimension k.

    shift_residuals has length n: entry 0 is ||G u_0||_2 for the constant
    eigenvector (which G must annihilate), entry t >= 1 is
    ||G u_t - (2n - beta_t) u_t||_2.  eigengap_at_k is the spectral gap
    separating the compared subspace from the rest; when it collapses the
    degenerate_spectrum flag is set and only the subspace-level claim is
    meaningful.
    """

    k: int
    principal_angles: np.ndarray
    max_angle: float
    shift_residuals: np.ndarray
    eigengap_at_k: float
    degenerate_spectrum: bool

    def __post_init__(self):
        if np.any(np.diff(self.principal_angles) < 0.0):
            raise ValueError("principal angles must be ascending")
        self.principal_angles.setflags(write=False)
        self.shift_residuals.setflags(write=False)


def _gram(points: np.ndarray) -> np.ndarray:
    return _mirror_upper(points @ points.T, keep_diagonal=True)


def pca_topk(d_centered: Dataset, k: int) -> PcaModel:
    """Top-k eigenvectors of the Gram matrix of centered data."""
    n, m = d_centered.n, d_centered.m
    cap = min(n - 1, m)
    if not 1 <= k <= cap:
        raise ValueError(f"k must be in [1, {cap}] = [1, min(n-1, m)], got {k}")
    worst_mean = float(np.abs(d_centered.points.mean(axis=0)).max())
    if worst_mean > 1e-10:
        raise ValueError(
            f"input must have zero column means, worst mean {worst_mean:.3e}; "
            "apply center_columns first"
        )
    gram = _gram(d_centered.points)
    es = eig_symmetric(gram)
    order = slice(n - 1, n - 1 - k, -1)  # top-k, descending
    return PcaModel(
        np.ascontiguousarray(es.eigenvectors[:, order]),
        np.ascontiguousarray(es.eigenvalues[order]),
        gram,
    )


def verify_shift_relation(es: EigenSystem, gram: np.ndarray) -> np.ndarray:
    """Residuals of G u_t = (2n - beta_t) u_t across the whole eigensystem.

    `es` is the eigensystem of the PCA Laplacian (laplacian_pca) and `gram`
    the Gram matrix X X^T of the same standardized data; nothing is solved
    here.  Entry 0 covers the constant eigenvector, where the relation
    degenerates to G u_0 = 0; entries 1..n-1 are the eigenvalue-shift
    residuals.
    """
    gram = np.asarray(gram, dtype=float)
    n = len(es.eigenvalues)
    if gram.shape != (n, n):
        raise ValueError(f"gram shape {gram.shape} does not match eigensystem size {n}")
    residuals = np.empty(n)
    residuals[0] = float(np.linalg.norm(gram @ es.eigenvectors[:, 0]))
    for t in range(1, n):
        u = es.eigenvectors[:, t]
        shifted = 2.0 * n - es.eigenvalues[t]
        residuals[t] = float(np.linalg.norm(gram @ u - shifted * u))
    return residuals


def subspace_principal_angles(a, b) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal bases."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"basis shapes differ: {a.shape} vs {b.shape}")
    for name, mat in (("a", a), ("b", b)):
        dev = float(np.abs(mat.T @ mat - np.eye(mat.shape[1])).max())
        if dev > 1e-8:
            raise ValueError(f"columns of {name} are not orthonormal (deviation {dev:.3e})")
    sigma = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.sort(np.arccos(np.clip(sigma, 0.0, 1.0)))


def pca_equivalence_report(d: Dataset, k: int) -> EquivalenceReport:
    """Standardize, run both reduction routes, and measure their agreement.

    Route A: pca-variant Laplacian, smallest k non-constant eigenvectors.
    Route B: top-k Gram eigenvectors.  The two subspaces coincide exactly in
    theory; max_angle reports how closely they do in floating point.
    """
    n, m = d.n, d.m
    cap = min(n - 1, m)
    if not 1 <= k <= cap:
        raise ValueError(f"k must be in [1, {cap}] = [1, min(n-1, m)], got {k}")
    std = standardize(d)
    lap = laplacian_pca(std)
    es = eig_symmetric(lap.matrix)
    route_a = es.eigenvectors[:, 1 : k + 1]

    model = pca_topk(std, k)
    angles = subspace_principal_angles(route_a, model.components)
    residuals = verify_shift_relation(es, model.gram)

    beta = es.eigenvalues
    if k <= n - 2:
        eigengap = float(beta[k + 1] - beta[k])
    else:
        # at k = n-1 the next Gram eigenvalue down is the 0 of the constant
        # vector, so the gap is 2n - beta_{n-1}
        eigengap = float(2.0 * n - beta[n - 1])
    lam_max = max(2.0 * n - float(beta[1]), 0.0)
    degenerate = eigengap <= 1e-6 * max(lam_max, 1.0)
    return EquivalenceReport(
        k, angles, float(angles.max()), residuals, eigengap, degenerate
    )


def write_equivalence_report(report: EquivalenceReport, path) -> None:
    """Plain-text dump: one labeled line per field, 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"k: {report.k}\n")
        fh.write("principal_angles: " + ",".join(format(x, ".17g") for x in report.principal_angles) + "\n")
        fh.write(f"max_angle: {report.max_angle:.17g}\n")
        fh.write("shift_residuals: " + ",".join(format(x, ".17g") for x in report.shift_residuals) + "\n")
        fh.write(f"eigengap_at_k: {report.eigengap_at_k:.17g}\n")
        # lowercase to match the json artifact, so one parser reads both
        fh.write(f"degenerate_spectrum: {'true' if report.degenerate_spectrum else 'false'}\n")
