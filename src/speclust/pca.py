"""Classical PCA and the spectral/PCA equivalence verifier.

After standardization (zero column means, global scaling so every row norm
is at most 1), the shifted-dot-product graph has degree exactly 2n at every
vertex, and its Laplacian reduces to 2nI - 2H - G for the all-ones matrix H
and Gram matrix G = X X^T.  Each non-constant Laplacian eigenpair (beta_t,
u_t) then satisfies G u_t = (2n - beta_t) u_t, so the smallest k non-constant
Laplacian eigenvectors and the top-k Gram eigenvectors span the same
subspace.  `pca_equivalence_report` runs both routes, the Laplacian one
through the same graph and Laplacian code as `cluster`, and measures the
agreement with principal angles, which stay well defined even when repeated
eigenvalues make individual eigenvectors ambiguous.

PCA here is sample-space PCA: the top-k eigenvectors of G, the principal
component scores normalized to unit length.  G has rank at most m, so for
m < n `pca_topk` solves the m x m scatter matrix X^T X instead and maps its
top eigenvectors v_t to u_t = X v_t (the snapshot or dual identity,
Sirovich, Q. Appl. Math. 45, 1987); the n x n Gram matrix is solved only
when it is the smaller of the two.  tests/oracles.py checks both branches
against LAPACK on G.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, standardize
from .eigen import EigenSystem, eig_symmetric
from .graph import _gram, build_full_graph
from .laplacian import laplacian_unnormalized


@dataclass(frozen=True)
class PcaModel:
    """Top-k sample-space principal directions, columns descending by eigenvalue."""

    components: np.ndarray
    eigenvalues: np.ndarray

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


def pca_topk(d_centered: Dataset, k: int) -> PcaModel:
    """Top-k eigenvectors of the Gram matrix of centered data.

    Solves whichever of X^T X (m x m) and X X^T (n x n) is smaller.  On the
    scatter route the mapped vectors X v_t are orthonormalized by a thin QR:
    the solver's tolerance leaves them orthogonal only to about 1e-12, and
    where X v_t vanishes (rank-deficient X) the QR completes the basis.
    """
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
    x = d_centered.points
    if m >= n:
        es = eig_symmetric(_gram(x))
        components = es.eigenvectors[:, ::-1][:, :k]
    else:
        es = eig_symmetric(np.einsum("ki,kj->ij", x, x))
        components = np.linalg.qr(x @ es.eigenvectors[:, ::-1][:, :k])[0]
    return PcaModel(np.ascontiguousarray(components), np.ascontiguousarray(es.eigenvalues[::-1][:k]))


def verify_shift_relation(es: EigenSystem, gram: np.ndarray) -> np.ndarray:
    """Residuals of G u_t = (2n - beta_t) u_t across the whole eigensystem.

    `es` is the eigensystem of the unnormalized Laplacian of the
    shifted-dot graph and `gram` the Gram matrix X X^T of the same
    standardized data; nothing is solved here.  Entry 0 covers the constant
    eigenvector, where the relation degenerates to G u_0 = 0; entries
    1..n-1 are the eigenvalue-shift residuals, all from one einsum, not BLAS.
    """
    gram = np.asarray(gram, dtype=float)
    n = len(es.eigenvalues)
    if gram.shape != (n, n):
        raise ValueError(f"gram shape {gram.shape} does not match eigensystem size {n}")
    u = es.eigenvectors
    shift = 2.0 * n - es.eigenvalues
    shift[0] = 0.0
    r = np.einsum("ij,jt->it", gram, u) - u * shift
    return np.sqrt((r * r).sum(axis=0))


def subspace_principal_angles(a, b) -> np.ndarray:
    """Principal angles between the column spans of two orthonormal bases.

    Both bases are re-orthonormalized by a thin QR before the SVD: a basis
    that is off orthonormal by delta would otherwise inflate the angles by
    up to sqrt(2 delta).  The cosines are the singular values of A^T B, but
    arccos near 1 resolves angles only down to about 2e-8, so angles up to
    pi/4 come from the sines instead, the singular values of (I - A A^T) B
    (Knyazev and Argentati, SIAM J. Sci. Comput. 23, 2002).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"basis shapes differ: {a.shape} vs {b.shape}")
    for name, mat in (("a", a), ("b", b)):
        dev = float(np.abs(mat.T @ mat - np.eye(mat.shape[1])).max())
        if dev > 1e-8:
            raise ValueError(f"columns of {name} are not orthonormal (deviation {dev:.3e})")
    a, b = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    cross = a.T @ b
    cosines = np.linalg.svd(cross, compute_uv=False)  # descending
    sines = np.linalg.svd(b - a @ cross, compute_uv=False)[::-1]  # ascending
    # the i-th smallest angle has the i-th largest cosine and i-th smallest sine
    small = cosines**2 >= 0.5
    angles = np.where(
        small, np.arcsin(np.clip(sines, 0.0, 1.0)), np.arccos(np.clip(cosines, 0.0, 1.0))
    )
    return np.sort(angles)


def pca_equivalence_report(d: Dataset, k: int) -> EquivalenceReport:
    """Standardize, run both reduction routes, and measure their agreement.

    Route A: unnormalized Laplacian of the shifted-dot graph, the code
    `cluster --graph full --kernel shifted_dot` runs; smallest k non-constant
    eigenvectors.  Route B: top-k principal directions from `pca_topk`.  The
    shift relation is checked on the Gram matrix of the standardized data,
    formed once here; no third eigensystem is solved.  The two subspaces
    coincide exactly in theory; max_angle reports how closely they do in
    floating point.
    """
    n, m = d.n, d.m
    cap = min(n - 1, m)
    if not 1 <= k <= cap:
        raise ValueError(f"k must be in [1, {cap}] = [1, min(n-1, m)], got {k}")
    std = standardize(d)
    lap = laplacian_unnormalized(build_full_graph(std, kernel="shifted_dot"))
    es = eig_symmetric(lap.matrix)
    route_a = es.eigenvectors[:, 1 : k + 1]

    model = pca_topk(std, k)
    angles = subspace_principal_angles(route_a, model.components)
    residuals = verify_shift_relation(es, _gram(std.points))

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
