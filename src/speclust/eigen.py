"""Dense symmetric eigensolver built on cyclic Jacobi rotations.

Every module in the package consumes eigensystems from here, so the solver
is deliberately self-contained: plain cyclic Jacobi, no external LAPACK
path.  Rotations are applied as elementwise numpy row and column updates,
never through BLAS, so the result does not depend on the machine's BLAS or
its thread count.

Convergence: off-diagonal Frobenius norm <= 1e-12 * ||A||_F, or 100 sweeps,
whichever comes first.  Non-convergence raises; it is never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laplacian import LaplacianMatrix

MAX_SWEEPS = 100
OFFDIAG_REL_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when the rotation sweeps fail to annihilate the off-diagonal."""


def _ordered_sum_of_squares(entries, weight):
    # added left to right from 0.0, as a scalar loop would; np.sum's pairwise
    # summation moves the last bits and with them the sweep count
    return np.cumsum(np.concatenate(([0.0], weight * entries * entries)))[-1]


def _jacobi_sweeps(a, v, max_sweeps, rel_tol):
    """Run cyclic Jacobi sweeps in place on `a`, accumulating rotations in `v`.

    Returns (sweeps_used, final_offdiag_norm, threshold).  `a` ends diagonal
    up to the threshold; its diagonal holds the eigenvalues, the columns of
    `v` the eigenvectors.  Pairs (p, q) are visited in row-major order; each
    rotation updates whole rows and columns at once.
    """
    n = a.shape[0]
    threshold = rel_tol * np.sqrt(_ordered_sum_of_squares(a.ravel(), 1.0))
    upper = np.triu_indices(n, 1)

    sweeps = 0
    while True:
        off = np.sqrt(_ordered_sum_of_squares(a[upper], 2.0))
        if off <= threshold or sweeps == max_sweeps:
            return sweeps, off, threshold
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                # entries that can no longer affect the diagonal at working
                # precision are dropped outright (standard Jacobi guard)
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
                s = t * c
                col_p = a[:, p] * c - a[:, q] * s
                col_q = a[:, q] * c + a[:, p] * s
                a[:, p] = a[p, :] = col_p
                a[:, q] = a[q, :] = col_q
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p] * c - v[:, q] * s
                v[:, q] = v[:, q] * c + v[:, p] * s
                v[:, p] = vec_p
        sweeps += 1


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues with sign-canonicalized eigenvector columns.

    Column t pairs with eigenvalue t.  For symmetric inputs the columns are
    orthonormal; for random-walk systems (eig_rw) they are unit-norm but
    orthogonal only in the degree-weighted inner product.  In each column
    the entry of largest absolute value is positive, ties broken by lowest
    index, which makes the output deterministic.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    max_residual: float

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) < 0.0):
            raise ValueError("eigenvalues must be non-decreasing")
        bound = 1e-8 * max(float(np.abs(self.eigenvalues).max()), 1.0)
        if self.max_residual > bound:
            raise ValueError(
                f"eigensystem residual {self.max_residual:.3e} exceeds bound {bound:.3e}"
            )
        self.eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)


def _canonicalize_signs(vectors: np.ndarray) -> np.ndarray:
    flips = np.ones(vectors.shape[1])
    for t in range(vectors.shape[1]):
        lead = np.argmax(np.abs(vectors[:, t]))
        if vectors[lead, t] < 0.0:
            flips[t] = -1.0
    return vectors * flips


def _max_residual(a: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> float:
    resid = a @ vectors - vectors * values
    return float(np.sqrt((resid**2).sum(axis=0)).max())


def eig_symmetric(a) -> EigenSystem:
    """Full eigensystem of a symmetric matrix (within 1e-10 absolute)."""
    mat = np.array(np.asarray(a, dtype=float), order="C")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("matrix has non-finite entries")
    asym = np.abs(mat - mat.T).max()
    if asym > 1e-10:
        raise ValueError(f"matrix is not symmetric: max |A - A^T| = {asym:.3e}")

    work = (mat + mat.T) / 2.0
    vectors = np.eye(mat.shape[0])
    sweeps, off, threshold = _jacobi_sweeps(work, vectors, MAX_SWEEPS, OFFDIAG_REL_TOL)
    if off > threshold:
        raise ConvergenceError(
            f"Jacobi sweeps did not converge: off-diagonal {off:.3e} > "
            f"threshold {threshold:.3e} after {sweeps} sweeps"
        )

    values = np.diagonal(work).copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = _canonicalize_signs(vectors[:, order])
    return EigenSystem(values, vectors, _max_residual(mat, values, vectors))


def eig_rw(l_rw: LaplacianMatrix, degrees) -> EigenSystem:
    """Eigensystem of the random-walk Laplacian via its symmetric similarity.

    D^{1/2} L_rw D^{-1/2} is symmetric with the same spectrum; its
    eigenvectors v map back as u = D^{-1/2} v.  The returned vectors are
    renormalized to unit length and the residual is measured directly on
    L_rw u - lambda u.
    """
    if l_rw.variant != "rw":
        raise ValueError(f"expected an rw Laplacian, got variant {l_rw.variant!r}")
    deg = np.asarray(degrees, dtype=float)
    if np.any(deg <= 0.0):
        raise ValueError("degrees must all be positive")
    root = np.sqrt(deg)
    sym = l_rw.matrix * root[:, None] / root[None, :]
    sym = (sym + sym.T) / 2.0  # rounding from the scaling is ~1e-16
    base = eig_symmetric(sym)
    u = base.eigenvectors / root[:, None]
    u = u / np.sqrt((u**2).sum(axis=0))
    u = _canonicalize_signs(u)
    return EigenSystem(base.eigenvalues, u, _max_residual(l_rw.matrix, base.eigenvalues, u))
