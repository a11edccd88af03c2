"""Dense symmetric eigensolver built on round-robin Jacobi rotations.

Every module in the package consumes eigensystems from here, so the solver
is deliberately self-contained: Jacobi rotations, no external LAPACK path.

`eig_symmetric` first splits the matrix into the connected blocks of its own
off-diagonal nonzero pattern.  Rotations never create fill between blocks,
so each block is solved apart; same-size blocks are stacked and solved by
one kernel call.  A dense matrix is a stack of one block.

The kernel sweeps in a round-robin (tournament) order, the parallel
ordering of Brent & Luk (SIAM J. Sci. Stat. Comput. 6, 1985): a sweep of
an s x s block is s - 1 rounds (s rounds for odd s, which is padded with a
dummy index), and each round applies its disjoint (p, q) rotations at once
as gathered row and column updates.  After every round the upper triangle is copied onto the
lower one, because the two-sided update rounds a[i, j] and a[j, i]
differently.  All of it is elementwise numpy, never BLAS, so the result does
not depend on the machine's BLAS or its thread count.

Convergence, per block: off-diagonal Frobenius norm <= 1e-12 * ||A_b||_F,
or 100 sweeps, whichever comes first.  A block stops rotating once it meets
its own bound, so its bits depend on that block alone.  Non-convergence
raises; it is never silent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import _component_labels
from .laplacian import LaplacianMatrix

MAX_SWEEPS = 100
OFFDIAG_REL_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when the rotation sweeps fail to annihilate the off-diagonal."""


def _ordered_sum_of_squares(entries, weight):
    # added left to right from 0.0 along the last axis, as a scalar loop
    # would; np.sum's pairwise summation moves the last bits and with them
    # the sweep count
    terms = weight * entries * entries
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.cumsum(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]


def _round_robin(n):
    """The rounds of one sweep over an n x n block, as (p, q) arrays.

    Circle method: index 0 stays put and the others move one place per
    round, so every pair p < q meets exactly once in n - 1 rounds.  An odd n
    is padded with a dummy index n, and the pair holding it is dropped.
    Both arrays have shape (rounds, n // 2); pairs within a round are
    disjoint.
    """
    m = n + n % 2
    pairs = []
    for r in range(m - 1):
        ring = np.concatenate(([0], np.roll(np.arange(1, m), r)))
        pair = np.sort(np.stack((ring[: m // 2], ring[::-1][: m // 2]), axis=1), axis=1)
        pairs.append(pair[pair[:, 1] < n])
    pairs = np.array(pairs, dtype=np.intp).reshape(m - 1, n // 2, 2)
    return pairs[..., 0], pairs[..., 1]


def _rotate_rows(rows, pairs, c, s):
    # row p gets row_p * c - row_q * s, and row q gets row_q * c - row_p * (-s),
    # which is row_q * c + row_p * s exactly
    pair = rows[pairs].reshape(2, -1, rows.shape[2])
    rows[pairs] = (pair * c - pair[::-1] * s).reshape(-1, rows.shape[2])


def _rotate_round(a, vt, p, q, above):
    """Apply one round's disjoint rotations to every block of the stack `a`.

    Returns the rotated stack and updates `vt`, whose rows are the
    eigenvector estimates, in place.  Each pair (p[k], q[k]) reads its
    entries as they stood at the start of the round.
    """
    h = p.size
    entries = a[:, np.concatenate((p, p, q)), np.concatenate((q, p, q))]
    apq = entries[:, :h]
    # entries that can no longer affect the diagonal at working precision
    # are dropped outright (standard Jacobi guard); apq == 0 always passes
    # the guard, and such pairs are skipped
    magnitude = np.abs(entries)
    stays = magnitude[:, h:] + np.tile(100.0 * magnitude[:, :h], 2) == magnitude[:, h:]
    guard = stays[:, :h] & stays[:, h:]
    bi, k = np.nonzero(guard & (apq != 0.0))
    a[bi, p[k], q[k]] = 0.0
    a[bi, q[k], p[k]] = 0.0
    bi, k = np.nonzero(~guard)
    if bi.size == 0:
        return a
    apq, app, aqq = entries.reshape(len(a), 3, h)[bi, :, k].T
    p, q = p[k], q[k]
    tau = (aqq - app) / (2.0 * apq)
    # sign(tau) / (|tau| + sqrt(1 + tau^2)) with sign(0) = +1
    t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = t * c
    pairs = (np.concatenate((bi, bi)), np.concatenate((p, q)))
    c = c[:, None]
    s = np.stack((s, -s))[:, :, None]
    _rotate_rows(a, pairs, c, s)
    _rotate_rows(vt, pairs, c, s)
    # the columns of A, as the rows of its transpose
    a = a.transpose(0, 2, 1).copy()
    _rotate_rows(a, pairs, c, s)
    shift = t * apq
    a[bi, p, p] = app - shift
    a[bi, q, q] = aqq + shift
    a[bi, q, p] = 0.0
    # `a` now holds (J^T A J)^T, whose lower triangle is the upper one of
    # J^T A J; copy it onto the upper triangle too, so the block is exactly
    # symmetric again (this also zeroes a[p, q])
    np.copyto(a, a.transpose(0, 2, 1), where=above)
    return a


def _jacobi_sweeps(a, v, max_sweeps, rel_tol):
    """Run round-robin Jacobi sweeps in place on a (b, s, s) stack of blocks.

    `v` is the matching stack of rotation accumulators.  Each block sweeps
    until its own off-diagonal norm is <= rel_tol * its Frobenius norm, or
    until `max_sweeps`; blocks that stop are left untouched from then on.
    Returns (sweeps, off, threshold): the most sweeps any block used, as an
    int, and each block's final off-diagonal norm and threshold.  The
    diagonals of `a` hold the eigenvalues, the columns of `v` the
    eigenvectors.
    """
    b, n, _ = a.shape
    threshold = rel_tol * np.sqrt(_ordered_sum_of_squares(a.reshape(b, -1), 1.0))
    above = np.triu(np.ones((n, n), dtype=bool), 1)
    rounds = list(zip(*_round_robin(n)))
    sweeps = np.zeros(b, dtype=int)
    while True:
        off = np.sqrt(_ordered_sum_of_squares(a[:, above], 2.0))
        active = np.flatnonzero((off > threshold) & (sweeps < max_sweeps))
        if active.size == 0:
            return int(sweeps.max(initial=0)), off, threshold
        work = a[active]
        vt = v[active].transpose(0, 2, 1).copy()
        with np.errstate(over="ignore"):  # tau^2 = inf gives t = 0, as it should
            for p, q in rounds:
                work = _rotate_round(work, vt, p, q, above)
        a[active] = work
        v[active] = vt.transpose(0, 2, 1)
        sweeps[active] += 1


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
    # each column's largest-|x| entry (lowest index on ties) made positive;
    # a flip by -1 is exact, so no bit but the sign moves
    lead = np.argmax(np.abs(vectors), axis=0)
    flips = np.where(vectors[lead, np.arange(vectors.shape[1])] < 0.0, -1.0, 1.0)
    return vectors * flips


def _max_residual(a: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> float:
    resid = a @ vectors - vectors * values
    return float(np.sqrt((resid**2).sum(axis=0)).max())


def _connected_blocks(mat: np.ndarray) -> list[np.ndarray]:
    """Connected blocks of mat's off-diagonal nonzero pattern, grouped by size.

    Returns one (b, s) index array per block size s, ascending in s; each row
    lists one block's indices in ascending order, and blocks of one size
    are in order of their first index.  The labels are `connected_components`'
    own; a split block would leave entries out of the solve and break the
    full-matrix residual bound, a merge would show as a multiplicity unlike
    the component count, and the tests pin the labels to breadth-first search.
    """
    label = _component_labels(mat != 0.0)
    members = np.argsort(label, kind="stable")
    sizes = np.bincount(label)
    first = np.cumsum(sizes) - sizes
    return [members[first[sizes == s][:, None] + np.arange(s)]
            for s in np.flatnonzero(np.bincount(sizes))]


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
    values = np.empty(mat.shape[0])
    vectors = np.zeros_like(work)
    for idx in _connected_blocks(work):
        square = (idx[:, :, None], idx[:, None, :])
        blocks = work[square]
        basis = np.broadcast_to(np.eye(idx.shape[1]), blocks.shape).copy()
        sweeps, off, threshold = _jacobi_sweeps(blocks, basis, MAX_SWEEPS, OFFDIAG_REL_TOL)
        failed = np.flatnonzero(off > threshold)
        if failed.size:
            i = failed[0]
            raise ConvergenceError(
                f"Jacobi sweeps did not converge: off-diagonal {off[i]:.3e} > "
                f"threshold {threshold[i]:.3e} after {sweeps} sweeps"
            )
        values[idx] = np.diagonal(blocks, axis1=1, axis2=2)
        vectors[square] = basis

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
