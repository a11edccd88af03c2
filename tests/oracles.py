"""Independent oracles the tests check the package against.

Nothing here imports from speclust: the point is a second, dumber route to
the same answers.  The eigensolver oracle is shifted power iteration with
deflation; the Jacobi kernel reference is the element-by-element loop the
vectorized kernel must reproduce bit for bit; the component oracle is
breadth-first search over positive weights; the PCA Laplacian is the closed
form of the shifted-dot graph's Laplacian, written without any graph.
"""

from __future__ import annotations

from collections import deque

import numpy as np


def power_eigensystem(a, residual_tol=1e-11, max_mults=200_000):
    """All eigenpairs of a small symmetric matrix, ascending.

    Works on B = sigma*I - A with sigma = ||A||_F + 1, which is positive
    definite with its largest eigenvalue at A's smallest, so plain power
    iteration plus rank-one deflation walks A's spectrum from the bottom up.
    Convergence is judged by the residual ||B x - mu x||, which settles even
    inside (near-)degenerate clusters where the iterate itself wanders.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    sigma = float(np.sqrt((a * a).sum())) + 1.0
    b = sigma * np.eye(n) - a
    rng = np.random.default_rng(987654321)

    values = []
    vectors = []
    for _ in range(n):
        x = rng.normal(size=n)
        x /= np.linalg.norm(x)
        mu = float(x @ b @ x)
        for _ in range(max_mults):
            y = b @ x
            norm = np.linalg.norm(y)
            if norm == 0.0:
                # B annihilates x: mu = 0 exactly, x is the eigenvector
                mu = 0.0
                break
            x = y / norm
            mu = float(x @ b @ x)
            if np.linalg.norm(b @ x - mu * x) <= residual_tol * sigma:
                break
        values.append(sigma - mu)
        vectors.append(x.copy())
        b -= mu * np.outer(x, x)

    order = np.argsort(values, kind="stable")
    lam = np.array(values)[order]
    vec = np.column_stack(vectors)[:, order]
    return lam, vec


def scalar_jacobi_sweeps(a, v, max_sweeps, rel_tol):
    """Run cyclic Jacobi sweeps in place on `a`, accumulating rotations in `v`.

    The scalar reference for speclust's vectorized kernel: same (p, q) order,
    same per-element arithmetic, one element at a time, so the two must agree
    bit for bit.

    Returns (sweeps_used, final_offdiag_norm, threshold).  `a` ends diagonal
    up to the threshold; its diagonal holds the eigenvalues, the columns of
    `v` the eigenvectors.
    """
    n = a.shape[0]
    frob = 0.0
    for i in range(n):
        for j in range(n):
            frob += a[i, j] * a[i, j]
    threshold = rel_tol * np.sqrt(frob)

    sweeps = 0
    off = 0.0
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += 2.0 * a[p, q] * a[p, q]
        off = np.sqrt(off)
        if off <= threshold:
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
                for i in range(n):
                    if i != p and i != q:
                        aip = a[i, p]
                        aiq = a[i, q]
                        a[i, p] = aip * c - aiq * s
                        a[p, i] = a[i, p]
                        a[i, q] = aiq * c + aip * s
                        a[q, i] = a[i, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(n):
                    vip = v[i, p]
                    viq = v[i, q]
                    v[i, p] = vip * c - viq * s
                    v[i, q] = viq * c + vip * s
        sweeps += 1

    off = 0.0
    for p in range(n - 1):
        for q in range(p + 1, n):
            off += 2.0 * a[p, q] * a[p, q]
    return sweeps, np.sqrt(off), threshold


def pca_laplacian(x):
    """2n I - 2 H - X X^T for standardized rows X (H the all-ones matrix).

    With X centered and scaled so |x_i.x_j| < 2, the fully connected graph
    with weights 2 + x_i.x_j has every degree exactly 2n, so its
    unnormalized Laplacian D - W reduces to this.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return 2.0 * n * np.eye(n) - 2.0 - x @ x.T


def bfs_components(weights):
    """Component labels in order of first vertex occurrence, plus the count."""
    w = np.asarray(weights)
    n = w.shape[0]
    labels = np.full(n, -1, dtype=int)
    count = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = count
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in range(n):
                if w[i, j] > 0.0 and labels[j] == -1:
                    labels[j] = count
                    queue.append(j)
        count += 1
    return labels, count
