"""Independent oracles the tests check the package against.

Nothing here imports from speclust: the point is a second, dumber route to
the same answers.  The eigensolver oracle is shifted power iteration with
deflation; the Jacobi kernel reference is the element-by-element loop of
the round-robin schedule that the vectorized kernel must reproduce bit for
bit; the component oracle is breadth-first search over positive weights;
the PCA Laplacian is the closed form of the shifted-dot graph's Laplacian,
written without any graph; sample-space PCA is LAPACK's `eigh` on the Gram
matrix.
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


def round_robin_rounds(n):
    """The rounds of one Jacobi sweep over n indices, as lists of (p, q), p < q.

    Circle method: index 0 stays put and the others move one place per
    round.  An odd n gets a dummy index n, and the pair holding it is
    dropped, so there are n - 1 rounds for even n and n for odd n.
    """
    m = n + n % 2
    rounds = []
    others = list(range(1, m))
    for r in range(m - 1):
        cut = len(others) - r
        ring = [0] + others[cut:] + others[:cut]
        pairs = [tuple(sorted((ring[k], ring[m - 1 - k]))) for k in range(m // 2)]
        rounds.append([(p, q) for p, q in pairs if q < n])
    return rounds


def _sum_of_squares(a, n, weight, upper_only):
    total = 0.0
    for i in range(n):
        for j in range(i + 1 if upper_only else 0, n):
            total += weight * a[i, j] * a[i, j]
    return total


def _scalar_round(a, v, n, pairs):
    # every pair reads its entries as they stood at the start of the round
    rotations = []
    for p, q in pairs:
        apq = a[p, q]
        if apq == 0.0:
            continue
        app = a[p, p]
        aqq = a[q, q]
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
        rotations.append((p, q, app, aqq, apq, t, c, t * c))
    for p, q, _, _, _, _, c, s in rotations:  # rows
        for j in range(n):
            apj = a[p, j]
            aqj = a[q, j]
            a[p, j] = apj * c - aqj * s
            a[q, j] = aqj * c + apj * s
    for p, q, _, _, _, _, c, s in rotations:  # then columns
        for i in range(n):
            aip = a[i, p]
            aiq = a[i, q]
            a[i, p] = aip * c - aiq * s
            a[i, q] = aiq * c + aip * s
            vip = v[i, p]
            viq = v[i, q]
            v[i, p] = vip * c - viq * s
            v[i, q] = viq * c + vip * s
    for p, q, app, aqq, apq, t, _, _ in rotations:
        a[p, p] = app - t * apq
        a[q, q] = aqq + t * apq
        a[p, q] = 0.0
        a[q, p] = 0.0
    for i in range(n):  # mirror the upper triangle onto the lower one
        for j in range(i):
            a[i, j] = a[j, i]


def scalar_jacobi_sweeps(a, v, max_sweeps, rel_tol):
    """Round-robin Jacobi on a (b, n, n) stack of blocks, one element at a time.

    The scalar reference for speclust's vectorized kernel: same rounds, same
    per-element arithmetic, so the two must agree bit for bit.  Each round
    applies its rotations together, rows first and then columns, resets the
    rotated diagonal and pair entries, and copies the upper triangle onto
    the lower one.  Each block runs on its own until its off-diagonal norm
    is <= rel_tol * its Frobenius norm, or until `max_sweeps`.

    Works in place on `a` and on `v`, the stack of rotation accumulators.
    Returns (most sweeps any block used, per-block off-norms, per-block
    thresholds).
    """
    b, n, _ = a.shape
    rounds = round_robin_rounds(n)
    most, offs, thresholds = 0, [], []
    for blk in range(b):
        x, y = a[blk], v[blk]
        threshold = rel_tol * np.sqrt(_sum_of_squares(x, n, 1.0, upper_only=False))
        sweeps = 0
        while True:
            off = np.sqrt(_sum_of_squares(x, n, 2.0, upper_only=True))
            if off <= threshold or sweeps == max_sweeps:
                break
            for pairs in rounds:
                _scalar_round(x, y, n, pairs)
            sweeps += 1
        most = max(most, sweeps)
        offs.append(off)
        thresholds.append(threshold)
    return most, np.array(offs), np.array(thresholds)


def pca_laplacian(x):
    """2n I - 2 H - X X^T for standardized rows X (H the all-ones matrix).

    With X centered and scaled so |x_i.x_j| < 2, the fully connected graph
    with weights 2 + x_i.x_j has every degree exactly 2n, so its
    unnormalized Laplacian D - W reduces to this.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return 2.0 * n * np.eye(n) - 2.0 - x @ x.T


def gram_topk(x, k):
    """Top-k eigenvalues and eigenvectors of X X^T by LAPACK, descending."""
    x = np.asarray(x, dtype=float)
    values, vectors = np.linalg.eigh(x @ x.T)
    return values[::-1][:k], vectors[:, ::-1][:, :k]


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
