"""Seeded inputs, command lines and output checks for the benchmark workloads.

Each workload maps (rng, op index, tiny) to an `Op`: the points the benchmark
writes as CSV, the `speclust` arguments, and a check of the artifacts. The
checks are an oracle that shares no code with speclust: graphs, Laplacians
and the adjusted Rand index are rebuilt here with plain numpy, and spectra
are compared against `numpy.linalg.eigvalsh`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# cluster-dense: three blobs centred on the first three axes of R^4. With
# these values the full RBF graph stays connected at working precision
# (cross-blob weights about exp(-4)) and the blobs never overlap. The
# embedding is classical (columns 0..2): with the nonconstant one, column 3
# is a within-blob eigenvector, and splitting its blob while merging two
# others ties the true partition in k-means inertia, so ARI < 1 on about
# 5-20% of seeds at any separation.
DENSE_SEP = 2.0
DENSE_SIGMA = 0.3
DENSE_DELTA = 1.0
DENSE_LAPLACIANS = ("unnormalized", "sym", "rw")

# pca-equiv: distinct per-feature scales, so the top-3 Gram eigenvalues are
# well separated and the spectrum is never flagged degenerate.
PCA_SCALES = (8.0, 6.0, 4.5, 3.0, 2.0, 1.5, 1.0, 0.5)
PCA_K = 3

# components-sparse: tight blobs far apart in m = 256 dimensions, so every
# 3-nearest-neighbour edge stays inside a blob. delta is sigma * sqrt(m), the
# scale of within-blob distances, so within-blob weights are about exp(-1).
SPARSE_DIM = 256
SPARSE_PER_BLOB = 6
SPARSE_SIGMA = 0.05
SPARSE_DELTA = SPARSE_SIGMA * math.sqrt(SPARSE_DIM)
SPARSE_KNN = 3

SPECTRUM_REL_TOL = 1e-8
MAX_ANGLE = 1e-6


@dataclass(frozen=True)
class Op:
    """One call of the speclust CLI: its input points, arguments and check."""

    points: np.ndarray
    args: tuple[str, ...]  # subcommand first; --input and --out are added by the runner
    check: Callable[[Path], list[str]]  # problems found in the artifact directory

    @property
    def n(self) -> int:
        return self.points.shape[0]


def _blobs(rng, centers, per_blob: int, sigma: float):
    pts = np.vstack([rng.normal(0.0, sigma, (per_blob, centers.shape[1])) + c for c in centers])
    return pts, np.repeat(np.arange(len(centers)), per_blob)


def _kmeans_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31)))


def cluster_dense(rng, i: int, tiny: bool) -> Op:
    per_blob = 4 if tiny else 20
    pts, truth = _blobs(rng, DENSE_SEP * np.eye(3, 4), per_blob, DENSE_SIGMA)
    laplacian = DENSE_LAPLACIANS[i % len(DENSE_LAPLACIANS)]
    args = (
        "cluster", "--graph", "full", "--kernel", "rbf", "--delta", repr(DENSE_DELTA),
        "--laplacian", laplacian, "--embedding", "classical", "--k", "3",
        "--seed", _kmeans_seed(rng),
    )

    def check(out: Path) -> list[str]:
        lap = laplacian_matrix(rbf_full(pts, DENSE_DELTA), laplacian)
        return label_problems(out, truth) + spectrum_problems(out, lap)

    return Op(pts, args, check)


def pca_equiv(rng, i: int, tiny: bool) -> Op:
    n = 10 if tiny else 50
    pts = rng.normal(size=(n, len(PCA_SCALES))) * np.asarray(PCA_SCALES)
    args = ("pca-equiv", "--k", str(PCA_K))

    def check(out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        problems = []
        if not report["max_angle"] <= MAX_ANGLE:
            problems.append(f"max_angle {report['max_angle']!r} > {MAX_ANGLE}")
        if report["degenerate_spectrum"] is not False:
            problems.append(f"degenerate_spectrum is {report['degenerate_spectrum']!r}")
        return problems

    return Op(pts, args, check)


def components_sparse(rng, i: int, tiny: bool) -> Op:
    blobs = 4 if tiny else 40
    centers = rng.normal(size=(blobs, SPARSE_DIM))
    pts, truth = _blobs(rng, centers, SPARSE_PER_BLOB, SPARSE_SIGMA)
    args = (
        "cluster", "--graph", "knn", "--knn", str(SPARSE_KNN), "--delta", repr(SPARSE_DELTA),
        "--laplacian", "unnormalized", "--embedding", "classical", "--k", str(blobs),
        "--seed", _kmeans_seed(rng),
    )

    def check(out: Path) -> list[str]:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        problems = []
        if report["branch"] != "indicator":
            problems.append(f"branch {report['branch']!r}, expected 'indicator'")
        counts = (report["component_count"], report["zero_multiplicity"])
        if counts != (blobs, blobs):
            problems.append(f"component_count, zero_multiplicity = {counts}, expected {blobs}")
        lap = laplacian_matrix(rbf_knn(pts, SPARSE_KNN, SPARSE_DELTA), "unnormalized")
        return problems + label_problems(out, truth) + spectrum_problems(out, lap)

    return Op(pts, args, check)


# name -> (stable id mixed into the op seeds, op factory)
WORKLOADS = {
    "cluster-dense": (1, cluster_dense),
    "pca-equiv": (2, pca_equiv),
    "components-sparse": (3, components_sparse),
}


def make_op(workload: str, seed: int, i: int, tiny: bool = False) -> Op:
    """Op i of a run with this seed; the same arguments always give the same op."""
    wid, factory = WORKLOADS[workload]
    return factory(np.random.default_rng([seed, wid, i]), i, tiny)


def write_points(points: np.ndarray, path: Path) -> None:
    # 17 significant digits round-trip doubles, so speclust parses exactly
    # the points the oracle uses
    with open(path, "w", encoding="utf-8") as fh:
        for row in points:
            fh.write(",".join(format(x, ".17g") for x in row) + "\n")


# --- oracle -----------------------------------------------------------------


def _squared_distances(pts: np.ndarray) -> np.ndarray:
    # row by row, so the oracle adds no n x n x m temporary to the peak RSS
    return np.array([((pts - p) ** 2).sum(axis=1) for p in pts])


def rbf_full(pts: np.ndarray, delta: float) -> np.ndarray:
    w = np.exp(-_squared_distances(pts) / (2.0 * delta * delta))
    np.fill_diagonal(w, 0.0)
    return w


def rbf_knn(pts: np.ndarray, k: int, delta: float) -> np.ndarray:
    sq = _squared_distances(pts)
    adjacent = np.zeros(sq.shape, dtype=bool)
    for i, row in enumerate(sq):
        nearest = [j for j in np.argsort(row, kind="stable") if j != i][:k]
        adjacent[i, nearest] = True
    adjacent |= adjacent.T
    return np.where(adjacent, np.exp(-sq / (2.0 * delta * delta)), 0.0)


def laplacian_matrix(w: np.ndarray, variant: str) -> np.ndarray:
    """Symmetric matrix with the spectrum of the requested Laplacian.

    L_rw = D^-1 L is similar to L_sym = D^-1/2 L D^-1/2, so both use L_sym.
    """
    w = (w + w.T) / 2.0
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    if variant in ("sym", "rw"):
        scale = 1.0 / np.sqrt(deg)
        lap = lap * scale[:, None] * scale[None, :]
    return lap


def adjusted_rand_index(a, b) -> float:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)

    def pairs(counts):
        return sum(math.comb(int(c), 2) for c in np.ravel(counts))

    index, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / math.comb(len(ai), 2)
    top = (rows + cols) / 2.0
    return 1.0 if top == expected else (index - expected) / (top - expected)


def label_problems(out: Path, truth: np.ndarray) -> list[str]:
    lines = (out / "labels.csv").read_text(encoding="utf-8").splitlines()
    labels = [int(line.split(",")[1]) for line in lines[1:]]
    if len(labels) != len(truth):
        return [f"labels.csv has {len(labels)} rows, expected {len(truth)}"]
    ari = adjusted_rand_index(labels, truth)
    return [] if ari == 1.0 else [f"ARI {ari:.6f} against the generated truth, expected 1"]


def spectrum_problems(out: Path, lap: np.ndarray) -> list[str]:
    got = np.loadtxt(out / "eigenvalues.txt", ndmin=1)
    want = np.linalg.eigvalsh(lap)
    if got.shape != want.shape:
        return [f"eigenvalues.txt has {got.size} values, expected {want.size}"]
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    worst = float(err.max())
    if worst > SPECTRUM_REL_TOL:
        return [f"eigenvalue {int(err.argmax())} off eigvalsh by {worst:.3e} relative"]
    return []
