"""Acceptance suite: nine go/no-go properties, each printing one verdict line.

Every criterion draws its own seeded corpus, checks the property across the
whole corpus, prints exactly one "CRITERION n: PASS/FAIL" line with the count
and elapsed time, and only then asserts.  Criteria with a runtime budget
assert the measured time too.
"""

import json
import time

import numpy as np

from generators import blobs, connected_weights, multi_component_weights, random_weights, write_points_csv
from oracles import bfs_components, power_eigensystem
from speclust import (
    ComponentLabeling,
    WeightedGraph,
    adjusted_rand_index,
    align_labels,
    build_full_graph,
    cli,
    connected_components,
    covariance_objective,
    eig_rw,
    eig_symmetric,
    embed_classical,
    embed_normalized,
    indicator_check,
    kmeans,
    laplacian_rw,
    laplacian_sym,
    laplacian_unnormalized,
    pca_equivalence_report,
    standardize,
    zero_eigenvalue_multiplicity,
)
from speclust.data import Dataset


def _graph(w):
    w = np.asarray(w, dtype=float)
    return WeightedGraph(weights=w, degrees=w.sum(axis=1))


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_component_count():
    rng = np.random.default_rng(101)
    trials, agree = 1000, 0
    start = time.perf_counter()
    for _ in range(trials):
        c = int(rng.integers(1, 5))
        n = int(rng.integers(max(c, 4), 13))
        w, _ = multi_component_weights(rng, n, c)
        g = _graph(w)
        es = eig_symmetric(laplacian_unnormalized(g).matrix)
        mult = zero_eigenvalue_multiplicity(es.eigenvalues, 1e-8)
        _, oracle_count = bfs_components(w)
        if mult == connected_components(g).component_count == oracle_count == c:
            agree += 1
    elapsed = time.perf_counter() - start
    ok = agree == trials and elapsed < 10.0
    _verdict(1, ok, f"zero multiplicity == component labeling == BFS on {agree}/{trials} "
                    f"graphs (n<=12, 1-4 components, tol 1e-8); {elapsed:.2f} s (< 10 s)")
    assert ok


def test_criterion_2_indicator_recovery():
    rng = np.random.default_rng(102)
    trials, good = 500, 0
    start = time.perf_counter()
    for _ in range(trials):
        c = int(rng.integers(2, 5))
        n = int(rng.integers(max(c + 2, 6), 16))
        w, _ = multi_component_weights(rng, n, c)
        g = _graph(w)
        components = connected_components(g)
        es = eig_symmetric(laplacian_unnormalized(g).matrix)
        emb = embed_classical(es, c)
        if not indicator_check(emb, components, tolerance=1e-7).passed:
            continue
        result = kmeans(emb.coordinates, c, seed=int(rng.integers(0, 1000)))
        aligned = align_labels(result.labels, components.labels)
        if adjusted_rand_index(aligned, components.labels) == 1.0:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good == trials and elapsed < 10.0
    _verdict(2, ok, f"indicator check (tol 1e-7) + exact k-means recovery (ARI 1.0) "
                    f"on {good}/{trials} multi-component graphs; {elapsed:.2f} s (< 10 s)")
    assert ok


def test_criterion_3_objective_identity():
    rng = np.random.default_rng(103)
    trials, good = 200, 0
    worst = 0.0
    start = time.perf_counter()
    for _ in range(trials):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, 4))
        g = _graph(random_weights(rng, n))
        y = rng.normal(size=(n, k))
        rep = covariance_objective(y, g, laplacian_unnormalized(g))
        rel = rep.identity_gap / max(abs(rep.covariance), 1.0)
        worst = max(worst, rel)
        if rep.identity_gap <= 1e-8 * max(abs(rep.covariance), 1.0):
            good += 1
    elapsed = time.perf_counter() - start
    ok = good == trials and elapsed < 5.0
    _verdict(3, ok, f"dissimilarity-covariance equals the trace form on {good}/{trials} "
                    f"(Y, graph) pairs, worst relative gap {worst:.2e} (<= 1e-8); "
                    f"{elapsed:.2f} s (< 5 s)")
    assert ok


def test_criterion_4_trace_optimality():
    rng = np.random.default_rng(104)
    graphs, per_graph, good = 20, 100, 0
    start = time.perf_counter()
    for _ in range(graphs):
        n = int(rng.integers(6, 11))
        g = _graph(connected_weights(rng, n))
        lap = laplacian_unnormalized(g)
        es = eig_symmetric(lap.matrix)
        ones = np.ones((n, 1)) / np.sqrt(n)
        for _ in range(per_graph):
            k = int(rng.integers(1, 4))
            q = rng.normal(size=(n, k))
            q -= ones @ (ones.T @ q)
            q, _ = np.linalg.qr(q)
            best = es.eigenvalues[1 : k + 1].sum()
            if np.trace(q.T @ lap.matrix @ q) >= best - 1e-9:
                good += 1
    elapsed = time.perf_counter() - start
    total = graphs * per_graph
    ok = good == total and elapsed < 5.0
    _verdict(4, ok, f"tr(Q^T L Q) >= sum of the smallest k nonzero eigenvalues - 1e-9 "
                    f"for {good}/{total} random orthonormal Q perpendicular to ones; "
                    f"{elapsed:.2f} s (< 5 s)")
    assert ok


def test_criterion_5_pca_equivalence():
    rng = np.random.default_rng(105)
    datasets, checks, good = 200, 0, 0
    degree_ok = True
    start = time.perf_counter()
    for _ in range(datasets):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(1, 6))
        d = Dataset(points=rng.normal(size=(n, m)))
        std = standardize(d)
        g = build_full_graph(std, kernel="shifted_dot")
        if np.abs(g.degrees - 2.0 * n).max() > 1e-9 * 2.0 * n:
            degree_ok = False
        max_k = min(n - 1, m)
        for k in range(1, max_k + 1):
            checks += 1
            report = pca_equivalence_report(d, k)
            angles_ok = report.max_angle <= 1e-6
            shift_ok = report.shift_residuals.max() <= 1e-7 * 2.0 * n
            if angles_ok and shift_ok and not report.degenerate_spectrum:
                good += 1
    elapsed = time.perf_counter() - start
    ok = good == checks and degree_ok and elapsed < 20.0
    _verdict(5, ok, f"both reduction routes agree (max principal angle <= 1e-6, shift "
                    f"residuals <= 1e-7 scale-relative) on {good}/{checks} (dataset, k) "
                    f"pairs across {datasets} datasets; degrees == 2n within 1e-9: "
                    f"{degree_ok}; {elapsed:.2f} s (< 20 s)")
    assert ok


def test_criterion_6_eigensolver_vs_oracle():
    rng = np.random.default_rng(106)
    corpus = []
    for n in range(2, 7):
        corpus.append(np.zeros((n, n)))
        corpus.append(np.eye(n))
        w = np.ones((n, n)) - np.eye(n)
        corpus.append(np.diag(w.sum(axis=1)) - w)  # complete-graph Laplacian
        p = np.zeros((n, n))
        for i in range(n - 1):
            p[i, i + 1] = p[i + 1, i] = 1.0
        corpus.append(np.diag(p.sum(axis=1)) - p)  # path Laplacian
        corpus.append(np.diag(rng.normal(size=n)))
        for _ in range(30):
            a = rng.normal(size=(n, n))
            corpus.append((a + a.T) / 2.0)
    good = 0
    start = time.perf_counter()
    for a in corpus:
        es = eig_symmetric(a)
        lam, _ = power_eigensystem(a)
        scale = max(np.abs(lam).max(), 1.0)
        values_ok = np.abs(es.eigenvalues - lam).max() <= 1e-7 * scale
        recon = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T
        norm = np.linalg.norm(a, "fro")
        recon_ok = np.linalg.norm(recon - a, "fro") <= 1e-8 * max(norm, 1e-30)
        if values_ok and recon_ok:
            good += 1
    elapsed = time.perf_counter() - start
    ok = good == len(corpus)
    _verdict(6, ok, f"eigenvalues within 1e-7 of the power-iteration oracle and "
                    f"reconstruction within 1e-8*|A|_F on {good}/{len(corpus)} matrices "
                    f"(n <= 6); the residual invariant is enforced at construction for "
                    f"every decomposition in criteria 1-5; {elapsed:.2f} s")
    assert ok


def test_criterion_7_normalized_variants():
    rng = np.random.default_rng(107)
    trials, spectra_ok, rows_ok = 100, 0, 0
    start = time.perf_counter()
    for _ in range(trials):
        n = int(rng.integers(4, 11))
        g = _graph(connected_weights(rng, n))
        es_sym = eig_symmetric(laplacian_sym(g).matrix)
        es_rw = eig_rw(laplacian_rw(g), g.degrees)
        if np.abs(es_sym.eigenvalues - es_rw.eigenvalues).max() <= 1e-9:
            spectra_ok += 1
        k = min(3, n - 1)
        scaled = embed_normalized(es_sym, g.degrees, k, scaled=True)
        manual = es_sym.eigenvectors[:, 1 : k + 1] / np.sqrt(g.degrees)[:, None]
        if np.array_equal(scaled.coordinates, manual):
            rows_ok += 1
    elapsed = time.perf_counter() - start
    ok = spectra_ok == trials and rows_ok == trials
    _verdict(7, ok, f"sym and random-walk spectra agree within 1e-9 on {spectra_ok}/{trials} "
                    f"connected graphs; degree-scaled rows reproduce y/sqrt(D) bitwise on "
                    f"{rows_ok}/{trials}; {elapsed:.2f} s")
    assert ok


def _blob_csv(tmp_path, name, seed, centers):
    rng = np.random.default_rng(seed)
    pts, truth = blobs(rng, centers, 20, 0.1)
    path = tmp_path / name
    write_points_csv(path, pts)
    return path, truth


def _run_and_score(argv, out, truth):
    rc = cli.main(argv + ["--out", str(out)])
    assert rc == 0
    labels = np.array(
        [int(line.split(",")[1]) for line in (out / "labels.csv").read_text().splitlines()[1:]]
    )
    report = json.loads((out / "report.json").read_text())
    return adjusted_rand_index(labels, truth), report["branch"]


def test_criterion_8_end_to_end_clustering(tmp_path):
    two, truth2 = _blob_csv(tmp_path, "two.csv", 11, [(0.0, 0.0), (2.0, 0.0)])
    three, truth3 = _blob_csv(tmp_path, "three.csv", 12, [(0.0, 0.0), (2.0, 0.0), (1.0, 1.8)])
    cases = [
        ("two-knn", two, truth2, 2,
         ["cluster", "--input", str(two), "--graph", "knn", "--knn", "5",
          "--delta", "1.0", "--embedding", "classical", "--k", "2"], "indicator"),
        ("three-knn", three, truth3, 3,
         ["cluster", "--input", str(three), "--graph", "knn", "--knn", "5",
          "--delta", "1.0", "--embedding", "classical", "--k", "3"], "indicator"),
        ("two-full", two, truth2, 2,
         ["cluster", "--input", str(two), "--graph", "full", "--delta", "0.5",
          "--k", "2"], "connected"),
        ("three-full", three, truth3, 3,
         ["cluster", "--input", str(three), "--graph", "full", "--delta", "0.5",
          "--k", "3"], "connected"),
    ]
    good = []
    start = time.perf_counter()
    for name, _, truth, _, argv, want_branch in cases:
        ari, branch = _run_and_score(argv, tmp_path / f"out-{name}", truth)
        if ari == 1.0 and branch == want_branch:
            good.append(name)
    elapsed = time.perf_counter() - start
    ok = len(good) == len(cases) and elapsed < 5.0
    _verdict(8, ok, f"cluster subcommand reaches ARI 1.0 on {len(good)}/{len(cases)} "
                    f"blob configurations (kNN indicator path and full-RBF nonconstant "
                    f"path, two and three blobs); {elapsed:.2f} s (< 5 s)")
    assert ok


def test_criterion_9_byte_identical_artifacts(tmp_path):
    two, _ = _blob_csv(tmp_path, "two.csv", 11, [(0.0, 0.0), (2.0, 0.0)])
    runs = [
        ("cluster-knn",
         ["cluster", "--input", str(two), "--graph", "knn", "--knn", "5", "--delta", "1.0",
          "--embedding", "classical", "--k", "2", "--seed", "3"]),
        ("cluster-full",
         ["cluster", "--input", str(two), "--graph", "full", "--delta", "0.5",
          "--k", "2", "--seed", "3"]),
        ("pca-equiv", ["pca-equiv", "--input", str(two), "--k", "2"]),
        ("eigen", ["eigen", "--input", str(two), "--graph", "full", "--delta", "0.5"]),
    ]
    start = time.perf_counter()
    compared, identical = 0, 0
    for name, argv in runs:
        out_a, out_b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        for file_a in sorted(out_a.iterdir()):
            compared += 1
            if file_a.read_bytes() == (out_b / file_a.name).read_bytes():
                identical += 1
    elapsed = time.perf_counter() - start
    ok = compared > 0 and identical == compared
    _verdict(9, ok, f"repeat runs with the same seed produced byte-identical artifacts "
                    f"for {identical}/{compared} files across cluster, pca-equiv, and "
                    f"eigen pipelines; {elapsed:.2f} s")
    assert ok
