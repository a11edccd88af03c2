"""
What the spectral embedding optimizes
======================================

The embedding makes strongly connected pairs land close together.  That
statement has an exact form: the covariance between pairwise embedding
dissimilarity and edge weight equals a trace expression in the Laplacian,
and the eigenvector embedding minimizes that trace over all orthonormal
choices.  This script checks both facts numerically.
"""

import numpy as np

from speclust import (
    Dataset,
    build_full_graph,
    covariance_objective,
    eig_symmetric,
    embed_nonconstant,
    embed_normalized,
    laplacian_sym,
    laplacian_unnormalized,
)
from speclust.embedding import eigenvalue_scale

rng = np.random.default_rng(5)
points = rng.normal(size=(12, 3))
graph = build_full_graph(Dataset(points=points), kernel="rbf", delta=1.0)
lap = laplacian_unnormalized(graph)
es = eig_symmetric(lap.matrix)

# the identity: covariance computed from raw pairwise dissimilarities
# matches the closed trace form to machine precision
embedding = embed_nonconstant(es, 2)
report = covariance_objective(embedding, graph, lap)
print(f"covariance(-dissimilarity, weight) = {report.covariance:.10f}")
print(f"  trace term {report.trace_term:.10f} + constant term "
      f"{report.constant_term:.10f}, identity gap {report.identity_gap:.2e}")

# the trace term at the eigenvector embedding equals the eigenvalue sum,
# and no other orthonormal basis perpendicular to ones does better
k = 2
eig_sum = es.eigenvalues[1 : k + 1].sum()
print(f"trace at the embedding: {-graph.n * report.trace_term:.10f} "
      f"== sum of smallest nonzero eigenvalues {eig_sum:.10f}")
ones = np.ones((graph.n, 1)) / np.sqrt(graph.n)
worst = 0.0
for _ in range(200):
    q = rng.normal(size=(graph.n, k))
    q -= ones @ (ones.T @ q)
    q, _ = np.linalg.qr(q)
    worst = max(worst, eig_sum - np.trace(q.T @ lap.matrix @ q))
print(f"best improvement found by 200 random orthonormal competitors: "
      f"{worst:.2e} (never above 0: the eigenvectors are optimal)")

# the same identity holds for the degree-normalized variant after
# substituting the degree-scaled rows z_i = y_i / sqrt(D_ii): the objective
# takes the L_sym eigenvector rows y and forms z itself
lap_s = laplacian_sym(graph)
es_s = eig_symmetric(lap_s.matrix)
emb_s = embed_normalized(es_s, graph.degrees, 2)
report_s = covariance_objective(emb_s, graph, lap_s)
print(f"normalized variant identity gap: {report_s.identity_gap:.2e}")
z = emb_s.coordinates / np.sqrt(graph.degrees)[:, None]
scaled_rows = embed_normalized(es_s, graph.degrees, 2, scaled=True).coordinates
print(f"scaled=True rows are the objective's z bit for bit: {np.array_equal(scaled_rows, z)}")

# optional post-scaling by 1/sqrt(eigenvalue) equalizes column energies
scaled = eigenvalue_scale(embedding)
norms = np.linalg.norm(scaled.coordinates, axis=0)
print(f"eigenvalue-scaled column norms: {np.array2string(norms, precision=4)}")
