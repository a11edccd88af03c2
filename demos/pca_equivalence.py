"""
PCA as a special case of the spectral embedding
================================================

Take standardized data, weight every pair by 2 + dot product (keeping
the diagonal), and build the unnormalized Laplacian of that graph.  Its
smallest non-constant eigenvectors span exactly the top principal
directions of the Gram matrix.  The script walks the shift relation
behind this and compares the two routes by principal angles.
"""

import numpy as np

from speclust import (
    Dataset,
    build_full_graph,
    eig_symmetric,
    laplacian_pca,
    pca_equivalence_report,
    pca_topk,
    standardize,
    subspace_principal_angles,
    verify_shift_relation,
)

rng = np.random.default_rng(3)
raw = rng.normal(size=(10, 3)) @ np.diag([3.0, 1.0, 0.3])
data = standardize(Dataset(points=raw.copy()))
n = data.n

# the shifted-dot graph has constant degree 2n, so L = 2n*I - 2*ones - Gram
graph = build_full_graph(data, kernel="shifted_dot")
print(f"shifted-dot degrees: all equal to 2n = {2 * n} "
      f"(max deviation {np.abs(graph.degrees - 2 * n).max():.2e})")

# eigenvectors pass through the shift: G u = (2n - beta) u for each
# non-constant Laplacian eigenpair (beta, u)
es = eig_symmetric(laplacian_pca(data).matrix)
gram = data.points @ data.points.T
residuals = verify_shift_relation(es, gram)
print(f"shift-relation residuals: max {residuals.max():.2e}")

# route A: smallest non-constant Laplacian eigenvectors
# route B: top Gram eigenvectors (classical PCA in dual form)
report = pca_equivalence_report(Dataset(points=raw.copy()), k=2)
print(f"principal angles between the two routes at k=2: "
      f"{np.array2string(report.principal_angles, precision=2)}")
print(f"max angle {report.max_angle:.2e} (claim: <= 1e-6), "
      f"eigengap at k {report.eigengap_at_k:.4f}, "
      f"degenerate={report.degenerate_spectrum}")

# the same comparison done by hand, on the eigensystem solved above
model = pca_topk(data, 2)
angles = subspace_principal_angles(es.eigenvectors[:, 1:3], model.components)
print(f"hand-rolled comparison agrees: max angle {angles.max():.2e}")

# a rank-1 dataset makes the spectrum degenerate at k=2: individual
# vectors are then arbitrary and only the subspace check is meaningful
base = np.linspace(-1, 1, 8)[:, None]
degenerate = pca_equivalence_report(Dataset(points=np.hstack([base, 2 * base])), k=2)
print(f"rank-1 data at k=2: degenerate_spectrum={degenerate.degenerate_spectrum}")
