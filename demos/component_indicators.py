"""
Component indicators from the zero eigenspace
==============================================

On a disconnected graph the Laplacian has one zero eigenvalue per
connected component, and the first eigenvectors are constant on each
component.  So the embedding rows collapse to one distinct point per
component and k-means recovers the partition exactly, with no geometry
left to estimate.
"""

import numpy as np

from speclust import (
    Dataset,
    adjusted_rand_index,
    align_labels,
    build_epsilon_graph,
    connected_components,
    eig_symmetric,
    embed_classical,
    indicator_check,
    kmeans,
    laplacian_unnormalized,
    zero_eigenvalue_multiplicity,
)

rng = np.random.default_rng(21)
centers = [(0.0, 0.0), (5.0, 0.0), (2.5, 4.0)]
points = np.vstack([rng.normal(scale=0.2, size=(12, 2)) + c for c in centers])
truth = np.repeat([0, 1, 2], 12)

# a unit-weight graph connecting only pairs closer than eps: the three
# clouds are far apart, so the graph splits into three components
graph = build_epsilon_graph(Dataset(points=points), epsilon=1.5, kernel="unit")
components = connected_components(graph)
print(f"connected components of the graph: {components.component_count}")

es = eig_symmetric(laplacian_unnormalized(graph).matrix)
mult = zero_eigenvalue_multiplicity(es.eigenvalues)
print(f"zero eigenvalues in the Laplacian spectrum: {mult}")
assert mult == components.component_count

# the first 3 eigenvectors, taken together, are componentwise constant
embedding = embed_classical(es, mult)
check = indicator_check(embedding, components)
print(f"indicator structure: max spread within a component "
      f"{check.max_intra_spread:.2e}, min gap between components "
      f"{check.min_inter_gap:.3f}, passed={check.passed}")

result = kmeans(embedding.coordinates, mult, seed=0)
aligned = align_labels(result.labels, components.labels)
print(f"k-means inertia on indicator rows: {result.inertia:.3e} (identical "
      f"rows per component, so the optimum is zero)")
print(f"ARI vs ground truth: {adjusted_rand_index(aligned, truth):.3f}")
assert adjusted_rand_index(aligned, truth) == 1.0
