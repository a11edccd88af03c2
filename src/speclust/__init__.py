"""Spectral clustering and spectral embedding toolkit.

Pipeline: load points -> similarity graph -> Laplacian -> eigensystem ->
embedding -> k-means.  On a disconnected graph the leading eigenvectors are
component indicators and clustering them recovers the components exactly;
on standardized data the shifted-dot-product graph makes the pipeline
coincide with PCA, and `pca_equivalence_report` checks that numerically.
"""

from .cluster import ClusterResult, Lcg64, adjusted_rand_index, align_labels, kmeans, write_labels
from .data import Dataset, center_columns, load_csv, scale_global, standardize, write_csv
from .eigen import ConvergenceError, EigenSystem, eig_rw, eig_symmetric
from .embedding import (
    Embedding,
    IndicatorCheckResult,
    ObjectiveReport,
    covariance_objective,
    eigenvalue_scale,
    embed_classical,
    embed_nonconstant,
    embed_normalized,
    indicator_check,
    pairwise_dissimilarity,
    write_embedding,
)
from .graph import (
    ComponentLabeling,
    WeightedGraph,
    build_epsilon_graph,
    build_full_graph,
    build_knn_graph,
    connected_components,
)
from .laplacian import (
    LaplacianMatrix,
    laplacian_pca,
    laplacian_rw,
    laplacian_sym,
    laplacian_unnormalized,
    zero_eigenvalue_multiplicity,
)
from .pca import (
    EquivalenceReport,
    PcaModel,
    pca_equivalence_report,
    pca_topk,
    subspace_principal_angles,
    verify_shift_relation,
    write_equivalence_report,
)
from .cli import PipelineConfig, run_cluster, run_eigen_report, run_pca_equiv

__all__ = [
    "ClusterResult",
    "ComponentLabeling",
    "ConvergenceError",
    "Dataset",
    "EigenSystem",
    "Embedding",
    "EquivalenceReport",
    "IndicatorCheckResult",
    "LaplacianMatrix",
    "Lcg64",
    "ObjectiveReport",
    "PcaModel",
    "PipelineConfig",
    "WeightedGraph",
    "adjusted_rand_index",
    "align_labels",
    "build_epsilon_graph",
    "build_full_graph",
    "build_knn_graph",
    "center_columns",
    "connected_components",
    "covariance_objective",
    "eig_rw",
    "eig_symmetric",
    "eigenvalue_scale",
    "embed_classical",
    "embed_nonconstant",
    "embed_normalized",
    "indicator_check",
    "kmeans",
    "laplacian_pca",
    "laplacian_rw",
    "laplacian_sym",
    "laplacian_unnormalized",
    "load_csv",
    "pairwise_dissimilarity",
    "pca_equivalence_report",
    "pca_topk",
    "run_cluster",
    "run_eigen_report",
    "run_pca_equiv",
    "scale_global",
    "standardize",
    "subspace_principal_angles",
    "verify_shift_relation",
    "write_csv",
    "write_embedding",
    "write_equivalence_report",
    "write_labels",
    "zero_eigenvalue_multiplicity",
]
