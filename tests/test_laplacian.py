import numpy as np
import pytest

from generators import connected_weights, random_weights
from speclust import (
    Dataset,
    WeightedGraph,
    build_full_graph,
    center_columns,
    eig_symmetric,
    laplacian_pca,
    laplacian_rw,
    laplacian_sym,
    laplacian_unnormalized,
    scale_global,
    standardize,
    zero_eigenvalue_multiplicity,
)


def _graph(w):
    w = np.asarray(w, dtype=float)
    return WeightedGraph(weights=w, degrees=w.sum(axis=1))


def test_unnormalized_two_vertex():
    lap = laplacian_unnormalized(_graph([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(lap.matrix, [[1.0, -1.0], [-1.0, 1.0]])
    assert lap.variant == "unnormalized"


def test_unnormalized_two_vertex_spectrum():
    w = 1.7
    lap = laplacian_unnormalized(_graph([[0.0, w], [w, 0.0]]))
    es = eig_symmetric(lap.matrix)
    np.testing.assert_allclose(es.eigenvalues, [0.0, 2.0 * w], atol=1e-12)


def test_unnormalized_path_graph():
    lap = laplacian_unnormalized(_graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
    np.testing.assert_array_equal(lap.matrix, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])
    es = eig_symmetric(lap.matrix)
    np.testing.assert_allclose(es.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


def test_sym_unit_degrees():
    lap = laplacian_sym(_graph([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(lap.matrix, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_sym_complete_triangle():
    w = np.ones((3, 3)) - np.eye(3)
    lap = laplacian_sym(_graph(w))
    np.testing.assert_allclose(np.diagonal(lap.matrix), 1.0, atol=1e-15)
    off = lap.matrix[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, -0.5, atol=1e-15)


def test_sym_rejects_isolated_vertex():
    w = np.zeros((3, 3))
    w[0, 1] = w[1, 0] = 1.0
    with pytest.raises(ValueError, match="vertex 2"):
        laplacian_sym(_graph(w))
    with pytest.raises(ValueError, match="vertex 2"):
        laplacian_rw(_graph(w))


def test_rw_unit_degrees():
    lap = laplacian_rw(_graph([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(lap.matrix, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_rw_degree_normalization_cancels_weight():
    lap = laplacian_rw(_graph([[0.0, 2.0], [2.0, 0.0]]))
    np.testing.assert_allclose(lap.matrix, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_rw_rows_sum_to_zero():
    rng = np.random.default_rng(9)
    for _ in range(20):
        w = connected_weights(rng, int(rng.integers(2, 9)))
        lap = laplacian_rw(_graph(w))
        assert np.abs(lap.matrix.sum(axis=1)).max() <= 1e-10


def test_unnormalized_rows_sum_to_zero():
    rng = np.random.default_rng(10)
    for _ in range(20):
        w = random_weights(rng, int(rng.integers(2, 9)))
        lap = laplacian_unnormalized(_graph(w))
        assert np.abs(lap.matrix.sum(axis=1)).max() <= 1e-10


def test_pca_laplacian_hand_example():
    d = Dataset(points=np.array([[1.0], [-1.0]]), column_names=None)
    lap = laplacian_pca(d)
    np.testing.assert_allclose(lap.matrix, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
    assert lap.variant == "pca"


def test_pca_laplacian_matches_graph_route():
    rng = np.random.default_rng(11)
    for _ in range(10):
        d = standardize(Dataset(points=rng.normal(size=(8, 3)), column_names=None))
        direct = laplacian_pca(d)
        via_graph = laplacian_unnormalized(build_full_graph(d, kernel="shifted_dot"))
        assert np.abs(direct.matrix - via_graph.matrix).max() <= 1e-10


def test_pca_laplacian_annihilates_constant_vector():
    rng = np.random.default_rng(12)
    d = standardize(Dataset(points=rng.normal(size=(7, 2)), column_names=None))
    ones = np.ones(7)
    assert np.abs(laplacian_pca(d).matrix @ ones).max() <= 1e-9
    es = eig_symmetric(laplacian_pca(d).matrix)
    assert abs(es.eigenvalues[0]) <= 1e-9
    np.testing.assert_allclose(np.abs(es.eigenvectors[:, 0]), 1.0 / np.sqrt(7.0), atol=1e-9)


def test_pca_laplacian_rejects_uncentered():
    d = Dataset(points=np.array([[1.0], [2.0]]), column_names=None)
    with pytest.raises(ValueError, match="not centered"):
        laplacian_pca(d)


def test_pca_laplacian_rejects_large_dot_products():
    d = Dataset(points=np.array([[2.0], [-2.0]]), column_names=None)
    with pytest.raises(ValueError):
        laplacian_pca(d)


def test_laplacians_positive_semidefinite():
    rng = np.random.default_rng(13)
    for _ in range(10):
        w = connected_weights(rng, 7)
        g = _graph(w)
        for lap in (laplacian_unnormalized(g), laplacian_sym(g)):
            es = eig_symmetric(lap.matrix)
            assert es.eigenvalues[0] >= -1e-9 * max(es.eigenvalues[-1], 1.0)


def test_quadratic_form_matches_double_sum():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        w = random_weights(rng, n)
        g = _graph(w)
        lap = laplacian_unnormalized(g)
        y = rng.normal(size=n)
        quad = y @ lap.matrix @ y
        double = 0.5 * sum(
            w[i, j] * (y[i] - y[j]) ** 2 for i in range(n) for j in range(n)
        )
        assert abs(quad - double) <= 1e-9 * max(abs(double), 1.0)


def test_sym_and_rw_share_spectrum():
    rng = np.random.default_rng(15)
    for _ in range(10):
        w = connected_weights(rng, 6)
        g = _graph(w)
        es_sym = eig_symmetric(laplacian_sym(g).matrix)
        lap_rw = laplacian_rw(g)
        # rw is similar to sym via D^{1/2}, so the spectra coincide
        sym_back = lap_rw.matrix * np.sqrt(g.degrees)[:, None] / np.sqrt(g.degrees)[None, :]
        es_back = eig_symmetric((sym_back + sym_back.T) / 2.0)
        np.testing.assert_allclose(es_back.eigenvalues, es_sym.eigenvalues, atol=1e-9)


def test_zero_multiplicity_examples():
    assert zero_eigenvalue_multiplicity(np.array([0.0, 1.0, 3.0])) == 1
    assert zero_eigenvalue_multiplicity(np.zeros(4)) == 4


def test_zero_multiplicity_two_blocks():
    w = np.zeros((5, 5))
    w[np.ix_([0, 1], [0, 1])] = 1.0 - np.eye(2)
    w[np.ix_([2, 3, 4], [2, 3, 4])] = 1.0 - np.eye(3)
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    assert zero_eigenvalue_multiplicity(es.eigenvalues) == 2


def test_zero_multiplicity_rejects_unsorted():
    with pytest.raises(ValueError):
        zero_eigenvalue_multiplicity(np.array([1.0, 0.0]))


def test_zero_multiplicity_relative_tolerance():
    # same spectrum rescaled must keep its multiplicity
    base = np.array([0.0, 1e-12, 0.5, 2.0])
    assert zero_eigenvalue_multiplicity(base) == 2
    assert zero_eigenvalue_multiplicity(base * 1e6) == 2
