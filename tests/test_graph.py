import numpy as np
import pytest

from generators import random_weights
from oracles import bfs_components
from speclust import (
    Dataset,
    WeightedGraph,
    build_epsilon_graph,
    build_full_graph,
    build_knn_graph,
    center_columns,
    connected_components,
    scale_global,
)


def _dataset(points):
    return Dataset(points=np.asarray(points, dtype=float), column_names=None)


def _rbf_weight(x_i, x_j, delta):
    # the RBF weight of one pair, as the full graph computes it
    g = build_full_graph(_dataset([x_i, x_j]), kernel="rbf", delta=delta)
    return g.weights[0, 1]


def test_rbf_weight_zero_distance():
    x = [1.0, 2.0]
    assert _rbf_weight(x, x, 0.7) == 1.0


def test_rbf_weight_at_2delta_squared():
    y = [np.sqrt(2.0) * 0.9]  # distance^2 = 2 * delta^2 with delta 0.9
    assert abs(_rbf_weight([0.0], y, 0.9) - np.exp(-1.0)) < 1e-12


def test_rbf_weight_hand_value():
    w = _rbf_weight([0.0, 0.0], [3.0, 4.0], 5.0)
    assert abs(w - np.exp(-0.5)) < 1e-12
    assert abs(w - 0.606531) < 1e-6


def test_rbf_weight_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        _rbf_weight([0.0], [1.0], 0.0)


def test_rbf_monotone_in_distance():
    assert _rbf_weight([0.0], [1.0], 2.0) > _rbf_weight([0.0], [1.5], 2.0)


def test_full_graph_identical_points():
    g = build_full_graph(_dataset([[2.0, 2.0], [2.0, 2.0]]), kernel="rbf", delta=1.0)
    np.testing.assert_array_equal(g.weights, [[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(g.degrees, [1.0, 1.0])


def test_full_graph_equilateral_rbf():
    delta = 0.8
    side = np.sqrt(2.0) * delta  # squared distance 2 delta^2 everywhere
    pts = [[0.0, 0.0], [side, 0.0], [side / 2.0, side * np.sqrt(3.0) / 2.0]]
    g = build_full_graph(_dataset(pts), kernel="rbf", delta=delta)
    off = g.weights[~np.eye(3, dtype=bool)]
    np.testing.assert_allclose(off, np.exp(-1.0), atol=1e-12)


def test_full_graph_shifted_dot_degrees_are_2n():
    rng = np.random.default_rng(5)
    d = scale_global(center_columns(_dataset(rng.normal(size=(9, 4)))), 1.0)
    g = build_full_graph(d, kernel="shifted_dot")
    n = d.n
    for i in range(n):
        assert abs(g.degrees[i] - 2 * n) <= 1e-9 * 2 * n, f"degree {i} off"
    assert g.weights.min() >= 1.0 - 1e-12
    for i in range(n):
        assert abs(g.weights[i, i] - (2.0 + d.points[i] @ d.points[i])) < 1e-12


def test_full_graph_shifted_dot_rejects_unstandardized():
    # opposite rows with norm 2 give 2 + x_i . x_j = -2 <= 0
    d = _dataset([[2.0, 0.0], [-2.0, 0.0]])
    with pytest.raises(ValueError):
        build_full_graph(d, kernel="shifted_dot")


def test_knn_three_collinear_points():
    g = build_knn_graph(_dataset([[0.0], [1.0], [2.0]]), 1, delta=1.0)
    adj = g.weights > 0
    # middle vertex keeps both edges through union symmetrization
    assert adj[1, 0] and adj[1, 2]
    assert not adj[0, 2]


def test_knn_saturation_equals_full():
    rng = np.random.default_rng(6)
    d = _dataset(rng.normal(size=(7, 2)))
    g_knn = build_knn_graph(d, 6, delta=1.3)
    g_full = build_full_graph(d, kernel="rbf", delta=1.3)
    np.testing.assert_array_equal(g_knn.weights, g_full.weights)


def test_knn_two_separated_triples():
    pts = [[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [50.0, 50.0], [50.1, 50.0], [50.0, 50.1]]
    g = build_knn_graph(_dataset(pts), 2, delta=1.0)
    assert connected_components(g).component_count == 2


def test_knn_rejects_bad_neighbor_count():
    d = _dataset([[0.0], [1.0]])
    with pytest.raises(ValueError):
        build_knn_graph(d, 2, delta=1.0)  # k_neighbors must stay below n


def test_epsilon_below_min_distance_gives_empty_graph():
    g = build_epsilon_graph(_dataset([[0.0], [1.0], [3.0]]), 0.5)
    assert g.weights.max() == 0.0
    assert connected_components(g).component_count == 3


def test_epsilon_above_max_distance_gives_complete_unit_graph():
    g = build_epsilon_graph(_dataset([[0.0], [1.0], [3.0]]), 10.0)
    expected = np.ones((3, 3)) - np.eye(3)
    np.testing.assert_array_equal(g.weights, expected)


def test_epsilon_line_example():
    g = build_epsilon_graph(_dataset([[0.0], [1.0], [3.0]]), 1.5)
    assert g.weights[0, 1] == 1.0
    assert g.weights[1, 2] == 0.0 and g.weights[0, 2] == 0.0
    assert connected_components(g).component_count == 2


def test_epsilon_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_epsilon_graph(_dataset([[0.0], [1.0]]), 0.0)


def test_components_complete_graph():
    g = build_epsilon_graph(_dataset([[0.0], [1.0], [2.0]]), 10.0)
    assert connected_components(g).component_count == 1


def test_components_block_structure():
    w = np.zeros((5, 5))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    w[3, 4] = w[4, 3] = 1.0
    g = WeightedGraph(weights=w, degrees=w.sum(axis=1))
    lab = connected_components(g)
    np.testing.assert_array_equal(lab.labels, [0, 0, 1, 1, 1])
    assert lab.component_count == 2


def test_components_agree_with_bfs_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        w = random_weights(rng, n, zero_fraction=float(rng.uniform(0.2, 0.9)))
        g = WeightedGraph(weights=w, degrees=w.sum(axis=1))
        ours = connected_components(g)
        labels, count = bfs_components(w)
        assert ours.component_count == count
        np.testing.assert_array_equal(ours.labels, labels)


def test_weights_exactly_symmetric_for_every_builder():
    rng = np.random.default_rng(8)
    d = _dataset(rng.normal(size=(10, 3)))
    graphs = [
        build_full_graph(d, kernel="rbf", delta=0.9),
        build_knn_graph(d, 3, delta=0.9),
        build_epsilon_graph(d, 1.2, kernel="rbf", delta=0.9),
        build_full_graph(scale_global(center_columns(d), 1.0), kernel="shifted_dot"),
    ]
    for g in graphs:
        assert np.array_equal(g.weights, g.weights.T)
        assert g.weights.min() >= 0.0
        assert np.all(np.isfinite(g.weights))
        np.testing.assert_allclose(g.degrees, g.weights.sum(axis=1), rtol=1e-12)


def test_graph_type_rejects_asymmetric_and_negative():
    w = np.array([[0.0, 1.0], [1.0000001, 0.0]])
    with pytest.raises(ValueError):
        WeightedGraph(weights=w, degrees=w.sum(axis=1))
    w2 = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        WeightedGraph(weights=w2, degrees=w2.sum(axis=1))
