import math
import tracemalloc

import numpy as np
import pytest

import speclust.graph
from generators import multi_component_weights, random_weights
from oracles import bfs_components, knn_adjacency
from speclust import (
    Dataset,
    WeightedGraph,
    build_epsilon_graph,
    build_full_graph,
    build_knn_graph,
    center_columns,
    connected_components,
    pairwise_dissimilarity,
    scale_global,
)
from speclust.graph import _rbf_weights, _squared_distances


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


def _pinned_exp(x):
    # with delta = 0.5 the weight is exp(-2 sq), and x = -2 (-x / 2) exactly
    return _rbf_weights(-np.asarray(x, dtype=float) / 2.0, 0.5)


def test_rbf_exp_within_one_ulp_of_math_exp():
    x = np.linspace(-745.0, 0.0, 100_001)
    want = np.array([math.exp(v) for v in x])
    got = _pinned_exp(x)
    # nonnegative doubles order like their bit patterns, so this counts ulps
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 1
    assert _pinned_exp([0.0])[0] == 1.0


def test_rbf_exp_underflows_to_zero_and_keeps_nan():
    got = _pinned_exp([-745.2, -1e4, -np.inf, np.nan])
    assert np.array_equal(got[:3], [0.0, 0.0, 0.0])
    assert np.isnan(got[3])


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


@pytest.mark.parametrize("m", [1, 3, 50])
def test_squared_distances_blocks_match_one_pass(m, monkeypatch):
    # blocks of 16 rows: n spans several and ends in a partial one
    pts = np.random.default_rng(26).normal(size=(37, m))
    monkeypatch.setattr(speclust.graph, "_DISTANCE_ENTRIES", 16 * pts.size)
    diff = pts[:, None, :] - pts[None, :, :]
    assert np.array_equal(_squared_distances(pts), np.einsum("ijk,ijk->ij", diff, diff))


@pytest.mark.parametrize("k", [1, 3, 40])
def test_squared_distances_match_the_broadcast_expressions(k):
    # the helper replaced these one-pass expressions in embedding and cluster
    rng = np.random.default_rng(27)
    for n in (1, 2, 17, 300):
        rows = rng.normal(size=(n, k))
        diff = rows[:, None, :] - rows[None, :, :]
        assert np.array_equal(pairwise_dissimilarity(rows), np.einsum("ijk,ijk->ij", diff, diff))
        for c in (1, 3, 40):
            centroids = rng.normal(size=(c, k))
            diff = rows[:, None, :] - centroids[None, :, :]
            expected = np.einsum("ikj,ikj->ik", diff, diff)
            assert np.array_equal(_squared_distances(rows, centroids), expected)


def test_knn_graph_memory_stays_below_the_pair_tensor():
    n, m = 400, 256
    d = _dataset(np.random.default_rng(25).normal(size=(n, m)))
    tracemalloc.start()
    try:
        build_knn_graph(d, 5, delta=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n x m difference tensor would be 328 MB on its own
    assert peak < n * n * m * 8 / 8


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
    cases = [random_weights(rng, int(rng.integers(2, 13)), zero_fraction=float(rng.uniform(0.2, 0.9)))
             for _ in range(1000)]
    # inputs those small random graphs never reach
    path = np.zeros((60, 60))
    order = rng.permutation(60)
    path[order[:-1], order[1:]] = path[order[1:], order[:-1]] = 1.0  # diameter 59
    lone = random_weights(rng, 15, zero_fraction=0.5)
    lone[[2, 7, 11]] = 0.0
    lone[:, [2, 7, 11]] = 0.0
    tiny = np.zeros((4, 4))
    tiny[0, 3] = tiny[3, 0] = 5e-324  # the smallest subnormal is still an edge
    cases += [path, lone, tiny, np.zeros((2, 2)), np.ones((2, 2)), np.diag([0.0, 3.0])]
    for c in (1, 2, 5, 9):
        w, _ = multi_component_weights(rng, 40, c)
        perm = rng.permutation(40)
        cases.append(w[np.ix_(perm, perm)])
    # shifted-dot graphs carry positive self-loops on the diagonal
    loops = random_weights(rng, 12, zero_fraction=0.7)
    np.fill_diagonal(loops, rng.uniform(0.5, 2.0, size=12))
    cases.append(loops)
    for w in cases:
        ours = connected_components(WeightedGraph(weights=w, degrees=w.sum(axis=1)))
        labels, count = bfs_components(w)
        assert ours.component_count == count
        np.testing.assert_array_equal(ours.labels, labels)


def test_weights_exactly_symmetric_for_every_builder():
    # the distance kernel mirrors its upper block triangle, while the Gram
    # matrix of shifted_dot and every kernel weight come from pair terms, so
    # each builder must keep them exactly symmetric; n = 37 spans several
    # distance blocks
    rng = np.random.default_rng(8)
    graphs = []
    for n, m, delta, eps in ((10, 3, 0.9, 1.2), (37, 50, 4.0, 10.0)):
        d = _dataset(rng.normal(size=(n, m)))
        graphs += [
            build_full_graph(d, kernel="rbf", delta=delta),
            build_knn_graph(d, 3, delta=delta),
            build_epsilon_graph(d, eps, kernel="rbf", delta=delta),
            build_epsilon_graph(d, eps, kernel="unit"),
            build_full_graph(scale_global(center_columns(d), 1.0), kernel="shifted_dot"),
        ]
    for g in graphs:
        assert np.count_nonzero(g.weights) > 0
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


@pytest.mark.parametrize("m", [1, 7, 64])
def test_mirrored_squared_distances_match_one_pass(m, monkeypatch):
    # n = 53 is no multiple of any block height the triangle uses, and the
    # rows repeat, so exact zeros and ties sit off the diagonal too
    rng = np.random.default_rng(28)
    pts = rng.normal(size=(53, m)) * 10.0 ** rng.integers(-3, 4, size=(53, 1))
    pts[40:] = pts[:13]
    diff = pts[:, None, :] - pts[None, :, :]
    expected = np.einsum("ijk,ijk->ij", diff, diff)
    for entries in (5 * m, 16 * 53 * m + m, 1 << 18):
        monkeypatch.setattr(speclust.graph, "_DISTANCE_ENTRIES", entries)
        assert np.array_equal(_squared_distances(pts), expected), entries


def test_knn_ties_go_to_the_lower_vertex_index():
    # exact duplicates (0, 1, 5) and points equidistant from them: in row 1
    # the stable order puts twin 0 ahead of vertex 1 itself
    pts = np.array([
        [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0],
        [0.0, 0.0], [0.0, -1.0], [2.0, 0.0], [1.0, 0.0], [-2.0, 0.0],
    ])
    diff = pts[:, None, :] - pts[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    first = np.argsort(sq, axis=1, kind="stable")[:, 0]
    assert np.any(first != np.arange(len(pts)))
    for k in range(1, len(pts)):
        g = build_knn_graph(_dataset(pts), k, delta=10.0)
        assert np.array_equal(g.weights > 0.0, knn_adjacency(sq, k)), k
