import numpy as np
import pytest

from generators import connected_weights, multi_component_weights, random_weights
from oracles import bfs_components
from speclust import (
    ComponentLabeling,
    EigenSystem,
    Embedding,
    WeightedGraph,
    cli,
    covariance_objective,
    eig_symmetric,
    embed_classical,
    embed_nonconstant,
    embed_normalized,
    indicator_check,
    kmeans,
    laplacian_sym,
    laplacian_unnormalized,
    pairwise_dissimilarity,
    zero_eigenvalue_multiplicity,
)
from speclust.embedding import eigenvalue_scale


def _graph(w):
    w = np.asarray(w, dtype=float)
    return WeightedGraph(weights=w, degrees=w.sum(axis=1))


P3 = _graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
K3 = _graph(np.ones((3, 3)) - np.eye(3))


def test_nonconstant_path_graph_fiedler():
    es = eig_symmetric(laplacian_unnormalized(P3).matrix)
    emb = embed_nonconstant(es, 1)
    # Fiedler vector of the 0/1/3 system: (1,0,-1)/sqrt(2) up to sign
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(emb.coordinates[:, 0]), [r, 0.0, r], atol=1e-9)
    assert abs(emb.coordinates.sum()) <= 1e-8
    np.testing.assert_allclose(emb.source_eigenvalues, [1.0], atol=1e-12)


def test_nonconstant_full_dimension_spans_one_complement():
    rng = np.random.default_rng(23)
    w = connected_weights(rng, 6)
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    emb = embed_nonconstant(es, 5)
    ones = np.ones(6) / np.sqrt(6.0)
    # projector onto the columns plus the constant direction is the identity
    p = emb.coordinates @ emb.coordinates.T + np.outer(ones, ones)
    np.testing.assert_allclose(p, np.eye(6), atol=1e-9)


def test_nonconstant_triangle_column_sum():
    es = eig_symmetric(laplacian_unnormalized(K3).matrix)
    emb = embed_nonconstant(es, 1)
    assert abs(emb.coordinates.sum()) <= 1e-8
    assert abs(np.linalg.norm(emb.coordinates) - 1.0) <= 1e-12


def _mixed_k3_system(gap, angle):
    # K3's eigenvectors, with the Fiedler one rotated toward the constant one
    es = eig_symmetric(laplacian_unnormalized(K3).matrix)
    vec = es.eigenvectors.copy()
    c, s = np.cos(angle), np.sin(angle)
    vec[:, 1] = c * es.eigenvectors[:, 1] + s * es.eigenvectors[:, 0]
    return EigenSystem(np.array([0.0, gap, 3.0]), vec, 0.0)


def test_nonconstant_column_sum_bound_follows_the_gap():
    # the solver's tolerance, 1e-12 * ||L||_F, over the gap sets how far a
    # column may lean toward the constant vector: 1e-9 is too far at gap 3
    # and within tolerance at gap 1e-3
    with pytest.raises(ValueError, match="columns must sum to 0"):
        embed_nonconstant(_mixed_k3_system(3.0, 1e-9), 1)
    emb = embed_nonconstant(_mixed_k3_system(1e-3, 1e-9), 1)
    assert abs(emb.coordinates.sum()) > 1e-9


def test_nonconstant_rejects_disconnected():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    with pytest.raises(ValueError, match="not connected"):
        embed_nonconstant(es, 1)


def test_nonconstant_k_range():
    es = eig_symmetric(laplacian_unnormalized(P3).matrix)
    with pytest.raises(ValueError):
        embed_nonconstant(es, 3)  # max is n-1 = 2


def test_classical_first_column_constant():
    es = eig_symmetric(laplacian_unnormalized(K3).matrix)
    emb = embed_classical(es, 1)
    np.testing.assert_allclose(emb.coordinates[:, 0], 1.0 / np.sqrt(3.0), atol=1e-9)


def test_classical_shifted_equals_nonconstant():
    rng = np.random.default_rng(24)
    w = connected_weights(rng, 7)
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    classical = embed_classical(es, 4)
    nonconstant = embed_nonconstant(es, 3)
    np.testing.assert_array_equal(classical.coordinates[:, 1:], nonconstant.coordinates)


def test_classical_rows_identical_within_component():
    w, _ = multi_component_weights(np.random.default_rng(25), 9, 3)
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    emb = embed_classical(es, 3)
    labels, _ = bfs_components(w)
    for c in range(3):
        rows = emb.coordinates[labels == c]
        assert np.abs(rows - rows[0]).max() <= 1e-7


def test_normalized_unit_degree_scaled_equals_unscaled():
    g = _graph([[0.0, 1.0], [1.0, 0.0]])
    es = eig_symmetric(laplacian_sym(g).matrix)
    plain = embed_normalized(es, g.degrees, 1)
    scaled = embed_normalized(es, g.degrees, 1, scaled=True)
    np.testing.assert_array_equal(plain.coordinates, scaled.coordinates)
    assert plain.variant == "sym" and scaled.variant == "sym_scaled"


def test_normalized_two_vertex_closed_form():
    g = _graph([[0.0, 1.0], [1.0, 0.0]])
    es = eig_symmetric(laplacian_sym(g).matrix)
    emb = embed_normalized(es, g.degrees, 1)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(emb.coordinates[:, 0]), [r, r], atol=1e-12)


def test_normalized_scaled_rows_match_definition():
    rng = np.random.default_rng(26)
    w = connected_weights(rng, 6)
    g = _graph(w)
    es = eig_symmetric(laplacian_sym(g).matrix)
    scaled = embed_normalized(es, g.degrees, 3, scaled=True)
    manual = es.eigenvectors[:, 1:4] / np.sqrt(g.degrees)[:, None]
    np.testing.assert_array_equal(scaled.coordinates, manual)


def test_pairwise_identical_rows():
    y = np.ones((4, 2))
    np.testing.assert_array_equal(pairwise_dissimilarity(y), np.zeros((4, 4)))


def test_pairwise_one_dimensional():
    d = pairwise_dissimilarity(np.array([[0.0], [3.0]]))
    np.testing.assert_array_equal(d, [[0.0, 9.0], [9.0, 0.0]])


def test_pairwise_expansion_identity():
    rng = np.random.default_rng(27)
    y = rng.normal(size=(8, 3))
    d = pairwise_dissimilarity(y)
    norms = (y**2).sum(axis=1)
    expansion = norms[:, None] + norms[None, :] - 2.0 * y @ y.T
    assert np.abs(d - expansion).max() <= 1e-12
    assert np.array_equal(d, d.T)
    assert np.abs(np.diagonal(d)).max() == 0.0


def test_objective_degenerate_embedding():
    g = _graph(random_weights(np.random.default_rng(28), 5))
    lap = laplacian_unnormalized(g)
    rep = covariance_objective(np.ones((5, 2)), g, lap)
    assert rep.covariance == 0.0
    assert abs(rep.trace_term) <= 1e-12 and abs(rep.identity_gap) <= 1e-12


def test_objective_identity_random_trials():
    rng = np.random.default_rng(29)
    for _ in range(50):
        n = 6
        g = _graph(random_weights(rng, n))
        lap = laplacian_unnormalized(g)
        y = rng.normal(size=(n, int(rng.integers(1, 4))))
        rep = covariance_objective(y, g, lap)
        assert rep.identity_gap <= 1e-9 * max(abs(rep.covariance), 1.0)


def test_objective_trace_equals_eigenvalue_sum():
    rng = np.random.default_rng(30)
    w = connected_weights(rng, 7)
    g = _graph(w)
    lap = laplacian_unnormalized(g)
    es = eig_symmetric(lap.matrix)
    for k in (1, 2, 3):
        emb = embed_nonconstant(es, k)
        rep = covariance_objective(emb, g, lap)
        lam_sum = es.eigenvalues[1 : k + 1].sum()
        assert abs(rep.trace_term + lam_sum / g.n) <= 1e-9
        assert abs(rep.covariance - (-lam_sum / g.n + rep.constant_term)) <= 1e-9


def test_objective_sym_variant_identity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = connected_weights(rng, 6)
        g = _graph(w)
        lap = laplacian_sym(g)
        y = rng.normal(size=(6, 2))
        rep = covariance_objective(y, g, lap)
        assert rep.identity_gap <= 1e-9 * max(abs(rep.covariance), 1.0)


def test_objective_shape_mismatch():
    g = _graph(random_weights(np.random.default_rng(32), 5))
    with pytest.raises(ValueError, match="mismatch"):
        covariance_objective(np.ones((4, 2)), g, laplacian_unnormalized(g))


def test_objective_rejects_rw_variant():
    rng = np.random.default_rng(33)
    w = connected_weights(rng, 5)
    g = _graph(w)
    from speclust import laplacian_rw

    with pytest.raises(ValueError):
        covariance_objective(np.ones((5, 1)), g, laplacian_rw(g))


def test_indicator_check_two_disjoint_edges():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    emb = embed_classical(es, 2)
    labels, count = bfs_components(w)
    result = indicator_check(emb, ComponentLabeling(labels=labels, component_count=count))
    assert result.passed
    assert result.max_intra_spread <= 1e-7
    assert result.min_inter_gap >= 1e-6


def test_indicator_check_fails_on_connected_graph():
    # force a connected path graph through with a made-up 2-component labeling
    w = np.zeros((4, 4))
    for i in range(3):
        w[i, i + 1] = w[i + 1, i] = 1.0
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    emb = embed_classical(es, 2)
    fake = ComponentLabeling(labels=np.array([0, 0, 1, 1]), component_count=2)
    result = indicator_check(emb, fake)
    assert not result.passed
    assert result.max_intra_spread > 1e-7


def test_indicator_check_blocks_recovered_by_clustering():
    rng = np.random.default_rng(34)
    sizes = [2, 3, 4]
    w = np.zeros((9, 9))
    start = 0
    truth = np.zeros(9, dtype=int)
    for c, size in enumerate(sizes):
        idx = np.arange(start, start + size)
        if size > 1:
            w[np.ix_(idx, idx)] = connected_weights(rng, size)
        truth[idx] = c
        start += size
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    emb = embed_classical(es, 3)
    labels, count = bfs_components(w)
    assert indicator_check(emb, ComponentLabeling(labels=labels, component_count=count)).passed
    from speclust import adjusted_rand_index

    res = kmeans(emb.coordinates, 3, seed=0)
    assert adjusted_rand_index(res.labels, truth) == 1.0


def test_indicator_check_rejects_wrong_width():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    emb = embed_classical(es, 1)
    labels, count = bfs_components(w)
    with pytest.raises(ValueError, match="components"):
        indicator_check(emb, ComponentLabeling(labels=labels, component_count=count))


def test_rayleigh_ritz_optimality_small():
    rng = np.random.default_rng(35)
    w = connected_weights(rng, 8)
    lap = laplacian_unnormalized(_graph(w))
    es = eig_symmetric(lap.matrix)
    k = 2
    best = es.eigenvalues[1 : k + 1].sum()
    ones = np.ones((8, 1)) / np.sqrt(8.0)
    for _ in range(50):
        q = rng.normal(size=(8, k))
        q -= ones @ (ones.T @ q)
        q, _ = np.linalg.qr(q)
        assert np.trace(q.T @ lap.matrix @ q) >= best - 1e-9


def test_eigenvalue_scale():
    rng = np.random.default_rng(36)
    w = connected_weights(rng, 5)
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    emb = embed_nonconstant(es, 2)
    scaled = eigenvalue_scale(emb)
    manual = emb.coordinates / np.sqrt(emb.source_eigenvalues)[None, :]
    np.testing.assert_array_equal(scaled.coordinates, manual)


def test_eigenvalue_scale_rejects_zero_eigenvalue():
    emb = Embedding(
        coordinates=np.ones((3, 1)) / np.sqrt(3.0),
        variant="classical",
        source_eigenvalues=np.array([0.0]),
    )
    with pytest.raises(ValueError):
        eigenvalue_scale(emb)


def test_zero_multiplicity_matches_component_count_spot_check():
    rng = np.random.default_rng(37)
    for c in (2, 3, 4):
        w, _ = multi_component_weights(rng, 10, c)
        es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
        assert zero_eigenvalue_multiplicity(es.eigenvalues) == c


def test_write_embedding_roundtrips(tmp_path):
    rng = np.random.default_rng(38)
    w = connected_weights(rng, 5)
    es = eig_symmetric(laplacian_unnormalized(_graph(w)).matrix)
    emb = embed_nonconstant(es, 2)
    path = tmp_path / "emb.csv"
    cli._write_rows(path, emb.coordinates)
    back = np.array(
        [[float(x) for x in line.split(",")] for line in path.read_text().splitlines()]
    )
    np.testing.assert_array_equal(back, emb.coordinates)
