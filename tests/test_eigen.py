import numpy as np
import pytest

import speclust.eigen
from generators import connected_weights, multi_component_weights, random_symmetric
from oracles import column_signs, power_eigensystem, round_robin_rounds, scalar_jacobi_sweeps
from speclust import (
    ConvergenceError,
    WeightedGraph,
    eig_rw,
    eig_symmetric,
    laplacian_rw,
    laplacian_unnormalized,
)


def _graph(w):
    w = np.asarray(w, dtype=float)
    return WeightedGraph(weights=w, degrees=w.sum(axis=1))


def _complete_laplacian(n):
    w = np.ones((n, n)) - np.eye(n)
    return laplacian_unnormalized(_graph(w)).matrix


def test_identity_matrix():
    es = eig_symmetric(np.eye(4))
    np.testing.assert_array_equal(es.eigenvalues, np.ones(4))
    np.testing.assert_array_equal(es.eigenvectors, np.eye(4))


def test_two_by_two_closed_form():
    es = eig_symmetric(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    np.testing.assert_allclose(es.eigenvalues, [0.0, 2.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(es.eigenvectors), [[r, r], [r, r]], atol=1e-12)
    # sign rule: the largest-magnitude entry of each column is positive
    for t in range(2):
        lead = np.argmax(np.abs(es.eigenvectors[:, t]))
        assert es.eigenvectors[lead, t] > 0.0


def test_path_graph_spectrum():
    lap = laplacian_unnormalized(_graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]])).matrix
    es = eig_symmetric(lap)
    np.testing.assert_allclose(es.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_complete_graph_spectrum(n):
    es = eig_symmetric(_complete_laplacian(n))
    expected = np.concatenate([[0.0], np.full(n - 1, float(n))])
    np.testing.assert_allclose(es.eigenvalues, expected, atol=1e-10)
    lam, _ = power_eigensystem(_complete_laplacian(n))
    np.testing.assert_allclose(es.eigenvalues, lam, atol=1e-7)


def test_matches_power_iteration_oracle_on_random_matrices():
    rng = np.random.default_rng(16)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = random_symmetric(rng, n, scale=float(rng.uniform(0.5, 3.0)))
        es = eig_symmetric(a)
        lam, vec = power_eigensystem(a)
        np.testing.assert_allclose(es.eigenvalues, lam, atol=1e-7)
        # residual of the oracle's vectors under our eigenvalues ties the
        # two decompositions together without assuming simple spectra
        for t in range(n):
            assert np.linalg.norm(a @ vec[:, t] - lam[t] * vec[:, t]) <= 1e-6


def test_reconstruction_and_trace():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = random_symmetric(rng, n)
        es = eig_symmetric(a)
        rebuilt = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T
        fro = np.linalg.norm(a, "fro")
        assert np.linalg.norm(rebuilt - a, "fro") <= 1e-8 * max(fro, 1e-300)
        assert abs(np.trace(a) - es.eigenvalues.sum()) <= 1e-9 * max(abs(np.trace(a)), 1.0)


def test_orthonormal_columns():
    rng = np.random.default_rng(18)
    a = random_symmetric(rng, 8)
    es = eig_symmetric(a)
    gram = es.eigenvectors.T @ es.eigenvectors
    assert np.abs(gram - np.eye(8)).max() <= 1e-9


def test_residual_stored_and_bounded():
    rng = np.random.default_rng(19)
    a = random_symmetric(rng, 7)
    es = eig_symmetric(a)
    resid = a @ es.eigenvectors - es.eigenvectors * es.eigenvalues
    worst = np.sqrt((resid**2).sum(axis=0)).max()
    assert abs(worst - es.max_residual) <= 1e-15
    assert es.max_residual <= 1e-8 * max(np.abs(es.eigenvalues).max(), 1.0)


def test_zero_matrix():
    es = eig_symmetric(np.zeros((3, 3)))
    np.testing.assert_array_equal(es.eigenvalues, np.zeros(3))
    assert es.max_residual == 0.0


def test_sign_canonicalization_tie_breaks_by_lowest_index():
    es = eig_symmetric(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    # the lambda=2 column is (1,-1)/sqrt(2) up to sign; both entries tie in
    # magnitude, so the first one must be the positive one
    assert es.eigenvectors[0, 1] > 0.0 and es.eigenvectors[1, 1] < 0.0


def test_sign_rule_matches_column_loop():
    rng = np.random.default_rng(9)
    for n, k in ((1, 1), (3, 0), (5, 5), (12, 7), (40, 3)):
        for vectors in (rng.normal(size=(n, k)), np.round(rng.normal(size=(n, k)))):
            vectors[:, : k // 2] *= -0.0  # signed-zero columns
            got = speclust.eigen._canonicalize_signs(vectors)
            assert got.tobytes() == column_signs(vectors).tobytes()


def test_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="not symmetric"):
        eig_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_rejects_non_finite_input():
    with pytest.raises(ValueError):
        eig_symmetric(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_rejects_non_square_input():
    with pytest.raises(ValueError):
        eig_symmetric(np.zeros((2, 3)))


def test_deterministic_output():
    rng = np.random.default_rng(20)
    a = random_symmetric(rng, 9)
    first = eig_symmetric(a)
    second = eig_symmetric(a.copy())
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


def test_eig_rw_unit_degrees_matches_symmetric():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = _graph(w)
    lap = laplacian_rw(g)
    es_rw = eig_rw(lap, g.degrees)
    es_sym = eig_symmetric(lap.matrix)  # rw matrix is symmetric here
    np.testing.assert_allclose(es_rw.eigenvalues, es_sym.eigenvalues, atol=1e-12)
    np.testing.assert_allclose(es_rw.eigenvectors, es_sym.eigenvectors, atol=1e-12)


def test_eig_rw_constant_first_eigenvector():
    rng = np.random.default_rng(21)
    for _ in range(10):
        w = connected_weights(rng, 6)
        g = _graph(w)
        es = eig_rw(laplacian_rw(g), g.degrees)
        assert abs(es.eigenvalues[0]) <= 1e-9
        np.testing.assert_allclose(es.eigenvectors[:, 0], 1.0 / np.sqrt(6.0), atol=1e-8)


def test_eig_rw_residuals_direct():
    rng = np.random.default_rng(22)
    for _ in range(10):
        w = connected_weights(rng, 5)
        g = _graph(w)
        lap = laplacian_rw(g)
        es = eig_rw(lap, g.degrees)
        for t in range(5):
            u = es.eigenvectors[:, t]
            assert np.linalg.norm(lap.matrix @ u - es.eigenvalues[t] * u) <= 1e-8
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_eig_rw_rejects_wrong_variant():
    g = _graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="rw"):
        eig_rw(laplacian_unnormalized(g), g.degrees)


# a[0, 1] = 1 cannot move the 1e20 diagonal at working precision, so the
# tiny guard drops it; a[2, 3] keeps the off-norm above the threshold, so the
# sweep reaches that guard at all (pair (0, 1) comes in the last round)
_TINY_GUARD = np.array([
    [1e20, 1.0, 0.0, 0.0],
    [1.0, 1e20, 0.0, 0.0],
    [0.0, 0.0, 1.0, 1e10],
    [0.0, 0.0, 1e10, 1.0],
])


def _nearly_diagonal(rng, n):
    return np.diag(np.arange(1.0, n + 1.0)) + random_symmetric(rng, n, scale=1e-4)


def _kernel_corpus():
    rng = np.random.default_rng(23)
    corpus = [
        pytest.param(random_symmetric(rng, n, scale=float(rng.uniform(0.1, 10.0)))[None],
                     id=f"random-n{n}-{r}")
        for n in range(1, 13)
        for r in range(3)
    ]
    corpus += [pytest.param(np.zeros((1, n, n)), id=f"zero-n{n}") for n in (1, 2, 5)]
    corpus += [pytest.param(np.eye(n)[None], id=f"identity-n{n}") for n in (1, 2, 5)]
    # three components: the exact zeros between them take the apq == 0 skip
    weights, _ = multi_component_weights(rng, 10, 3)
    corpus.append(pytest.param(laplacian_unnormalized(_graph(weights)).matrix[None],
                               id="components-laplacian"))
    corpus.append(pytest.param(_TINY_GUARD[None], id="tiny-guard"))
    corpus.append(pytest.param(np.array([[[1.0, 0.5], [0.5, 2.0]]]), id="tau-positive"))
    corpus.append(pytest.param(np.array([[[2.0, 0.5], [0.5, 1.0]]]), id="tau-negative"))
    # stacks whose blocks stop after different sweep counts: an identity block
    # before the first sweep, a nearly diagonal one before the random ones
    for r in range(6):
        b, n = int(rng.integers(2, 6)), int(rng.integers(1, 9))
        stack = np.stack([random_symmetric(rng, n, scale=float(10.0 ** rng.uniform(-3, 3)))
                          for _ in range(b)])
        stack[0] = np.eye(n)
        stack[-1] = _nearly_diagonal(rng, n)
        corpus.append(pytest.param(stack, id=f"stack-b{b}-n{n}-{r}"))
    return corpus


@pytest.mark.parametrize("max_sweeps", [speclust.eigen.MAX_SWEEPS, 1, 0])
@pytest.mark.parametrize("stack", _kernel_corpus())
def test_kernel_matches_scalar_reference_bit_for_bit(stack, max_sweeps):
    n = stack.shape[1]
    a, ref_a = stack.copy(), stack.copy()
    v = np.broadcast_to(np.eye(n), stack.shape).copy()
    ref_v = v.copy()
    sweeps, off, threshold = speclust.eigen._jacobi_sweeps(
        a, v, max_sweeps, speclust.eigen.OFFDIAG_REL_TOL)
    ref_sweeps, ref_off, ref_threshold = scalar_jacobi_sweeps(
        ref_a, ref_v, max_sweeps, speclust.eigen.OFFDIAG_REL_TOL)
    assert a.tobytes() == ref_a.tobytes()  # signed zeros too
    assert v.tobytes() == ref_v.tobytes()
    assert type(sweeps) is int and sweeps == ref_sweeps
    assert off.tobytes() == ref_off.tobytes() and threshold.tobytes() == ref_threshold.tobytes()


@pytest.mark.parametrize("n", range(1, 10))
def test_round_robin_meets_every_pair_once_per_sweep(n):
    p, q = speclust.eigen._round_robin(n)
    rounds = round_robin_rounds(n)
    assert [list(zip(rp.tolist(), rq.tolist())) for rp, rq in zip(p, q)] == rounds
    pairs = [pair for pairs in rounds for pair in pairs]
    assert sorted(pairs) == [(i, j) for i in range(n) for j in range(i + 1, n)]
    for pairs in rounds:
        touched = [i for pair in pairs for i in pair]
        assert len(touched) == len(set(touched))


def test_tiny_guard_drops_the_pair_without_rotating():
    a = _TINY_GUARD[None].copy()
    v = np.eye(4)[None].copy()
    sweeps, off, threshold = speclust.eigen._jacobi_sweeps(a, v, 100, 1e-12)
    assert sweeps == 1 and off[0] <= threshold[0]
    assert a[0, 0, 1] == 0.0 and a[0, 1, 0] == 0.0
    # a (0, 1) rotation at tau = 0 would have mixed columns 0 and 1 at 45 degrees
    np.testing.assert_array_equal(v[0, :, :2], np.eye(4)[:, :2])


def _block_diagonal():
    """Blocks of size 1, 2, 5, 5 and 9 on interleaved, permuted indices."""
    rng = np.random.default_rng(25)
    labels = rng.permutation(np.repeat(np.arange(5), [1, 2, 5, 5, 9]))
    members = [np.flatnonzero(labels == k) for k in range(5)]
    mat = np.zeros((len(labels), len(labels)))
    for idx in members:
        # random normal entries are nonzero, so each block is connected
        mat[np.ix_(idx, idx)] = random_symmetric(rng, len(idx), scale=float(rng.uniform(0.5, 3.0)))
    # one size-5 block nearly diagonal: it stops sweeping before its stack mate
    mat[np.ix_(members[3], members[3])] = _nearly_diagonal(rng, 5)
    return mat, members


def test_block_split_finds_the_blocks_grouped_by_size():
    mat, members = _block_diagonal()
    groups = speclust.eigen._connected_blocks(mat)
    assert [g.shape for g in groups] == [(1, 1), (1, 2), (2, 5), (1, 9)]
    found = sorted(tuple(row) for g in groups for row in g.tolist())
    assert found == sorted(tuple(m.tolist()) for m in members)
    # blocks {0, 4, 7}, {1, 6}, {2, 5} and {3}, each linked by a chain that
    # skips over the others; a nonzero diagonal links nothing
    mat = np.diag(np.arange(1.0, 9.0))
    for i, j in ((7, 0), (0, 4), (6, 1), (2, 5)):
        mat[i, j] = mat[j, i] = -1.0
    groups = speclust.eigen._connected_blocks(mat)
    assert [g.tolist() for g in groups] == [[[3]], [[1, 6], [2, 5]], [[0, 4, 7]]]


def test_block_split_eigensystem():
    mat, members = _block_diagonal()
    es = eig_symmetric(mat)
    np.testing.assert_allclose(es.eigenvalues, np.linalg.eigvalsh(mat), rtol=0, atol=1e-12)
    # every eigenvector lives on one component
    owner = np.empty(len(mat), dtype=int)
    for k, idx in enumerate(members):
        owner[idx] = k
    support = [set(owner[np.flatnonzero(es.eigenvectors[:, t])]) for t in range(len(mat))]
    assert all(len(s) == 1 for s in support)
    # and its bits are those of the block solved alone
    for k, idx in enumerate(members):
        alone = eig_symmetric(mat[np.ix_(idx, idx)])
        cols = [t for t in range(len(mat)) if support[t] == {k}]
        assert es.eigenvalues[cols].tobytes() == alone.eigenvalues.tobytes()
        assert es.eigenvectors[np.ix_(idx, cols)].tobytes() == alone.eigenvectors.tobytes()


def test_block_bits_do_not_depend_on_the_rest_of_the_stack():
    mat, members = _block_diagonal()
    fives = np.stack([mat[np.ix_(idx, idx)] for idx in members if len(idx) == 5])
    a, v = fives.copy(), np.broadcast_to(np.eye(5), fives.shape).copy()
    speclust.eigen._jacobi_sweeps(a, v, 100, 1e-12)
    sweeps = [speclust.eigen._jacobi_sweeps(f[None].copy(), np.eye(5)[None].copy(), 100, 1e-12)[0]
              for f in fives]
    assert sweeps[0] != sweeps[1]
    for k in range(2):
        alone_a, alone_v = fives[k : k + 1].copy(), np.eye(5)[None].copy()
        speclust.eigen._jacobi_sweeps(alone_a, alone_v, 100, 1e-12)
        assert a[k].tobytes() == alone_a[0].tobytes() and v[k].tobytes() == alone_v[0].tobytes()


def test_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(speclust.eigen, "MAX_SWEEPS", 1)
    a = random_symmetric(np.random.default_rng(24), 6)
    with pytest.raises(ConvergenceError, match="after 1 sweeps"):
        eig_symmetric(a)
