import numpy as np
import pytest

import speclust.cluster
from generators import blobs
from oracles import scalar_kmeans
from speclust import Lcg64, adjusted_rand_index, cli, kmeans

MULT = 6364136223846793005
INC = 1442695040888963407
MASK = (1 << 64) - 1


def test_lcg_matches_documented_recurrence():
    state = 42
    gen = Lcg64(42)
    for _ in range(10):
        state = (MULT * state + INC) & MASK
        assert gen.next_u64() == state


def test_lcg_seed_zero_first_values():
    gen = Lcg64(0)
    assert gen.next_u64() == INC
    assert gen.next_u64() == (MULT * INC + INC) & MASK


def test_lcg_seed_wraps_to_64_bits():
    assert Lcg64(2**64 + 5).next_u64() == Lcg64(5).next_u64()


def test_lcg_float_range_and_value():
    gen = Lcg64(7)
    ref = Lcg64(7)
    for _ in range(1000):
        f = gen.next_float()
        assert 0.0 <= f < 1.0
        assert f == (ref.next_u64() >> 11) / float(1 << 53)


def test_kmeans_single_cluster_of_identical_points():
    rows = np.ones((6, 2)) * 3.0
    res = kmeans(rows, 1, seed=0)
    assert res.inertia == 0.0
    np.testing.assert_array_equal(res.labels, np.zeros(6, dtype=int))
    np.testing.assert_array_equal(res.centroids, [[3.0, 3.0]])


def test_kmeans_two_points_two_clusters():
    rows = np.array([[0.0, 0.0], [5.0, 0.0]])
    res = kmeans(rows, 2, seed=3)
    assert res.inertia == 0.0
    assert set(res.labels.tolist()) == {0, 1}
    assert sorted(res.centroids[:, 0].tolist()) == [0.0, 5.0]


def test_kmeans_well_separated_blobs_any_seed():
    rng = np.random.default_rng(40)
    pts, truth = blobs(rng, [(0.0, 0.0), (100.0, 0.0)], 15, 0.5)
    for seed in range(10):
        res = kmeans(pts, 2, seed=seed)
        assert adjusted_rand_index(res.labels, truth) == 1.0


def test_kmeans_inertia_trace_non_increasing():
    rng = np.random.default_rng(41)
    rows = rng.normal(size=(40, 3))
    res = kmeans(rows, 4, seed=9)
    trace = np.array(res.inertia_trace)
    assert len(trace) >= 1
    assert np.all(np.diff(trace) <= 1e-12)
    assert res.inertia == trace[-1]


def test_kmeans_bitwise_deterministic():
    rng = np.random.default_rng(42)
    rows = rng.normal(size=(30, 2))
    a = kmeans(rows, 3, seed=13)
    b = kmeans(rows, 3, seed=13)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)
    assert a.inertia == b.inertia
    assert a.inertia_trace == b.inertia_trace


def test_kmeans_labels_are_nearest_centroid():
    rng = np.random.default_rng(43)
    rows = rng.normal(size=(50, 2))
    res = kmeans(rows, 5, seed=1)
    diff = rows[:, None, :] - res.centroids[None, :, :]
    d2 = (diff**2).sum(axis=2)
    assert np.all(d2[np.arange(50), res.labels] <= d2.min(axis=1) + 1e-12)


def test_kmeans_centroids_are_cluster_means():
    rng = np.random.default_rng(44)
    rows = rng.normal(size=(50, 2))
    res = kmeans(rows, 4, seed=2)
    for c in range(4):
        member = rows[res.labels == c]
        assert member.shape[0] > 0
        np.testing.assert_allclose(res.centroids[c], member.mean(axis=0), atol=1e-12)


def test_kmeans_rejects_k_beyond_duplicate_budget():
    rows = np.zeros((5, 2))
    with pytest.raises(ValueError, match="too large"):
        kmeans(rows, 2, seed=0)


def test_kmeans_rejects_bad_k():
    rows = np.zeros((3, 2))
    with pytest.raises(ValueError):
        kmeans(rows, 0, seed=0)
    with pytest.raises(ValueError):
        kmeans(rows, 4, seed=0)


def test_ari_identical_labelings():
    labels = np.array([0, 0, 1, 1, 2])
    assert adjusted_rand_index(labels, labels) == 1.0


def test_ari_permuted_labelings():
    a = np.array([0, 0, 1, 1])
    b = np.array([1, 1, 0, 0])
    assert adjusted_rand_index(a, b) == 1.0


def test_ari_symmetry():
    rng = np.random.default_rng(45)
    a = rng.integers(0, 3, size=30)
    b = rng.integers(0, 3, size=30)
    assert adjusted_rand_index(a, b) == adjusted_rand_index(b, a)


def test_ari_independent_labelings_near_zero():
    a = np.zeros(8, dtype=int)
    b = np.arange(8)
    assert adjusted_rand_index(a, b) <= 0.0 + 1e-12


def test_ari_partial_agreement_bounded():
    a = np.array([0, 0, 0, 1, 1, 1])
    b = np.array([0, 0, 1, 1, 1, 1])
    v = adjusted_rand_index(a, b)
    assert 0.0 < v < 1.0


def test_ari_trivial_sizes():
    assert adjusted_rand_index(np.array([0]), np.array([0])) == 1.0
    assert adjusted_rand_index(np.array([], dtype=int), np.array([], dtype=int)) == 1.0


def test_write_labels_format(tmp_path):
    path = tmp_path / "labels.csv"
    labels = np.array([2, 0, 1])
    cli._write_rows(path, np.column_stack((np.arange(3), labels)), "%d", header="index,label")
    assert path.read_text() == "index,label\n0,2\n1,0\n2,1\n"


def _fan_oracle(rows, k, seed, restarts):
    best = None
    for r in range(restarts):
        run = scalar_kmeans(rows, k, seed + r)
        if best is None or run[2] < best[2]:
            best = run
    return best


def _assert_same_result(res, expected):
    labels, centroids, inertia, iterations, trace = expected
    assert res.labels.dtype == labels.dtype and res.labels.tobytes() == labels.tobytes()
    assert res.centroids.shape == centroids.shape
    assert res.centroids.tobytes() == centroids.tobytes()
    assert repr(res.inertia) == repr(inertia)
    assert res.iterations == iterations
    assert [repr(x) for x in res.inertia_trace] == [repr(x) for x in trace]


# 8 points whose k-means++ start at seed 55 (k = 3) empties a cluster in
# Lloyd's first update, so the repair gives it the farthest point
EMPTY_CLUSTER_ROWS = np.array([
    [3.9, 1.8], [1.0, 7.8], [7.9, 8.7], [3.2, 1.2], [6.1, 7.3], [2.2, 7.9], [2.8, 0.5], [2.7, 0.0],
])


@pytest.mark.parametrize("restarts", [1, 3, 10])
def test_kmeans_fan_matches_best_of_per_pick_runs(restarts):
    rng = np.random.default_rng(30)
    pts, _ = blobs(rng, [(0.0, 0.0, 0.0), (4.0, 0.0, 1.0), (0.0, 4.0, -1.0), (3.0, 3.0, 3.0)], 12, 1.0)
    cases = [
        (pts, 4, 7),
        (pts, 9, 0),
        (rng.normal(size=(40, 1)), 5, 3),
        (np.round(rng.normal(size=(30, 2)), 1), 6, 11),  # near-ties and duplicates
        (rng.normal(size=(25, 40)), 25, 2),  # k = n
        (EMPTY_CLUSTER_ROWS, 3, 55),
    ]
    for rows, k, seed in cases:
        _assert_same_result(kmeans(rows, k, seed, restarts=restarts), _fan_oracle(rows, k, seed, restarts))


def test_kmeans_fan_covers_an_empty_cluster_repair(monkeypatch):
    repaired = []
    original = speclust.cluster._repair_empty

    def spy(rows, centroids, labels, d2):
        out = original(rows, centroids, labels, d2)
        repaired.append(bool(np.any(np.bincount(labels, minlength=len(centroids)) == 0)))
        return out

    monkeypatch.setattr(speclust.cluster, "_repair_empty", spy)
    res = kmeans(EMPTY_CLUSTER_ROWS, 3, 55)
    assert any(repaired)
    _assert_same_result(res, scalar_kmeans(EMPTY_CLUSTER_ROWS, 3, 55))


@pytest.mark.parametrize("restarts", [1, 4])
def test_kmeans_fan_duplicate_fallback_raises_like_per_pick_runs(restarts):
    # 3 distinct points for k = 4: k-means++ runs out of mass and falls back
    # to the lowest unused index, a duplicate, whose empty cluster cannot be
    # repaired
    rows = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 1.0], [5.0, 5.0], [2.0, 0.0], [5.0, 5.0]])
    for seed in range(5):
        with pytest.raises(ValueError) as expected:
            _fan_oracle(rows, 4, seed, restarts)
        with pytest.raises(ValueError) as got:
            kmeans(rows, 4, seed, restarts=restarts)
        assert str(got.value) == str(expected.value)


def test_kmeans_fan_keeps_the_lower_seed_on_ties():
    # two pairs of twins: every seed reaches inertia 0, with the labels of
    # seed 5 or swapped ones, so the fan must return seed 5's own run
    rows = np.array([[0.0], [0.0], [10.0], [10.0]])
    runs = [kmeans(rows, 2, seed) for seed in range(5, 10)]
    assert {r.inertia for r in runs} == {0.0}
    assert runs[-1].labels.tobytes() != runs[0].labels.tobytes()
    fan = kmeans(rows, 2, 5, restarts=5)
    single = runs[0]
    assert fan.labels.tobytes() == single.labels.tobytes()
    assert fan.centroids.tobytes() == single.centroids.tobytes()


def test_kmeans_rejects_bad_restarts():
    with pytest.raises(ValueError, match="restarts"):
        kmeans(np.arange(4.0), 2, seed=0, restarts=0)
