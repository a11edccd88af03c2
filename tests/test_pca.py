import numpy as np
import pytest

from generators import write_points_csv
from oracles import gram_topk

import speclust.pca
from speclust import (
    build_full_graph,
    center_columns,
    cli,
    eig_symmetric,
    laplacian_unnormalized,
    load_csv,
    pca_equivalence_report,
    pca_topk,
    standardize,
    subspace_principal_angles,
    verify_shift_relation,
)
from speclust.data import Dataset


def _dataset(points):
    return Dataset(points=np.asarray(points, dtype=float))


def test_topk_two_point_hand_example():
    d = _dataset([[1.0, 0.0], [-1.0, 0.0]])
    model = pca_topk(d, 1)
    np.testing.assert_allclose(model.eigenvalues, [2.0], atol=1e-12)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(model.components[:, 0]), [r, r], atol=1e-12)
    # the two loadings carry opposite signs
    assert model.components[0, 0] * model.components[1, 0] < 0.0


def test_topk_rank_one_second_eigenvalue_vanishes():
    base = np.array([[1.0], [2.0], [-3.0]])
    d = center_columns(_dataset(np.hstack([base, 2.0 * base])))
    model = pca_topk(d, 2)
    assert model.eigenvalues[1] <= 1e-9 * model.eigenvalues[0]


def test_topk_agrees_with_feature_space_eigenvectors():
    # dual formulation: eigenvectors of X X^T map to those of X^T X through X
    rng = np.random.default_rng(50)
    x = rng.normal(size=(8, 3))
    d = center_columns(_dataset(x))
    model = pca_topk(d, 3)
    feat_vals, feat_vecs = np.linalg.eigh(d.points.T @ d.points)
    order = np.argsort(feat_vals)[::-1]
    np.testing.assert_allclose(model.eigenvalues, feat_vals[order], atol=1e-8)
    mapped = d.points @ feat_vecs[:, order]
    mapped /= np.linalg.norm(mapped, axis=0)
    angles = subspace_principal_angles(model.components, mapped)
    assert angles.max() <= 1e-6


def _check_against_gram_oracle(x, k, rank=None):
    d = center_columns(_dataset(x))
    model = pca_topk(d, k)
    values, vectors = gram_topk(d.points, k)
    scale = max(float(values[0]), 1.0)
    np.testing.assert_allclose(model.eigenvalues, values, rtol=0.0, atol=1e-10 * scale)
    comp = model.components
    assert comp.shape == (d.n, k)
    assert np.abs(comp.T @ comp - np.eye(k)).max() <= 1e-13
    # past the rank the eigenvalues vanish and the directions are arbitrary,
    # so only the leading `rank` columns span a well-defined subspace
    r = k if rank is None else min(rank, k)
    proj = comp[:, :r] @ comp[:, :r].T - vectors[:, :r] @ vectors[:, :r].T
    assert np.abs(proj).max() <= 1e-9


@pytest.mark.parametrize(
    "n, m, k",
    [(12, 4, 2), (12, 4, 4), (9, 3, 3), (5, 8, 2), (5, 8, 4), (6, 6, 5), (2, 1, 1)],
    ids=["m<n", "k=m<n", "k=m=cap", "m>n", "k=n-1<m", "k=n-1=m-1", "n=2"],
)
def test_topk_matches_gram_oracle(n, m, k):
    rng = np.random.default_rng(1000 * n + 10 * m + k)
    # distinct column scales keep the top-k eigenvalues apart
    x = rng.normal(size=(n, m)) * np.linspace(3.0, 0.5, m)
    _check_against_gram_oracle(x, k)


@pytest.mark.parametrize("n, m, k", [(10, 4, 2), (10, 4, 4), (4, 6, 3)],
                         ids=["k=rank", "k>rank", "m>n,k>rank"])
def test_topk_rank_deficient_matches_gram_oracle(n, m, k):
    rng = np.random.default_rng(2000 + n + m + k)
    # rank 2 before centering, at most 2 after
    x = rng.normal(size=(n, 2)) @ rng.normal(size=(2, m))
    _check_against_gram_oracle(x, k, rank=2)


def test_topk_rejects_uncentered():
    with pytest.raises(ValueError, match="zero column means"):
        pca_topk(_dataset([[1.0], [2.0]]), 1)


def test_topk_rejects_bad_k():
    d = center_columns(_dataset([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        pca_topk(d, 0)
    with pytest.raises(ValueError):
        pca_topk(d, 3)  # cap is min(n-1, m) = 2


def test_model_invariants_enforced():
    rng = np.random.default_rng(51)
    d = center_columns(_dataset(rng.normal(size=(6, 4))))
    model = pca_topk(d, 3)
    assert np.all(np.diff(model.eigenvalues) <= 0.0)
    assert np.all(model.eigenvalues >= -1e-9 * max(model.eigenvalues[0], 1.0))
    gram = model.components.T @ model.components
    assert np.abs(gram - np.eye(3)).max() <= 1e-9
    with pytest.raises(ValueError):
        model.components[0, 0] = 99.0


def test_shift_relation_two_point_hand_example():
    d = standardize(_dataset([[1.0, 0.0], [-1.0, 0.0]]))
    lap = laplacian_unnormalized(build_full_graph(d, kernel="shifted_dot"))
    gram = d.points @ d.points.T
    residuals = verify_shift_relation(eig_symmetric(lap.matrix), gram)
    assert residuals.shape == (2,)
    # entry 0: the constant eigenvector is annihilated by the centered gram
    assert residuals[0] <= 1e-9
    assert residuals[1] <= 1e-9


def test_shift_relation_random():
    rng = np.random.default_rng(52)
    d = standardize(_dataset(rng.normal(size=(7, 2))))
    lap = laplacian_unnormalized(build_full_graph(d, kernel="shifted_dot"))
    gram = d.points @ d.points.T
    residuals = verify_shift_relation(eig_symmetric(lap.matrix), gram)
    n = 7
    assert residuals.max() <= 1e-7 * max(2.0 * n, 1.0)


def test_principal_angles_identical_bases():
    q = np.linalg.qr(np.random.default_rng(53).normal(size=(6, 2)))[0]
    # arccos near 1 resolves angles only down to sqrt(2*eps) ~ 2e-8
    assert subspace_principal_angles(q, q).max() <= 1e-7


def test_principal_angles_orthogonal_subspaces():
    a = np.eye(4)[:, :2]
    b = np.eye(4)[:, 2:]
    angles = subspace_principal_angles(a, b)
    np.testing.assert_allclose(angles, [np.pi / 2, np.pi / 2], atol=1e-12)


def test_principal_angles_invariant_to_basis_choice():
    rng = np.random.default_rng(54)
    q = np.linalg.qr(rng.normal(size=(7, 3)))[0]
    # same subspace under permutation, sign flips, and rotation
    rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    other = q[:, [2, 0, 1]] * np.array([-1.0, 1.0, -1.0])
    assert subspace_principal_angles(q, other).max() <= 1e-7
    assert subspace_principal_angles(q, q @ rot).max() <= 1e-7


def test_principal_angles_same_subspace_slightly_non_orthonormal():
    # a basis 1e-10 off orthonormal still spans the same subspace; without
    # re-orthonormalization the angle would read about sqrt(2e-10) ~ 1e-5
    rng = np.random.default_rng(60)
    q = np.linalg.qr(rng.normal(size=(8, 3)))[0]
    e = rng.normal(size=(3, 3))
    e = 1e-10 * (e + e.T) / np.abs(e + e.T).max()
    assert subspace_principal_angles(q, q @ (np.eye(3) + e)).max() <= 1e-7


def test_principal_angles_reject_non_orthonormal():
    a = np.ones((4, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        subspace_principal_angles(a, a)


def test_equivalence_random_all_k():
    rng = np.random.default_rng(55)
    d = _dataset(rng.normal(size=(9, 4)))
    for k in range(1, 5):
        report = pca_equivalence_report(d, k)
        assert report.max_angle <= 1e-6
        assert report.shift_residuals.max() <= 1e-7 * 18.0
        assert not report.degenerate_spectrum


def test_equivalence_report_solves_twice(monkeypatch):
    # one n x n solve for the PCA Laplacian, reused by the shift relation,
    # and one m x m solve for the scatter matrix X^T X
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return eig_symmetric(a)

    monkeypatch.setattr(speclust.pca, "eig_symmetric", counting)
    rng = np.random.default_rng(54)
    report = pca_equivalence_report(_dataset(rng.normal(size=(7, 3))), 2)
    assert calls == [(7, 7), (3, 3)]
    assert report.max_angle <= 1e-6


def test_equivalence_square_corners_repeated_eigenvalue():
    # four unit corners: the top two gram eigenvalues tie, so k=1 is ambiguous
    # but the k=2 subspace is still unique
    pts = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
    at_two = pca_equivalence_report(_dataset(pts), 2)
    assert at_two.max_angle <= 1e-6
    assert not at_two.degenerate_spectrum
    at_one = pca_equivalence_report(_dataset(pts), 1)
    assert at_one.degenerate_spectrum
    assert at_one.eigengap_at_k <= 1e-6 * max(8.0, 1.0)


def test_equivalence_rank_one_flags_degenerate():
    base = np.array([[1.0], [0.5], [-1.5]])
    report = pca_equivalence_report(_dataset(np.hstack([base, -base])), 2)
    assert report.degenerate_spectrum


def test_equivalence_top_dimension_gap():
    rng = np.random.default_rng(56)
    d = _dataset(rng.normal(size=(5, 4)))
    report = pca_equivalence_report(d, 4)  # k = n-1
    assert report.eigengap_at_k > 0.0
    assert report.max_angle <= 1e-6


def test_equivalence_report_fields_consistent():
    rng = np.random.default_rng(57)
    report = pca_equivalence_report(_dataset(rng.normal(size=(6, 3))), 2)
    assert report.k == 2
    assert report.principal_angles.shape == (2,)
    assert report.max_angle == report.principal_angles.max()
    assert np.all(np.diff(report.principal_angles) >= 0.0)
    assert report.shift_residuals.shape == (6,)


def test_equivalence_report_written_form(tmp_path):
    rng = np.random.default_rng(58)
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, rng.normal(size=(6, 3)))
    report = pca_equivalence_report(load_csv(csv), 2)
    out = tmp_path / "out"
    assert cli.main(["pca-equiv", "--input", str(csv), "--k", "2", "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    assert "k: 2" in text
    assert "max_angle:" in text
    assert "degenerate_spectrum: false" in text
    # angles round-trip at full precision
    line = next(l for l in text.splitlines() if l.startswith("principal_angles:"))
    values = [float(v) for v in line.split(":", 1)[1].split(",")]
    np.testing.assert_array_equal(values, report.principal_angles)


def test_equivalence_from_csv_input(tmp_path):
    rng = np.random.default_rng(59)
    pts = rng.normal(size=(8, 2))
    path = tmp_path / "data.csv"
    path.write_text("\n".join(",".join("%.17g" % v for v in row) for row in pts) + "\n")
    report = pca_equivalence_report(load_csv(path), 2)
    assert report.max_angle <= 1e-6


@pytest.mark.parametrize("rotate", [False, True])
def test_principal_angles_resolve_constructed_angles(rotate):
    # arccos alone reads rounding as angles up to ~2e-8; the sine route
    # resolves small angles, the cosine route angles near pi/2
    theta = np.array([0.0, 1e-10, 1e-6, np.pi / 4, np.pi / 2 - 1e-9])
    k, n = len(theta), 12
    a = np.eye(n)[:, :k]
    b = np.cos(theta) * np.eye(n)[:, :k] + np.sin(theta) * np.eye(n)[:, k : 2 * k]
    if rotate:
        q = np.linalg.qr(np.random.default_rng(55).normal(size=(n, n)))[0]
        a, b = q @ a, q @ b
    for x, y in ((a, b), (b, a)):
        angles = subspace_principal_angles(x, y)
        assert np.abs(angles - theta).max() <= 1e-12, angles
