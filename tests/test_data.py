import numpy as np
import pytest

from speclust import Dataset, center_columns, cli, load_csv, scale_global, standardize


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_plain(tmp_path):
    path = _write(tmp_path / "a.csv", "1,2\n3,4\n")
    d = load_csv(path)
    assert d.n == 2 and d.m == 2
    np.testing.assert_array_equal(d.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_header(tmp_path):
    path = _write(tmp_path / "a.csv", "a,b\n1,2\n3,4\n")
    d = load_csv(path, has_header=True)
    assert d.column_names == ("a", "b")
    np.testing.assert_array_equal(d.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_reports_bad_cell_position(tmp_path):
    path = _write(tmp_path / "a.csv", "1,x\n3,4\n")
    with pytest.raises(ValueError, match="row 1.*column 2"):
        load_csv(path)


def test_load_csv_rejects_ragged_rows(tmp_path):
    path = _write(tmp_path / "a.csv", "1,2\n3\n")
    with pytest.raises(ValueError, match="row 2"):
        load_csv(path)


def test_load_csv_rejects_single_row(tmp_path):
    path = _write(tmp_path / "a.csv", "1,2\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    path = _write(tmp_path / "a.csv", "1,nan\n3,4\n")
    with pytest.raises(ValueError):
        load_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_load_csv_reports_non_finite_cell_position(tmp_path, cell):
    path = _write(tmp_path / "a.csv", f"1,2\n3,{cell}\n")
    with pytest.raises(ValueError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: non-finite cell at row 2, column 2: {cell!r}"


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_csv(str(tmp_path / "absent.csv"))


def test_load_csv_custom_delimiter_and_scientific(tmp_path):
    path = _write(tmp_path / "a.csv", "1e3;2.5E-2\n-4;+5\n")
    d = load_csv(path, delimiter=";")
    np.testing.assert_array_equal(d.points, [[1000.0, 0.025], [-4.0, 5.0]])


def test_dataset_invariants():
    with pytest.raises(ValueError):
        Dataset(points=np.array([[1.0, 2.0]]), column_names=None)  # n < 2
    with pytest.raises(ValueError):
        Dataset(points=np.array([[np.inf], [1.0]]), column_names=None)
    with pytest.raises(ValueError):
        Dataset(points=np.array([[1.0], [2.0]]), column_names=("a", "b"))


def test_write_then_load_roundtrips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    points = rng.normal(size=(7, 3)) * 1e3
    # signed zero, the smallest subnormal and normal, the largest double
    points[:2] = [[-0.0, 5e-324, 1.7976931348623157e308], [2.2250738585072014e-308, 0.1, 1 / 3]]
    d = Dataset(points=points, column_names=("x", "y", "z"))
    path = tmp_path / "out.csv"
    cli._write_rows(path, d.points, header=",".join(d.column_names))
    back = load_csv(str(path), has_header=True)
    # 17 significant digits round-trip IEEE doubles bit-exactly
    np.testing.assert_array_equal(back.points, d.points)
    assert back.points.tobytes() == d.points.tobytes()
    assert back.column_names == d.column_names


def test_center_columns_example():
    d = Dataset(points=np.array([[1.0, 2.0], [3.0, 4.0]]), column_names=None)
    np.testing.assert_allclose(center_columns(d).points, [[-1.0, -1.0], [1.0, 1.0]], atol=1e-15)


def test_center_columns_constant_column():
    d = Dataset(points=np.array([[5.0], [5.0], [5.0]]), column_names=None)
    np.testing.assert_array_equal(center_columns(d).points, [[0.0], [0.0], [0.0]])


def test_center_columns_idempotent():
    rng = np.random.default_rng(1)
    d = Dataset(points=rng.normal(size=(6, 4)), column_names=None)
    once = center_columns(d)
    twice = center_columns(once)
    np.testing.assert_allclose(twice.points, once.points, atol=1e-12)
    assert np.abs(once.points.sum(axis=0)).max() <= 1e-12 * once.n * np.abs(once.points).max()


def test_scale_global_example():
    d = Dataset(points=np.array([[3.0, 4.0], [0.3, 0.4]]), column_names=None)
    out = scale_global(d, 1.0)
    np.testing.assert_allclose(out.points[0], [0.6, 0.8], atol=1e-15)


def test_scale_global_fixed_point():
    rng = np.random.default_rng(2)
    d = Dataset(points=rng.normal(size=(5, 2)), column_names=None)
    current = np.sqrt((d.points**2).sum(axis=1)).max()
    out = scale_global(d, current)
    np.testing.assert_allclose(out.points, d.points, rtol=1e-12)


def test_scale_global_rejects_all_zero():
    d = Dataset(points=np.zeros((3, 2)), column_names=None)
    with pytest.raises(ValueError):
        scale_global(d, 1.0)


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_scale_global_near_the_double_range(scale):
    # squaring these entries overflows or underflows; the scaled rows must not
    d = Dataset(points=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]) * scale)
    out = scale_global(d, 1.0)
    np.testing.assert_allclose(out.points, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_scale_global_preserves_directions_and_singular_ratios():
    rng = np.random.default_rng(3)
    d = Dataset(points=rng.normal(size=(6, 3)), column_names=None)
    out = scale_global(d, 2.5)
    for before, after in zip(d.points, out.points):
        cos = before @ after / (np.linalg.norm(before) * np.linalg.norm(after))
        assert cos > 1.0 - 1e-12
    s_before = np.linalg.svd(d.points, compute_uv=False)
    s_after = np.linalg.svd(out.points, compute_uv=False)
    np.testing.assert_allclose(s_after / s_after[0], s_before / s_before[0], atol=1e-12)


def test_standardize_bounds_dot_products():
    rng = np.random.default_rng(4)
    d = Dataset(points=rng.normal(size=(6, 3)) * 7.0, column_names=None)
    std = standardize(d)
    gram = std.points @ std.points.T
    assert np.abs(gram).max() <= 1.0 + 1e-12
    assert np.abs(std.points.mean(axis=0)).max() <= 1e-12
    norms = np.sqrt((std.points**2).sum(axis=1))
    assert abs(norms.max() - 1.0) <= 1e-12


def test_dataset_reports_non_finite_entry_one_based():
    # the same 1-based positions as load_csv's messages
    with pytest.raises(ValueError, match=r"^non-finite entry at row 2, column 3$"):
        Dataset(points=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, np.nan]]))
