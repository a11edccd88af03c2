import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import speclust.eigen
from generators import blobs, write_points_csv
from speclust import EquivalenceReport, adjusted_rand_index, cli


def _two_blob_csv(tmp_path, sep=2.0):
    rng = np.random.default_rng(11)
    pts, truth = blobs(rng, [(0.0, 0.0), (sep, 0.0)], 20, 0.1)
    path = tmp_path / "two.csv"
    write_points_csv(path, pts)
    return path, truth


def _read_labels(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "index,label"
    return np.array([int(line.split(",")[1]) for line in lines[1:]])


def test_cluster_validation_failure_writes_nothing(tmp_path):
    csv, _ = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["cluster", "--input", str(csv), "--k", "2", "--delta", "-1", "--out", str(out)]
    )
    assert rc == 1
    assert not out.exists()


def test_cluster_missing_input_file(tmp_path):
    rc = cli.main(
        ["cluster", "--input", str(tmp_path / "absent.csv"), "--k", "2", "--delta", "1.0"]
    )
    assert rc == 1


def test_cluster_k_too_large_for_nonconstant(tmp_path):
    csv, _ = _two_blob_csv(tmp_path)
    rc = cli.main(
        ["cluster", "--input", str(csv), "--k", "40", "--delta", "0.5",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1


def test_cluster_indicator_path_on_knn_graph(tmp_path):
    csv, truth = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["cluster", "--input", str(csv), "--graph", "knn", "--knn", "5",
         "--delta", "1.0", "--embedding", "classical", "--k", "2", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["branch"] == "indicator"
    assert report["component_count"] == 2
    assert report["zero_multiplicity"] == 2
    labels = _read_labels(out / "labels.csv")
    assert adjusted_rand_index(labels, truth) == 1.0
    assert (out / "embedding.csv").exists()
    assert (out / "eigenvalues.txt").exists()
    assert (out / "report.txt").exists()


def test_cluster_connected_path_on_full_graph(tmp_path):
    csv, truth = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(
        ["cluster", "--input", str(csv), "--graph", "full", "--delta", "0.5",
         "--k", "2", "--out", str(out)]
    )
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["branch"] == "connected"
    assert report["component_count"] == 1
    assert report["embedding_variant"] == "nonconstant"
    labels = _read_labels(out / "labels.csv")
    assert adjusted_rand_index(labels, truth) == 1.0
    gap = report["objective"]["identity_gap"]
    assert gap <= 1e-8 * max(abs(report["objective"]["covariance"]), 1.0)


def test_cluster_artifacts_byte_identical(tmp_path):
    csv, _ = _two_blob_csv(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    argv = ["cluster", "--input", str(csv), "--graph", "full", "--delta", "0.5",
            "--k", "2", "--seed", "7"]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    for name in ("labels.csv", "embedding.csv", "eigenvalues.txt", "report.json", "report.txt"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def _artifacts(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_artifacts_independent_of_blas_threads(tmp_path):
    # the README promises the same bytes at any thread count; each run is a
    # fresh interpreter because OpenBLAS reads its thread count at import
    rng = np.random.default_rng(12)
    centers = 3.0 * np.eye(3, 16)
    pts, _ = blobs(rng, [tuple(c) for c in centers], 24, 0.5)
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, pts)
    commands = {
        "cluster": ["cluster", "--graph", "full", "--laplacian", "sym", "--delta", "2.0", "--k", "3"],
        "pca-equiv": ["pca-equiv", "--k", "3"],
        "eigen": ["eigen", "--graph", "full", "--delta", "2.0"],
    }
    src = str(Path(speclust.__file__).resolve().parents[1])
    for name, argv in commands.items():
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            proc = subprocess.run(
                [sys.executable, "-m", "speclust.cli", *argv, "--input", str(csv), "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(_artifacts(out))
        assert runs[0] and runs[0] == runs[1], name


def test_cluster_non_convergence_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(speclust.eigen, "MAX_SWEEPS", 1)
    csv, _ = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["cluster", "--input", str(csv), "--graph", "full", "--delta", "0.5",
                   "--k", "2", "--out", str(out)])
    assert rc == 2
    assert "did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_cluster_artifacts_free_of_timings(tmp_path):
    csv, _ = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    cli.main(["cluster", "--input", str(csv), "--graph", "full", "--delta", "0.5",
              "--k", "2", "--out", str(out)])
    for name in ("report.txt", "report.json"):
        assert "[time]" not in (out / name).read_text()


def test_pca_equiv_random_data(tmp_path, capsys):
    rng = np.random.default_rng(60)
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, rng.normal(size=(12, 3)))
    out = tmp_path / "out"
    rc = cli.main(["pca-equiv", "--input", str(csv), "--k", "2", "--out", str(out)])
    assert rc == 0
    assert "equivalence holds at k=2" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["max_angle"] <= 1e-6
    assert report["degenerate_spectrum"] is False


def test_pca_equiv_rank_one_degenerate(tmp_path):
    base = np.linspace(-1.0, 1.0, 6)[:, None]
    csv = tmp_path / "rank1.csv"
    write_points_csv(csv, np.hstack([base, 0.5 * base]))
    out = tmp_path / "out"
    rc = cli.main(["pca-equiv", "--input", str(csv), "--k", "2", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["degenerate_spectrum"] is True


def test_pca_equiv_disagreement_exit_code(tmp_path, monkeypatch):
    # a genuine disagreement needs a broken implementation, so fake the report
    fake = EquivalenceReport(
        k=1,
        principal_angles=np.array([0.5]),
        max_angle=0.5,
        shift_residuals=np.zeros(4),
        eigengap_at_k=1.0,
        degenerate_spectrum=False,
    )
    monkeypatch.setattr(cli, "pca_equivalence_report", lambda d, k: fake)
    rng = np.random.default_rng(61)
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, rng.normal(size=(4, 2)))
    rc = cli.main(["pca-equiv", "--input", str(csv), "--k", "1", "--out", str(tmp_path / "o")])
    assert rc == 3


def test_eigen_connected_agreement(tmp_path, capsys):
    csv, _ = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["eigen", "--input", str(csv), "--graph", "full", "--delta", "0.5",
                   "--out", str(out)])
    assert rc == 0
    assert "zero multiplicity 1, components 1, AGREE" in capsys.readouterr().out
    values = [float(v) for v in (out / "eigenvalues.txt").read_text().split()]
    assert len(values) == 40
    assert values == sorted(values)


def test_eigen_three_components(tmp_path, capsys):
    rng = np.random.default_rng(62)
    pts, _ = blobs(rng, [(0.0, 0.0), (5.0, 0.0), (2.5, 4.3)], 8, 0.05)
    csv = tmp_path / "three.csv"
    write_points_csv(csv, pts)
    rc = cli.main(["eigen", "--input", str(csv), "--graph", "epsilon", "--eps", "1.0",
                   "--kernel", "unit", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "zero multiplicity 3, components 3, AGREE" in capsys.readouterr().out


def test_eigen_near_disconnection_disagrees(tmp_path, capsys):
    # blobs 8.5 apart with delta 1: cross weights ~1e-15 are positive, so the
    # walk sees one component, but the Fiedler value sits far below zero-tol
    rng = np.random.default_rng(63)
    pts, _ = blobs(rng, [(0.0, 0.0), (8.5, 0.0)], 20, 0.05)
    csv = tmp_path / "near.csv"
    write_points_csv(csv, pts)
    rc = cli.main(["eigen", "--input", str(csv), "--graph", "full", "--delta", "1.0",
                   "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "zero multiplicity 2, components 1, DISAGREE" in capsys.readouterr().out


# (points seed, blob separation, blob radius, --delta, --zero-tol, the
# multiplicity eigen reports); cross-blob weights are positive in both, so
# there is one component, and the Fiedler value sits near 1e-8 * lambda_max
NEAR_DISCONNECTION = [
    pytest.param(63, 8.5, 0.05, "1.0", "1e-8", 2, id="default-tol"),
    pytest.param(64, 4.0, 0.2, "0.55", "1e-12", 1, id="tight-tol"),
]


@pytest.mark.parametrize("laplacian", ["unnormalized", "sym", "rw"])
@pytest.mark.parametrize("seed, sep, radius, delta, zero_tol, mult", NEAR_DISCONNECTION)
def test_cluster_gate_reads_eigen_multiplicity(
    tmp_path, capsys, seed, sep, radius, delta, zero_tol, mult, laplacian
):
    rng = np.random.default_rng(seed)
    pts, truth = blobs(rng, [(0.0, 0.0), (sep, 0.0)], 20, radius)
    csv = tmp_path / "near.csv"
    write_points_csv(csv, pts)
    flags = ["--input", str(csv), "--graph", "full", "--delta", delta,
             "--zero-tol", zero_tol, "--laplacian", laplacian]
    assert cli.main(["eigen", *flags, "--out", str(tmp_path / "eigen")]) == 0
    assert f"zero multiplicity {mult}, components 1" in capsys.readouterr().out

    out = tmp_path / "cluster"
    rc = cli.main(["cluster", *flags, "--k", "2", "--out", str(out)])
    err = capsys.readouterr().err
    if mult != 1:
        assert rc == 1
        assert f"multiplicity is {mult}" in err
    elif laplacian == "unnormalized":
        # past the gate, but at this gap the computed Fiedler vector mixes
        # with the constant one beyond the embedding's column-sum check
        assert rc == 1
        assert "columns must sum to 0" in err
    else:
        assert rc == 0, err
        report = json.loads((out / "report.json").read_text())
        assert (report["zero_multiplicity"], report["branch"]) == (1, "connected")
        assert adjusted_rand_index(_read_labels(out / "labels.csv"), truth) == 1.0


def test_config_file_supplies_flags(tmp_path):
    csv, truth = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        "# two-blob indicator run\n"
        f"input = {csv}\n"
        "graph = knn\n"
        "knn = 5\n"
        "delta = 1.0\n"
        "embedding = classical\n"
        "k = 2\n"
        f"out = {out}\n"
    )
    rc = cli.main(["cluster", "--config", str(config)])
    assert rc == 0
    labels = _read_labels(out / "labels.csv")
    assert adjusted_rand_index(labels, truth) == 1.0


def test_config_flags_override_file(tmp_path):
    csv, _ = _two_blob_csv(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"input = {csv}\nk = 2\ndelta = 0.5\nseed = 1\n")
    out = tmp_path / "out"
    rc = cli.main(["cluster", "--config", str(config), "--seed", "5", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 5
    assert report["k"] == 2


def test_config_unknown_key_rejected(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("input = x.csv\nwidget = 3\n")
    rc = cli.main(["cluster", "--config", str(config)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "unknown config key" in err
    assert ":2:" in err


def test_config_bad_boolean_rejected(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("input = x.csv\nheader = maybe\n")
    assert cli.main(["cluster", "--config", str(config)]) == 1


def test_cluster_missing_input_flag(tmp_path):
    assert cli.main(["cluster", "--k", "2", "--delta", "1.0"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--input", "x.csv", "--graph", "bogus", "--k", "2"],
        ["cluster", "--input", "x.csv", "--k", "two"],
        [],
        ["pca-equiv", "--input", "x.csv"],
    ],
    ids=["bad-choice", "bad-int", "no-subcommand", "pca-equiv-without-k"],
)
def test_bad_command_line_exits_1(argv):
    # 2 is reserved for numerical failure
    assert cli.main(argv) == 1


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "command, delimiter, via_config",
    [
        ("cluster", ";;", False),
        ("cluster", "", False),
        ("cluster", ";;", True),
        ("pca-equiv", ";;", False),
    ],
    ids=["flag", "flag-empty", "config", "pca-equiv-flag"],
)
def test_delimiter_must_be_one_character(tmp_path, capsys, command, delimiter, via_config):
    csv, _ = _two_blob_csv(tmp_path)
    argv = [command, "--k", "2", "--out", str(tmp_path / "out")]
    if via_config:
        config = tmp_path / "run.cfg"
        config.write_text(f"input = {csv}\ndelta = 0.5\ndelimiter = {delimiter}\n")
        argv += ["--config", str(config)]
    else:
        argv += ["--input", str(csv), "--delimiter", delimiter]
        if command == "cluster":
            argv += ["--delta", "0.5"]
    assert cli.main(argv) == 1
    assert "delimiter must be a single character" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--zero-tol", "nan"],
        ["--zero-tol", "inf"],
        ["--delta", "nan"],
        ["--delta", "inf"],
        ["--graph", "epsilon", "--kernel", "unit", "--eps", "nan"],
        ["--graph", "epsilon", "--kernel", "unit", "--eps", "inf"],
    ],
    ids=["zero-tol-nan", "zero-tol-inf", "delta-nan", "delta-inf", "eps-nan", "eps-inf"],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, flags):
    csv, _ = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    argv = ["eigen", "--input", str(csv), "--delta", "0.5", *flags, "--out", str(out)]
    assert cli.main(argv) == 1
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_installed_entry_point(tmp_path):
    exe = shutil.which("speclust")
    if exe is None:
        pytest.skip("speclust script not on PATH")
    csv, _ = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    proc = subprocess.run(
        [exe, "cluster", "--input", str(csv), "--graph", "knn", "--knn", "5",
         "--delta", "1.0", "--embedding", "classical", "--k", "2", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "branch indicator" in proc.stdout
    assert (out / "labels.csv").exists()
