import inspect
import json
import os
import platform
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


# cluster runs with both Laplacians its objective accepts, so the trace term
# is compared on each
DETERMINISM_COMMANDS = {
    "cluster-sym": ["cluster", "--graph", "full", "--laplacian", "sym", "--delta", "2.0", "--k", "3"],
    "cluster-unnormalized": ["cluster", "--graph", "full", "--delta", "2.0", "--k", "3"],
    "pca-equiv": ["pca-equiv", "--k", "3"],
    "eigen": ["eigen", "--graph", "full", "--delta", "2.0"],
}

# principal angles come from a k x k LAPACK SVD and arccos, which the
# determinism contract leaves out
ANGLE_FIELDS = ("principal_angles", "max_angle")

# runs each given command through cli.main inside one interpreter
_RUN_COMMANDS = (
    "import json, sys\n"
    "from speclust.cli import main\n"
    "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
)


def _determinism_csv(tmp_path):
    rng = np.random.default_rng(12)
    centers = 3.0 * np.eye(3, 16)
    pts, _ = blobs(rng, [tuple(c) for c in centers], 24, 0.5)
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, pts)
    return csv


def _fresh_interpreter_artifacts(tmp_path, csv, tag, env_changes, names=tuple(DETERMINISM_COMMANDS)):
    """Artifacts of the named commands, run in a new interpreter.

    A new interpreter per environment because OpenBLAS and numpy read their
    settings at import; a None value in env_changes unsets the variable.
    """
    env = dict(os.environ)
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    src = str(Path(speclust.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = {name: tmp_path / f"{name}-{tag}" for name in names}
    argvs = [[*DETERMINISM_COMMANDS[name], "--input", str(csv), "--out", str(out)] for name, out in outs.items()]
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_COMMANDS, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return {name: _artifacts(out) for name, out in outs.items()}


def _without_angles(files):
    files = dict(files)
    report = json.loads(files["report.json"])
    files["report.json"] = {k: v for k, v in report.items() if k not in ANGLE_FIELDS}
    files["report.txt"] = [
        line for line in files["report.txt"].decode().splitlines()
        if line.split(":")[0] not in ANGLE_FIELDS
    ]
    return files


def _numpy_cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def test_artifacts_independent_of_blas_threads(tmp_path):
    # the README promises the same bytes at any thread count
    csv = _determinism_csv(tmp_path)
    runs = [
        _fresh_interpreter_artifacts(tmp_path, csv, threads, {"OPENBLAS_NUM_THREADS": threads})
        for threads in ("1", "2")
    ]
    for name in DETERMINISM_COMMANDS:
        assert runs[0][name] and runs[0][name] == runs[1][name], name


def test_artifacts_independent_of_blas_kernels(tmp_path):
    # OpenBLAS picks its kernels per CPU; OPENBLAS_CORETYPE forces another
    # CPU's kernels, which shows what a run on that CPU would write
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OPENBLAS_CORETYPE names x86-64 kernels")
    coretypes = [None, "Prescott", "Nehalem"]
    features = _numpy_cpu_features()
    if features.get("AVX2") and features.get("FMA3"):
        coretypes.append("Haswell")
    csv = _determinism_csv(tmp_path)
    runs = [
        _fresh_interpreter_artifacts(tmp_path, csv, str(coretype), {"OPENBLAS_CORETYPE": coretype})
        for coretype in coretypes
    ]
    for name in DETERMINISM_COMMANDS:
        strip = _without_angles if name == "pca-equiv" else dict
        for coretype, run in zip(coretypes[1:], runs[1:]):
            assert strip(run[name]) == strip(runs[0][name]), (name, coretype)


def test_rbf_artifacts_independent_of_numpy_simd(tmp_path):
    # numpy's AVX-512 exp rounds differently from its AVX2 one; RBF weights
    # must not depend on which kernel the CPU gets
    if not _numpy_cpu_features().get("X86_V4"):
        pytest.skip("numpy dispatches no AVX-512 kernels on this CPU")
    csv = _determinism_csv(tmp_path)
    names = ("cluster-unnormalized", "eigen")
    disabled = [None, "AVX512_SPR AVX512_ICL X86_V4", "AVX512_SPR AVX512_ICL X86_V4 AVX512_SKX X86_V3 AVX2 FMA3"]
    runs = [
        _fresh_interpreter_artifacts(tmp_path, csv, f"simd{i}", {"NPY_DISABLE_CPU_FEATURES": features}, names)
        for i, features in enumerate(disabled)
    ]
    for name in names:
        assert runs[0][name], name
        for features, run in zip(disabled[1:], runs[1:]):
            assert run[name] == runs[0][name], (name, features)


@pytest.mark.parametrize(
    "points, delta",
    [
        ([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], "1e-300"),
        ([[1e300, 0.0], [-1e300, 0.0], [0.0, 1e300]], "1e300"),
    ],
    ids=["duplicates-tiny-delta", "huge-points-huge-delta"],
)
def test_non_finite_weights_exit_1(tmp_path, capsys, points, delta):
    # 0/0 and inf/inf make NaN weights; the error must say so, not blame symmetry
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, np.array(points))
    out = tmp_path / "out"
    argv = ["cluster", "--input", str(csv), "--graph", "full", "--delta", delta,
            "--k", "2", "--out", str(out)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rc = cli.main(argv)
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("scale", [1e300, 1e-300])
def test_pca_equiv_near_the_double_range(tmp_path, scale):
    csv = tmp_path / "pts.csv"
    write_points_csv(csv, np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]) * scale)
    out = tmp_path / "out"
    rc = cli.main(["pca-equiv", "--input", str(csv), "--k", "1", "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["degenerate_spectrum"] is False
    assert report["max_angle"] <= 1e-6


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
        assert "not connected" in err
        assert f"--embedding classical --k {mult}" in err
    else:
        # the unnormalized run's column-sum bound widens as the Fiedler gap
        # shrinks, so at this gap it clusters as sym and rw do
        assert rc == 0, err
        report = json.loads((out / "report.json").read_text())
        assert (report["zero_multiplicity"], report["branch"]) == (1, "connected")
        assert adjusted_rand_index(_read_labels(out / "labels.csv"), truth) == 1.0


# (seed, op) pairs of the benchmark's cluster-dense workload whose three
# generated blobs put exactly one point nearer a foreign blob centre
AMBIGUOUS_DENSE_OPS = [
    (2, 187), (4, 659), (5, 295), (7, 188), (9, 788), (12, 572),
    (17, 759), (21, 1168), (34, 1132), (35, 668), (36, 1132),
]


@pytest.mark.parametrize("seed, op", AMBIGUOUS_DENSE_OPS)
def test_cluster_puts_a_point_nearer_a_foreign_centre_with_that_centre(tmp_path, seed, op):
    # the cluster-dense input, regenerated: three blobs around the first three
    # axes of R^4 at 2.0, sigma 0.3, the Laplacian cycling with the op index
    rng = np.random.default_rng([seed, 1, op])
    centres = 2.0 * np.eye(3, 4)
    pts = np.vstack([rng.normal(0.0, 0.3, (20, 4)) + c for c in centres])
    laplacian = ("unnormalized", "sym", "rw")[op % 3]
    kmeans_seed = int(rng.integers(0, 2**31))
    generated = np.repeat(np.arange(3), 20)
    nearest = np.argmin(((pts[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2), axis=1)
    assert np.count_nonzero(nearest != generated) == 1

    csv = tmp_path / "dense.csv"
    write_points_csv(csv, pts)
    out = tmp_path / "out"
    rc = cli.main(
        ["cluster", "--input", str(csv), "--graph", "full", "--kernel", "rbf",
         "--delta", "1.0", "--laplacian", laplacian, "--embedding", "classical",
         "--k", "3", "--seed", str(kmeans_seed), "--out", str(out)]
    )
    assert rc == 0
    assert adjusted_rand_index(_read_labels(out / "labels.csv"), nearest) == 1.0


def test_package_all_lists_exactly_the_public_names():
    names = speclust.__all__
    assert names == sorted(set(names))
    assert all(hasattr(speclust, name) for name in names)
    bound = {
        name for name, obj in vars(speclust).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert set(names) == bound


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


@pytest.mark.parametrize(
    "command, line, messages",
    [
        ("cluster", "k = two", ["argument --k: invalid int value: 'two'"]),
        ("eigen", "k = 2", ["unknown config key", ":2:"]),
        ("eigen", "embedding = classical", ["unknown config key", ":2:"]),
        ("cluster", "graph = bogus", ["argument --graph: invalid choice"]),
    ],
    ids=["bad-int", "eigen-k", "eigen-embedding", "bad-choice"],
)
def test_config_values_checked_like_flags(tmp_path, capsys, command, line, messages):
    # a config file line is parsed as the flag it names, by its subcommand's parser
    csv, _ = _two_blob_csv(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"input = {csv}\n{line}\ndelta = 0.5\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--out", str(out)]
    assert cli.main(argv + ["--k", "2"] if command == "cluster" else argv) == 1
    err = capsys.readouterr().err
    for message in messages:
        assert message in err
    assert not out.exists()


def _header_csv(tmp_path):
    csv, _ = _two_blob_csv(tmp_path)
    named = tmp_path / "named.csv"
    named.write_text("x,y\n" + csv.read_text())
    return named


@pytest.mark.parametrize("zero_tol", ["zero_tol", "zero-tol"])
def test_config_accepts_field_spellings(tmp_path, zero_tol):
    csv = _header_csv(tmp_path)
    out = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"input_path = {csv}\nhas_header = true\noutput_dir = {out}\n"
        f"delta = 0.5\n{zero_tol} = 1e-7\n"
    )
    assert cli.main(["eigen", "--config", str(config)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 40
    assert report["zero_tol"] == 1e-7


def test_config_header_false_loses_to_flag(tmp_path):
    csv = _header_csv(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text(f"input = {csv}\nheader = false\ndelta = 0.5\n")
    out = tmp_path / "out"
    assert cli.main(["eigen", "--config", str(config), "--header", "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["n"] == 40


@pytest.mark.parametrize(
    "flags",
    [
        ["cluster", "--graph", "knn", "--knn", "5", "--delta", "1.0", "--laplacian", "sym",
         "--embedding", "classical", "--k", "2", "--seed", "3", "--zero-tol", "1e-7"],
        ["eigen", "--graph", "epsilon", "--kernel", "unit", "--eps", "0.5",
         "--laplacian", "rw", "--delimiter", ","],
    ],
    ids=["cluster", "eigen"],
)
def test_config_file_and_flags_write_the_same_bytes(tmp_path, flags):
    csv = _header_csv(tmp_path)
    command, pairs = flags[0], flags[1:]
    by_flags, by_file = tmp_path / "flags", tmp_path / "file"
    assert cli.main([*flags, "--input", str(csv), "--header", "--out", str(by_flags)]) == 0
    config = tmp_path / "run.cfg"
    lines = [f"{flag[2:]} = {value}" for flag, value in zip(pairs[::2], pairs[1::2])]
    config.write_text("\n".join([f"input = {csv}", "header = 1", f"out = {by_file}", *lines]) + "\n")
    assert cli.main([command, "--config", str(config)]) == 0
    assert _artifacts(by_flags) == _artifacts(by_file)


def test_cluster_missing_input_flag(tmp_path):
    assert cli.main(["cluster", "--k", "2", "--delta", "1.0"]) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cluster", "--input", "x.csv", "--graph", "bogus", "--k", "2"], "invalid choice"),
        (["cluster", "--input", "x.csv", "--k", "two"], "invalid int value"),
        ([], "required"),
        (["pca-equiv", "--input", "x.csv"], "required: --k"),
        (["pca-equiv", "--k", "2"], "missing required --input"),
    ],
    ids=["bad-choice", "bad-int", "no-subcommand", "pca-equiv-without-k", "pca-equiv-without-input"],
)
def test_bad_command_line_exits_1(argv, message, capsys):
    # 2 is reserved for numerical failure
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


def test_module_entry_point_runs_without_warnings():
    src = str(Path(speclust.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="default")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "speclust.cli", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr


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


# values at the edges of the double range and ones with no short decimal form
_EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3]


@pytest.mark.parametrize("shape", [(6, 1), (6,), (2, 3)], ids=["column", "vector", "rows"])
def test_write_rows_prints_17_significant_digits(tmp_path, shape):
    values = np.array(_EDGE_FLOATS).reshape(shape)
    path = tmp_path / "rows.txt"
    cli._write_rows(path, values)
    rows = values.reshape(values.shape[0], -1)
    assert path.read_text() == "".join(
        ",".join(format(x, ".17g") for x in row) + "\n" for row in rows.tolist()
    )


def test_report_txt_follows_dict_order(tmp_path):
    cli._write_report({"b": 1, "a": [0.1, 1 / 3], "c": {"z": True, "y": False}}, tmp_path)
    assert (tmp_path / "report.txt").read_text() == (
        "b: 1\na: 0.10000000000000001,0.33333333333333331\nc.z: true\nc.y: false\n"
    )
    assert list(json.loads((tmp_path / "report.json").read_text())) == ["a", "b", "c"]


@pytest.mark.parametrize("command", ["cluster", "eigen"])
def test_report_txt_lines_sorted(tmp_path, command):
    csv, _ = _two_blob_csv(tmp_path)
    out = tmp_path / "out"
    argv = [command, "--input", str(csv), "--graph", "full", "--delta", "0.5", "--out", str(out)]
    assert cli.main(argv + (["--k", "2"] if command == "cluster" else [])) == 0
    keys = [line.split(":", 1)[0] for line in (out / "report.txt").read_text().splitlines()]
    # report.json sorts its keys, nested ones too
    report = json.loads((out / "report.json").read_text())
    flat = [f"{k}.{sub}" if isinstance(v, dict) else k
            for k, v in report.items() for sub in (v if isinstance(v, dict) else [None])]
    assert keys == flat
