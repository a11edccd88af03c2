"""Property test: degenerate inputs end in a documented exit code.

Tiny CSVs with duplicate points, constant columns and entries near the
double range go through `cli.main` for every subcommand; each run must end
in exit code 0, 1, 2 or 3, never in an uncaught exception.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from generators import write_points_csv  # noqa: E402
from speclust import cli  # noqa: E402

ENTRIES = [0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e300, -1e300, 1e-300, -1e-300]
DELTAS = ["1e-300", "1e-3", "1", "1e300"]


@st.composite
def datasets(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 3))
    entry = st.sampled_from(ENTRIES) | st.floats(-10.0, 10.0)
    # rows drawn from a smaller pool repeat, which makes duplicate points
    pool = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=n))
    rows = [pool[draw(st.integers(0, len(pool) - 1))] for _ in range(n)]
    points = np.array(rows, dtype=float)
    for j in range(m):
        if draw(st.booleans()):
            points[:, j] = draw(entry)
    return points


@st.composite
def graph_flags(draw, n):
    graph = draw(st.sampled_from(["full", "full-shifted-dot", "knn", "epsilon"]))
    delta = draw(st.sampled_from(DELTAS))
    if graph == "full":
        flags = ["--graph", "full", "--delta", delta]
    elif graph == "full-shifted-dot":
        flags = ["--graph", "full", "--kernel", "shifted_dot"]
    elif graph == "knn":
        flags = ["--graph", "knn", "--knn", str(draw(st.integers(1, n))), "--delta", delta]
    else:
        kernel = draw(st.sampled_from(["unit", "rbf"]))
        flags = ["--graph", "epsilon", "--eps", draw(st.sampled_from(DELTAS)),
                 "--kernel", kernel, "--delta", delta]
    return flags + ["--laplacian", draw(st.sampled_from(["unnormalized", "sym", "rw"]))]


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_degenerate_inputs_end_in_documented_exit_codes(data):
    points = data.draw(datasets())
    n = points.shape[0]
    flags = data.draw(graph_flags(n))
    k = str(data.draw(st.integers(1, n)))
    embedding = data.draw(st.sampled_from(["nonconstant", "classical"]))
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "pts.csv"
        write_points_csv(csv, points)
        runs = [
            ["cluster", *flags, "--embedding", embedding, "--k", k],
            ["eigen", *flags],
            ["pca-equiv", "--k", k],
        ]
        with np.errstate(all="ignore"):
            for i, argv in enumerate(runs):
                rc = cli.main([*argv, "--input", str(csv), "--out", str(Path(tmp) / str(i))])
                assert rc in (0, 1, 2, 3), (argv, points)
