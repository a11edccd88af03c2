"""Property tests: degenerate inputs end in a documented exit code.

Tiny CSVs with duplicate points, constant columns and entries near the
double range go through `cli.main` for every subcommand; each run must end
in exit code 0, 1, 2 or 3, never in an uncaught exception.  Malformed CSV
and `--config` files must end in exit code 1.
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


BAD_CELLS = ["abc", "1..2", "--1", "0x10", "1e", "", "one", "1.0.0", "+-2", "nan", "inf", "-inf"]
GOOD_CONFIG_LINES = ["graph = full", "delta = 1.0", "laplacian = sym", "# comment", ""]
BAD_CONFIG_LINES = {
    "no-equals": ["graph full", "delta", "k 2"],
    "bad-int": ["k = two", "k = 2.5", "knn = 1e3", "seed = "],
    "bad-bool": ["header = yes", "header = maybe", "header = "],
}


@st.composite
def numeric_rows(draw):
    m = draw(st.integers(1, 3))
    cell = st.sampled_from(["0", "1", "-2.5", "1e3", "0.125"])
    return draw(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=2, max_size=5))


def _lines(rows):
    # an empty cell is written quoted, so a one-column row of it is not a blank line
    return "".join(",".join(cell or '""' for cell in row) + "\n" for row in rows).encode()


@st.composite
def odd_csvs(draw):
    """(kind, file bytes or None for a missing file, whether to pass --header)."""
    kind = draw(st.sampled_from(
        ["empty", "blank-lines", "header-only", "ragged", "bad-cell", "non-utf8", "missing"]))
    header = draw(st.booleans())
    if kind == "empty":
        return kind, b"", header
    if kind == "blank-lines":
        return kind, draw(st.sampled_from([b"\n", b"\r\n", b"\n\n\n", b"\r\n\n"])), header
    if kind == "header-only":
        names = draw(st.lists(st.sampled_from(["a", "b", "x1"]), min_size=1, max_size=3))
        return kind, _lines([names]), header
    if kind == "missing":
        return kind, None, header
    rows = draw(numeric_rows())
    names = _lines([[f"c{j}" for j in range(len(rows[0]))]]) if header else b""
    if kind == "ragged":
        i = draw(st.integers(1, len(rows) - 1))
        longer = draw(st.booleans()) or len(rows[i]) == 1
        rows[i] = rows[i] + ["1"] if longer else rows[i][1:]
        return kind, names + _lines(rows), header
    if kind == "bad-cell":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(st.sampled_from(BAD_CELLS))
        return kind, names + _lines(rows), header
    body = _lines(rows)
    cut = draw(st.integers(0, len(body)))
    bad = draw(st.sampled_from([b"\xff", b"\xfe\xff", b"\xc3\x28", b"\x80"]))
    return kind, names + body[:cut] + bad + body[cut:], header


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(case=odd_csvs())
def test_odd_csv_files_exit_1(case):
    kind, body, header = case
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "pts.csv"
        if body is not None:
            csv.write_bytes(body)
        flags = ["--header"] if header else []
        runs = [
            ["cluster", "--graph", "full", "--delta", "1", "--k", "1"],
            ["eigen", "--graph", "full", "--delta", "1"],
            ["pca-equiv", "--k", "1"],
        ]
        for i, argv in enumerate(runs):
            rc = cli.main([*argv, *flags, "--input", str(csv), "--out", str(Path(tmp) / str(i))])
            assert rc == 1, (kind, body, header, argv)


@st.composite
def odd_configs(draw):
    """(kind, config file bytes or None for a missing file)."""
    kind = draw(st.sampled_from([*BAD_CONFIG_LINES, "non-utf8", "missing"]))
    if kind == "missing":
        return kind, None
    lines = draw(st.lists(st.sampled_from(GOOD_CONFIG_LINES), max_size=4))
    bad = (draw(st.sampled_from(BAD_CONFIG_LINES[kind])).encode() if kind in BAD_CONFIG_LINES
           else draw(st.sampled_from([b"graph = \xff", b"\xfe\xff", b"# \x80"])))
    at = draw(st.integers(0, len(lines)))
    body = [line.encode() for line in lines]
    return kind, b"\n".join(body[:at] + [bad] + body[at:]) + b"\n"


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(case=odd_configs())
def test_odd_config_files_exit_1(case):
    kind, body = case
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "pts.csv"
        write_points_csv(csv, np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0]]))
        config = Path(tmp) / "run.cfg"
        if body is not None:
            config.write_bytes(body)
        for i, argv in enumerate([["cluster", "--k", "2"], ["eigen"]]):
            rc = cli.main([*argv, "--config", str(config), "--input", str(csv),
                           "--out", str(Path(tmp) / str(i))])
            assert rc == 1, (kind, body, argv)
