"""Differential test: `load_csv` against the one-cell-at-a-time loader.

`load_csv` parses a well-formed file with one np.loadtxt call and hands
everything else to its csv-module loop.  On every file drawn here, odd or
well formed, it must give what `oracles.scalar_load_csv` gives: equal array
bytes and column names, or the same exception type and message.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import speclust.data  # noqa: E402
from oracles import scalar_load_csv  # noqa: E402
from speclust import Dataset, load_csv  # noqa: E402

PLAIN_CELLS = ["0", "1", "-2.5", "1e3", "0.125", "+5", ".5", "5.", "-0", "1E-300", "1e308",
               "123456789.123456789", "0.1", "2.2250738585072014e-308", "4.9e-324"]
# cells float() reads and loadtxt rejects or reads as whitespace, cells
# neither reads, and cells that parse to non-finite values
ODD_CELLS = ['"1.5"', '"-2"', "1_0", "1_000.5", " 1 ", "\xa01\xa0", "\t2", "3\x0b", "\f1", "1\f",
             "\x1c1", "1\x1f", "\x1e", "١", "７", " 1", "\x851", "nan", "inf", "-inf",
             "1e400", "", " ", "abc", "0x10", "1d5", "1j", "1..2", "#1", "1 2", '"1,5"', '1"']
HEADER_NAMES = ["a", "b", " x ", "c1", '"q,r"', '"s"', "", "\xa0y", "1"]
LINE_ENDS = ["\n", "\r\n", "\r"]
BLANK_LINES = ["\n", "\r\n", "\r", "\f\n", " \n", "\x1c\n"]
BAD_BYTES = [b"\xff", b"\xfe\xff", b"\xc3\x28", b"\x80"]


@st.composite
def csv_files(draw):
    """(file bytes or None for a missing file, has_header, delimiter)."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    has_header = draw(st.booleans())
    kind = draw(st.sampled_from(["plain", "plain", "plain", "odd", "empty", "missing", "non-utf8"]))
    if kind == "missing":
        return None, has_header, delimiter
    if kind == "empty":
        return draw(st.sampled_from([b"", b"\n", b"\r\n\n"])), has_header, delimiter
    plain = st.sampled_from(PLAIN_CELLS) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
    cell = plain if kind != "odd" else st.sampled_from(ODD_CELLS) | plain
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), min_size=0, max_size=6))
    if kind == "odd" and rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][: draw(st.integers(0, width))] + draw(st.lists(cell, max_size=2))
    lines = [delimiter.join(row) for row in rows]
    if has_header:
        names = draw(st.lists(st.sampled_from(HEADER_NAMES), min_size=1, max_size=width + 1))
        lines.insert(0, delimiter.join(names))
    end = draw(st.sampled_from(LINE_ENDS))
    text = ""
    for line in lines:
        if kind == "odd" and draw(st.integers(0, 5)) == 0:
            text += draw(st.sampled_from(BLANK_LINES))
        text += line + (end if kind == "plain" else draw(st.sampled_from(LINE_ENDS + ["\f"])))
    if draw(st.booleans()):
        text = text[: -len(end)] if text.endswith(end) else text  # no final line end
    body = text.encode("utf-8")
    if kind == "non-utf8":
        cut = draw(st.integers(0, len(body)))
        body = body[:cut] + draw(st.sampled_from(BAD_BYTES)) + body[cut:]
    return body, has_header, delimiter


def _outcome(load):
    try:
        d = load()
    except (ValueError, OSError) as exc:
        return "error", type(exc), str(exc)
    return "ok", d.points.shape, d.points.tobytes(), d.column_names


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(case=csv_files())
@example(case=(b"1,2\f3,4\n5,6\n", False, ","))
@example(case=(b"1,2\x1c\n3,4\n", False, ","))
@example(case=(b'"1",2\n3,1_0\n', False, ","))
@example(case=(b"a,b\n\n1,2\r3,4\r", True, ","))
@example(case=(b"1\xc2\xa0,2\n3,4\n", False, ","))
def test_load_csv_matches_the_cell_loop(case):
    body, has_header, delimiter = case
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "pts.csv")
        if body is not None:
            Path(path).write_bytes(body)
        got = _outcome(lambda: load_csv(path, has_header=has_header, delimiter=delimiter))
        expected = _outcome(lambda: Dataset(*scalar_load_csv(path, has_header, delimiter)))
    assert got == expected, (body, has_header, delimiter)


def test_load_csv_takes_the_whole_array_path_on_plain_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(31)
    points = rng.normal(size=(20, 5)) * 10.0 ** rng.integers(-5, 6, size=(20, 5))
    path = tmp_path / "pts.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("p,q,r,s,t\r\n\r\n")
        fh.write("".join(",".join(format(x, ".17g") for x in row) + "\r\n" for row in points))
    results = []
    whole = speclust.data._load_whole
    monkeypatch.setattr(speclust.data, "_load_whole", lambda *a: results.append(whole(*a)) or results[-1])
    d = load_csv(str(path), has_header=True)
    assert results[0] is not None
    assert d.points.tobytes() == points.tobytes()
    assert d.column_names == ("p", "q", "r", "s", "t")
