"""CSV writer: its bytes against csv.writer applied to fmt of every value."""

import csv
import io
import math

import numpy as np
import pytest

from brwlab import tables
from brwlab.tables import fmt, write_csv


def reference_bytes(header, rows) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([fmt(v) for v in row])
    return buf.getvalue().encode()


MIXED = [
    [0, 1, "nu", 1.5, True],
    [0, 2, "eta", math.inf, False],
    [1, 3, "nu", -math.inf, True],
    [1, 4, "eta", math.nan, False],
    [2, 5, "nu", -0.0, np.True_],
    [2, 6, "eta", 5e-324, True],
    [3, 7, "nu", 1e308, False],
    [3, 8, "a, b", 0.1, True],
    [4, 9, 'say "x"', np.float64(2.0) / 3.0, False],
    [np.int64(5), 10, "", np.float32(0.1), None],
]
HEADER = ["replicate", "n", "type", "value", "flag"]


def test_mixed_table_matches_csv_writer(tmp_path):
    p = write_csv(tmp_path / "t.csv", HEADER, MIXED)
    data = p.read_bytes()
    assert data == reference_bytes(HEADER, MIXED)
    assert b'"a, b"' in data and b'"say ""x"""' in data
    assert b"\r\n" in data and data.count(b"\n") == len(MIXED) + 1


def test_float_array_matches_csv_writer(tmp_path):
    rows = np.array([[-1.0, math.inf], [-0.0, math.nan], [5e-324, 1e308], [0.1, -math.inf]])
    p = write_csv(tmp_path / "a.csv", ["a", "value"], rows)
    assert p.read_bytes() == reference_bytes(["a", "value"], rows.tolist())


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6, 7])
def test_chunk_boundaries(tmp_path, monkeypatch, n):
    monkeypatch.setattr(tables, "CHUNK_ROWS", 3)
    rng = np.random.default_rng(n)
    array = rng.normal(size=(n, 3))
    rows = [[i, "nu" if i % 2 else "eta", float(v)] for i, v in enumerate(array[:, 0])]
    assert write_csv(tmp_path / "a.csv", ["x", "y", "z"], array).read_bytes() == \
        reference_bytes(["x", "y", "z"], array.tolist())
    # rows from a generator, not a list
    assert write_csv(tmp_path / "r.csv", ["i", "type", "v"], iter(rows)).read_bytes() == \
        reference_bytes(["i", "type", "v"], rows)


def test_single_empty_field_is_quoted(tmp_path):
    rows = [[""], ["x"], [1.0]]
    assert write_csv(tmp_path / "e.csv", ["s"], rows).read_bytes() == \
        reference_bytes(["s"], rows)
