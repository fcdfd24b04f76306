"""CSV output helpers.

``write_csv`` writes the bytes that ``csv.writer`` writes for the row
``[fmt(v) for v in row]``, so identical runs produce byte-identical
files:

- a float (any subclass of float, numpy's float64 included) has 17
  significant digits (``%.17g``): ``1e+308``, ``-0``,
  ``4.9406564584124654e-324``, and the literals ``inf``, ``-inf`` and
  ``nan``;
- a bool is ``true`` or ``false``; anything else is ``str(value)``;
- fields are separated by ``,`` and every line, the header's too, ends
  with ``\\r\\n``;
- a field containing ``,``, ``"``, ``\\r`` or ``\\n`` is quoted, with
  inner quotes doubled, and so is a row of one empty field.

A 2-d float64 array of rows, the form of every large table, needs no
per-value type check or quoting: it is formatted ``CHUNK_ROWS`` rows at
a time by one ``%``-template.  Every other row goes through
``csv.writer``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

CHUNK_ROWS = 4096


def fmt(value) -> str:
    # floats first: they fill the large tables, and bool is not a float
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write ``header`` and ``rows`` (an iterable of rows, or a 2-d array) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
            for start in range(0, rows.shape[0], CHUNK_ROWS):
                chunk = rows[start:start + CHUNK_ROWS]
                fh.write((line * chunk.shape[0]) % tuple(chunk.ravel().tolist()))
        else:
            writer.writerows([fmt(v) for v in row] for row in rows)
    return path
