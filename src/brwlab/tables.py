"""CSV output helpers.

``write_csv`` writes the bytes that ``csv.writer`` would write for the
row ``[fmt(v) for v in row]``, so identical runs produce byte-identical
files:

- a float (any subclass of float, numpy's float64 included) has 17
  significant digits (``%.17g``): ``1e+308``, ``-0``,
  ``4.9406564584124654e-324``, and the literals ``inf``, ``-inf`` and
  ``nan``;
- a bool is ``true`` or ``false``; anything else is ``str(value)``;
- fields are separated by ``,`` and every line, the header's too, ends
  with ``\\r\\n``;
- a field containing ``,``, ``"``, ``\\r`` or ``\\n`` is quoted, with
  inner quotes doubled, and so is a row of one empty field.  Quoting
  falls to ``csv.writer``; numbers never need it.

Each row is formatted with one ``%``-template chosen by the types of its
values, and rows are written in chunks of ``CHUNK_ROWS``.  A 2-d
float64 array of rows needs no per-row type check: a whole chunk is
formatted by one template.
"""

from __future__ import annotations

import csv
import io
import math
import re
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

CHUNK_ROWS = 4096
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def fmt(value) -> str:
    # floats first: they fill the large tables, and bool is not a float
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.17g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _template(types: tuple):
    """(template, bool positions, str positions) for a row of these types."""
    parts, bools, strs = [], [], []
    for j, t in enumerate(types):
        if issubclass(t, float):
            parts.append("%.17g")
        elif t is int:
            parts.append("%d")
        else:
            parts.append("%s")
            (bools if t is bool else strs).append(j)
    return ",".join(parts) + "\r\n", bools, strs


def _quoted(row) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerow([fmt(v) for v in row])
    return buf.getvalue()


def _format_rows(rows, templates: dict) -> str:
    lines = []
    for row in rows:
        key = tuple(map(type, row))
        spec = templates.get(key)
        if spec is None:
            spec = templates[key] = _template(key)
        template, bools, strs = spec
        if bools or strs:
            values = list(row)
            for j in bools:
                values[j] = "true" if values[j] else "false"
            for j in strs:
                values[j] = text = str(values[j])
                if _NEEDS_QUOTES.search(text) or (not text and len(values) == 1):
                    lines.append(_quoted(row))
                    break
            else:
                lines.append(template % tuple(values))
        else:
            lines.append(template % tuple(row))
    return "".join(lines)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write ``header`` and ``rows`` (an iterable of rows, or a 2-d array) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    templates: dict = {}
    with open(path, "w", newline="") as fh:
        fh.write(_format_rows([header], templates))
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
            for start in range(0, rows.shape[0], CHUNK_ROWS):
                chunk = rows[start:start + CHUNK_ROWS]
                fh.write((line * chunk.shape[0]) % tuple(chunk.ravel().tolist()))
            return path
        rows = iter(rows)
        while chunk := list(islice(rows, CHUNK_ROWS)):
            fh.write(_format_rows(chunk, templates))
    return path
