"""CSV output helpers.

All floats are serialized at 17 significant digits so identical runs
produce byte-identical files; infinities become the literals ``inf`` /
``-inf``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence


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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])
    return path
