"""Deterministic CSV writing: header line, # metadata comments, repr floats.

repr of a float is the shortest round-tripping decimal, so identical
inputs always serialise to identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np


def format_cell(value) -> str:
    if hasattr(value, "item"):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def write_csv(path, columns, rows, meta: dict | None = None) -> Path:
    """Write rows (any iterable of iterables) under a header line, with
    '# key=value' comment lines first."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray):
        # plain Python scalars format without a per-cell .item() call
        rows = rows.tolist()
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
