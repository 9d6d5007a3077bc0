"""Deterministic CSV writing: header line, # metadata comments, repr floats.

repr of a float is the shortest round-tripping decimal, so identical
inputs always serialise to identical bytes.
"""

from __future__ import annotations

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
        # repr already spells nan, inf, -inf and -0.0
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
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64:
        # every cell is a float, whose format_cell is its repr
        lines.extend(",".join(map(repr, row)) for row in rows.tolist())
    else:
        lines.extend(",".join(map(format_cell, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
