"""Comparison reports: one row per reproduced quantity, with an explicit
pass criterion, serialised as plain text and CSV."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .csvout import format_cell, write_csv


@dataclass(frozen=True)
class ReportRow:
    quantity: str
    computed: object          # float or bool
    reference: object | None  # float, bool or None
    rel_error: float | None
    passed: bool
    criterion: str            # the pass rule, spelled out
    source: str               # where the reference value comes from

    def csv_cells(self) -> tuple:
        """The row's cells under ``CSV_COLUMNS``; commas in the free text
        become semicolons, so every line keeps its column count."""
        return (self.quantity, self.computed, self.reference, self.rel_error,
                self.passed, self.criterion.replace(",", ";"),
                self.source.replace(",", ";"))


#: the columns of ``ReportRow.csv_cells``
CSV_COLUMNS = ("quantity", "computed", "reference", "rel_error", "passed",
               "criterion", "source")


@dataclass
class ComparisonReport:
    scenario: str
    rows: list[ReportRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_text(self) -> str:
        cols = ("quantity", "computed", "reference", "rel_error", "status")
        table = [cols]
        for row in self.rows:
            table.append((
                row.quantity,
                format_cell(row.computed),
                format_cell(row.reference),
                "" if row.rel_error is None else f"{row.rel_error:.3e}",
                "pass" if row.passed else "FAIL",
            ))
        widths = [max(len(r[i]) for r in table) for i in range(len(cols))]
        lines = [f"scenario: {self.scenario}"]
        for key, value in self.meta.items():
            lines.append(f"# {key}={value}")
        for i, entry in enumerate(table):
            lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(entry)).rstrip())
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(cols) - 1)))
        lines.append("")
        for row in self.rows:
            lines.append(f"  {row.quantity}: {row.criterion} [{row.source}]")
        return "\n".join(lines) + "\n"

    def write(self, directory) -> list[Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        txt = directory / "report.txt"
        txt.write_text(self.to_text(), encoding="utf-8")
        csv = write_csv(
            directory / "report.csv", CSV_COLUMNS,
            [row.csv_cells() for row in self.rows],
            meta={"scenario": self.scenario, **self.meta},
        )
        return [txt, csv]


def compare_row(quantity: str, computed: float, reference: float, tol: float,
                kind: str, source: str) -> ReportRow:
    """Numeric comparison row; ``kind`` is abs or rel."""
    computed = float(computed)
    reference = float(reference)
    diff = abs(computed - reference)
    rel = diff / abs(reference) if reference != 0 else None
    if kind == "rel":
        passed = diff <= tol * abs(reference)
        criterion = f"|computed - reference| <= {tol:g} * |reference|"
    else:
        passed = diff <= tol
        criterion = f"|computed - reference| <= {tol:g}"
    if math.isnan(computed):
        passed = False
    return ReportRow(quantity, computed, reference, rel, passed, criterion, source)


def threshold_row(quantity: str, computed: float, limit: float, source: str,
                  direction: str = "below") -> ReportRow:
    """Pass when the computed value is below (or above) the stated limit."""
    computed = float(computed)
    if direction == "below":
        passed = computed <= limit
        criterion = f"computed <= {limit:g}"
    else:
        passed = computed >= limit
        criterion = f"computed >= {limit:g}"
    if math.isnan(computed):
        passed = False
    return ReportRow(quantity, computed, None, None, passed, criterion, source)


def bool_row(quantity: str, computed: bool, expected: bool, source: str) -> ReportRow:
    return ReportRow(
        quantity, bool(computed), expected, None, bool(computed) == expected,
        f"value is {str(expected).lower()}", source,
    )


def error_row(quantity: str, error: Exception) -> ReportRow:
    """A numeric failure surfaced as a failed row instead of a crash; the
    source names the exception's class and message."""
    return ReportRow(
        quantity, float("nan"), None, None, False,
        "computation must succeed", f"error: {type(error).__name__}: {error}",
    )
