"""Ordered tables with named columns, serialized as CSV.

Cells are floats, or strings written as they are; NaN marks an empty cell
(a method that errored at that abscissa). The CSV dialect is fixed: ','
field separator, '.' decimal separator, '\\n' line terminator, 10
significant digits, empty string for missing cells.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SweepTable", "format_number"]


def format_number(x):
    """Render a float with 10 significant digits; NaN becomes empty and a
    string stays as it is."""
    if isinstance(x, str):
        return x
    if isinstance(x, float) and math.isnan(x):
        return ""
    return f"{x:.10g}"


@dataclass
class SweepTable:
    columns: list
    rows: list
    warnings: list = field(default_factory=list)

    def __post_init__(self):
        width = len(self.columns)
        for row in self.rows:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} != {width} columns"
                )

    def column(self, name):
        """One numeric column as a float array (NaN for empty cells)."""
        j = self.columns.index(name)
        return np.array([row[j] for row in self.rows], dtype=float)

    def to_csv(self):
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(format_number(v) for v in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text):
        lines = [ln for ln in text.splitlines() if ln != ""]
        if not lines:
            raise ValueError("empty CSV")
        columns = lines[0].split(",")
        rows = []
        for ln in lines[1:]:
            cells = ln.split(",")
            if len(cells) != len(columns):
                raise ValueError(f"malformed CSV row: {ln!r}")
            rows.append(
                [float("nan") if c == "" else float(c) for c in cells]
            )
        return cls(columns=columns, rows=rows)
