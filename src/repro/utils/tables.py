"""Plain-text table rendering for experiment reports.

Each benchmark prints the same rows the paper's corresponding table reports;
``Table`` keeps that output aligned and machine-greppable.
"""

from __future__ import annotations

from typing import List, Sequence


def format_float(value: float, digits: int = 2) -> str:
    """Format a metric the way the paper prints it (two decimals, no sign)."""
    if value != value:  # NaN
        return "-"
    return f"{value:.{digits}f}"


class Table:
    """Aligned text table with a title, e.g. reproducing "Table III"."""

    def __init__(self, title: str, columns: Sequence[str]):  # noqa: D107
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *cells: object) -> None:
        """Append a row; cells are stringified, floats via :func:`format_float`."""
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        rendered = []
        for cell in cells:
            if isinstance(cell, float):
                rendered.append(format_float(cell))
            else:
                rendered.append(str(cell))
        self.rows.append(rendered)

    def render(self) -> str:
        """Render the table as aligned monospace text."""
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        header = " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        body = [
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in self.rows
        ]
        return "\n".join([f"== {self.title} ==", header, sep, *body])

    def __str__(self) -> str:
        return self.render()

