"""Plain-text table formatting shared by every report printer.

Kept apart from :mod:`repro.analysis` (which re-exports it) so that
printing a serving report or a trace summary does not import the
experiment harness.
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain-text table used by every printer."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
