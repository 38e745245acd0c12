"""Plain-text table rendering for experiment results."""

from __future__ import annotations


def format_table(headers: list[str], rows: list[list], *,
                 title: str = "", precision: int = 3) -> str:
    """Render a simple aligned ASCII table."""
    def cell(value) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))

    def line(cells):
        return "  ".join(c.rjust(w) if i else c.ljust(w)
                         for i, (c, w) in enumerate(zip(cells, widths)))

    out = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        out.append(line(row))
    return "\n".join(out)


def format_series(title: str, x_label: str, xs: list,
                  series: dict[str, list[float]]) -> str:
    """Render figure data as one row per x value, one column per series."""
    headers = [x_label] + list(series)
    rows = []
    for index, x in enumerate(xs):
        rows.append([x] + [series[name][index] for name in series])
    return format_table(headers, rows, title=title)
