"""Trace CSV emission and standalone SVG regret charts.

CSV schemas are fixed:

    per-cell trace   t,seed,instant_regret,cum_regret
    aggregate        t,mean_cum,stderr_cum

The seed column labels a (user, seed) cell as ``user:seed``.  Floats are
written with 17 significant digits so re-runs are byte-comparable.  The SVG
renderer draws mean curves with shaded standard-error bands and needs no
external plotting backend; its output is a pure function of its inputs.
"""

from __future__ import annotations

import numpy as np

from .envfile import fmt17, write_text
from .errors import DataFormatError
from .harness import RegretTrace

__all__ = [
    "write_trace_csv",
    "write_aggregate_csv",
    "read_aggregate_csv",
    "render_chart",
]


def write_trace_csv(path, trace: RegretTrace) -> None:
    cum = trace.cum
    out = ["t,seed,instant_regret,cum_regret"]
    for row, (user, seed) in enumerate(trace.cells):
        label = f"{user}:{seed}"
        inst_row = trace.inst[row]
        cum_row = cum[row]
        for t in range(trace.horizon):
            out.append(f"{t + 1},{label},{fmt17(inst_row[t])},{fmt17(cum_row[t])}")
    write_text(path, "\n".join(out) + "\n")


def write_aggregate_csv(path, trace: RegretTrace) -> None:
    mean = trace.mean_cum
    err = trace.stderr_cum
    out = ["t,mean_cum,stderr_cum"]
    for t in range(trace.horizon):
        out.append(f"{t + 1},{fmt17(mean[t])},{fmt17(err[t])}")
    write_text(path, "\n".join(out) + "\n")


def read_aggregate_csv(path):
    """Read an aggregate CSV; returns (t, mean_cum, stderr_cum) arrays."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise DataFormatError(f"regret file not found: {path}") from None
    if not lines or lines[0] != "t,mean_cum,stderr_cum":
        raise DataFormatError(f"{path} is not an aggregate regret CSV")
    ts, means, errs = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise DataFormatError(f"{path}:{lineno}: expected 3 columns")
        try:
            ts.append(int(parts[0]))
            means.append(float(parts[1]))
            errs.append(float(parts[2]))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: malformed number") from None
    if not ts:
        raise DataFormatError(f"{path} has no data rows")
    return np.array(ts), np.array(means), np.array(errs)


_PALETTE = (
    "#4477aa", "#ee6677", "#228833", "#ccbb44", "#66ccee",
    "#aa3377", "#bbbbbb", "#000000", "#e69f00", "#56b4e9",
)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _panel(svg, curves, x0, y0, width, height, title):
    t_max = max(int(t[-1]) for _, t, _, _ in curves)
    t_min = min(int(t[0]) for _, t, _, _ in curves)
    y_max = max(float((m + e).max()) for _, _, m, e in curves)
    y_min = min(0.0, min(float((m - e).min()) for _, _, m, e in curves))
    if y_max <= y_min:
        y_max = y_min + 1.0

    def sx(t):
        return x0 + (t - t_min) / max(t_max - t_min, 1) * width

    def sy(v):
        return y0 + height - (v - y_min) / (y_max - y_min) * height

    svg.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(width)}" height="{_fmt(height)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    for i in range(5):
        tv = t_min + (t_max - t_min) * i / 4
        yv = y_min + (y_max - y_min) * i / 4
        svg.append(
            f'<text x="{_fmt(sx(tv))}" y="{_fmt(y0 + height + 16)}" font-size="10" '
            f'text-anchor="middle">{_fmt(tv)}</text>'
        )
        svg.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(sy(yv) + 3)}" font-size="10" '
            f'text-anchor="end">{_fmt(yv)}</text>'
        )
    svg.append(
        f'<text x="{_fmt(x0 + width / 2)}" y="{_fmt(y0 + height + 32)}" font-size="11" '
        f'text-anchor="middle">round</text>'
    )
    svg.append(
        f'<text x="{_fmt(x0 - 44)}" y="{_fmt(y0 + height / 2)}" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 {_fmt(x0 - 44)} {_fmt(y0 + height / 2)})">'
        f"{title}</text>"
    )
    for idx, (label, t, mean, err) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        upper = [(sx(tc), sy(mc + ec)) for tc, mc, ec in zip(t, mean, err)]
        lower = [(sx(tc), sy(mc - ec)) for tc, mc, ec in zip(t, mean, err)]
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in upper + lower[::-1])
        svg.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.18" stroke="none"/>')
        line = " ".join(f"{_fmt(sx(tc))},{_fmt(sy(mc))}" for tc, mc in zip(t, mean))
        svg.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    for idx, (label, _, _, _) in enumerate(curves):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = y0 + 14 + 14 * idx
        svg.append(
            f'<line x1="{_fmt(x0 + 8)}" y1="{_fmt(ly - 3)}" x2="{_fmt(x0 + 28)}" '
            f'y2="{_fmt(ly - 3)}" stroke="{color}" stroke-width="2"/>'
        )
        svg.append(f'<text x="{_fmt(x0 + 33)}" y="{_fmt(ly)}" font-size="10">{label}</text>')


def render_chart(curves, path, absolute_labels=()) -> None:
    """Render labeled (t, mean, stderr) curves into a standalone SVG.

    Curves whose label is listed in ``absolute_labels`` use a second panel:
    their regret definition (full single-arm gap) is not on the same scale as
    dueling regret, so overlaying them would mislead.
    """
    if not curves:
        raise DataFormatError("nothing to plot")
    horizon = len(curves[0][1])
    for label, t, mean, err in curves:
        if len(t) != horizon or len(mean) != horizon or len(err) != horizon:
            raise DataFormatError(f"curve {label!r} does not match the common horizon")
    primary = [c for c in curves if c[0] not in set(absolute_labels)]
    secondary = [c for c in curves if c[0] in set(absolute_labels)]
    panels = [p for p in (primary, secondary) if p]
    width, panel_h, margin = 640, 300, 56
    total_h = margin // 2 + len(panels) * (panel_h + margin)
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{total_h}" viewBox="0 0 {width} {total_h}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    titles = ["cumulative regret", "cumulative absolute regret"]
    if not primary:
        titles = titles[1:]
    y = margin // 2
    for panel, title in zip(panels, titles):
        _panel(svg, panel, 64.0, float(y), width - 96.0, float(panel_h), title)
        y += panel_h + margin
    svg.append("</svg>")
    write_text(path, "\n".join(svg) + "\n")
