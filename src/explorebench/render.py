"""Hand-rolled SVG output: trajectory over the final belief map plus the
coverage-versus-time curve. No plotting dependencies; every coordinate is
computed geometry and floats are formatted to fixed precision so repeated
runs emit byte-identical files."""

from __future__ import annotations

import numpy as np

from .explorer import RunRecord
from .gridmap import OccupancyGrid

CELL_PX = 10
CURVE_W = 320
CURVE_H = 240
MARGIN = 30

# Cell fill of each state, indexed by UNKNOWN, FREE, OCCUPIED.
_STATE_FILL = ("#c9ccd1", "#ffffff", "#30343a")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _path_color(fraction: float) -> str:
    # Early blue to late red.
    r = int(40 + 200 * fraction)
    g = 60
    b = int(220 - 180 * fraction)
    return f"#{r:02x}{g:02x}{b:02x}"


def _map_panel(record: RunRecord, belief: OccupancyGrid) -> list[str]:
    res = belief.resolution

    def px(x, y):
        return (x / res * CELL_PX, y / res * CELL_PX)

    parts = [f'<g transform="translate({MARGIN},{MARGIN})">']
    # Cells, merged per row into runs of equal state to keep files small;
    # a run ends where np.diff is nonzero (uint8 wrap-around keeps it so).
    for j, row in enumerate(belief.states):
        cuts = [0, *(np.flatnonzero(np.diff(row)) + 1), belief.width]
        for i, k in zip(cuts, cuts[1:]):
            parts.append(
                f'<rect x="{i * CELL_PX}" y="{j * CELL_PX}" '
                f'width="{(k - i) * CELL_PX}" height="{CELL_PX}" '
                f'fill="{_STATE_FILL[row[i]]}"/>'
            )
    # Trajectory, one segment per sample pair, colored by time.
    samples = record.samples
    total_t = samples[-1][0] if samples and samples[-1][0] > 0 else 1.0
    for a, b in zip(samples, samples[1:]):
        x1, y1 = px(a[1], a[2])
        x2, y2 = px(b[1], b[2])
        color = _path_color(a[0] / total_t)
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="2" stroke-linecap="round"/>'
        )
    # Selected frontier targets, numbered in decision order.
    for n, decision in enumerate(record.decisions, start=1):
        tx, ty = px(decision.target[0], decision.target[1])
        parts.append(
            f'<circle cx="{_fmt(tx)}" cy="{_fmt(ty)}" r="3.5" fill="none" '
            f'stroke="#c77d0a" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_fmt(tx + 5)}" y="{_fmt(ty - 4)}" font-size="9" '
            f'fill="#c77d0a">{n}</text>'
        )
    if samples:
        sx, sy = px(samples[0][1], samples[0][2])
        parts.append(f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="4" fill="#11aa44"/>')
    parts.append("</g>")
    return parts


def _curve_panel(record: RunRecord, x_offset: int) -> list[str]:
    samples = record.samples
    t_max = max(samples[-1][0], 1e-9) if samples else 1.0
    parts = [f'<g transform="translate({x_offset},{MARGIN})">']
    parts.append(
        f'<rect x="0" y="0" width="{CURVE_W}" height="{CURVE_H}" '
        f'fill="#fafafa" stroke="#888888"/>'
    )
    for frac in (0.25, 0.5, 0.75, 1.0):
        y = CURVE_H * (1.0 - frac)
        parts.append(
            f'<line x1="0" y1="{_fmt(y)}" x2="{CURVE_W}" y2="{_fmt(y)}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="-6" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="10">{int(frac * 100)}%</text>'
        )
    points = " ".join(
        f"{_fmt(s[0] / t_max * CURVE_W)},{_fmt(CURVE_H * (1.0 - s[5]))}"
        for s in samples
    )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#2a6fbb" stroke-width="2"/>'
    )
    parts.append(
        f'<text x="{CURVE_W // 2}" y="{CURVE_H + 18}" text-anchor="middle" '
        f'font-size="11">time (s), total {_fmt(record.total_time)}</text>'
    )
    parts.append(
        f'<text x="{CURVE_W // 2}" y="-10" text-anchor="middle" font-size="11">'
        f"coverage by time</text>"
    )
    parts.append("</g>")
    return parts


def run_svg(record: RunRecord) -> str:
    """One SVG with the trajectory overlay and the coverage curve."""
    belief = record.final_belief
    if belief is None:
        raise ValueError("record carries no final belief to draw")
    map_w = belief.width * CELL_PX
    map_h = belief.height * CELL_PX
    curve_x = MARGIN + map_w + 60
    width = curve_x + CURVE_W + MARGIN
    height = max(map_h, CURVE_H) + 2 * MARGIN + 20
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<text x="{MARGIN}" y="18" font-size="12">'
        f"{record.selector.label()} | {record.outcome} | "
        f"dist {_fmt(record.total_distance)} m | "
        f"rate {_fmt(record.final_rate * 100)}%</text>",
    ]
    parts.extend(_map_panel(record, belief))
    parts.extend(_curve_panel(record, curve_x))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
