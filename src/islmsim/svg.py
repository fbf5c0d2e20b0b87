"""Static SVG phase portraits: IS curve, LM branches coloured by stability,
fold points, classified equilibria, and an optional overlaid trajectory with
its vertical jump segments.

The output is plain text with deterministic number formatting; it duplicates
nothing that is not already in the structured documents.
"""

from __future__ import annotations

import numpy as np

from .dynamics import Trajectory
from .geometry import Equilibrium, ISCurve, LMIsocline

__all__ = ["render_portrait"]

WIDTH, HEIGHT = 820, 560
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 34, 48
N_TICKS = 6  # labelled ticks on each axis, ends included

STABLE_COLOR = "#1661a9"
UNSTABLE_COLOR = "#c3372c"
IS_COLOR = "#2e8540"
TRAJ_COLOR = "#444444"
JUMP_COLOR = "#e08700"

EQ_MARKS = {
    "stable-node": ("#1661a9", "circle"),
    "stable-focus": ("#1661a9", "circle"),
    "unstable-node": ("#c3372c", "circle"),
    "unstable-focus": ("#c3372c", "circle"),
    "saddle": ("#7b1fa2", "diamond"),
    "center-degenerate": ("#666666", "square"),
}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Frame:
    def __init__(self, y_range, r_range):
        self.y0, self.y1 = y_range
        self.r0, self.r1 = r_range

    def x(self, y: float) -> float:
        return MARGIN_L + (y - self.y0) / (self.y1 - self.y0) * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, r: float) -> float:
        return HEIGHT - MARGIN_B - (r - self.r0) / (self.r1 - self.r0) * (HEIGHT - MARGIN_T - MARGIN_B)

    def polyline(self, ys, rs, cls: str, color: str, width: float,
                 dash: str | None = None) -> str:
        pts = " ".join(f"{_fmt(self.x(a))},{_fmt(self.y(b))}" for a, b in zip(ys, rs))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<polyline class="{cls}" fill="none" stroke="{color}" '
                f'stroke-width="{width}"{dash_attr} points="{pts}"/>')


def _axes(frame: _Frame) -> list[str]:
    parts = [
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="#999" stroke-width="1"/>'
    ]
    for k in range(N_TICKS):
        y_val = frame.y0 + (frame.y1 - frame.y0) * k / (N_TICKS - 1)
        x = frame.x(y_val)
        parts.append(f'<line x1="{_fmt(x)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(x)}" '
                     f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#999"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 18}" '
                     f'font-size="11" text-anchor="middle" fill="#333">{_fmt(y_val)}</text>')
        r_val = frame.r0 + (frame.r1 - frame.r0) * k / (N_TICKS - 1)
        yy = frame.y(r_val)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(yy)}" x2="{MARGIN_L}" '
                     f'y2="{_fmt(yy)}" stroke="#999"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(yy + 4)}" font-size="11" '
                     f'text-anchor="end" fill="#333">{_fmt(r_val)}</text>')
    parts.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 10}" '
                 f'font-size="13" text-anchor="middle" fill="#111">Y (aggregate income)</text>')
    parts.append(f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" font-size="13" '
                 f'text-anchor="middle" fill="#111" '
                 f'transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) // 2})">'
                 f'R (long-term real rate)</text>')
    return parts


def render_portrait(isocline: LMIsocline, curve: ISCurve, equilibria: list[Equilibrium],
                    trajectory: Trajectory | None, y_range: tuple[float, float],
                    r_range: tuple[float, float], title: str) -> str:
    """Render the phase plane as standalone SVG markup, with the trajectory's
    jumps drawn as vertical segments; `trajectory` is None for a portrait
    with no run."""
    frame = _Frame(y_range, r_range)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{MARGIN_L}" y="22" font-size="14" fill="#111">{title}</text>',
    ]
    parts.extend(_axes(frame))

    for b in isocline.branches:
        color = STABLE_COLOR if b.stability == "stable" else UNSTABLE_COLOR
        dash = None if b.stability == "stable" else "6,4"
        parts.append(frame.polyline(b.ys, b.rs, f"branch {b.stability}", color, 1.8, dash))
    for f in isocline.folds:
        parts.append(f'<circle class="fold" cx="{_fmt(frame.x(f.y))}" '
                     f'cy="{_fmt(frame.y(f.r))}" r="4" fill="none" '
                     f'stroke="#111" stroke-width="1.4"/>')

    ys = np.linspace(y_range[0], y_range[1], 64)
    parts.append(frame.polyline(ys, [curve.r_at(float(y)) for y in ys],
                                "is-curve", IS_COLOR, 1.8))

    if trajectory is not None and len(trajectory) >= 2:
        parts.append(frame.polyline(trajectory.y, trajectory.r, "trajectory",
                                    TRAJ_COLOR, 1.0))

    for j in trajectory.jumps if trajectory is not None else ():
        x = _fmt(frame.x(j.y_at_jump))
        parts.append(f'<line class="jump" x1="{x}" y1="{_fmt(frame.y(j.r_from))}" '
                     f'x2="{x}" y2="{_fmt(frame.y(j.r_to))}" stroke="{JUMP_COLOR}" '
                     f'stroke-width="2.4" marker-end="none"/>')

    for e in equilibria:
        color, shape = EQ_MARKS.get(e.classification, ("#666666", "square"))
        cx, cy = frame.x(e.y), frame.y(e.r)
        if shape == "circle":
            parts.append(f'<circle class="equilibrium {e.classification}" '
                         f'cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="5" fill="{color}"/>')
        elif shape == "diamond":
            pts = f"{_fmt(cx)},{_fmt(cy - 6)} {_fmt(cx + 6)},{_fmt(cy)} " \
                  f"{_fmt(cx)},{_fmt(cy + 6)} {_fmt(cx - 6)},{_fmt(cy)}"
            parts.append(f'<polygon class="equilibrium {e.classification}" '
                         f'points="{pts}" fill="{color}"/>')
        else:
            parts.append(f'<rect class="equilibrium {e.classification}" '
                         f'x="{_fmt(cx - 4.5)}" y="{_fmt(cy - 4.5)}" width="9" '
                         f'height="9" fill="{color}"/>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
