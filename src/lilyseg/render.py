"""SVG rendering of solved segment systems.

Germs are dots, segments are strokes; infinite segments are clipped to the
drawing rectangle.  The y axis is flipped so renderings keep the usual
mathematical orientation, stroke widths are fixed in user units, and the
output text is deterministic for a given input.
"""

from __future__ import annotations

import math
from typing import IO, Optional, Tuple, Union

from .errors import InvalidInput
from .geometry import _write_text
from .pointprocess import Rectangle
from .solver import Solution
from .structure import StructureReport, analyze

_STYLE = """\
  <style>
    .germ { fill: #1a1a1a; }
    .seg { stroke: #1a1a1a; stroke-width: 0.06; stroke-linecap: round; }
    .seg-inf { stroke: #6a6a6a; stroke-dasharray: 0.35 0.2; }
    .seg-hl { stroke: #c62828; stroke-width: 0.1; }
  </style>
"""


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def _clip_line(cx, cy, ux, uy, rect: Rectangle) -> Optional[Tuple[float, float, float, float]]:
    """Clip the doubly infinite line (cx, cy) + t (ux, uy) to a rectangle."""
    t_lo, t_hi = -math.inf, math.inf
    for delta, lo, hi, pos in (
        (ux, rect.xmin, rect.xmax, cx),
        (uy, rect.ymin, rect.ymax, cy),
    ):
        if abs(delta) < 1e-300:
            if not (lo <= pos <= hi):
                return None
            continue
        t1 = (lo - pos) / delta
        t2 = (hi - pos) / delta
        if t1 > t2:
            t1, t2 = t2, t1
        t_lo = max(t_lo, t1)
        t_hi = min(t_hi, t2)
    if t_lo > t_hi:
        return None
    return (cx + t_lo * ux, cy + t_lo * uy, cx + t_hi * ux, cy + t_hi * uy)


def _drawing_rect(solution: Solution, clip_to_window: bool) -> Rectangle:
    window = solution.point_set.window
    if clip_to_window:
        if not isinstance(window, Rectangle):
            raise InvalidInput("clipping to the window requires a rectangular window")
        return window
    xs = [p.x for p in solution.point_set]
    ys = [p.y for p in solution.point_set]
    if isinstance(window, Rectangle):
        xs += [window.xmin, window.xmax]
        ys += [window.ymin, window.ymax]
    if not xs:
        return Rectangle(-1.0, -1.0, 1.0, 1.0)
    finite_r = [r for r in solution.radii if math.isfinite(r)]
    pad = max(1.0, max(finite_r) if finite_r else 1.0)
    return Rectangle(min(xs) - pad, min(ys) - pad, max(xs) + pad, max(ys) + pad)


def render_svg(
    solution: Solution,
    highlight: str = "none",
    clip_to_window: bool = False,
    report: Optional[StructureReport] = None,
) -> str:
    """Render a solved system as an SVG document string.

    ``highlight`` may be ``"cycles"`` or ``"doublets"`` to stroke the
    matching segments in a distinct class (the structure report is derived
    on demand if not supplied).  With ``clip_to_window`` the drawing is cut
    exactly at the sampling window; otherwise a padded bounding box of
    germs and window is used.
    """
    if highlight not in ("none", "cycles", "doublets"):
        raise InvalidInput(f"unknown highlight mode {highlight!r}")
    rect = _drawing_rect(solution, clip_to_window)
    width = rect.xmax - rect.xmin
    height = rect.ymax - rect.ymin

    highlighted = set()
    if highlight != "none" and len(solution.point_set):
        if report is None:
            report = analyze(solution)
        groups = report.cycles if highlight == "cycles" else report.doublets
        highlighted = {i for group in groups for i in group}

    # Flip y by emitting (x, -y); the viewBox is stated in flipped coordinates.
    vb = f"{_fmt(rect.xmin)} {_fmt(-rect.ymax)} {_fmt(width)} {_fmt(height)}"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{vb}">',
        _STYLE.rstrip("\n"),
    ]
    for i, point in enumerate(solution.point_set):
        r = solution.radii[i]
        ux, uy = point.unit()
        if math.isinf(r):
            seg = _clip_line(point.x, point.y, ux, uy, rect)
            if seg is None:
                continue
            x1, y1, x2, y2 = seg
            cls = "seg seg-inf"
        else:
            x1, y1 = point.x - r * ux, point.y - r * uy
            x2, y2 = point.x + r * ux, point.y + r * uy
            cls = "seg"
        if i in highlighted:
            cls += " seg-hl"
        lines.append(
            f'  <line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(-y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(-y2)}"/>'
        )
    for point in solution.point_set:
        lines.append(
            f'  <circle class="germ" cx="{_fmt(point.x)}" cy="{_fmt(-point.y)}" r="0.12"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(solution: Solution, fp: Union[str, IO[str]], **kwargs) -> None:
    _write_text(fp, render_svg(solution, **kwargs))
