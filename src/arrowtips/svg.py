"""Deterministic SVG serialization of evaluated scenes.

Output is meant to be byte-identical for identical input on any platform:
fixed attribute order, fixed number formatting (four decimals, trailing zeros
trimmed, no negative zero), explicit newlines, UTF-8.  A document of more
than one scene formats each distinct number once.

Scene geometry is y-up; each cell wraps its paths in a ``scale(1,-1)`` group
so the file shows them the way the coordinates mean them.  Labels stay
outside the flipped group.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .pathmodel import (Action, Circle, ClosePath, CurveTo, LineCap, LineJoin, LineTo, MoveTo,
                        PathOp, Scene)


def format_number(value: float) -> str:
    """Four decimal places, trailing zeros trimmed; tiny values become 0."""
    if not value:
        return "0"
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    if text == "-0":
        return "0"
    return text


def _escape(text: str) -> str:
    """Character data for element content: ``&``, ``<`` and ``>`` escaped.

    The same as ``xml.sax.saxutils.escape`` with no entity map, whose import
    chain (``urllib.request``, ``http.client``, ``ssl``...) would dominate the
    start-up of a CLI call.
    """
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_PAINT = "#000"
_LABEL_OPEN = '<text x="4" y="8" font-family="monospace" font-size="6">'
_STROKE_STYLE = {(cap, join): f' stroke-linecap="{cap.value}" stroke-linejoin="{join.value}"'
                 for cap in LineCap for join in LineJoin}


class _Memo(dict):
    """``format_number`` of each key, computed once; ``__getitem__`` is the formatter."""

    def __missing__(self, value: float) -> str:
        text = self[value] = format_number(value)
        return text


def to_path_data(outline: Iterable[PathOp]) -> str:
    """SVG path data for a resolved outline.

    Circles become two half-circle arcs so everything stays one path element.
    """
    return _path_data(outline, format_number)


def _path_data(outline: Iterable[PathOp], fmt: Callable[[float], str]) -> str:
    parts: list[str] = []
    for op in outline:
        kind = type(op)
        if kind is CurveTo:
            parts.append(f"C {fmt(op.c1x)} {fmt(op.c1y)} {fmt(op.c2x)} {fmt(op.c2y)}"
                         f" {fmt(op.x)} {fmt(op.y)}")
        elif kind is LineTo:
            parts.append(f"L {fmt(op.x)} {fmt(op.y)}")
        elif kind is MoveTo:
            parts.append(f"M {fmt(op.x)} {fmt(op.y)}")
        elif kind is ClosePath:
            parts.append("Z")
        elif kind is Circle:
            r = fmt(op.radius)
            east = f"{fmt(op.cx + op.radius)} {fmt(op.cy)}"
            west = f"{fmt(op.cx - op.radius)} {fmt(op.cy)}"
            parts.append(f"M {east} A {r} {r} 0 0 1 {west} A {r} {r} 0 0 1 {east} Z")
        else:
            raise TypeError(f"not a resolved path op: {op!r}")
    return " ".join(parts)


def _element(drawable, fmt: Callable[[float], str]) -> str:
    d = _path_data(drawable.outline, fmt)
    if drawable.action is Action.FILL:
        return f'<path d="{d}" fill="{_PAINT}" stroke="none"/>'
    fill = _PAINT if drawable.action is Action.FILL_STROKE else "none"
    return (
        f'<path d="{d}" fill="{fill}" stroke="{_PAINT}"'
        f' stroke-width="{fmt(drawable.width)}"'
        f'{_STROKE_STYLE[drawable.cap, drawable.join]}/>'
    )


def scene_bounds(scene: Scene) -> tuple[float, float, float, float]:
    """Control-point bounding box, padded for stroke width, caps and joins.

    A bound, not a tight box: control points can overestimate curves.  A
    stroke is padded by 2 widths: caps and bevels reach w/2, and SVG draws a
    miter only while 1/sin(θ/2) ≤ ``stroke-miterlimit``, 4 by default (SVG
    1.1 §11.4), so no miter spike reaches past 4·w/2 = 2w.
    """
    xs: list[float] = []
    ys: list[float] = []
    for drawable in scene:
        pad = 0.0 if drawable.action is Action.FILL else 2.0 * drawable.width
        for op in drawable.outline:
            if isinstance(op, Circle):
                points = (
                    (op.cx - op.radius, op.cy - op.radius),
                    (op.cx + op.radius, op.cy + op.radius),
                )
            else:
                points = op.pairs
            for x, y in points:
                xs.append(x - pad)
                xs.append(x + pad)
                ys.append(y - pad)
                ys.append(y + pad)
    if not xs:
        raise ValueError("scene has no geometry")
    return (min(xs), min(ys), max(xs), max(ys))


def render_document(
    scenes: Sequence[tuple[str, Scene]],
    columns: int = 1,
    cell_width: float = 96.0,
    cell_height: float = 30.0,
    origin_x: float = 28.0,
    origin_y: float = 20.0,
) -> str:
    """One SVG document laying the labeled scenes out on a fixed grid.

    Cell (row, col) sits at (col * cell_width, row * cell_height); inside it
    the scene's world origin lands at (origin_x, origin_y) with +y up.  A
    document of more than one scene formats each distinct number once.
    """
    if columns < 1:
        raise ValueError(f"columns must be >= 1, got {columns}")
    fmt = _Memo().__getitem__ if len(scenes) > 1 else format_number
    rows = (len(scenes) + columns - 1) // columns
    width = fmt(columns * cell_width)
    height = fmt(max(rows, 1) * cell_height)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">',
    ]
    scene_open = f'<g transform="translate({fmt(origin_x)},{fmt(origin_y)}) scale(1,-1)">'
    for index, (label, scene) in enumerate(scenes):
        row, col = divmod(index, columns)
        cell_x = fmt(col * cell_width)
        cell_y = fmt(row * cell_height)
        lines.append(f'<g id="cell-r{row}-c{col}" transform="translate({cell_x},{cell_y})">')
        lines.append(f"{_LABEL_OPEN}{_escape(label)}</text>")
        lines.append(scene_open)
        for drawable in scene:
            lines.append(_element(drawable, fmt))
        lines.append("</g>")
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
