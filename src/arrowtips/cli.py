"""Command line front end.

Subcommands:
  gallery   every catalog tip on a reference 40pt segment, one row per tip,
            one column per stroke width
  render    one arrow spec applied to a path literal
  extents   print a tip's horizontal extents at a given width

Exit codes: 0 success, 2 usage or parse error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import catalog, svg
from .attach import HostPath, LineSegment, CubicSegment, decorate
from .catalog import Side
from .geometry import Point
from .specparser import ArrowSpec, format_spec, parse

REFERENCE_SEGMENT_LENGTH = 40.0
DEFAULT_WIDTHS = (0.4, 0.8, 1.6)


def parse_path_literal(text: str) -> HostPath:
    """Path literal ``M x,y`` followed by ``L x,y`` / ``C x1,y1 x2,y2 x,y``."""

    tokens = text.split()

    def take_pair(index: int) -> tuple[Point, int]:
        if index >= len(tokens):
            raise ValueError(f"path {text!r} ends where a coordinate pair was expected")
        token = tokens[index]
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad coordinate pair {token!r}")
        try:
            return Point(float(parts[0]), float(parts[1])), index + 1
        except ValueError as exc:
            raise ValueError(f"bad coordinate pair {token!r}") from exc

    if not tokens or tokens[0] != "M":
        raise ValueError(f"path {text!r} must start with 'M x,y'")
    current, index = take_pair(1)
    segments: list["LineSegment | CubicSegment"] = []
    while index < len(tokens):
        command = tokens[index]
        index += 1
        if command == "L":
            end, index = take_pair(index)
            segments.append(LineSegment(current, end))
        elif command == "C":
            c1, index = take_pair(index)
            c2, index = take_pair(index)
            end, index = take_pair(index)
            segments.append(CubicSegment(current, c1, c2, end))
        elif command == "M":
            raise ValueError("path may contain only one subpath")
        else:
            raise ValueError(f"unknown path command {command!r}")
        current = end
    if not segments:
        raise ValueError(f"path {text!r} needs at least one segment")
    return HostPath(tuple(segments))


def _drawable_width(value: float) -> float:
    """``value`` if it is a stroke width the SVG output can show."""
    catalog.check_width(value)
    if svg.format_number(value) == "0":
        raise ValueError(f"stroke width {value} would be written as 0")
    return value


def _write_text(path: str, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(content)


def _full_precision(value: float) -> str:
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def _gallery_width(part: str) -> float:
    """One comma-separated part of ``--widths``, as a drawable width."""
    try:
        value = float(part)
    except ValueError:
        raise ValueError(f"argument --widths: invalid float value: {part!r}") from None
    return _drawable_width(value)


def _cmd_gallery(args: argparse.Namespace) -> int:
    widths = tuple(map(_gallery_width, args.widths.split(",")))
    host = HostPath((LineSegment(Point(0.0, 0.0), Point(REFERENCE_SEGMENT_LENGTH, 0.0)),))
    scenes = []
    for definition in catalog.registry():
        for width in widths:
            label = f"{definition.end_name} w={svg.format_number(width)}"
            scenes.append((label, decorate(host, ArrowSpec(end=definition.end_name), width)))
    _write_text(args.out, svg.render_document(scenes, columns=len(widths)))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    host = parse_path_literal(args.path)
    spec = parse(args.spec)
    scene = decorate(host, spec, _drawable_width(args.width))
    min_x, min_y, max_x, max_y = svg.scene_bounds(scene)
    pad = 4.0
    label_zone = 12.0
    layout = {
        "cell_width": (max_x - min_x) + 2 * pad,
        "cell_height": (max_y - min_y) + 2 * pad + label_zone,
        "origin_x": pad - min_x,
        "origin_y": label_zone + pad + max_y,
    }
    if not all(math.isfinite(value) for value in layout.values()):
        raise ValueError("the drawing is too large to lay out: its size overflows")
    _write_text(args.out, svg.render_document([(format_spec(spec), scene)], columns=1, **layout))
    return 0


def _cmd_extents(args: argparse.Namespace) -> int:
    side = Side.START if args.side == "start" else Side.END
    tip = catalog.lookup(args.tip, side)
    result = catalog.extents(tip, args.width)
    print(f"left={_full_precision(result.left)} right={_full_precision(result.right)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrowtips",
        description="Stroke-width-parameterized arrow tips rendered to SVG.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    gallery = subparsers.add_parser("gallery", help="render the whole catalog")
    gallery.add_argument("--widths", default=",".join(str(w) for w in DEFAULT_WIDTHS),
                         help="comma-separated stroke widths (default %(default)s)")
    gallery.add_argument("--out", required=True, help="output SVG file")
    gallery.set_defaults(handler=_cmd_gallery)

    render = subparsers.add_parser("render", help="render one arrow spec on a path")
    render.add_argument("--spec", required=True, help="arrow spec, e.g. \"[-latex'\"")
    render.add_argument("--path", required=True,
                        help="path literal, e.g. \"M 0,0 C 30,40 70,40 100,0\"")
    render.add_argument("--width", type=float, default=0.4, help="stroke width (default 0.4)")
    render.add_argument("--out", required=True, help="output SVG file")
    render.set_defaults(handler=_cmd_render)

    extents = subparsers.add_parser("extents", help="print a tip's extents")
    extents.add_argument("--tip", required=True, help="tip name")
    extents.add_argument("--side", choices=("start", "end"), default="end")
    extents.add_argument("--width", type=float, required=True, help="stroke width")
    extents.set_defaults(handler=_cmd_extents)
    return parser


def _attach_spec_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with each ``--spec VALUE`` written as ``--spec=VALUE``.

    argparse reads a word that starts with ``-`` and has no space as an
    option, so the end-only spec ``-latex'`` would otherwise not reach
    ``--spec``.  The word after ``--spec`` is always its value.
    """
    out: list[str] = []
    words = iter(argv)
    for word in words:
        value = next(words, None) if word == "--spec" else None
        out.append(word if value is None else f"{word}={value}")
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_attach_spec_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    for name, value in vars(args).items():
        if isinstance(value, list):  # argparse before 3.13 reads --OPT=-- as []
            print(f"error: argument --{name}: expected a value, got '--'", file=sys.stderr)
            return 2
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
