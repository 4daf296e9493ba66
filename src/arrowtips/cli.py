"""Command line front end: ``_HELP`` gives its commands, options and exit codes."""

from __future__ import annotations

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


def _number(option: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"argument {option}: invalid float value: {text!r}") from None


def _cmd_gallery(options: dict[str, str]) -> int:
    widths = [_drawable_width(_number("--widths", part)) for part in options["--widths"].split(",")]
    host = HostPath((LineSegment(Point(0.0, 0.0), Point(REFERENCE_SEGMENT_LENGTH, 0.0)),))
    scenes = []
    for definition in catalog.registry():
        for width in widths:
            label = f"{definition.end_name} w={svg.format_number(width)}"
            scenes.append((label, decorate(host, ArrowSpec(end=definition.end_name), width)))
    _write_text(options["--out"], svg.render_document(scenes, columns=len(widths)))
    return 0


def _cmd_render(options: dict[str, str]) -> int:
    width = _number("--width", options["--width"])
    host = parse_path_literal(options["--path"])
    spec = parse(options["--spec"])
    scene = decorate(host, spec, _drawable_width(width))
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
    _write_text(options["--out"], svg.render_document([(format_spec(spec), scene)], columns=1,
                                                      **layout))
    return 0


def _cmd_extents(options: dict[str, str]) -> int:
    side = options["--side"]
    if side not in ("start", "end"):
        raise ValueError(f"argument --side: invalid choice: {side!r} (choose from 'start', 'end')")
    width = _number("--width", options["--width"])
    tip = catalog.lookup(options["--tip"], Side(side))
    result = catalog.extents(tip, width)
    print(f"left={_full_precision(result.left)} right={_full_precision(result.right)}")
    return 0


# Each command's handler and its options' default texts; None marks a required option.
_COMMANDS = {
    "gallery": (_cmd_gallery, {"--widths": ",".join(map(str, DEFAULT_WIDTHS)), "--out": None}),
    "render": (_cmd_render, {"--spec": None, "--path": None, "--width": "0.4", "--out": None}),
    "extents": (_cmd_extents, {"--tip": None, "--side": "end", "--width": None}),
}

_HELP = """\
usage: arrowtips gallery [--widths W,... ({gallery[1][--widths]})] --out FILE
usage: arrowtips render --spec SPEC --path PATH [--width W ({render[1][--width]})] --out FILE
usage: arrowtips extents --tip NAME [--side start|end ({extents[1][--side]})] --width W
Options are never abbreviated; write --option VALUE or --option=VALUE, even if VALUE starts with -.
Exit codes: 0 success, 2 usage or parse error, 3 I/O error.""".format_map(_COMMANDS)


def _cmd_help(options: dict[str, str]) -> int:
    print(_HELP)
    return 0


def _read_argv(argv: Sequence[str]):
    """The handler that ``argv`` names and the options it gives, defaults filled in."""
    if argv[:1] in (["-h"], ["--help"]):
        return _cmd_help, {}
    if not argv or argv[0] not in _COMMANDS:
        got = f", got {argv[0]!r}" if argv else ""
        raise ValueError(f"expected a command: {', '.join(_COMMANDS)}{got}")
    handler, defaults = _COMMANDS[argv[0]]
    options = dict(defaults)
    words = iter(argv[1:])
    for word in words:
        name, equals, value = word.partition("=")
        if name in ("-h", "--help"):
            return _cmd_help, {}
        if name not in defaults:
            raise ValueError(f"{argv[0]}: unknown option {name!r}")
        if not equals and (value := next(words, None)) is None:
            raise ValueError(f"argument {name}: expected one argument")
        options[name] = value
    missing = [name for name, value in options.items() if value is None]
    if missing:
        raise ValueError(f"{argv[0]}: the following arguments are required: {', '.join(missing)}")
    return handler, options


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        handler, options = _read_argv(list(sys.argv[1:] if argv is None else argv))
        return handler(options)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
