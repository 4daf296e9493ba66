"""Render programs: path ops, graphics-state ops, and sequential evaluation.

A program is a sequence of path ops (move, line, curve, close, circle), state
ops (line cap, line join, width-register factor, origin translation) and
actions (stroke, fill, fill and stroke).

Coordinates inside a program are stored as ``fixed + widths * W`` where W is a
live line-width register.  The register starts at the host stroke width and may
be rescaled mid-program, which changes what later register-relative coordinates
resolve to.  Evaluating a program yields drawables whose outlines contain plain
float coordinates only.

Each path op rebuilds itself from its coordinate pairs put through a point
map.  Evaluation, mirroring and rigid placement are three choices of that map,
applied by one mapper.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator, Union

from ._record import Record, store
from .geometry import AffineTransform


class Scalar(Record):
    """A length ``fixed + widths * W`` against the line-width register W."""

    __slots__ = __match_args__ = ("fixed", "widths")

    def __init__(self, fixed: float, widths: float = 0.0) -> None:
        store(self, "fixed", fixed)
        store(self, "widths", widths)

    def resolve(self, register: float) -> float:
        return self.fixed + self.widths * register

    def __neg__(self) -> "Scalar":
        return Scalar(-self.fixed, -self.widths)


Coord = Union[float, Scalar]
# How a coordinate map sees a path op: each (x, y) pair goes through a point
# map, and a circle's radius through a length map.
PointMap = Callable[[Coord, Coord], tuple[Coord, Coord]]
LengthMap = Callable[[Coord], Coord]


def wl(factor: float) -> Scalar:
    """A multiple of the live line-width register."""
    return Scalar(0.0, factor)


def _as_scalar(value: Coord) -> Scalar:
    return value if isinstance(value, Scalar) else Scalar(value)


class LineCap(Enum):
    BUTT = "butt"
    ROUND = "round"


class LineJoin(Enum):
    MITER = "miter"
    ROUND = "round"


class Action(Enum):
    """Terminal op: emit the accumulated path with the current state."""

    STROKE = "stroke"
    FILL = "fill"
    FILL_STROKE = "fillstroke"


class _Fields:
    """``__dataclass_fields__``, for ``dataclasses.fields``: on first read, the
    field table of the op's frozen dataclass form, then cached on its class."""

    def __get__(self, op: object, cls: type) -> dict:
        from dataclasses import make_dataclass

        cls.__dataclass_fields__ = make_dataclass(cls.__name__, cls.__match_args__,
                                                  frozen=True).__dataclass_fields__
        return cls.__dataclass_fields__


class _PathOp(Record):
    """A resolved path op."""

    __slots__ = ()
    __dataclass_fields__ = _Fields()


class _PointOp(_PathOp):
    """An op with a single point: the end of a move or of a line."""

    __slots__ = __match_args__ = ("x", "y")

    def __init__(self, x: Coord, y: Coord) -> None:
        store(self, "x", x)
        store(self, "y", y)

    @property
    def pairs(self) -> tuple[tuple[Coord, Coord], ...]:
        return ((self.x, self.y),)

    def map(self, point: PointMap, length: LengthMap) -> "_PointOp":
        return type(self)(*point(self.x, self.y))


class MoveTo(_PointOp):
    """Start a new subpath at (x, y)."""

    __slots__ = ()


class LineTo(_PointOp):
    """Straight segment from the current point to (x, y)."""

    __slots__ = ()


class CurveTo(_PathOp):
    __slots__ = __match_args__ = ("c1x", "c1y", "c2x", "c2y", "x", "y")

    def __init__(self, c1x: Coord, c1y: Coord, c2x: Coord, c2y: Coord, x: Coord,
                 y: Coord) -> None:
        store(self, "c1x", c1x)
        store(self, "c1y", c1y)
        store(self, "c2x", c2x)
        store(self, "c2y", c2y)
        store(self, "x", x)
        store(self, "y", y)

    @property
    def pairs(self) -> tuple[tuple[Coord, Coord], ...]:
        return ((self.c1x, self.c1y), (self.c2x, self.c2y), (self.x, self.y))

    def map(self, point: PointMap, length: LengthMap) -> "CurveTo":
        return CurveTo(*point(self.c1x, self.c1y), *point(self.c2x, self.c2y),
                       *point(self.x, self.y))


class ClosePath(_PathOp):
    __slots__ = ()
    pairs: tuple[tuple[Coord, Coord], ...] = ()

    def map(self, point: PointMap, length: LengthMap) -> "ClosePath":
        return self


class Circle(_PathOp):
    """A standalone closed subpath: full circle at (cx, cy)."""

    __slots__ = __match_args__ = ("cx", "cy", "radius")

    def __init__(self, cx: Coord, cy: Coord, radius: Coord) -> None:
        store(self, "cx", cx)
        store(self, "cy", cy)
        store(self, "radius", radius)

    def map(self, point: PointMap, length: LengthMap) -> "Circle":
        return Circle(*point(self.cx, self.cy), length(self.radius))


class SetCap(Record):
    __slots__ = __match_args__ = ("cap",)


class SetJoin(Record):
    __slots__ = __match_args__ = ("join",)


class SetLineWidthFactor(Record):
    """Multiply the line-width register by ``factor``, affecting later ops."""

    __slots__ = __match_args__ = ("factor",)

    def __init__(self, factor: float) -> None:
        if not factor > 0:
            raise ValueError(f"width factor must be positive, got {factor}")
        store(self, "factor", factor)


class Translate(Record):
    """Shift the origin of every later path op by (dx, dy)."""

    __slots__ = __match_args__ = ("dx", "dy")


PathOp = Union[MoveTo, LineTo, CurveTo, ClosePath, Circle]
_OP_NAMES = {LineTo: "line", CurveTo: "curve", ClosePath: "close"}
StateOp = Union[SetCap, SetJoin, SetLineWidthFactor, Translate]
Op = Union[PathOp, StateOp, Action]


def move_to(x: Coord, y: Coord) -> MoveTo:
    return MoveTo(_as_scalar(x), _as_scalar(y))


def line_to(x: Coord, y: Coord) -> LineTo:
    return LineTo(_as_scalar(x), _as_scalar(y))


def curve_to(c1x: Coord, c1y: Coord, c2x: Coord, c2y: Coord, x: Coord, y: Coord) -> CurveTo:
    return CurveTo(
        _as_scalar(c1x), _as_scalar(c1y),
        _as_scalar(c2x), _as_scalar(c2y),
        _as_scalar(x), _as_scalar(y),
    )


def circle(cx: Coord, cy: Coord, radius: Coord) -> Circle:
    return Circle(_as_scalar(cx), _as_scalar(cy), _as_scalar(radius))


def translate(dx: Coord, dy: Coord = 0.0) -> Translate:
    return Translate(_as_scalar(dx), _as_scalar(dy))


class RenderProgram(Record):
    __slots__ = __match_args__ = ("ops",)

    def __init__(self, ops: Iterable[Op]) -> None:
        store(self, "ops", tuple(ops))


class ProgramError(ValueError):
    """Structurally invalid program, reported with the offending op index."""

    def __init__(self, index: "int | None", message: str) -> None:
        self.index = index
        prefix = f"op {index}: " if index is not None else ""
        super().__init__(prefix + message)


class Drawable(Record):
    """One emitted path with the graphics state snapshotted at its action."""

    __slots__ = __match_args__ = ("outline", "width", "cap", "join", "action")

    def __init__(self, outline: tuple[PathOp, ...], width: float, cap: LineCap,
                 join: LineJoin, action: Action) -> None:
        store(self, "outline", outline)
        store(self, "width", width)
        store(self, "cap", cap)
        store(self, "join", join)
        store(self, "action", action)


Scene = tuple[Drawable, ...]


def _map(ops: Iterable[Op], point: PointMap, length: LengthMap,
         vector: PointMap) -> Iterator[Op]:
    """Each op with its coordinates mapped, produced only when asked for.

    Path-op points go through ``point`` and circle radii through ``length``.
    A translation is a displacement, so it goes through ``vector``.  State ops
    and actions pass through unchanged.
    """
    for op in ops:
        if isinstance(op, _PathOp):
            yield op.map(point, length)
        elif isinstance(op, Translate):
            yield Translate(*vector(op.dx, op.dy))
        else:
            yield op


def evaluate(program: RenderProgram, host_width: float) -> Scene:
    """Run ``program`` with the register initialized to ``host_width``.

    Initial state: register = host_width, butt cap, miter join.  Each action
    snapshots the state, emits the accumulated path, and clears the path;
    state persists across actions.
    """
    if not host_width > 0:
        raise ValueError(f"stroke width must be positive, got {host_width}")
    register = host_width
    cap = LineCap.BUTT
    join = LineJoin.MITER
    offx = 0.0
    offy = 0.0
    outline: list[PathOp] = []
    pending_since: "int | None" = None
    subpath_open = False
    drawables: list[Drawable] = []

    def length(v: Coord) -> float:
        return v.resolve(register) if isinstance(v, Scalar) else float(v)

    def vector(x: Coord, y: Coord) -> tuple[float, float]:
        return length(x), length(y)

    def point(x: Coord, y: Coord) -> tuple[float, float]:
        return length(x) + offx, length(y) + offy

    # _map resolves each op only when the loop reaches it, so the maps read
    # the register and origin as the ops before it left them.
    for index, op in enumerate(_map(program.ops, point, length, vector)):
        if isinstance(op, _PathOp):
            if pending_since is None:
                pending_since = index
            if isinstance(op, MoveTo):
                subpath_open = True
            elif isinstance(op, Circle):
                if not op.radius > 0:
                    raise ProgramError(index, f"circle radius must be positive, got {op.radius}")
            elif not subpath_open:
                raise ProgramError(index, f"{_OP_NAMES[type(op)]} op without a current subpath")
            elif isinstance(op, ClosePath):
                subpath_open = False
            outline.append(op)
        elif isinstance(op, SetCap):
            cap = op.cap
        elif isinstance(op, SetJoin):
            join = op.join
        elif isinstance(op, SetLineWidthFactor):
            register *= op.factor
        elif isinstance(op, Translate):
            offx += op.dx
            offy += op.dy
        elif isinstance(op, Action):
            if not outline:
                raise ProgramError(index, "action with no path to draw")
            drawables.append(Drawable(tuple(outline), register, cap, join, op))
            outline.clear()
            pending_since = None
            subpath_open = False
        else:
            raise ProgramError(index, f"unknown op {op!r}")

    if outline:
        raise ProgramError(pending_since, "path ops after the final action are never drawn")
    if not drawables:
        raise ProgramError(None, "program has no drawing action")
    return tuple(drawables)


def _keep(v: Coord) -> Coord:
    return v


def _flip_x(x: Coord, y: Coord) -> tuple[Coord, Coord]:
    return -x, y


def _flip_y(x: Coord, y: Coord) -> tuple[Coord, Coord]:
    return x, -y


def mirror_x(program: RenderProgram) -> RenderProgram:
    """Reflect across the y axis (negate every x coordinate).

    Translation displacements flip too, so later geometry stays mirrored.
    """
    return RenderProgram(tuple(_map(program.ops, _flip_x, _keep, _flip_x)))


def mirror_y(program: RenderProgram) -> RenderProgram:
    """Reflect across the x axis (negate every y coordinate)."""
    return RenderProgram(tuple(_map(program.ops, _flip_y, _keep, _flip_y)))


def transform_program(program: RenderProgram, t: AffineTransform) -> RenderProgram:
    """Apply a rigid transform to every path op; radii are kept unchanged.

    Translation displacements map through the linear part only.  Intended for
    rotate+translate placements, where circles stay circles.
    """
    a, b, c, d, tx, ty = t.a, t.b, t.c, t.d, t.tx, t.ty

    def vector(x: Coord, y: Coord) -> tuple[Scalar, Scalar]:
        x, y = _as_scalar(x), _as_scalar(y)
        return (
            Scalar(a * x.fixed + c * y.fixed, a * x.widths + c * y.widths),
            Scalar(b * x.fixed + d * y.fixed, b * x.widths + d * y.widths),
        )

    def point(x: Coord, y: Coord) -> tuple[Scalar, Scalar]:
        x, y = _as_scalar(x), _as_scalar(y)
        return (
            Scalar(a * x.fixed + c * y.fixed + tx, a * x.widths + c * y.widths),
            Scalar(b * x.fixed + d * y.fixed + ty, b * x.widths + d * y.widths),
        )

    return RenderProgram(tuple(_map(program.ops, point, _as_scalar, vector)))
