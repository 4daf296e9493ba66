"""Render programs: path ops, graphics-state ops, and sequential evaluation.

A program is a sequence of path ops (move, line, curve, close, circle), state
ops (line cap, line join, width-register factor, origin translation) and
actions (stroke, fill, fill and stroke).

Coordinates inside a program are stored as ``fixed + widths * W`` where W is a
live line-width register.  The register starts at the host stroke width and may
be rescaled mid-program, which changes what later register-relative coordinates
resolve to.  Evaluating a program yields drawables whose outlines contain plain
float coordinates only.

Evaluation, mirroring and rigid placement each rebuild a path op from its
coordinate pairs put through a point map (a circle's radius through a length
map).  ``evaluate`` does so for each op as its loop reaches it, so the map
reads the register and origin that the earlier ops left; the mirrors and
``transform_program`` map a whole program at once.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Union

from ._record import Record, setters
from .geometry import AffineTransform


class Scalar(Record):
    """A length ``fixed + widths * W`` against the line-width register W."""

    __slots__ = __match_args__ = ("fixed", "widths")

    def __init__(self, fixed: float, widths: float = 0.0) -> None:
        _set_scalar_fixed(self, fixed)
        _set_scalar_widths(self, widths)

    def resolve(self, register: float) -> float:
        return self.fixed + self.widths * register

    def __neg__(self) -> "Scalar":
        return Scalar(-self.fixed, -self.widths)


_set_scalar_fixed, _set_scalar_widths = setters(Scalar)


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


class _PathOp(Record):
    """A resolved path op."""

    __slots__ = ()


class _PointOp(_PathOp):
    """An op with a single point: the end of a move or of a line."""

    __slots__ = __match_args__ = ("x", "y")

    def __init__(self, x: Coord, y: Coord) -> None:
        _set_point_op_x(self, x)
        _set_point_op_y(self, y)

    @property
    def pairs(self) -> tuple[tuple[Coord, Coord], ...]:
        return ((self.x, self.y),)


_set_point_op_x, _set_point_op_y = setters(_PointOp)


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
        _set_curve_c1x(self, c1x)
        _set_curve_c1y(self, c1y)
        _set_curve_c2x(self, c2x)
        _set_curve_c2y(self, c2y)
        _set_curve_x(self, x)
        _set_curve_y(self, y)

    @property
    def pairs(self) -> tuple[tuple[Coord, Coord], ...]:
        return ((self.c1x, self.c1y), (self.c2x, self.c2y), (self.x, self.y))


_set_curve_c1x, _set_curve_c1y, _set_curve_c2x, _set_curve_c2y, _set_curve_x, _set_curve_y = (
    setters(CurveTo))


class ClosePath(_PathOp):
    __slots__ = ()
    pairs: tuple[tuple[Coord, Coord], ...] = ()


class Circle(_PathOp):
    """A standalone closed subpath: full circle at (cx, cy)."""

    __slots__ = __match_args__ = ("cx", "cy", "radius")


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
        _set_width_factor(self, factor)


(_set_width_factor,) = setters(SetLineWidthFactor)


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
        _set_program_ops(self, tuple(ops))


(_set_program_ops,) = setters(RenderProgram)


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
        _set_drawable_outline(self, outline)
        _set_drawable_width(self, width)
        _set_drawable_cap(self, cap)
        _set_drawable_join(self, join)
        _set_drawable_action(self, action)


(_set_drawable_outline, _set_drawable_width, _set_drawable_cap, _set_drawable_join,
 _set_drawable_action) = setters(Drawable)


Scene = tuple[Drawable, ...]


def _rebuilt(op: PathOp, point: PointMap, length: LengthMap) -> PathOp:
    """``op`` rebuilt from its pairs put through ``point``; a circle's centre
    goes through ``point`` and its radius through ``length``."""
    if isinstance(op, Circle):
        return Circle(*point(op.cx, op.cy), length(op.radius))
    return type(op)(*[v for pair in op.pairs for v in point(*pair)])


def _map(program: RenderProgram, point: PointMap, length: LengthMap,
         vector: PointMap) -> RenderProgram:
    """``program`` with its path ops rebuilt through ``point`` and ``length``.

    A translation is a displacement, so it goes through ``vector``.  State ops
    and actions pass through unchanged.
    """
    return RenderProgram(
        _rebuilt(op, point, length) if isinstance(op, _PathOp)
        else Translate(*vector(op.dx, op.dy)) if isinstance(op, Translate)
        else op
        for op in program.ops)


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

    def point(x: Coord, y: Coord) -> tuple[float, float]:
        return length(x) + offx, length(y) + offy

    for index, op in enumerate(program.ops):
        if isinstance(op, _PathOp):
            op = _rebuilt(op, point, length)
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
            offx += length(op.dx)
            offy += length(op.dy)
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
    return _map(program, _flip_x, _keep, _flip_x)


def mirror_y(program: RenderProgram) -> RenderProgram:
    """Reflect across the x axis (negate every y coordinate)."""
    return _map(program, _flip_y, _keep, _flip_y)


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
        x, y = vector(x, y)
        return Scalar(x.fixed + tx, x.widths), Scalar(y.fixed + ty, y.widths)

    return _map(program, point, _as_scalar, vector)
