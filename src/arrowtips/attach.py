"""Attaching tips to host paths.

A host path is a chain of line and cubic segments.  Attaching a tip to one
end shortens the host by the tip's right extent (measured along arc length)
and rigidly places the tip program so its front coincides with the original
endpoint, pointing along the outward end tangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from . import catalog
from .catalog import Side, TipId
from .geometry import AffineTransform, Point, rotation_to
from .pathmodel import (
    Action,
    CurveTo,
    Drawable,
    LineCap,
    LineJoin,
    LineTo,
    MoveTo,
    PathOp,
    RenderProgram,
    Scene,
    evaluate,
    transform_program,
)
from .specparser import ArrowSpec


@dataclass(frozen=True)
class LineSegment:
    start: Point
    end: Point


@dataclass(frozen=True)
class CubicSegment:
    start: Point
    control1: Point
    control2: Point
    end: Point


Segment = Union[LineSegment, CubicSegment]


class DegeneratePathError(ValueError):
    pass


class PathTooShortError(ValueError):
    pass


@dataclass(frozen=True)
class HostPath:
    """One open subpath; consecutive segments share endpoints exactly."""

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("host path needs at least one segment")
        for i in range(len(self.segments) - 1):
            if self.segments[i].end != self.segments[i + 1].start:
                raise ValueError(f"segments {i} and {i + 1} do not share an endpoint")
        origin = self.segments[0].start
        if all(p == origin for seg in self.segments for p in _segment_points(seg)):
            raise DegeneratePathError("all path points coincide")


def _segment_points(segment: Segment) -> tuple[Point, ...]:
    if isinstance(segment, LineSegment):
        return (segment.start, segment.end)
    return (segment.start, segment.control1, segment.control2, segment.end)


# 16-point Gauss-Legendre quadrature on [0, 1]: the nodes and weights of
# numpy.polynomial.legendre.leggauss(16) mapped from [-1, 1], printed to
# round-trip precision.
_GL_NODES = (
    0.005299532504175031, 0.0277124884633837, 0.06718439880608412, 0.1222977958224985,
    0.19106187779867811, 0.2709916111713863, 0.35919822461037054, 0.4524937450811813,
    0.5475062549188188, 0.6408017753896295, 0.7290083888286136, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939159, 0.9722875115366163, 0.994700467495825,
)
_GL_WEIGHTS = (
    0.013576229705877088, 0.031126761969323728, 0.0475792558412463, 0.062314485627767036,
    0.07479799440828835, 0.08457825969750132, 0.09130170752246182, 0.09472530522753432,
    0.09472530522753432, 0.09130170752246182, 0.08457825969750132, 0.07479799440828835,
    0.062314485627767036, 0.0475792558412463, 0.031126761969323728, 0.013576229705877088,
)


def _cubic_point(segment: CubicSegment, t: float) -> Point:
    s = 1.0 - t
    b0 = s * s * s
    b1 = 3.0 * s * s * t
    b2 = 3.0 * s * t * t
    b3 = t * t * t
    return Point(
        b0 * segment.start.x + b1 * segment.control1.x + b2 * segment.control2.x + b3 * segment.end.x,
        b0 * segment.start.y + b1 * segment.control1.y + b2 * segment.control2.y + b3 * segment.end.y,
    )


def _cubic_speed(segment: CubicSegment, t: float) -> float:
    s = 1.0 - t
    dx = (3.0 * s * s * (segment.control1.x - segment.start.x)
          + 6.0 * s * t * (segment.control2.x - segment.control1.x)
          + 3.0 * t * t * (segment.end.x - segment.control2.x))
    dy = (3.0 * s * s * (segment.control1.y - segment.start.y)
          + 6.0 * s * t * (segment.control2.y - segment.control1.y)
          + 3.0 * t * t * (segment.end.y - segment.control2.y))
    return math.hypot(dx, dy)


def _cubic_arc_length(segment: CubicSegment, upto: float = 1.0) -> float:
    return upto * sum(
        weight * _cubic_speed(segment, upto * node)
        for node, weight in zip(_GL_NODES, _GL_WEIGHTS)
    )


def segment_length(segment: Segment) -> float:
    if isinstance(segment, LineSegment):
        return math.hypot(segment.end.x - segment.start.x, segment.end.y - segment.start.y)
    return _cubic_arc_length(segment)


def path_length(path: HostPath) -> float:
    return sum(segment_length(seg) for seg in path.segments)


def _split_line(segment: LineSegment, t: float) -> tuple[LineSegment, LineSegment]:
    mid = Point(
        segment.start.x + t * (segment.end.x - segment.start.x),
        segment.start.y + t * (segment.end.y - segment.start.y),
    )
    return LineSegment(segment.start, mid), LineSegment(mid, segment.end)


def _split_cubic(segment: CubicSegment, t: float) -> tuple[CubicSegment, CubicSegment]:
    def lerp(p: Point, q: Point) -> Point:
        return Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))

    p01 = lerp(segment.start, segment.control1)
    p12 = lerp(segment.control1, segment.control2)
    p23 = lerp(segment.control2, segment.end)
    p012 = lerp(p01, p12)
    p123 = lerp(p12, p23)
    mid = lerp(p012, p123)
    return (
        CubicSegment(segment.start, p01, p012, mid),
        CubicSegment(mid, p123, p23, segment.end),
    )


def _param_at_arc_length(segment: CubicSegment, target: float, tolerance: float = 1e-9) -> float:
    """t with arc_length(0..t) == target, by bisection on the monotone length."""
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        got = _cubic_arc_length(segment, mid)
        if abs(got - target) <= tolerance:
            return mid
        if got < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _endpoint(path: HostPath, side: Side) -> Point:
    return path.segments[0].start if side is Side.START else path.segments[-1].end


def end_tangent(path: HostPath, side: Side) -> Point:
    """Unit outward tangent at the chosen end.

    Points along the path direction at the end side and backward at the start
    side.  A cubic whose endpoint derivative vanishes falls back to the
    direction toward the nearest distinct control point; a fully coincident
    segment defers to its inward neighbor.
    """
    if side is Side.END:
        ordered = reversed(path.segments)
    else:
        ordered = iter(path.segments)
    for segment in ordered:
        points = _segment_points(segment)
        if side is Side.END:
            tip, rest = points[-1], points[-2::-1]
        else:
            tip, rest = points[0], points[1:]
        for candidate in rest:
            dx = tip.x - candidate.x
            dy = tip.y - candidate.y
            length = math.hypot(dx, dy)
            if length > 0.0:
                return Point(dx / length, dy / length)
    raise DegeneratePathError("path has no direction: all points coincide")


def shorten(path: HostPath, side: Side, amount: float) -> HostPath:
    """Remove ``amount`` of arc length from the chosen end."""
    if amount < 0:
        raise ValueError(f"shortening amount must be nonnegative, got {amount}")
    if amount == 0:
        return path
    segments = list(path.segments)
    remaining = amount
    while segments:
        index = -1 if side is Side.END else 0
        segment = segments[index]
        length = segment_length(segment)
        if remaining >= length:
            segments.pop(index)
            remaining -= length
            continue
        if isinstance(segment, LineSegment):
            t = remaining / length
            if side is Side.END:
                kept, _ = _split_line(segment, 1.0 - t)
            else:
                _, kept = _split_line(segment, t)
        else:
            if side is Side.END:
                t = _param_at_arc_length(segment, length - remaining)
                kept, _ = _split_cubic(segment, t)
            else:
                t = _param_at_arc_length(segment, remaining)
                _, kept = _split_cubic(segment, t)
        segments[index] = kept
        return HostPath(tuple(segments))
    raise PathTooShortError(
        f"cannot shorten by {amount}: path is only {path_length(path)} long"
    )


@dataclass(frozen=True)
class Placement:
    """Rigid placement of a tip at a path end."""

    anchor: Point
    direction: Point
    transform: AffineTransform


def placement(path: HostPath, side: Side, right_extent: float) -> Placement:
    """Transform putting a tip's front exactly on the end of ``path``.

    Maps the tip's local front point (right_extent, 0) onto the path endpoint
    with +x along the outward tangent, so the front coincides with the
    original endpoint to machine precision whatever the host curvature.  On a
    straight host the tip origin then lands exactly on the shortened endpoint.
    """
    direction = end_tangent(path, side)
    endpoint = _endpoint(path, side)
    rotation = rotation_to(direction)
    tx = endpoint.x - right_extent * direction.x
    ty = endpoint.y - right_extent * direction.y
    transform = AffineTransform(rotation.a, rotation.b, rotation.c, rotation.d, tx, ty)
    return Placement(Point(tx, ty), direction, transform)


def attach(path: HostPath, side: Side, tip: TipId, w: float) -> tuple[HostPath, RenderProgram]:
    """Shorten ``path`` for ``tip`` and return it with the placed program."""
    right = catalog.extents(tip, w).right
    length = path_length(path)
    if not math.isfinite(length):
        raise ValueError("path length overflows")
    if right >= length:
        raise PathTooShortError(
            f"tip {tip.name!r} needs {right} of arc length, path has {length}"
        )
    placed = transform_program(
        catalog.program(tip, w),
        placement(path, side, right).transform,
    )
    return shorten(path, side, right), placed


def path_outline(path: HostPath) -> tuple[PathOp, ...]:
    ops: list[PathOp] = [MoveTo(path.segments[0].start.x, path.segments[0].start.y)]
    for segment in path.segments:
        if isinstance(segment, LineSegment):
            ops.append(LineTo(segment.end.x, segment.end.y))
        else:
            ops.append(CurveTo(
                segment.control1.x, segment.control1.y,
                segment.control2.x, segment.control2.y,
                segment.end.x, segment.end.y,
            ))
    return tuple(ops)


def decorate(path: HostPath, spec: ArrowSpec, w: float) -> Scene:
    """Scene for ``path`` drawn at width ``w`` with the spec's tips attached.

    The end tip is attached first, then the start tip against the already
    shortened path.  Scene order: host, start tip drawables, end tip drawables.
    """
    if not w > 0:
        raise ValueError(f"stroke width must be positive, got {w}")
    shortened = path
    end_program: Optional[RenderProgram] = None
    start_program: Optional[RenderProgram] = None
    if spec.end is not None:
        tip = catalog.lookup(spec.end, Side.END)
        shortened, end_program = attach(shortened, Side.END, tip, w)
    if spec.start is not None:
        tip = catalog.lookup(spec.start, Side.START)
        shortened, start_program = attach(shortened, Side.START, tip, w)
    host = Drawable(
        outline=path_outline(shortened),
        width=w,
        cap=LineCap.BUTT,
        join=LineJoin.MITER,
        action=Action.STROKE,
    )
    scene: list[Drawable] = [host]
    if start_program is not None:
        scene.extend(evaluate(start_program, w))
    if end_program is not None:
        scene.extend(evaluate(end_program, w))
    return tuple(scene)
