"""Attaching tips to host paths.

A host path is a chain of line and cubic segments.  Attaching a tip to one
end shortens the host by the tip's right extent (measured along arc length)
and rigidly places the tip so its front coincides with the original endpoint,
pointing along the outward end tangent: ``attach`` returns the shortened host
and the placed drawables.

Cubic arc length is adaptive 16-point Gauss-Legendre quadrature of the speed
|B'(t)| (Gravesen's subdivision approach), with an error bound proven before
any rule call (Trefethen, SIAM Review 2008, Thm 4.5).  With tol = 1e-12 * L0,
L0 the rule over [0, 1] (floored at subnormal scales), the budget is:

- pins, at most tol / 4: a root of B'(t) = x' + i y' that close to the real
  axis is moved onto it, at its split (``_branch_points``);
- pieces, at most tol / 2: [0, 1] is split at the real part of every root
  in it, real parts a few ulps apart sharing one split, so a kink only ever
  sits on a piece boundary, and each piece [a, b]
  is bisected until the bound puts the rule on it within tol * (b - a) / 2
  (``_certified``);
- rounding: the rule's, about 16 ulp of a piece, and the roots', a few ulp
  of the largest coefficient of B'(t) per unit of t.

So a segment's length is within 3/4 tol of its arc length, plus rounding.
Only a piece that the depth cap of 50 bisections stops uncertified can break
that bound.  A cut measures the same pieces from its own end, in order, only
up to the one that holds the cut.  Inside it, Newton stops once the rule's
length to t is within tol of the wanted one, or returns a step unmeasured
once its miss is proven within tol / 2 (``_cubic_cut``).  The rule to t
keeps its piece's bound, since the Bernstein ellipse of a sub-interval lies
inside the piece's.  So ``shorten`` removes its amount to within 7/4 tol
plus rounding.  A segment's length is the same walk run to the end: a cut
that no piece holds.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator, Union

from . import catalog
from ._record import Record, setters
from ._tips import BOUND, PLACED
from .catalog import Side, TipId
from .geometry import AffineTransform, Point
from .pathmodel import (
    Action,
    CurveTo,
    Drawable,
    LineCap,
    LineJoin,
    LineTo,
    MoveTo,
    PathOp,
    Scene,
    evaluate,  # noqa: F401  not called here; perfbench/tests read attach.evaluate
)
from .specparser import ArrowSpec

# Enum members the per-arrow path compares against, read once: on 3.10 and
# 3.11 ``EnumType.__getattr__`` makes a read like ``Side.END`` cost 4x a
# global, and ``Enum.__hash__`` and ``.value`` run as Python on every version.
_START, _END = Side.START, Side.END
_BUTT, _MITER, _STROKE = LineCap.BUTT, LineJoin.MITER, Action.STROKE


class LineSegment(Record):
    __slots__ = __match_args__ = ("start", "end")

    def __init__(self, start: Point, end: Point) -> None:
        _set_line_start(self, start)
        _set_line_end(self, end)


_set_line_start, _set_line_end = setters(LineSegment)


class CubicSegment(Record):
    __slots__ = __match_args__ = ("start", "control1", "control2", "end")

    def __init__(self, start: Point, control1: Point, control2: Point, end: Point) -> None:
        _set_cubic_start(self, start)
        _set_cubic_control1(self, control1)
        _set_cubic_control2(self, control2)
        _set_cubic_end(self, end)


_set_cubic_start, _set_cubic_control1, _set_cubic_control2, _set_cubic_end = (
    setters(CubicSegment))


Segment = Union[LineSegment, CubicSegment]


class DegeneratePathError(ValueError):
    pass


class PathTooShortError(ValueError):
    pass


class HostPath(Record):
    """One open subpath; consecutive segments share endpoints exactly."""

    __slots__ = __match_args__ = ("segments",)

    def __init__(self, segments: tuple[Segment, ...]) -> None:
        segments = tuple(segments)
        _set_host_segments(self, segments)
        if not segments:
            raise ValueError("host path needs at least one segment")
        # Points are finite, so equal coordinates are exactly equal points.
        for i in range(len(segments) - 1):
            end, start = segments[i].end, segments[i + 1].start
            if end.x != start.x or end.y != start.y:
                raise ValueError(f"segments {i} and {i + 1} do not share an endpoint")
        origin = segments[0].start
        x, y = origin.x, origin.y
        for segment in segments:
            for p in _segment_points(segment):
                if p.x != x or p.y != y:
                    return
        raise DegeneratePathError("all path points coincide")


(_set_host_segments,) = setters(HostPath)


def _segment_points(segment: Segment) -> tuple[Point, ...]:
    if isinstance(segment, LineSegment):
        return (segment.start, segment.end)
    return (segment.start, segment.control1, segment.control2, segment.end)


# 16-point Gauss-Legendre quadrature on [-1, 1]: the (x, w) of
# numpy.polynomial.legendre.leggauss(16) with x > 0, printed to round-trip
# precision.  Each row stands for the node pair -x, +x, which share w.
_GL_POSITIVE = (
    (0.09501250983763744, 0.18945061045506864), (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265), (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407), (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456), (0.9894009349916499, 0.027152459411754176),
)

# The error budget, in units of tol = _PIECE_TOLERANCE * max(L0, _LENGTH_FLOOR):
# pinned roots may spend a quarter, and each piece [a, b] (b - a) / 2 of it.
_PIECE_TOLERANCE = 1e-12
_MAX_DEPTH = 50
# A cubic shorter than this (pt) gets the tolerance of one this long: at
# subnormal scales the rule's own rounding exceeds 1e-12 of the length.
_LENGTH_FLOOR = 1e-280
# Inversion stops once the length to t is within this share of L0, the rule over [0, 1].
_NEWTON_TOLERANCE = 1e-12
# The least s = (|z - a| + |z - b|) / (b - a) over the branch points is
# capped here, which only shrinks the ellipse: its rho = s + sqrt(s^2 - 1) is
# then at most 2^16, so no s^2, rho^-32 or semi-axis overflows or underflows.
_S_CAP = 2.0 ** 15


def _derivative(segment: CubicSegment) -> tuple[float, ...]:
    """(ax, bx, cx, ay, by, cy) with B'(t) = (ax t^2 + bx t + cx, ay t^2 + by t + cy)."""
    p0, p1, p2, p3 = _segment_points(segment)
    coefficients: tuple[float, ...] = ()
    for d0, d1, d2 in ((p1.x - p0.x, p2.x - p1.x, p3.x - p2.x),
                       (p1.y - p0.y, p2.y - p1.y, p3.y - p2.y)):
        coefficients += (3.0 * (d0 - 2.0 * d1 + d2), 6.0 * (d1 - d0), 3.0 * d0)
    return coefficients


def _speed(d: tuple[float, ...], t: float) -> float:
    ax, bx, cx, ay, by, cy = d
    return math.hypot((ax * t + bx) * t + cx, (ay * t + by) * t + cy)


def _rule(d: tuple[float, ...], lo: float, hi: float) -> float:
    """The 16-node rule for the arc length from ``lo`` to ``hi``."""
    ax, bx, cx, ay, by, cy = d
    hypot = math.hypot
    half = 0.5 * (hi - lo)
    mid = lo + half
    total = 0.0
    for x, weight in _GL_POSITIVE:
        t, u = mid - half * x, mid + half * x
        total += weight * (hypot((ax * t + bx) * t + cx, (ay * t + by) * t + cy)
                           + hypot((ax * u + bx) * u + cx, (ay * u + by) * u + cy))
    return half * total


def _branch_points(d: tuple[float, ...], whole: float) -> tuple[tuple[float, ...], tuple | None]:
    """``(splits, bound)``: where to split [0, 1], and what ``_certified`` reads.

    B'(t) = x' + i y' = A t^2 + B t + C = (A t - q)(t - z2), with the roots
    z1 = q / A and z2 = C / q from the stable formula.  The speed |B'(t)| is
    analytic but at the roots and their conjugates.  ``splits`` holds 0, 1
    and the real part of every root in (0, 1), but two real parts a few ulps
    apart, as a double root's are, share one split.  A root is pinned to its
    split (to its real part if it has none) while the pins' cost fits in
    tol / 4: moving z by |z - pin| moves the speed by at most that times |A|
    times the other factor's largest |t - z| on [0, 1], and so moves the rule
    and the integral by that each.  So a pinned root's kink only ever sits on
    a piece boundary.  ``bound`` is None when every root is pinned or there
    is none: the speed is then a polynomial of degree at most 2 on each
    piece, which the rule integrates exactly.  Otherwise it is ``(unpinned
    roots as (x, y), tol, |A|, A.real, A.imag, B.real, B.imag, C.real,
    C.imag)``, in units of the largest |coefficient| of d.  A root too far
    out to be finite is no branch point of any capped ellipse, and is dropped.
    """
    ax, bx, cx, ay, by, cy = d
    scale = max(abs(ax), abs(bx), abs(cx), abs(ay), abs(by), abs(cy))
    if not scale:
        return (0.0, 1.0), None
    a, b, c = (complex(ax / scale, ay / scale), complex(bx / scale, by / scale),
               complex(cx / scale, cy / scale))
    root = (b * b - 4.0 * a * c) ** 0.5
    if b.real * root.real + b.imag * root.imag < 0.0:
        root = -root
    q = -0.5 * (b + root)
    if not q:  # A t^2 or the constant C: no branch point
        return (0.0, 1.0), None
    tol = _PIECE_TOLERANCE * max(whole, _LENGTH_FLOOR) / scale
    budget = 0.25 * tol
    z2 = c / q
    # Each root with |A| times the other factor's largest |t - z| on [0, 1]
    roots = [(z2, max(abs(q), abs(a - q)))]
    if a:
        roots.append((q / a, abs(a) * max(abs(z2), abs(1.0 - z2))))
    splits = [0.0, 1.0]
    unpinned = ()
    for z, other in roots:
        if not abs(z) < math.inf:
            continue
        x, y = z.real, z.imag
        pin = x
        for split in splits:
            if abs(x - split) <= 4.0 * math.ulp(x):
                pin = split
        cost = 2.0 * abs(z - pin) * other
        if cost <= budget:
            budget -= cost
        else:
            unpinned += ((x, y),)
        if 0.0 < pin < 1.0 and pin not in splits:
            splits.append(pin)
    splits.sort()
    if not unpinned:
        return tuple(splits), None
    return tuple(splits), (unpinned, tol, abs(a), a.real, a.imag, b.real, b.imag, c.real, c.imag)


def _certified(lo: float, hi: float, bound: tuple) -> bool:
    """Whether the rule on [lo, hi] is proven within tol * (hi - lo) / 2 of the arc length.

    Trefethen (SIAM Review 2008, Thm 4.5): if the speed is analytic inside
    the Bernstein ellipse E_rho of [lo, hi] and at most M there, the 16-node
    rule misses by at most h (64/15) M rho^-32 / (rho^2 - 1), h = (hi - lo) / 2.
    rho is that of the ellipse through the nearest unpinned root, whose
    semi-major axis is s h.  About the midpoint m, B'(m + w) = B'(m) +
    B''(m) w + A w^2 exactly, and the ellipse lies in the disc |w| <= semi,
    so M = |B'(m)| + |B''(m)| semi + |A| semi^2.  It reads no root, and it is
    finite, since s is capped and no coefficient exceeds sqrt(2).  A width
    of 0 never reaches here.
    """
    unpinned, tol, lead, ax, ay, bx, by, cx, cy = bound
    hypot = math.hypot
    width = hi - lo
    s = _S_CAP
    for x, y in unpinned:
        r = (hypot(x - lo, y) + hypot(x - hi, y)) / width
        if r < s:
            s = r
    rho = s + math.sqrt(max(s * s - 1.0, 0.0))
    semi = 0.5 * s * width
    m = lo + 0.5 * width
    big = ((lead * semi + hypot(2.0 * ax * m + bx, 2.0 * ay * m + by)) * semi
           + hypot((ax * m + bx) * m + cx, (ay * m + by) * m + cy))
    return 4.3 * big * rho ** -32 <= tol * (rho * rho - 1.0)


def _pieces(d: tuple[float, ...], whole: float,
            backward: bool) -> Iterator[tuple[float, float, float]]:
    """The accepted pieces ``(lo, hi, length)`` of t, lazily, in order of t or from t = 1.

    ``whole`` is the rule over [0, 1], L0, which [0, 1] reuses.  Both orders
    walk the same tree of bisections, so they yield the same pieces; a piece
    costs a rule call only once it is accepted.
    """
    splits, bound = _branch_points(d, whole)
    step = -1 if backward else 1
    for lo, hi in list(zip(splits, splits[1:]))[::step]:
        stack = [(lo, hi, 0)]
        while stack:
            a, b, depth = stack.pop()
            if bound is None or _certified(a, b, bound):
                yield a, b, whole if b - a == 1.0 else _rule(d, a, b)
                continue
            mid = 0.5 * (a + b)
            if depth < _MAX_DEPTH and a < mid < b:
                halves = ((mid, b, depth + 1), (a, mid, depth + 1))
                stack += halves[::step]
            else:  # uncertified: the one way to break the bound
                yield a, b, _rule(d, a, b)


def segment_length(segment: Segment) -> float:
    """The arc length of ``segment``; ``ValueError`` if it overflows."""
    if isinstance(segment, LineSegment):
        length = math.hypot(segment.end.x - segment.start.x, segment.end.y - segment.start.y)
    else:
        length = _cubic_cut(segment, math.inf, False)[1]
    if not math.isfinite(length):
        raise ValueError("path length overflows")
    return length


def path_length(path: HostPath) -> float:
    """The arc length of ``path``; ``ValueError`` if it or a segment's length overflows."""
    length = sum(segment_length(seg) for seg in path.segments)
    if not math.isfinite(length):
        raise ValueError("path length overflows")
    return length


def _split_line(segment: LineSegment, t: float, backward: bool) -> LineSegment:
    """The part of ``segment`` before t if ``backward``, else the part after it."""
    start, end = segment.start, segment.end
    mid = Point(start.x + t * (end.x - start.x), start.y + t * (end.y - start.y))
    return LineSegment(start, mid) if backward else LineSegment(mid, end)


def _split_cubic(segment: CubicSegment, t: float, backward: bool) -> CubicSegment:
    """The part of ``segment`` before t if ``backward``, else the part after it (de Casteljau).

    Only the kept control points become ``Point``s.  Every dropped lerp feeds
    the shared point ``mid``, so one that overflows still raises there.
    """
    p0, p1, p2, p3 = segment.start, segment.control1, segment.control2, segment.end
    x01, y01 = p0.x + t * (p1.x - p0.x), p0.y + t * (p1.y - p0.y)
    x12, y12 = p1.x + t * (p2.x - p1.x), p1.y + t * (p2.y - p1.y)
    x23, y23 = p2.x + t * (p3.x - p2.x), p2.y + t * (p3.y - p2.y)
    x012, y012 = x01 + t * (x12 - x01), y01 + t * (y12 - y01)
    x123, y123 = x12 + t * (x23 - x12), y12 + t * (y23 - y12)
    mid = Point(x012 + t * (x123 - x012), y012 + t * (y123 - y012))
    if backward:
        return CubicSegment(p0, Point(x01, y01), Point(x012, y012), mid)
    return CubicSegment(mid, Point(x123, y123), Point(x23, y23), p3)


def _cubic_cut(segment: CubicSegment, remaining: float,
               backward: bool) -> tuple[float | None, float]:
    """``(t, length)``: t is ``remaining`` of arc length from the cut end (t = 1 if ``backward``).

    Pieces are measured from the cut end only up to the one that holds t;
    ``length`` is their sum, and t is None if no piece holds it.  Inside that
    piece Newton runs on f(t) = rule(piece's low end, t) - wanted, whose
    derivative is the speed; a step that leaves the bracket, or a zero speed,
    bisects.  It starts where the second-order expansion of the length from
    the piece's end nearest the cut reaches the rest, or from the linear guess
    if that start leaves the piece.  A Newton step from t to t - f / v is
    returned without measuring it once M2 (f / v)^2 <= tolerance: the speed
    moves by at most M2 = max |B''| per unit of t, so the length to the new t
    misses by at most M2 (f / v)^2 / 2 more than the rule's own error to t.
    """
    d = _derivative(segment)
    whole = _rule(d, 0.0, 1.0)
    if not math.isfinite(whole):
        raise ValueError("path length overflows")
    summed = 0.0
    for lo, hi, piece in _pieces(d, whole, backward):
        if remaining < summed + piece:
            break
        summed += piece
    else:
        return None, summed
    rest = remaining - summed
    wanted = piece - rest if backward else rest
    tolerance = _NEWTON_TOLERANCE * whole
    ax, bx, cx, ay, by, cy = d
    # From the end e: v D + v' D^2 / 2 = rest, v' the speed's slope away from e.
    e = hi if backward else lo
    dx, dy = (ax * e + bx) * e + cx, (ay * e + by) * e + cy
    ddx, ddy = 2.0 * ax * e + bx, 2.0 * ay * e + by
    v = math.hypot(dx, dy)
    t = math.nan
    if v > 0.0:
        slope = (dx * ddx + dy * ddy) / v
        radicand = v * v + 2.0 * rest * (-slope if backward else slope)
        if radicand >= 0.0:
            reach = 2.0 * rest / (v + math.sqrt(radicand))
            t = e - reach if backward else e + reach
    if not lo < t < hi:
        t = lo + (hi - lo) * min(wanted / piece, 1.0) if piece > 0.0 else 0.5 * (lo + hi)
    # M2: B'' is affine in t, so |B''| is largest on [0, 1] at an end.
    m2 = max(math.hypot(bx, by), math.hypot(2.0 * ax + bx, 2.0 * ay + by))
    a, b = lo, hi
    while True:
        f = _rule(d, lo, t) - wanted
        if abs(f) <= tolerance:
            return t, summed
        if f < 0.0:
            a = t
        else:
            b = t
        speed = _speed(d, t)
        move = f / speed if speed > 0.0 else math.nan
        step = t - move
        if not a < step < b:
            step = 0.5 * (a + b)
            if not a < step < b:
                return step, summed
        elif m2 * move * move <= tolerance:
            return step, summed
        t = step


def end_tangent(path: HostPath, side: Side) -> Point:
    """Unit outward tangent at the chosen end.

    Points along the path direction at the end side and backward at the start
    side.  A cubic whose endpoint derivative vanishes falls back to the
    direction toward the nearest distinct control point; a fully coincident
    segment defers to its inward neighbor.  An end span whose length overflows
    still gets its exact direction.
    """
    return Point(*_tangent(path, side))


def _tangent(path: HostPath, side: Side) -> tuple[float, float]:
    """``end_tangent``'s parts (ux, uy), with no ``Point`` built."""
    step = -1 if side is _END else 1
    for segment in path.segments[::step]:
        points = _segment_points(segment)[::step]
        tip = points[0]
        for candidate in points[1:]:
            dx = tip.x - candidate.x
            dy = tip.y - candidate.y
            length = math.hypot(dx, dy)
            if length == math.inf:
                # A quarter of each end is exact, and its span's length finite.
                dx = tip.x * 0.25 - candidate.x * 0.25
                dy = tip.y * 0.25 - candidate.y * 0.25
                length = math.hypot(dx, dy)
            elif 0.0 < length < sys.float_info.min:
                # A subnormal length has too few bits to divide by; scaling
                # both parts by a power of two is exact and gives it all 53.
                dx, dy = dx * 2.0 ** 1000, dy * 2.0 ** 1000
                length = math.hypot(dx, dy)
            if length > 0.0:
                return dx / length, dy / length
    raise DegeneratePathError("path has no direction: all points coincide")


def shorten(path: HostPath, side: Side, amount: float) -> HostPath:
    """Remove ``amount`` of arc length from the chosen end, measuring only the segments it reaches.

    ``PathTooShortError`` if ``amount`` is the whole length or more, or leaves
    a point; ``ValueError`` if the length of a segment it measures overflows.
    """
    if not amount >= 0:
        raise ValueError(f"shortening amount must be nonnegative, got {amount}")
    if amount == 0:
        return path
    segments = list(path.segments)
    remaining = amount
    backward = side is _END
    index = -1 if backward else 0
    while segments:
        segment = segments[index]
        if isinstance(segment, CubicSegment):
            t, length = _cubic_cut(segment, remaining, backward)
            split = _split_cubic
        else:
            length = segment_length(segment)
            t = None if remaining >= length else remaining / length
            if t is not None and backward:
                t = 1.0 - t
            split = _split_line
        if t is None:
            segments.pop(index)
            remaining -= length
            continue
        segments[index] = split(segment, t, backward)
        try:
            return HostPath(tuple(segments))
        except DegeneratePathError:
            raise PathTooShortError(
                f"cannot shorten by {amount}: the rest of the {path_length(path)} long path "
                "collapses to a point"
            ) from None
    raise PathTooShortError(
        f"cannot shorten by {amount}: path is only {path_length(path)} long"
    )


class Placement(Record):
    """Rigid placement of a tip at a path end."""

    __slots__ = __match_args__ = ("transform",)


def placement(path: HostPath, side: Side, right_extent: float) -> Placement:
    """Transform putting a tip's front exactly on the end of ``path``.

    Maps the tip's local front point (right_extent, 0) onto the path endpoint
    with +x along the outward tangent, so the front coincides with the
    original endpoint to machine precision whatever the host curvature.  On a
    straight host the tip origin then lands exactly on the shortened endpoint.
    """
    return Placement(AffineTransform(*_frame(path, side, right_extent)))


def _frame(path: HostPath, side: Side, right_extent: float) -> tuple[float, ...]:
    """``placement``'s entries (a, b, c, d, tx, ty), with no record built."""
    ux, uy = _tangent(path, side)
    end = path.segments[0].start if side is _START else path.segments[-1].end
    # The rotation is read off the unit tangent, so axis-aligned tangents give
    # exact entries without trigonometry.
    return ux, uy, -uy, ux, end.x - right_extent * ux, end.y - right_extent * uy


def attach(path: HostPath, side: Side, tip: TipId, w: float) -> tuple[HostPath, Scene]:
    """``path`` shortened for ``tip``, and the tip's drawables placed on its old end.

    The drawables are ``evaluate(transform_program(catalog.program(tip, w), t), w)``
    for t = ``placement(path, side, right).transform``, bit for bit, from the
    generated evaluator.  A too-short host's error names the tip; a drawing
    that overflows is an error (``catalog.check_drawing``), scanned only when
    w, |tx| or |ty| exceeds ``_tips.BOUND`` or is NaN: inside that bound,
    scripts/compile_tips.py proves that no coordinate overflows.
    """
    right = catalog.reach(tip, w)[1]
    try:
        shortened = shorten(path, side, right)
    except PathTooShortError as error:
        raise PathTooShortError(f"tip {tip.name!r}: {error}") from None
    frame = _frame(path, side, right)
    scene = PLACED[tip.definition.end_name](w, *frame)
    # a, b, c, d are the parts of a unit tangent, so only w and the shift can
    # leave the box in which no coordinate can overflow.
    if not (w <= BOUND and abs(frame[4]) <= BOUND and abs(frame[5]) <= BOUND):
        catalog.check_drawing(tip, w, scene, frame[4:])
    return shortened, scene


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
    catalog.check_width(w)
    shortened = path
    start_scene: Scene = ()
    end_scene: Scene = ()
    if spec.end is not None:
        shortened, end_scene = attach(shortened, _END, catalog.lookup(spec.end, _END), w)
    if spec.start is not None:
        shortened, start_scene = attach(shortened, _START, catalog.lookup(spec.start, _START), w)
    host = Drawable(path_outline(shortened), w, _BUTT, _MITER, _STROKE)
    return (host, *start_scene, *end_scene)
