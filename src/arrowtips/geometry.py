"""Points and affine maps in a y-up plane measured in pt."""

from __future__ import annotations

import math

from ._record import Record, setters


class Point(Record):
    """A position or direction vector with finite components."""

    __slots__ = __match_args__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point components must be finite, got ({x}, {y})")
        _set_point_x(self, x)
        _set_point_y(self, y)


_set_point_x, _set_point_y = setters(Point)


class AffineTransform(Record):
    """Affine map (x, y) -> (a*x + c*y + tx, b*x + d*y + ty)."""

    __slots__ = __match_args__ = ("a", "b", "c", "d", "tx", "ty")


def apply(t: AffineTransform, p: Point) -> Point:
    return Point(t.a * p.x + t.c * p.y + t.tx, t.b * p.x + t.d * p.y + t.ty)
