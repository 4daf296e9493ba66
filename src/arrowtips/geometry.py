"""Points and affine maps in a y-up plane measured in pt."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Point:
    """A position or direction vector with finite components."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point components must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class AffineTransform:
    """Affine map (x, y) -> (a*x + c*y + tx, b*x + d*y + ty)."""

    a: float
    b: float
    c: float
    d: float
    tx: float
    ty: float


def apply(t: AffineTransform, p: Point) -> Point:
    return Point(t.a * p.x + t.c * p.y + t.tx, t.b * p.x + t.d * p.y + t.ty)
