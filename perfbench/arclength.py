"""Reference arc length of line and cubic Bezier segments.

Independent of ``arrowtips.attach``: its own Gauss-Legendre nodes (computed
here by Newton's method on the Legendre recurrence, no numpy), its own
derivative polynomial, and adaptive subdivision instead of a fixed rule.

Method.  The parameter interval is first split at every root in (0, 1) of
x'(t) and y'(t), so an exact cusp (where both vanish) only ever sits at a
piece boundary and the speed is smooth inside every piece.  Each piece is
then bisected until the 10-node rule on it agrees with the sum of the rule
on its two halves within ``PIECE_TOLERANCE * (b - a)`` (a share of the
parameter interval), and the finer value is kept.

Accuracy.  The estimated error is the sum of those coarse-versus-fine
differences over the accepted pieces, so it is at most ``PIECE_TOLERANCE``
(1e-12 pt per unit of parameter) plus floating-point rounding of the sum,
which is below 1e-12 pt for segments up to a few hundred pt.  The benchmark's
tests check the result against closed forms (a line, collinear cubics with
and without reversals) to 1e-10 pt, so the stated bound for the shortening
check is 1e-10 pt, well below the 1e-9 pt it needs.
"""

from __future__ import annotations

import math

Point = tuple[float, float]

NODE_COUNT = 10
PIECE_TOLERANCE = 1e-12
MAX_DEPTH = 60
STATED_ERROR_PT = 1e-10


def gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    nodes: list[float] = []
    weights: list[float] = []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, n + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            dp = n * (x * p - p_prev) / (x * x - 1.0)
            step = p / dp
            x -= step
            if abs(step) < 1e-16:
                break
        p_prev, p = 1.0, x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        nodes.append(0.5 * (1.0 - x))
        weights.append(1.0 / ((1.0 - x * x) * dp * dp))
    return tuple(nodes), tuple(weights)


_NODES, _WEIGHTS = gauss_legendre(NODE_COUNT)


def line_length(p0: Point, p1: Point) -> float:
    return math.hypot(p1[0] - p0[0], p1[1] - p0[1])


def _derivative(p0: Point, p1: Point, p2: Point, p3: Point):
    """Coefficients (a, b, c) per axis of B'(t) = a t^2 + b t + c."""
    coefficients = []
    for axis in (0, 1):
        d0 = p1[axis] - p0[axis]
        d1 = p2[axis] - p1[axis]
        d2 = p3[axis] - p2[axis]
        coefficients.append((3.0 * (d0 - 2.0 * d1 + d2), 6.0 * (d1 - d0), 3.0 * d0))
    return coefficients


def _quadratic_roots_in_unit(a: float, b: float, c: float) -> list[float]:
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        return []
    a, b, c = a / scale, b / scale, c / scale
    if abs(a) < 1e-14:
        roots = [-c / b] if abs(b) > 1e-14 else []
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            return []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a] + ([c / q] if q != 0.0 else [])
    return [t for t in roots if 0.0 < t < 1.0]


def cubic_length_with_error(p0: Point, p1: Point, p2: Point, p3: Point) -> tuple[float, float]:
    """(arc length, estimated absolute error) of the cubic with these points."""
    (ax, bx, cx), (ay, by, cy) = _derivative(p0, p1, p2, p3)

    def rule(lo: float, hi: float) -> float:
        h = hi - lo
        total = 0.0
        for node, weight in zip(_NODES, _WEIGHTS):
            t = lo + h * node
            total += weight * math.hypot((ax * t + bx) * t + cx, (ay * t + by) * t + cy)
        return h * total

    breaks = sorted({0.0, 1.0, *_quadratic_roots_in_unit(ax, bx, cx),
                     *_quadratic_roots_in_unit(ay, by, cy)})
    length = 0.0
    error = 0.0
    for lo, hi in zip(breaks, breaks[1:]):
        stack = [(lo, hi, rule(lo, hi), 0)]
        while stack:
            a, b, coarse, depth = stack.pop()
            mid = 0.5 * (a + b)
            left, right = rule(a, mid), rule(mid, b)
            fine = left + right
            miss = abs(fine - coarse)
            if miss <= PIECE_TOLERANCE * (b - a) or depth >= MAX_DEPTH:
                length += fine
                error += miss
            else:
                stack.append((a, mid, left, depth + 1))
                stack.append((mid, b, right, depth + 1))
    return length, error


def segment_length(segment) -> float:
    """Length of ``("L", p0, p1)`` or ``("C", p0, p1, p2, p3)``."""
    if segment[0] == "L":
        return line_length(segment[1], segment[2])
    return cubic_length_with_error(*segment[1:])[0]
