"""``segment_length`` and ``shorten`` against an arc length computed another way.

The reference shares nothing with ``arrowtips.attach`` but the cubics: its
own 20 Gauss-Legendre nodes (Newton's method on the Legendre recurrence),
its own derivative and roots (``cmath``), and a graded mesh in place of a
bound or an estimate.  It splits [0, 1] at the real part of every root of
B'(t) = x' + i y' in (0, 1), where the speed has its kink or its sharpest
bend, and bisects each piece until it is no wider than its distance to the
nearest root, so that every piece's Bernstein ellipse with rho above 4
holds no root.  Its error is then rounding, which ``math.fsum`` keeps to
the pieces' own.  Checked once against ``mpmath.quad`` at 40 digits, split
at the same points, on these cubics and on what a cut of 30% of the length
from either end keeps of them (1500 lengths), it was within 1.1e-15 of the
length; ``REFERENCE_ERROR`` states that with room to spare.  The tests read
no mpmath.

The cubics are seeded, so every run checks the same ones: near-cusp cubics
whose x' and y' roots are 1e-10 to 1e-2 apart, looping cubics, and cubics
with four random points.
"""

import cmath
import math
import random

import pytest

from arrowtips.attach import (
    CubicSegment,
    HostPath,
    PathTooShortError,
    _derivative,
    _rule,
    segment_length,
    shorten,
)
from arrowtips.catalog import Side
from arrowtips.geometry import Point

NODE_COUNT = 20
MAX_DEPTH = 60
# The reference's own error, as a share of the length
REFERENCE_ERROR = 5e-15


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            low, p = 1.0, x
            for k in range(2, n + 1):
                low, p = p, ((2 * k - 1) * x * p - (k - 1) * low) / k
            slope = n * (x * p - low) / (x * x - 1.0)
            x -= p / slope
            if abs(p / slope) < 1e-17:
                break
        low, p = 1.0, x
        for k in range(2, n + 1):
            low, p = p, ((2 * k - 1) * x * p - (k - 1) * low) / k
        slope = n * (x * p - low) / (x * x - 1.0)
        nodes.append(0.5 * (1.0 - x))
        weights.append(1.0 / ((1.0 - x * x) * slope * slope))
    return tuple(zip(nodes, weights))


RULE = _gauss_legendre(NODE_COUNT)


def reference_length(points):
    """The arc length of the cubic with these four (x, y) points."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = points
    # B'(t) = 3 [(1 - t)^2 (P1 - P0) + 2 t (1 - t) (P2 - P1) + t^2 (P3 - P2)]
    e0, e1, e2 = complex(x1 - x0, y1 - y0), complex(x2 - x1, y2 - y1), complex(x3 - x2, y3 - y2)
    a, b, c = 3.0 * (e0 - 2.0 * e1 + e2), 6.0 * (e1 - e0), 3.0 * e0

    def rule(lo, hi):
        width = hi - lo
        total = 0.0
        for node, weight in RULE:
            t = lo + width * node
            total += weight * abs((a * t + b) * t + c)
        return width * total

    def gap(lo, hi):
        """The distance from [lo, hi] to the nearest root."""
        return min((abs(z.imag) if lo <= z.real <= hi else min(abs(z - lo), abs(z - hi))
                    for z in roots), default=math.inf)

    roots = []
    if a:
        disc = cmath.sqrt(b * b - 4.0 * a * c)
        roots = [(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)]
    elif b:
        roots = [-c / b]
    splits = sorted({0.0, 1.0, *(z.real for z in roots if 0.0 < z.real < 1.0)})
    pieces = []
    for lo, hi in zip(splits, splits[1:]):
        stack = [(lo, hi, 0)]
        while stack:
            lo, hi, depth = stack.pop()
            if hi - lo <= gap(lo, hi) or depth >= MAX_DEPTH:
                pieces.append(rule(lo, hi))
            else:
                mid = 0.5 * (lo + hi)
                stack += [(lo, mid, depth + 1), (mid, hi, depth + 1)]
    return math.fsum(pieces)


def _from_derivative(rng, x_roots, y_roots):
    """Four points of a cubic whose x' and y' vanish at these roots."""
    coefficients = []
    for r, s in (x_roots, y_roots):
        k = rng.choice((-1.0, 1.0)) * rng.uniform(20.0, 120.0)
        coefficients.append((k, -k * (r + s), k * r * s))
    (ax, bx, cx), (ay, by, cy) = coefficients
    # c = 3 d0, b = 6 (d1 - d0), a = 3 (d0 - 2 d1 + d2), per axis
    points = [(rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0))]
    d0 = (cx / 3.0, cy / 3.0)
    d1 = (d0[0] + bx / 6.0, d0[1] + by / 6.0)
    d2 = (ax / 3.0 - d0[0] + 2.0 * d1[0], ay / 3.0 - d0[1] + 2.0 * d1[1])
    for dx, dy in (d0, d1, d2):
        x, y = points[-1]
        points.append((x + dx, y + dy))
    return points


def near_cusp_cubics(count, seed):
    rng = random.Random(seed)
    cubics = []
    for _ in range(count):
        t0 = rng.uniform(0.1, 0.9)
        gap = 10.0 ** rng.uniform(-10.0, -2.0) * rng.choice((-1.0, 1.0))
        cubics.append(_from_derivative(rng, (t0, rng.uniform(-1.0, 2.0)),
                                       (t0 + gap, rng.uniform(-1.0, 2.0))))
    return cubics


def looping_cubics(count, seed):
    rng = random.Random(seed)
    cubics = []
    for _ in range(count):
        x0, y0 = rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)
        cx, cy = rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0)
        out, back, lift = rng.uniform(1.2, 2.5), rng.uniform(-1.5, -0.2), rng.uniform(-1.0, 1.0)
        nx, ny = -cy * lift, cx * lift
        cubics.append([(x0, y0), (x0 + out * cx + nx, y0 + out * cy + ny),
                       (x0 + back * cx + nx, y0 + back * cy + ny), (x0 + cx, y0 + cy)])
    return cubics


def random_cubics(count, seed):
    rng = random.Random(seed)
    return [[(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)) for _ in range(4)]
            for _ in range(count)]


FAMILIES = {
    "near-cusp": near_cusp_cubics(300, 2025),
    "looping": looping_cubics(100, 2026),
    "random": random_cubics(100, 2027),
}


def _segment(points):
    return CubicSegment(*(Point(x, y) for x, y in points))


def _points(segment):
    return [(p.x, p.y) for p in (segment.start, segment.control1, segment.control2, segment.end)]


@pytest.mark.parametrize("family", FAMILIES)
def test_segment_length_is_within_1e_12_of_the_reference(family):
    for points in FAMILIES[family]:
        reference = reference_length(points)
        got = segment_length(_segment(points))
        assert abs(got - reference) <= (1e-12 + REFERENCE_ERROR) * reference, points


@pytest.mark.parametrize("family", FAMILIES)
def test_a_cut_from_either_end_removes_its_amount_within_the_proven_bound(family):
    rng = random.Random(f"cuts-{family}")
    for points in FAMILIES[family]:
        reference = reference_length(points)
        host = HostPath((_segment(points),))
        # attach.py proves 7/4 of 1e-12 * L0: Newton's stop, 1e-12 * L0, the
        # pieces, half that, and the pins, a quarter.  In fact the pieces and
        # pins stay below 1e-15 of it, so the worst miss here is just under
        # 1e-12 * L0; the bound leaves room for Newton stopping elsewhere in
        # its window on a platform whose roots differ by an ulp.
        whole = _rule(_derivative(host.segments[0]), 0.0, 1.0)
        for side in (Side.START, Side.END):
            amount = rng.uniform(0.001, 0.5) * reference
            try:
                kept = shorten(host, side, amount)
            except PathTooShortError:
                pytest.fail(f"{points} cut by {amount} at {side}")
            removed = reference - reference_length(_points(kept.segments[0]))
            miss = abs(removed - amount)
            assert miss <= 1.75e-12 * whole + 2 * REFERENCE_ERROR * reference, (points, side)
