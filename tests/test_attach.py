import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from arrowtips._tips import PLACED
from arrowtips.attach import (
    _GL_POSITIVE,
    _cubic_cut,
    _derivative,
    _pieces,
    _rule,
    _segment_points,
    _speed,
    _split_cubic,
    _split_line,
    CubicSegment,
    DegeneratePathError,
    HostPath,
    LineSegment,
    PathTooShortError,
    attach,
    decorate,
    end_tangent,
    path_length,
    path_outline,
    placement,
    segment_length,
    shorten,
)
from arrowtips.catalog import (
    Side,
    UnknownTipError,
    check_drawing,
    end_names,
    extents,
    lookup,
    program,
    registry,
    start_names,
)
from arrowtips.geometry import AffineTransform, Point, apply
from arrowtips.pathmodel import Action, LineCap, evaluate, transform_program
from arrowtips.specparser import ArrowSpec, parse
from arrowtips.svg import format_number


def line_host(x0=0.0, y0=0.0, x1=100.0, y1=0.0):
    return HostPath((LineSegment(Point(x0, y0), Point(x1, y1)),))


WIGGLE = CubicSegment(Point(0.0, 0.0), Point(10.0, 20.0), Point(30.0, 40.0), Point(50.0, 30.0))


def test_host_path_needs_segments():
    with pytest.raises(ValueError):
        HostPath(())


def test_host_path_requires_shared_endpoints():
    with pytest.raises(ValueError):
        HostPath((
            LineSegment(Point(0.0, 0.0), Point(1.0, 0.0)),
            LineSegment(Point(2.0, 0.0), Point(3.0, 0.0)),
        ))


def test_fully_coincident_path_is_degenerate():
    p = Point(1.0, 1.0)
    with pytest.raises(DegeneratePathError):
        HostPath((LineSegment(p, p),))
    with pytest.raises(DegeneratePathError):
        HostPath((CubicSegment(p, p, p, p),))


def test_points_that_compare_equal_make_a_degenerate_path():
    # Distinct objects, and -0.0 == 0.0: equality of coordinates decides.
    with pytest.raises(DegeneratePathError):
        HostPath((LineSegment(Point(0.0, 0.0), Point(-0.0, 0.0)),))
    with pytest.raises(DegeneratePathError):
        HostPath((LineSegment(Point(2.0, 3.0), Point(2.0, 3.0)),
                  CubicSegment(Point(2.0, 3.0), Point(2.0, 3.0), Point(2.0, 3.0), Point(2.0, 3.0))))


def test_one_distinct_point_anywhere_makes_a_path_proper():
    p = Point(1.0, 1.0)
    for control1, control2 in ((Point(1.0, 2.0), p), (p, Point(2.0, 1.0))):
        assert HostPath((CubicSegment(p, control1, control2, p),)).segments[0].control1 is control1
    end = Point(1.0, -1.0)
    path = HostPath((LineSegment(p, p), CubicSegment(p, p, p, p), LineSegment(p, end)))
    assert path.segments[-1].end is end


def _line_cubic_line(first, second):
    """A line, a cubic and a line; each joint is given as (end of one, start of the next)."""
    return HostPath((LineSegment(Point(0.0, 0.0), first[0]),
                     CubicSegment(first[1], Point(15.0, 10.0), Point(25.0, 10.0), second[0]),
                     LineSegment(second[1], Point(50.0, 5.0))))


def test_host_joints_compare_by_value():
    # Distinct objects, and -0.0 == 0.0: a joint is shared when its coordinates are equal.
    HostPath((LineSegment(Point(-5.0, 0.0), Point(0.0, 0.0)),
              LineSegment(Point(-0.0, 0.0), Point(5.0, 0.0))))
    a, b = Point(10.0, 0.0), Point(30.0, 5.0)
    shared = _line_cubic_line((a, a), (b, b))
    distinct = _line_cubic_line((Point(10.0, 0.0), Point(10.0, 0.0)),
                                (Point(30.0, 5.0), Point(30.0, 5.0)))
    for side in (Side.START, Side.END):
        assert shorten(distinct, side, 25.0).segments == shorten(shared, side, 25.0).segments
    assert Point(0.0, 1.0) == Point(-0.0, 1.0)
    assert hash(Point(0.0, 1.0)) == hash(Point(-0.0, 1.0))


@pytest.mark.parametrize("x,y", [(math.nextafter(10.0, 11.0), 0.0), (10.0, 5e-324)])
def test_a_joint_one_ulp_apart_is_not_shared(x, y):
    with pytest.raises(ValueError, match="segments 0 and 1 do not share an endpoint"):
        HostPath((LineSegment(Point(0.0, 0.0), Point(10.0, 0.0)),
                  LineSegment(Point(x, y), Point(20.0, 0.0))))


def test_line_tangents_are_exact():
    path = line_host()
    assert end_tangent(path, Side.END) == Point(1.0, 0.0)
    assert end_tangent(path, Side.START) == Point(-1.0, 0.0)


def test_slanted_line_tangent_is_exact():
    path = line_host(0.0, 0.0, 60.0, 80.0)
    assert end_tangent(path, Side.END) == Point(0.6, 0.8)
    assert end_tangent(path, Side.START) == Point(-0.6, -0.8)


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_tangent_of_a_subnormal_segment_has_unit_length(side):
    steps = [(1, 1), (3, 4), (1, 2), (-7, 3), (1000, -1), (-2, -5)]
    angles = (10.0, 45.0, 100.0, 200.0, 333.0)
    parts = [(m * 5e-324, n * 5e-324) for m, n in steps]
    parts += [(1e-310 * math.cos(math.radians(a)), 1e-310 * math.sin(math.radians(a)))
              for a in angles]
    sign = 1.0 if side is Side.END else -1.0
    for dx, dy in parts:
        host = HostPath((LineSegment(Point(0.0, 0.0), Point(dx, dy)),))
        u = end_tangent(host, side)
        assert abs(math.hypot(u.x, u.y) - 1.0) <= math.ulp(1.0), (dx, dy)
        assert (u.x > 0.0, u.y > 0.0) == (sign * dx > 0.0, sign * dy > 0.0)


OVERFLOWING_SPANS = [((0.0, 0.0), (1.5e308, 1.5e308)), ((-1e308, 0.0), (1e308, 0.0))]


@pytest.mark.parametrize("side", [Side.START, Side.END])
@pytest.mark.parametrize("ends", OVERFLOWING_SPANS, ids=["diagonal", "axis"])
def test_an_end_span_whose_length_overflows_keeps_its_exact_direction(ends, side):
    (x0, y0), (x1, y1) = ends
    host = HostPath((LineSegment(Point(x0, y0), Point(x1, y1)),))
    # a quarter of the host is exact and its length is finite
    quarter = HostPath((LineSegment(Point(x0 / 4, y0 / 4), Point(x1 / 4, y1 / 4)),))
    assert end_tangent(host, side) == end_tangent(quarter, side)


@pytest.mark.parametrize("side", [Side.START, Side.END])
@pytest.mark.parametrize("ends", OVERFLOWING_SPANS, ids=["diagonal", "axis"])
def test_a_tip_too_small_to_cut_leaves_an_overflowing_host_unmeasured(ends, side):
    host = HostPath((LineSegment(Point(*ends[0]), Point(*ends[1])),))
    shortened, scene = attach(host, side, lookup("serif cm", side), 5e-324)
    assert shortened is host
    for drawable in scene:
        for op in drawable.outline:
            assert all(math.isfinite(value) for value in op._values())
    t = placement(host, side, 0.0).transform
    assert abs(math.hypot(t.a, t.b) - 1.0) <= math.ulp(1.0)


def _reach(end):
    """Farthest coordinate of a ``-latex'`` tip from the end of its host."""
    host = HostPath((LineSegment(Point(-100.0, 0.0), Point(0.0, 0.0)),
                     LineSegment(Point(0.0, 0.0), end)))
    tip = decorate(host, parse("-latex'"), 0.4)[1:]
    values = [v for d in tip for op in d.outline for v in op._values()]
    return max(math.hypot(x - end.x, y - end.y) for x, y in zip(values[::2], values[1::2]))


def test_a_subnormal_end_segment_places_the_tip_at_its_true_size():
    assert _reach(Point(5e-324, 5e-324)) == pytest.approx(_reach(Point(1.0, 1.0)), rel=1e-12)


def numeric_end_tangent(segment, side):
    # forward difference at the very end of the curve
    def at(t):
        s = 1.0 - t
        return Point(
            s**3 * segment.start.x + 3 * s * s * t * segment.control1.x
            + 3 * s * t * t * segment.control2.x + t**3 * segment.end.x,
            s**3 * segment.start.y + 3 * s * s * t * segment.control1.y
            + 3 * s * t * t * segment.control2.y + t**3 * segment.end.y,
        )

    h = 1e-6
    if side is Side.END:
        a, b = at(1.0 - h), at(1.0)
    else:
        # outward at the start points backward, away from the curve
        a, b = at(h), at(0.0)
    dx, dy = b.x - a.x, b.y - a.y
    norm = math.hypot(dx, dy)
    return Point(dx / norm, dy / norm)


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_cubic_tangent_matches_numeric_derivative(side):
    path = HostPath((WIGGLE,))
    got = end_tangent(path, side)
    want = numeric_end_tangent(WIGGLE, side)
    assert got.x == pytest.approx(want.x, abs=1e-5)
    assert got.y == pytest.approx(want.y, abs=1e-5)
    assert math.hypot(got.x, got.y) == pytest.approx(1.0, abs=1e-12)


VANISHING_END_DERIVATIVE = {
    # control2 sits on the end point, so the end tangent comes from control1
    Side.END: ((0.0, 0.0), (10.0, 0.0), (20.0, 10.0), (20.0, 10.0)),
    # control1 sits on the start point, so the start tangent comes from control2
    Side.START: ((0.0, 0.0), (0.0, 0.0), (10.0, 20.0), (20.0, 10.0)),
}


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_vanishing_end_derivative_falls_back_to_inner_control(side):
    p0, p1, p2, p3 = (Point(*p) for p in VANISHING_END_DERIVATIVE[side])
    path = HostPath((CubicSegment(p0, p1, p2, p3),))
    got = end_tangent(path, side)
    tip, inner = (p3, p1) if side is Side.END else (p0, p2)
    dx, dy = tip.x - inner.x, tip.y - inner.y
    norm = math.hypot(dx, dy)
    assert got.x == pytest.approx(dx / norm, abs=1e-12)
    assert got.y == pytest.approx(dy / norm, abs=1e-12)


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_coincident_end_segment_defers_to_neighbor(side):
    p = Point(5.0, 5.0)
    point = CubicSegment(p, p, p, p)
    if side is Side.END:
        path, r = HostPath((LineSegment(Point(0.0, 0.0), p), point)), math.sqrt(0.5)
    else:
        path, r = HostPath((point, LineSegment(p, Point(10.0, 10.0)))), -math.sqrt(0.5)
    got = end_tangent(path, side)
    assert got.x == pytest.approx(r, abs=1e-12)
    assert got.y == pytest.approx(r, abs=1e-12)


@pytest.mark.parametrize("k", range(32))
def test_quadrature_rule_integrates_polynomials_up_to_degree_31(k):
    # Each row of the table is the node pair -x, +x on [-1, 1], so odd powers
    # cancel exactly.  The stored values carry leggauss's own rounding: even
    # summed exactly they miss 2/(k+1) by a few ulps, so the bound is 8e-15
    # relative to 1/(k+1), 4e-15 of the unit interval doubled.
    got = math.fsum(w * (x**k + (-x) ** k) for x, w in _GL_POSITIVE)
    want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    assert abs(got - want) <= 8e-15 / (k + 1)


def test_rule_maps_its_nodes_onto_the_interval():
    # x(t) of this cubic has the positive quadratic x'(t) as its speed, which
    # the 16-node rule integrates exactly up to rounding, whatever [lo, hi].
    segment = CubicSegment(Point(0.0, 0.0), Point(5.0, 0.0), Point(30.0, 0.0), Point(40.0, 0.0))
    d = _derivative(segment)

    def x(t):
        return t * (15.0 * (1 - t) ** 2 + t * (90.0 * (1 - t) + 40.0 * t))

    rng = random.Random(30)
    for _ in range(2000):
        lo, hi = sorted((rng.random(), rng.random()))
        assert abs(_rule(d, lo, hi) - (x(hi) - x(lo))) <= 8 * math.ulp(40.0), (lo, hi)


def test_attach_rejects_a_path_whose_length_overflows():
    host = HostPath((LineSegment(Point(-1e308, 0.0), Point(1e308, 0.0)),))
    with pytest.raises(ValueError, match="path length overflows"):
        attach(host, Side.END, lookup("latex'", Side.END), 0.4)


OVERFLOWING = HostPath((LineSegment(Point(-1e308, 0.0), Point(1e308, 0.0)),))


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_shorten_rejects_a_segment_whose_length_overflows(side):
    with pytest.raises(ValueError, match="path length overflows"):
        shorten(OVERFLOWING, side, 1.0)


def test_attach_ignores_an_overflowing_segment_that_no_cut_reaches():
    host = HostPath((*OVERFLOWING.segments, LineSegment(Point(1e308, 0.0), Point(1e308, 100.0))))
    shortened, scene = attach(host, Side.END, lookup("latex'", Side.END), 0.4)
    assert shortened.segments[-1].end == Point(1e308, 97.6)
    for drawable in scene:
        for op in drawable.outline:
            assert all(math.isfinite(value) for value in op._values())


def test_shorten_rejects_negative_amount():
    for amount in (-0.1, math.nan):
        with pytest.raises(ValueError, match="must be nonnegative"):
            shorten(line_host(), Side.END, amount)


def test_shorten_by_zero_returns_path_unchanged():
    path = line_host()
    assert shorten(path, Side.END, 0.0) is path


def test_shorten_line_end_is_exact():
    got = shorten(line_host(), Side.END, 0.6)
    end = got.segments[-1].end
    assert end.x == pytest.approx(99.4, abs=1e-9)
    assert end.y == 0.0
    assert got.segments[0].start == Point(0.0, 0.0)


def test_shorten_line_start():
    got = shorten(line_host(), Side.START, 2.5)
    assert got.segments[0].start.x == pytest.approx(2.5, abs=1e-9)
    assert got.segments[-1].end == Point(100.0, 0.0)


def two_segment_host():
    return HostPath((
        LineSegment(Point(0.0, 0.0), Point(10.0, 0.0)),
        LineSegment(Point(10.0, 0.0), Point(20.0, 0.0)),
    ))


def test_shorten_drops_whole_segments():
    got = shorten(two_segment_host(), Side.END, 10.0)
    assert len(got.segments) == 1
    assert got.segments[0].end == Point(10.0, 0.0)


def test_shorten_crosses_segment_boundary():
    got = shorten(two_segment_host(), Side.END, 15.0)
    assert len(got.segments) == 1
    assert got.segments[0].end.x == pytest.approx(5.0, abs=1e-9)


def test_shorten_whole_length_is_too_much():
    with pytest.raises(PathTooShortError):
        shorten(two_segment_host(), Side.END, 20.0)
    with pytest.raises(PathTooShortError):
        shorten(two_segment_host(), Side.START, 25.0)


def test_shorten_cubic_removes_requested_arc_length():
    path = HostPath((WIGGLE,))
    total = path_length(path)
    for amount in (1.0, 7.5, total / 2.0):
        got = shorten(path, Side.END, amount)
        assert path_length(got) == pytest.approx(total - amount, abs=1e-9)
        # the kept piece still starts where the original did
        assert got.segments[0].start == Point(0.0, 0.0)


def test_shorten_cubic_from_start():
    path = HostPath((WIGGLE,))
    total = path_length(path)
    got = shorten(path, Side.START, 3.0)
    assert path_length(got) == pytest.approx(total - 3.0, abs=1e-9)
    assert got.segments[-1].end == Point(50.0, 30.0)


def cubic_host(*points):
    return HostPath((CubicSegment(*(Point(x, y) for x, y in points)),))


# ROADMAP's looping host: collinear, with exact cusps at t = (5 -+ sqrt 5) / 10.
LOOP = cubic_host((0.0, 0.0), (200.0, 0.0), (-100.0, 0.0), (100.0, 0.0))
LOOP_LENGTH = 100.0 + 40.0 * math.sqrt(5.0)
NEAR_CUSP = cubic_host(
    (36.95369137404887, -90.81391374736239),
    (-90.6536030991149, 84.74897715721033),
    (-60.468892664461606, 34.67718453518066),
    (30.857890846874398, -71.92099197671084),
)


def test_looping_cubic_has_its_closed_form_length():
    assert path_length(LOOP) == pytest.approx(LOOP_LENGTH, abs=1e-9)


@pytest.mark.parametrize("side", [Side.START, Side.END])
@pytest.mark.parametrize("amount", [1.0, 30.0, 100.0])
def test_shortening_the_looping_cubic_removes_the_requested_arc_length(side, amount):
    got = shorten(LOOP, side, amount)
    assert path_length(got) == pytest.approx(LOOP_LENGTH - amount, abs=1e-9)


def _piece_count(segment):
    d = _derivative(segment)
    return len(list(_pieces(d, _rule(d, 0.0, 1.0), False)))


def test_near_cusp_cubic_finishes_with_a_bounded_piece_table():
    total = path_length(NEAR_CUSP)
    assert _piece_count(NEAR_CUSP.segments[0]) <= 299
    got = shorten(NEAR_CUSP, Side.END, 1.0)
    assert total - path_length(got) == pytest.approx(1.0, abs=1e-9)


def test_near_cusp_kept_piece_length_is_within_1e_12():
    a = 0.08241391686217914
    host = cubic_host((a, 0.0), (a, 0.0), (96.0, 74.85546875), (0.0, -1.1))
    kept = shorten(host, Side.END, a * path_length(host))
    # mpmath.quad of the kept cubic's speed at 40 digits
    reference = 99.52659392311419956
    assert abs(path_length(kept) - reference) <= 1e-12 * reference


# Each host has a root at an extreme distance from a piece.  The first's
# sits 4.5e-193 from t = 0, so on the piece from 0 to it the other root's
# s = (|z - a| + |z - b|) / (b - a) is about 3e192; the second's y' makes a
# root 4e307 out, and its s overflows on [0, 0.25].  The third's B'(t) has
# no t^2 term and a t term of 2^-1074 next to its constant, so its one root
# C / q is (-20, -inf).  A bound that lets s, a semi-axis drawn from it, or
# a root reach inf gets inf or NaN, accepts no piece, and bisects every
# piece down to the depth cap.
_U = 2.0 ** -1074


@pytest.mark.parametrize("points, length, pieces", [
    (((0.0, 0.0), (0.0, 9.66831145605966e-189), (-64.88238993520454, -0.39073112848927377),
      (-22.540313380531686, 75.15137990046651)), 100.73132751460149, 8),
    (((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), (-3.0, 1e-307)), 3.75, 2),
    (((0.0, 0.0), (20 * _U, 1.0), (41 * _U, 2.0), (63 * _U, 3.0)), 3.0, 1),
], ids=["root-4.5e-193-from-an-end", "root-4e307-out", "root-at-infinity"])
def test_a_root_at_an_extreme_distance_leaves_a_finite_piece_table(points, length, pieces):
    host = cubic_host(*points)
    assert _piece_count(host.segments[0]) <= pieces
    assert path_length(host) == pytest.approx(length, rel=1e-12)
    for side in (Side.START, Side.END):
        got = shorten(host, side, 0.5 * length)
        assert path_length(host) - path_length(got) == pytest.approx(0.5 * length, abs=1e-9)


def test_roots_whose_real_parts_differ_by_rounding_share_one_split():
    # README's cubic has roots 0.4999999999999999 - 3.5i and
    # 0.5000000000000001 - 0.5i: one split, not a piece two ulps wide
    assert _piece_count(README_CUBIC) == 2


def test_subnormal_cubic_is_not_subdivided():
    # the rule's rounding at this scale exceeds 1e-12 of the length
    host = cubic_host((0.0, 0.0), (1e-318, 3e-319), (3e-318, 1e-318), (4e-318, 5e-318))
    assert 0.0 < path_length(host) < 1e-317
    assert _piece_count(host.segments[0]) == 2  # [0, 1] split at a pinned root's real part


def test_shortening_to_a_point_is_too_short():
    # Half an ulp of 1e7 is 9.3e-10, far more than the 1e-12 * L0 = 9.2e-11
    # of length within which Newton may stop, so the kept start collapses
    # wherever in that window it stops.
    o = 1e7
    host = cubic_host((o + 65.0, o + 65.0), (o, o), (o, o), (o, o))
    with pytest.raises(PathTooShortError, match="collapses to a point"):
        shorten(host, Side.END, 0.9999999999999999 * path_length(host))


# Each one's rule over [0, 1] is nan: the derivative's coefficients overflow.
OVERFLOWING_CUBICS = [
    cubic_host((-8e307, 0.0), (8e307, 8e307), (-8e307, -8e307), (8e307, 0.0)),
    cubic_host((-1e308, 0.0), (0.0, 1e308), (0.0, -1e308), (1e308, 0.0)),
]


@pytest.mark.parametrize("side", [Side.START, Side.END])
@pytest.mark.parametrize("host", OVERFLOWING_CUBICS, ids=["8e307", "1e308"])
def test_shorten_rejects_a_cubic_whose_length_overflows(host, side):
    with pytest.raises(ValueError, match="path length overflows"):
        shorten(host, side, 1.0)


# Each segment of the last host is finite in length, but their sum is not.
@pytest.mark.parametrize("host", [
    OVERFLOWING, *OVERFLOWING_CUBICS,
    HostPath((LineSegment(Point(-1e308, 0.0), Point(0.0, 0.0)),
              LineSegment(Point(0.0, 0.0), Point(1e308, 0.0)))),
], ids=["line", "8e307", "1e308", "sum"])
def test_path_length_rejects_a_segment_whose_length_overflows(host):
    with pytest.raises(ValueError, match="path length overflows"):
        path_length(host)


def _two_half_split(segment, t):
    """Both halves of the de Casteljau split at t: the reference for the kept-half split."""
    def lerp(p, q):
        return Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))

    if isinstance(segment, LineSegment):
        mid = lerp(segment.start, segment.end)
        return LineSegment(segment.start, mid), LineSegment(mid, segment.end)
    p01 = lerp(segment.start, segment.control1)
    p12 = lerp(segment.control1, segment.control2)
    p23 = lerp(segment.control2, segment.end)
    p012, p123 = lerp(p01, p12), lerp(p12, p23)
    mid = lerp(p012, p123)
    return CubicSegment(segment.start, p01, p012, mid), CubicSegment(mid, p123, p23, segment.end)


def _segment_hex(segment):
    return [type(segment).__name__,
            *(float.hex(v) for point in _segment_points(segment) for v in (point.x, point.y))]


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_the_kept_half_split_is_the_two_half_split_to_the_bit(side):
    rng = random.Random(1900 + (side is Side.END))
    backward = side is Side.END
    for i in range(3000):
        scale = 10.0 ** rng.uniform(-300.0, 300.0)
        points = [Point(rng.uniform(-scale, scale), rng.uniform(-scale, scale)) for _ in range(4)]
        t = (0.0, 1.0)[i] if i < 2 else rng.random()
        for segment, split in ((LineSegment(points[0], points[3]), _split_line),
                               (CubicSegment(*points), _split_cubic)):
            want = _two_half_split(segment, t)[0 if backward else 1]
            got = split(segment, t, backward)
            assert _segment_hex(got) == _segment_hex(want), (segment, t)
            # the kept endpoint is the segment's own, so HostPath meets it by identity
            assert (got.start if backward else got.end) is (segment.start if backward else segment.end)


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_a_shift_outside_the_proven_box_is_scanned_at_a_width_inside_it(side):
    # w = 1e299 lies inside the box; only the shift, at the largest float, does not.
    top = 1.7976931348623157e308
    host = line_host(0.0, top, 1e308, top)
    tip = lookup("[" if side is Side.START else "]", side)
    with pytest.raises(ValueError, match=r"overflow when placed at \(.*, 1\.79769e\+308\) "
                                         r"with stroke width 1e\+299"):
        attach(host, side, tip, 1e299)


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_a_dropped_lerp_that_overflows_still_raises(side):
    # control1 -> control2 overflows; that lerp is dropped on both sides, but
    # the split point it feeds is kept.
    segment = CubicSegment(Point(0.0, 0.0), Point(-1e308, 0.0), Point(1.5e308, 0.0), Point(0.0, 0.0))
    with pytest.raises(ValueError, match="point components must be finite"):
        _split_cubic(segment, 0.5, side is Side.END)


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_a_cut_measures_the_cubic_only_up_to_the_cut(monkeypatch, side):
    calls = []

    def counted(d, lo, hi):
        calls.append((lo, hi))
        return _rule(d, lo, hi)

    segment = CubicSegment(WIGGLE.start, WIGGLE.control1, WIGGLE.control2, WIGGLE.end)
    monkeypatch.setattr("arrowtips.attach._rule", counted)
    shorten(HostPath((segment,)), side, 1.0)
    cut = list(calls)
    calls.clear()
    segment_length(segment)
    whole = set(calls)
    # Measuring all of WIGGLE takes 7 calls: [0, 1], its two pieces split at
    # y' = 0, and their halves.  The cut measures only the pieces on its side ...
    assert 0 < len([interval for interval in cut if interval in whole]) < len(whole)
    # ... and Newton measures from the low end of the one piece holding it.
    newton = [interval for interval in cut if interval not in whole]
    assert newton and len({lo for lo, _ in newton}) == 1


def test_the_curves_arrows_make_few_quadrature_calls(differential, monkeypatch):
    calls = {_rule: 0, _speed: 0}

    def counter(function):
        def counted(*args):
            calls[function] += 1
            return function(*args)
        return counted

    for function in calls:
        monkeypatch.setattr(f"arrowtips.attach.{function.__name__}", counter(function))
    # the first 400 arrows of each seed's curves_stream, as the script runs them
    differential.curves(range(1, 6), 400)
    # Their 2276 cubic cuts take 8684 rule and 3783 speed calls: a piece is
    # measured once, when accepted, and Newton's last step is not measured.
    assert calls[_rule] <= 10_000
    assert calls[_speed] <= 4_500


README_CUBIC = CubicSegment(Point(0.0, 0.0), Point(30.0, 40.0), Point(70.0, 40.0),
                            Point(100.0, 0.0))


@pytest.fixture
def no_speed(monkeypatch):
    """The parameters at which ``_cubic_cut`` asks for a speed, each answered 0.0.

    A zero speed makes every Newton step bisect its bracket.
    """
    asked = []

    def zero(d, t):
        asked.append(t)
        return 0.0

    monkeypatch.setattr("arrowtips.attach._speed", zero)
    return asked


@pytest.mark.parametrize("side", [Side.START, Side.END])
@pytest.mark.parametrize("amount", [1.0, 7.5, 60.0])
def test_a_cut_that_only_bisects_still_removes_its_amount(no_speed, side, amount):
    host = HostPath((README_CUBIC,))
    whole = _rule(_derivative(README_CUBIC), 0.0, 1.0)
    kept = shorten(host, side, amount)
    assert no_speed
    assert abs(path_length(host) - path_length(kept) - amount) <= 2e-12 * whole


# Each cut lands just past the low end of a piece, so the length wanted is
# small: one ulp of t moves the rule by many ulps of it, and f does not hit 0
# exactly before the bracket collapses.
@pytest.mark.parametrize("amount, backward", [(60.7, False), (60.3, True)])
def test_bisection_with_no_tolerance_ends_on_the_collapsed_bracket(monkeypatch, no_speed,
                                                                    amount, backward):
    expected, _ = _cubic_cut(README_CUBIC, amount, backward)
    no_speed.clear()
    monkeypatch.setattr("arrowtips.attach._NEWTON_TOLERANCE", 0.0)
    t, _ = _cubic_cut(README_CUBIC, amount, backward)
    # t is an end of the last bracket, and the other end is its float neighbour
    assert t in no_speed
    assert {math.nextafter(t, 0.0), math.nextafter(t, 1.0)} & set(no_speed)
    # the tolerant cut is within 1e-12 * 121 pt of length, at a speed above 100
    assert t == pytest.approx(expected, abs=2e-12)


# A cut longer than the 3.44 long cubic drops it, and the line takes the rest.
SMALL_ARCH = ((0.0, 0.0), (1.0, 1.0), (2.0, 1.0), (3.0, 0.0))


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_a_cut_past_a_cubic_drops_it_and_cuts_the_line_by_the_rest(side):
    amount = 5.0
    if side is Side.START:
        cubic = CubicSegment(*(Point(x, y) for x, y in SMALL_ARCH))
        line = LineSegment(cubic.end, Point(100.0, 0.0))
        host = HostPath((cubic, line))
    else:
        cubic = CubicSegment(*(Point(97.0 + x, y) for x, y in SMALL_ARCH))
        line = LineSegment(Point(0.0, 0.0), cubic.start)
        host = HostPath((line, cubic))
    t, dropped = _cubic_cut(cubic, amount, side is Side.END)
    assert t is None
    if side is Side.START:
        assert dropped == segment_length(cubic)
    else:
        # summed from t = 1, so only the order of the sum differs
        assert dropped == pytest.approx(segment_length(cubic), rel=1e-15)
    got = shorten(host, side, amount)
    assert got.segments == shorten(HostPath((line,)), side, amount - dropped).segments


coordinates = st.floats(min_value=-100.0, max_value=100.0)
points = st.tuples(coordinates, coordinates)
small_ints = st.integers(min_value=-20, max_value=20).map(float)


@st.composite
def collinear_points(draw):
    # integer coordinates keep the four points exactly on one line
    ox, oy, dx, dy = (draw(small_ints) for _ in range(4))
    return [(ox + u * dx, oy + u * dy) for u in draw(st.lists(small_ints, min_size=4, max_size=4))]


@st.composite
def flat_start_points(draw):
    start, control2, end = draw(points), draw(points), draw(points)
    return [start, start, control2, end]


@st.composite
def looping_points(draw):
    # control points pulled past the far end and back behind the start
    (x0, y0), (cx, cy) = draw(points), draw(points)
    out, back = draw(st.floats(1.2, 2.5)), draw(st.floats(-1.5, -0.2))
    lift = draw(st.floats(-1.0, 1.0))
    nx, ny = -cy * lift, cx * lift
    return [
        (x0, y0),
        (x0 + out * cx + nx, y0 + out * cy + ny),
        (x0 + back * cx + nx, y0 + back * cy + ny),
        (x0 + cx, y0 + cy),
    ]


cubic_hosts = st.one_of(
    st.lists(points, min_size=4, max_size=4),
    collinear_points(),
    flat_start_points(),
    looping_points(),
).filter(lambda pts: len(set(pts)) > 1).map(lambda pts: cubic_host(*pts))


@given(cubic_hosts, st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       st.sampled_from([Side.START, Side.END]))
# the near-cusp host of test_near_cusp_kept_piece_length_is_within_1e_12
@example(cubic_host((0.08241391686217914, 0.0), (0.08241391686217914, 0.0),
                    (96.0, 74.85546875), (0.0, -1.1)), 0.08241391686217914, Side.END)
def test_shortening_a_cubic_removes_exactly_the_amount(host, share, side):
    total = path_length(host)
    amount = share * total
    assume(amount < total)
    try:
        kept = shorten(host, side, amount)
    except PathTooShortError:
        # only a rest shorter than the coordinates can resolve may fail
        assert total - amount <= 1e-9
        return
    assert abs(total - path_length(kept) - amount) <= 1e-9


@given(cubic_hosts, st.floats(min_value=0.2, max_value=2.0), st.sampled_from([Side.START, Side.END]))
def test_placed_tip_front_lands_on_the_original_endpoint(host, w, side):
    tip = lookup("latex'", side)
    right = extents(tip, w).right
    assume(right < path_length(host))
    front = apply(placement(host, side, right).transform, Point(right, 0.0))
    end = host.segments[0].start if side is Side.START else host.segments[-1].end
    assert math.hypot(front.x - end.x, front.y - end.y) <= 1e-9


line_hosts = st.tuples(points, points).filter(lambda ends: ends[0] != ends[1]).map(
    lambda ends: line_host(*ends[0], *ends[1]))
maybe_tips = st.one_of(st.none(), st.sampled_from(registry()))


def _float_hex(scene):
    for drawable in scene:
        yield drawable.action, drawable.cap, drawable.join, float.hex(drawable.width)
        for op in drawable.outline:
            yield type(op).__name__, *(float.hex(v) for v in op._values())


@given(st.one_of(line_hosts, cubic_hosts), maybe_tips, maybe_tips,
       st.floats(min_value=0.1, max_value=3.0))
def test_decorate_places_each_tip_exactly_as_attach_does(host, start, end, w):
    # decorate runs the tips' generated evaluators; the reference interprets
    # each placed program.  Every coordinate must agree to the bit.
    assume(start is not None or end is not None)
    spec = ArrowSpec(start=start and start.start_name, end=end and end.end_name)
    placed = {}
    rest = host
    try:
        for side, name in ((Side.END, spec.end), (Side.START, spec.start)):
            if name is not None:
                tip = lookup(name, side)
                t = placement(rest, side, extents(tip, w).right).transform
                rest = attach(rest, side, tip, w)[0]
                placed[side] = evaluate(transform_program(program(tip, w), t), w)
    except PathTooShortError:
        assume(False)
    want = [d for side in (Side.START, Side.END) if side in placed for d in placed[side]]
    assert list(_float_hex(decorate(host, spec, w)[1:])) == list(_float_hex(want))


SWEEP_WIDTHS = (0.4, 0.8, 1.6, 0.37, 2.9, 1e-6, 1e6)


def _sweep_placements():
    # Axis-aligned directions give rotations with signed-zero entries.
    directions = [Point(1.0, 0.0), Point(0.0, 1.0), Point(0.0, -1.0), Point(-1.0, 0.0),
                  Point(math.cos(math.radians(30.0)), math.sin(math.radians(30.0)))]
    rng = random.Random(6)
    for _ in range(4):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        directions.append(Point(math.cos(angle), math.sin(angle)))
    offsets = [(0.0, 0.0), (-0.0, -0.0), (12.5, -3.25), (-1e3, 0.1)]
    yield AffineTransform(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    for i, direction in enumerate(directions):
        yield AffineTransform(direction.x, direction.y, -direction.y, direction.x,
                              *offsets[i % len(offsets)])


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_generated_evaluators_match_the_interpreter_to_the_bit(side):
    names = start_names() if side is Side.START else end_names()
    placements = list(_sweep_placements())
    for name in names:
        tip = lookup(name, side)
        for w in SWEEP_WIDTHS:
            for t in placements:
                want = evaluate(transform_program(program(tip, w), t), w)
                got = check_drawing(tip, w, PLACED[tip.definition.end_name](
                    w, t.a, t.b, t.c, t.d, t.tx, t.ty), (t.tx, t.ty))
                assert list(_float_hex(got)) == list(_float_hex(want)), (name, w, t)


# Hosts ending at each sweep placement's offset, coming in along its
# direction, and hosts ending near the top of the float range, where the
# placement, not the width, makes a tip's coordinates overflow.
AGREEMENT_HOSTS = [line_host(t.tx - 100.0 * t.a, t.ty - 100.0 * t.b, t.tx, t.ty)
                   for t in _sweep_placements()] + [
    line_host(0.0, 1.79e308, 1e308, 1.79e308),
    line_host(0.0, -1.79e308, 1e308, -1.79e308),
    line_host(1.79e308, 0.0, 1.79e308, 1e308),
    line_host(-1e308, 1.7e308, 1e308, 1.7e308),
]


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_attach_raises_exactly_where_decorate_does(side):
    names = start_names() if side is Side.START else end_names()
    for name in names:
        tip = lookup(name, side)
        spec = ArrowSpec(**{side.value: name})
        for host in AGREEMENT_HOSTS:
            for w in (0.4, 1e306):
                try:
                    scene = attach(host, side, tip, w)[1]
                except ValueError as err:
                    with pytest.raises(ValueError) as drawn:
                        decorate(host, spec, w)
                    assert (type(drawn.value), str(drawn.value)) == (type(err), str(err))
                    continue
                decorate(host, spec, w)
                coordinates = [v for d in scene for op in d.outline
                               for v in op._values()]
                assert all(map(math.isfinite, coordinates)), (name, host, w)


@pytest.mark.parametrize("w", [0.0, -1.0, math.nan, math.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda w: attach(line_host(), Side.END, lookup("latex'", Side.END), w),
    lambda w: attach(line_host(), Side.START, lookup("[", Side.START), w),
    lambda w: decorate(line_host(), ArrowSpec(end="latex'"), w),
    lambda w: decorate(line_host(), parse("-"), w),  # no tip: only decorate checks the width
], ids=["attach-end", "attach-start", "decorate", "decorate-no-tip"])
def test_attach_and_decorate_reject_a_width_that_is_not_positive_and_finite(call, w):
    with pytest.raises(ValueError) as error:
        call(w)
    assert str(error.value) == f"stroke width must be positive and finite, got {w}"


def test_placement_on_straight_host():
    host = line_host()
    place = placement(host, Side.END, 0.6)
    assert end_tangent(host, Side.END) == Point(1.0, 0.0)
    assert place.transform.tx == pytest.approx(99.4, abs=1e-12)
    assert place.transform.ty == 0.0
    front = apply(place.transform, Point(0.6, 0.0))
    assert front.x == pytest.approx(100.0, abs=1e-12)
    assert front.y == pytest.approx(0.0, abs=1e-12)


def test_placement_on_slanted_host():
    host = line_host(0.0, 0.0, 60.0, 80.0)
    place = placement(host, Side.END, 1.0)
    assert end_tangent(host, Side.END) == Point(0.6, 0.8)
    assert (place.transform.tx, place.transform.ty) == pytest.approx((59.4, 79.2), abs=1e-12)
    front = apply(place.transform, Point(1.0, 0.0))
    assert front.x == pytest.approx(60.0, abs=1e-9)
    assert front.y == pytest.approx(80.0, abs=1e-9)
    # a point on the local +y axis lands to the left of the direction
    up = apply(place.transform, Point(1.0, 1.0))
    assert up.x == pytest.approx(60.0 - 0.8, abs=1e-9)
    assert up.y == pytest.approx(80.0 + 0.6, abs=1e-9)


def test_placement_rotation_is_exact_on_axis_aligned_hosts():
    up = placement(line_host(0.0, 0.0, 0.0, 10.0), Side.END, 0.0).transform
    assert (up.a, up.b, up.c, up.d) == (0.0, 1.0, -1.0, 0.0)
    assert apply(up, Point(1.0, 0.0)) == Point(0.0, 11.0)
    back = placement(line_host(), Side.START, 0.0).transform
    assert apply(back, Point(1.0, 0.0)) == Point(-1.0, 0.0)
    assert apply(back, Point(0.0, 1.0)) == Point(0.0, -1.0)


def test_placement_at_start_points_backward():
    host = line_host()
    place = placement(host, Side.START, 0.5)
    assert end_tangent(host, Side.START) == Point(-1.0, 0.0)
    assert (place.transform.tx, place.transform.ty) == (0.5, 0.0)
    front = apply(place.transform, Point(0.5, 0.0))
    assert front.x == pytest.approx(0.0, abs=1e-12)


def test_attach_shortens_and_places():
    tip = lookup("angle 60", Side.END)
    shortened, scene = attach(line_host(), Side.END, tip, 0.4)
    assert shortened.segments[-1].end.x == pytest.approx(99.4, abs=1e-9)
    assert len(scene) == 1
    xs = [op.x for op in scene[0].outline]
    assert max(xs) <= 100.0 + 1e-9


def test_attach_needs_room_for_the_tip():
    tip = lookup("latex'", Side.END)  # right extent 2.4 at w=0.4
    short = line_host(0.0, 0.0, 1.0, 0.0)
    with pytest.raises(PathTooShortError):
        attach(short, Side.END, tip, 0.4)


@pytest.fixture
def measured(monkeypatch):
    """The cubic segments measured during the test: each measurement starts at ``_derivative``."""
    seen = []

    def recorded(segment):
        seen.append(segment)
        return _derivative(segment)

    monkeypatch.setattr("arrowtips.attach._derivative", recorded)
    return seen


def test_an_end_attach_measures_only_the_segment_it_cuts(measured):
    first = CubicSegment(Point(0.0, 0.0), Point(10.0, 20.0), Point(30.0, 20.0), Point(40.0, 0.0))
    second = CubicSegment(Point(40.0, 0.0), Point(50.0, -20.0), Point(70.0, -20.0),
                          Point(80.0, 0.0))
    host = HostPath((first, second, LineSegment(Point(80.0, 0.0), Point(100.0, 0.0))))
    attach(host, Side.END, lookup("latex'", Side.END), 0.4)
    assert first not in measured and second not in measured


def test_a_start_attach_never_measures_the_piece_an_end_attach_kept(measured):
    host = HostPath((WIGGLE, CubicSegment(Point(50.0, 30.0), Point(70.0, 20.0),
                                          Point(90.0, 40.0), Point(100.0, 0.0))))
    after_end, _ = attach(host, Side.END, lookup("latex'", Side.END), 0.4)
    kept = after_end.segments[-1]
    after_start, _ = attach(after_end, Side.START, lookup("latex'", Side.START), 0.4)
    assert after_start.segments[-1] is kept and WIGGLE in measured and kept not in measured


# A host 1.0 long, too short for latex' (right extent 2.4 at w = 0.4), and
# one just long enough whose cut rounds onto its far end.
@pytest.mark.parametrize("path, reason", [
    (line_host(0.0, 0.0, 1.0, 0.0), "path is only 1.0 long"),
    (line_host(1e6, 0.0, 1000002.4, 0.0), "collapses to a point"),
], ids=["too-short", "collapse"])
@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_a_host_too_short_for_the_tip_names_the_tip(path, reason, side):
    spec = ArrowSpec(start="latex'") if side is Side.START else ArrowSpec(end="latex'")
    for call in (lambda: attach(path, side, lookup("latex'", side), 0.4),
                 lambda: decorate(path, spec, 0.4)):
        with pytest.raises(PathTooShortError) as err:
            call()
        assert str(err.value).startswith("tip \"latex'\": cannot shorten by 2.4")
        assert reason in str(err.value)


def test_path_outline_round_trips_segments():
    path = HostPath((
        LineSegment(Point(0.0, 0.0), Point(10.0, 0.0)),
        CubicSegment(Point(10.0, 0.0), Point(12.0, 5.0), Point(18.0, 5.0), Point(20.0, 0.0)),
    ))
    ops = path_outline(path)
    assert len(ops) == 3
    assert (ops[0].x, ops[0].y) == (0.0, 0.0)
    assert (ops[1].x, ops[1].y) == (10.0, 0.0)
    assert (ops[2].x, ops[2].y) == (20.0, 0.0)


def test_decorate_bare_spec_is_just_the_host():
    scene = decorate(line_host(), parse("-"), 0.4)
    assert len(scene) == 1
    host = scene[0]
    assert host.action is Action.STROKE
    assert host.width == 0.4
    assert host.cap is LineCap.BUTT
    assert (host.outline[0].x, host.outline[-1].x) == (0.0, 100.0)


def test_decorate_orders_host_start_end():
    # "(" strokes with round caps, "latex'" fills: distinguishable drawables
    scene = decorate(line_host(), parse("(-latex'"), 0.4)
    assert len(scene) == 3
    host, start_tip, end_tip = scene
    assert host.action is Action.STROKE
    assert host.cap is LineCap.BUTT
    assert start_tip.action is Action.STROKE
    assert start_tip.cap is LineCap.ROUND
    assert end_tip.action is Action.FILL


def test_decorate_shortens_both_ends():
    scene = decorate(line_host(), parse("[-]"), 0.4)
    host = scene[0]
    # each bracket needs its own right extent of room: 0.2 at w=0.4
    assert host.outline[0].x == pytest.approx(0.2, abs=1e-9)
    assert host.outline[-1].x == pytest.approx(99.8, abs=1e-9)


def test_decorate_rejects_unknown_names():
    with pytest.raises(UnknownTipError):
        decorate(line_host(), ArrowSpec(start=None, end="no such tip"), 0.4)


def test_decorate_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        decorate(line_host(), parse("-latex'"), 0.0)


# The digest of _pinned_cubic_lines over every seeded case below.
CUBIC_SCENES_SHA256 = "65ef0985d71a387a67ade05399ab04311498c4b8a6c8ecbbbaa21447ba6bf76b"


def _seeded_host(rng):
    """One to three segments from a random start, each a cubic with probability 3/4.

    Each point lies within a random reach of the last end, so that some
    hosts are too short for their tips.
    """
    reach = rng.uniform(1.0, 40.0)

    def near(p):
        return Point(p.x + rng.uniform(-reach, reach), p.y + rng.uniform(-reach, reach))

    start = Point(rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0))
    segments = []
    for _ in range(rng.randint(1, 3)):
        end = near(start)
        if rng.random() < 0.75:
            segments.append(CubicSegment(start, near(start), near(end), end))
        else:
            segments.append(LineSegment(start, end))
        start = end
    return HostPath(tuple(segments))


def _pinned_cubic_lines(host, spec, w):
    """Each drawable's width and each op's type and coordinates, as the SVG prints them."""
    try:
        scene = decorate(host, spec, w)
    except PathTooShortError:
        yield "too short"
        return
    for drawable in scene:
        yield f"width {format_number(drawable.width)}"
        for op in drawable.outline:
            values = (format_number(getattr(op, name)) for name in op.__match_args__)
            yield " ".join((type(op).__name__, *values))


def test_decorated_cubic_hosts_are_pinned_as_printed():
    # Printed precision, not bits: a change that moves only low bits of a cut
    # keeps this digest, and one that moves a printed coordinate fails it.
    rng = random.Random(2026)
    starts, ends = start_names(), end_names()
    digest = hashlib.sha256()
    for _ in range(400):
        host = _seeded_host(rng)
        sides = rng.choice(("start", "end", "both"))
        start = rng.choice(starts) if sides != "end" else None
        end = rng.choice(ends) if sides != "start" else None
        w = rng.uniform(0.2, 2.0)
        for line in _pinned_cubic_lines(host, ArrowSpec(start, end), w):
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CUBIC_SCENES_SHA256
