import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrowtips.geometry import (
    AffineTransform,
    Point,
    add,
    apply,
    compose,
    polar,
    rotation_to,
)

IDENTITY = AffineTransform(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
MIRROR_X = AffineTransform(-1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
MIRROR_Y = AffineTransform(1.0, 0.0, 0.0, -1.0, 0.0, 0.0)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
points = st.builds(Point, finite, finite)
transforms = st.builds(AffineTransform, finite, finite, finite, finite, finite, finite)
# small integers keep every product and sum exact in 64-bit floats
exact = st.integers(min_value=-64, max_value=64).map(float)
exact_transforms = st.builds(AffineTransform, exact, exact, exact, exact, exact, exact)


def test_point_is_immutable():
    p = Point(1.0, 2.0)
    with pytest.raises(AttributeError):
        p.x = 3.0


@pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_point_rejects_non_finite(x, y):
    with pytest.raises(ValueError):
        Point(x, y)


def test_add():
    assert add(Point(1.0, 2.0), Point(3.0, -5.0)) == Point(4.0, -3.0)


def test_polar_on_axes():
    assert polar(0.0, 2.0) == Point(2.0, 0.0)
    p = polar(90.0, 2.0)
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == 2.0
    assert polar(180.0, 1.0).x == -1.0


def test_polar_zero_radius():
    assert polar(123.0, 0.0) == Point(0.0, 0.0)


def test_polar_rejects_negative_radius():
    with pytest.raises(ValueError):
        polar(30.0, -1.0)


@given(st.floats(min_value=-360, max_value=360), st.floats(min_value=0, max_value=1e3))
def test_polar_mirror_symmetry_is_exact(angle, radius):
    p = polar(angle, radius)
    q = polar(-angle, radius)
    assert q.x == p.x
    assert q.y == -p.y


@given(st.floats(min_value=-360, max_value=360))
def test_polar_radius_scales(angle):
    p = polar(angle, 1.0)
    assert math.hypot(p.x, p.y) == pytest.approx(1.0, abs=1e-12)


def test_apply_identity_and_translation():
    p = Point(2.0, 3.0)
    assert apply(IDENTITY, p) == p
    assert apply(AffineTransform(1.0, 0.0, 0.0, 1.0, 5.0, -1.0), p) == Point(7.0, 2.0)
    assert apply(AffineTransform(1.0, 0.0, 0.0, 1.0, 4.0, 0.0), p) == Point(6.0, 3.0)


def test_mirror_constants():
    assert apply(MIRROR_X, Point(2.0, 3.0)) == Point(-2.0, 3.0)
    assert apply(MIRROR_Y, Point(2.0, 3.0)) == Point(2.0, -3.0)
    assert compose(MIRROR_X, MIRROR_X) == IDENTITY
    assert compose(MIRROR_Y, MIRROR_Y) == IDENTITY


def test_rotation_quarter_turn():
    quarter = AffineTransform(0.0, 1.0, -1.0, 0.0, 0.0, 0.0)
    p = apply(quarter, Point(1.0, 0.0))
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=-360, max_value=360))
def test_rotation_agrees_with_rotation_to(angle):
    rad = math.radians(angle)
    c, s = math.cos(rad), math.sin(rad)
    assert AffineTransform(c, s, -s, c, 0.0, 0.0) == rotation_to(polar(angle, 1.0))


def test_rotation_to_axis_directions_are_exact():
    up = rotation_to(Point(0.0, 1.0))
    assert apply(up, Point(1.0, 0.0)) == Point(0.0, 1.0)
    back = rotation_to(Point(-1.0, 0.0))
    assert apply(back, Point(1.0, 0.0)) == Point(-1.0, 0.0)
    assert apply(back, Point(0.0, 1.0)) == Point(0.0, -1.0)


@given(transforms, points)
def test_compose_matches_nested_apply(t, p):
    lhs = apply(compose(t, MIRROR_X), p)
    rhs = apply(t, apply(MIRROR_X, p))
    assert lhs.x == pytest.approx(rhs.x, rel=1e-9, abs=1e-9)
    assert lhs.y == pytest.approx(rhs.y, rel=1e-9, abs=1e-9)


@given(exact_transforms, exact_transforms, exact_transforms)
def test_compose_is_associative_on_exact_inputs(t1, t2, t3):
    assert compose(compose(t1, t2), t3) == compose(t1, compose(t2, t3))


@given(transforms, transforms, points)
def test_compose_is_consistent_with_apply(t1, t2, p):
    lhs = apply(compose(t1, t2), p)
    rhs = apply(t1, apply(t2, p))
    scale = max(1.0, abs(rhs.x), abs(rhs.y))
    assert abs(lhs.x - rhs.x) <= 1e-6 * scale
    assert abs(lhs.y - rhs.y) <= 1e-6 * scale


def test_compose_identity_is_neutral():
    t = AffineTransform(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert compose(IDENTITY, t) == t
    assert compose(t, IDENTITY) == t
