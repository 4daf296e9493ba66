import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrowtips.geometry import (
    AffineTransform,
    Point,
    add,
    apply,
    polar,
)

IDENTITY = AffineTransform(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
MIRROR_X = AffineTransform(-1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
MIRROR_Y = AffineTransform(1.0, 0.0, 0.0, -1.0, 0.0, 0.0)


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
    p = Point(2.0, 3.0)
    assert apply(MIRROR_X, apply(MIRROR_X, p)) == p
    assert apply(MIRROR_Y, apply(MIRROR_Y, p)) == p


def test_rotation_quarter_turn():
    quarter = AffineTransform(0.0, 1.0, -1.0, 0.0, 0.0, 0.0)
    p = apply(quarter, Point(1.0, 0.0))
    assert p.x == pytest.approx(0.0, abs=1e-15)
    assert p.y == pytest.approx(1.0, abs=1e-15)
