import math

import pytest

from arrowtips.geometry import AffineTransform, Point, apply

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
