"""The reference arc length against closed forms."""

import math
import random

import pytest

import arclength


def bezier(values, t):
    a, b, c, d = values
    s = 1.0 - t
    return s * s * s * a + 3 * s * s * t * b + 3 * s * t * t * c + t * t * t * d


def collinear_length(values):
    """Length of a cubic on a line: total variation of its coordinate along it."""
    a, b, c, d = values
    # x'(t)/3 = (b-a)(1-t)^2 + 2(c-b)(1-t)t + (d-c)t^2 = p t^2 + q t + r
    p, q, r = (b - a) - 2 * (c - b) + (d - c), 2 * ((c - b) - (b - a)), b - a
    roots = []
    if abs(p) > 1e-12:
        disc = q * q - 4 * p * r
        if disc > 0:
            roots = [(-q - math.sqrt(disc)) / (2 * p), (-q + math.sqrt(disc)) / (2 * p)]
    elif abs(q) > 1e-12:
        roots = [-r / q]
    ts = [0.0] + sorted(t for t in roots if 0 < t < 1) + [1.0]
    return sum(abs(bezier(values, t1) - bezier(values, t0)) for t0, t1 in zip(ts, ts[1:]))


def on_line(values, origin=(3.0, -2.0), angle=0.7):
    ux, uy = math.cos(angle), math.sin(angle)
    return tuple((origin[0] + v * ux, origin[1] + v * uy) for v in values)


def test_nodes_integrate_polynomials_to_degree_19_exactly():
    nodes, weights = arclength.gauss_legendre(arclength.NODE_COUNT)
    for k in range(2 * arclength.NODE_COUNT):
        assert sum(w * x ** k for x, w in zip(nodes, weights)) == pytest.approx(1 / (k + 1), abs=1e-15)


def test_line_length_is_exact():
    assert arclength.segment_length(("L", (1.0, 1.0), (4.0, 5.0))) == 5.0


@pytest.mark.parametrize("values", [
    (0.0, 10.0, 20.0, 30.0),          # uniform speed
    (0.0, 1.0, 29.0, 30.0),           # monotone, uneven speed
    (0.0, 200.0, -100.0, 100.0),      # the looping host of ROADMAP item 2: two cusps
    (0.0, 60.0, 60.0, 0.0),           # turns back once
])
def test_collinear_cubics_match_the_closed_form(values):
    length, error = arclength.cubic_length_with_error(*on_line(values))
    assert abs(length - collinear_length(values)) < arclength.STATED_ERROR_PT
    assert error < arclength.STATED_ERROR_PT


def test_random_collinear_cubics_match_the_closed_form():
    rng = random.Random(4)
    for _ in range(200):
        values = tuple(rng.uniform(-150, 150) for _ in range(4))
        length, _ = arclength.cubic_length_with_error(*on_line(values, angle=rng.uniform(0, 6)))
        assert abs(length - collinear_length(values)) < arclength.STATED_ERROR_PT


def test_the_roadmap_host_is_longer_than_the_program_measures():
    # 189.4427191 = 100 + 2 * (the two overshoots); the fixed 16-node rule
    # reported 187.33 for this curve.
    length, _ = arclength.cubic_length_with_error((0.0, 0.0), (200.0, 0.0), (-100.0, 0.0), (100.0, 0.0))
    assert length == pytest.approx(189.44271909999159, abs=1e-10)
