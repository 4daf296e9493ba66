"""Standalone extent table for the arrow-tip catalog.

This module keeps its own hand-expanded transcription of every tip's extent
formulas, reduced to affine coefficients

    left(w)  = l0 + l1 * w
    right(w) = r0 + r1 * w

independently of how the package computes them (the package resolves each
tip's ``_reach`` row at runtime).  The tier-1 tests compare the two:
``test_acceptance.py::test_every_extent_matches_the_independent_table`` at
w in {0.4, 0.8, 1.6} within 1e-9 pt, and ``test_compile_tips.py`` against the
traced extents of every entry.  The tests and ``perfbench`` load it by path;
it has no command line.

Rows are in registry order: (start name, end name, (l0, l1), (r0, r1)).
"""

from __future__ import annotations

Row = tuple[str, str, tuple[float, float], tuple[float, float]]

ENTRIES: list[Row] = [
    ("[", "]", (-1.0, -1.25), (0.0, 0.5)),
    ("]", "[", (0.0, -0.5), (1.0, 1.25)),
    ("(", ")", (-1.0, -1.25), (0.125, 0.59375)),
    (")", "(", (-0.125, -0.59375), (1.0, 1.25)),
    ("angle 90", "angle 90", (-1.65, -1.875), (0.15, 0.832)),
    ("angle 90 reversed", "angle 90 reversed", (-0.15, -0.832), (1.65, 1.875)),
    ("angle 60", "angle 60", (-2.187, -2.3225), (0.15, 1.125)),
    ("angle 60 reversed", "angle 60 reversed", (-0.15, -1.125), (2.187, 2.3225)),
    ("angle 45", "angle 45", (-2.6115, -2.67625), (0.15, 1.405)),
    ("angle 45 reversed", "angle 45 reversed", (-0.15, -1.405), (2.6115, 2.67625)),
    ("*", "*", (-2.2, -2.1), (0.6, 0.8)),
    ("o", "o", (0.0, -0.5), (3.6, 2.3)),
    ("diamond", "diamond", (-5.2, -4.075), (0.4, 0.775)),
    ("open diamond", "open diamond", (0.0, -0.5), (5.6, 4.35)),
    ("triangle 90", "triangle 90", (-2.75, -1.875), (0.25, 0.832)),
    ("triangle 90 reversed", "triangle 90 reversed", (-0.25, -0.832), (2.75, 1.875)),
    ("triangle 60", "triangle 60", (-3.645, -2.3225), (0.25, 1.125)),
    ("triangle 60 reversed", "triangle 60 reversed", (-0.25, -1.125), (3.645, 2.3225)),
    ("triangle 45", "triangle 45", (-4.3525, -2.67625), (0.25, 1.405)),
    ("triangle 45 reversed", "triangle 45 reversed", (-0.25, -1.405), (4.3525, 2.67625)),
    ("open triangle 90", "open triangle 90", (0.0, -0.5), (3.0, 2.207)),
    ("open triangle 90 reversed", "open triangle 90 reversed", (0.0, -0.707), (3.0, 2.0)),
    ("open triangle 60", "open triangle 60", (0.0, -0.5), (3.897, 2.9485)),
    ("open triangle 60 reversed", "open triangle 60 reversed", (0.0, -1.0), (3.897, 2.4485)),
    ("open triangle 45", "open triangle 45", (0.0, -0.5), (4.6025, 3.58125)),
    ("open triangle 45 reversed", "open triangle 45 reversed", (0.0, -1.28), (4.6025, 2.80125)),
    ("latex'", "latex'", (-1.12, -1.2), (1.68, 1.8)),
    ("latex' reversed", "latex' reversed", (-1.68, -1.8), (1.12, 1.2)),
    ("stealth'", "stealth'", (-1.68, -2.3), (0.56, 1.1)),
    ("stealth' reversed", "stealth' reversed", (-0.56, -1.1), (1.68, 2.3)),
    ("left to", "left to", (-0.84, -1.3), (0.21, 0.625)),
    ("right to", "right to", (-0.84, -1.3), (0.21, 0.625)),
    ("left to reversed", "left to reversed", (0.0, -0.1), (1.05, 2.025)),
    ("right to reversed", "right to reversed", (0.0, -0.1), (1.05, 2.025)),
    ("left hook", "left hook", (0.0, -0.5), (1.5, 1.25)),
    ("left hook reversed", "left hook reversed", (-1.5, -1.25), (0.0, 0.5)),
    ("right hook", "right hook", (0.0, -0.5), (1.5, 1.25)),
    ("right hook reversed", "right hook reversed", (-1.5, -1.25), (0.0, 0.5)),
    ("hooks", "hooks", (0.0, -0.5), (1.5, 1.25)),
    ("hooks reversed", "hooks reversed", (-1.5, -1.25), (0.0, 0.5)),
    ("serif cm", "serif cm", (-0.3, -0.3375), (0.0, 0.04)),
    ("round cap", "round cap", (0.0, 0.0), (0.0, 1.0)),
    ("butt cap", "butt cap", (0.0, -0.1), (0.0, 0.5)),
    ("triangle 90 cap", "triangle 90 cap", (0.0, -0.1), (0.0, 1.0)),
    ("triangle 90 cap reversed", "triangle 90 cap reversed", (0.0, -0.1), (0.0, 1.0)),
    ("fast cap", "fast cap", (0.0, -0.1), (0.0, 2.0)),
    ("fast cap reversed", "fast cap reversed", (0.0, -0.1), (0.0, 2.0)),
]


def end_names() -> list[str]:
    return [row[1] for row in ENTRIES]


def extents(end_name: str, width: float) -> tuple[float, float]:
    for _, name, (l0, l1), (r0, r1) in ENTRIES:
        if name == end_name:
            return (l0 + l1 * width, r0 + r1 * width)
    raise KeyError(end_name)
