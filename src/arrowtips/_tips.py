"""Placed evaluators of the catalog tips.

GENERATED by scripts/compile_tips.py from catalog.py: do not edit.  After an
edit to catalog.py, regenerate it with

    python3 scripts/compile_tips.py

``PLACED`` maps each tip's end name to a function of the stroke width w and a
rigid placement (a, b, c, d, tx, ty) that returns the tip's placed drawables,
bit for bit what ``evaluate(transform_program(program(tip, w), placement), w)``
returns, for every w > 0 and every placement.

No coordinate they compute can overflow while w, |tx| and |ty| are at most
``BOUND`` and |a|, |b|, |c|, |d| at most 2: the script proves it from the
traced trees and writes no module that the proof does not cover.
"""

from .pathmodel import (Action, Circle, ClosePath, CurveTo, Drawable, LineCap, LineJoin, LineTo,
                        MoveTo, ProgramError)

_BUTT, _ROUND_CAP = LineCap.BUTT, LineCap.ROUND
_MITER, _ROUND_JOIN = LineJoin.MITER, LineJoin.ROUND
_STROKE, _FILL, _FILL_STROKE = Action.STROKE, Action.FILL, Action.FILL_STROKE
_CLOSE = ClosePath()
BOUND = 1e+300


def _tip0(w, a, b, c, d, tx, ty):
    # '[' / ']'
    v0 = 2.0 + 1.5 * w
    v1 = -0.5 * (v0 + w)
    v2 = a * v1
    v3 = -v0
    v4 = c * v3
    v5 = a * 0.0
    v6 = (v5 + c * 0.0) * w
    v7 = b * v1
    v8 = d * v3
    v9 = b * 0.0
    v10 = (v9 + d * 0.0) * w
    v11 = c * v0
    v12 = d * v0
    return (
        Drawable((
            MoveTo(v2 + v4 + tx + v6 + 0.0, v7 + v8 + ty + v10 + 0.0),
            LineTo(v5 + v4 + tx + v6 + 0.0, v9 + v8 + ty + v10 + 0.0),
            LineTo(v5 + v11 + tx + v6 + 0.0, v9 + v12 + ty + v10 + 0.0),
            LineTo(v2 + v11 + tx + v6 + 0.0, v7 + v12 + ty + v10 + 0.0),
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip1(w, a, b, c, d, tx, ty):
    # ']' / '[': mirror of '[' / ']'
    return _tip0(w, -a, -b, c, d, tx, ty)


def _tip2(w, a, b, c, d, tx, ty):
    # '(' / ')'
    v0 = 2.0 + 1.5 * w
    v1 = -0.5 * v0
    v2 = a * v1
    v3 = -v0
    v4 = (a * 0.0 + c * 0.0) * w
    v5 = b * v1
    v6 = (b * 0.0 + d * 0.0) * w
    v7 = 0.25 * v0
    v8 = a * v7
    v9 = b * v7
    v10 = 0.5 * v0
    return (
        Drawable((
            MoveTo(v2 + c * v3 + tx + v4 + 0.0, v5 + d * v3 + ty + v6 + 0.0),
            CurveTo(v8 + c * v1 + tx + v4 + 0.0, v9 + d * v1 + ty + v6 + 0.0,
                    v8 + c * v10 + tx + v4 + 0.0, v9 + d * v10 + ty + v6 + 0.0,
                    v2 + c * v0 + tx + v4 + 0.0, v5 + d * v0 + ty + v6 + 0.0),
        ), w, _ROUND_CAP, _MITER, _STROKE),
    )


def _tip3(w, a, b, c, d, tx, ty):
    # ')' / '(': mirror of '(' / ')'
    return _tip2(w, -a, -b, c, d, tx, ty)


def _tip4(w, a, b, c, d, tx, ty):
    # 'angle 90' / 'angle 90'
    v0 = 0.3 + 0.25 * w
    v1 = -5.5 * v0
    v2 = a * v1
    v3 = -6.0 * v0
    v4 = c * 0.0
    v5 = (a * 0.0 + v4) * w
    v6 = b * v1
    v7 = d * 0.0
    v8 = (b * 0.0 + v7) * w
    v9 = 0.5 * v0
    v10 = 6.0 * v0
    return (
        Drawable((
            MoveTo(v2 + c * v3 + tx + v5 + 0.0, v6 + d * v3 + ty + v8 + 0.0),
            LineTo(a * v9 + v4 + tx + v5 + 0.0, b * v9 + v7 + ty + v8 + 0.0),
            LineTo(v2 + c * v10 + tx + v5 + 0.0, v6 + d * v10 + ty + v8 + 0.0),
        ), w, _ROUND_CAP, _MITER, _STROKE),
    )


def _tip5(w, a, b, c, d, tx, ty):
    # 'angle 90 reversed' / 'angle 90 reversed': mirror of 'angle 90' / 'angle 90'
    return _tip4(w, -a, -b, c, d, tx, ty)


def _tip6(w, a, b, c, d, tx, ty):
    # 'angle 60' / 'angle 60'
    v0 = 0.3 + 0.25 * w
    v1 = 0.5 * v0
    v2 = 9.0 * v0
    v3 = v1 + v2 * -0.8660254037844387
    v4 = a * v3
    v5 = v2 * 0.49999999999999994
    v6 = c * 0.0
    v7 = (a * 0.0 + v6) * w
    v8 = b * v3
    v9 = d * 0.0
    v10 = (b * 0.0 + v9) * w
    v11 = v2 * -0.49999999999999994
    return (
        Drawable((
            MoveTo(v4 + c * v5 + tx + v7 + 0.0, v8 + d * v5 + ty + v10 + 0.0),
            LineTo(a * v1 + v6 + tx + v7 + 0.0, b * v1 + v9 + ty + v10 + 0.0),
            LineTo(v4 + c * v11 + tx + v7 + 0.0, v8 + d * v11 + ty + v10 + 0.0),
        ), w, _ROUND_CAP, _MITER, _STROKE),
    )


def _tip7(w, a, b, c, d, tx, ty):
    # 'angle 60 reversed' / 'angle 60 reversed': mirror of 'angle 60' / 'angle 60'
    return _tip6(w, -a, -b, c, d, tx, ty)


def _tip8(w, a, b, c, d, tx, ty):
    # 'angle 45' / 'angle 45'
    v0 = 0.3 + 0.25 * w
    v1 = 0.5 * v0
    v2 = 10.0 * v0
    v3 = v1 + v2 * -0.9205048534524404
    v4 = a * v3
    v5 = v2 * 0.39073112848927377
    v6 = c * 0.0
    v7 = (a * 0.0 + v6) * w
    v8 = b * v3
    v9 = d * 0.0
    v10 = (b * 0.0 + v9) * w
    v11 = v2 * -0.39073112848927377
    return (
        Drawable((
            MoveTo(v4 + c * v5 + tx + v7 + 0.0, v8 + d * v5 + ty + v10 + 0.0),
            LineTo(a * v1 + v6 + tx + v7 + 0.0, b * v1 + v9 + ty + v10 + 0.0),
            LineTo(v4 + c * v11 + tx + v7 + 0.0, v8 + d * v11 + ty + v10 + 0.0),
        ), w, _ROUND_CAP, _MITER, _STROKE),
    )


def _tip9(w, a, b, c, d, tx, ty):
    # 'angle 45 reversed' / 'angle 45 reversed': mirror of 'angle 45' / 'angle 45'
    return _tip8(w, -a, -b, c, d, tx, ty)


def _tip10(w, a, b, c, d, tx, ty):
    # '*' / '*'
    v0 = 0.4 + 0.2 * w
    v1 = -3.0 * v0
    v2 = c * 0.0
    v3 = d * 0.0
    r0 = 4.5 * v0 + 0.0 * w
    if not r0 > 0:
        raise ProgramError(0, f"circle radius must be positive, got {r0}")
    return (
        Drawable((
            Circle(a * v1 + v2 + tx + (a * 0.0 + v2) * w + 0.0, b * v1 + v3 + ty + (b * 0.0 + v3) * w + 0.0,
                    r0),
        ), w, _BUTT, _MITER, _FILL_STROKE),
    )


def _tip11(w, a, b, c, d, tx, ty):
    # 'o' / 'o'
    v0 = 4.5 * (0.4 + 0.2 * w)
    v1 = c * 0.0
    v2 = d * 0.0
    r0 = v0 + 0.0 * w
    if not r0 > 0:
        raise ProgramError(0, f"circle radius must be positive, got {r0}")
    return (
        Drawable((
            Circle(a * v0 + v1 + tx + (a * 0.0 + v1) * w + 0.0, b * v0 + v2 + ty + (b * 0.0 + v2) * w + 0.0,
                    r0),
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip12(w, a, b, c, d, tx, ty):
    # 'diamond' / 'diamond'
    v0 = 0.4 + 0.275 * w
    v1 = c * 0.0
    v2 = (a * 0.0 + v1) * w
    v3 = d * 0.0
    v4 = (b * 0.0 + v3) * w
    v5 = -6.0 * v0
    v6 = a * v5
    v7 = 4.0 * v0
    v8 = b * v5
    v9 = -13.0 * v0
    v10 = -4.0 * v0
    return (
        Drawable((
            MoveTo(a * v0 + v1 + tx + v2 + 0.0, b * v0 + v3 + ty + v4 + 0.0),
            LineTo(v6 + c * v7 + tx + v2 + 0.0, v8 + d * v7 + ty + v4 + 0.0),
            LineTo(a * v9 + v1 + tx + v2 + 0.0, b * v9 + v3 + ty + v4 + 0.0),
            LineTo(v6 + c * v10 + tx + v2 + 0.0, v8 + d * v10 + ty + v4 + 0.0),
            _CLOSE,
        ), w, _BUTT, _ROUND_JOIN, _FILL_STROKE),
    )


def _tip13(w, a, b, c, d, tx, ty):
    # 'open diamond' / 'open diamond'
    v0 = 0.4 + 0.275 * w
    v1 = 14.0 * v0
    v2 = c * 0.0
    v3 = a * 0.0 + v2
    v4 = v3 * w
    v5 = d * 0.0
    v6 = b * 0.0 + v5
    v7 = v6 * w
    v8 = 7.0 * v0
    v9 = a * v8
    v10 = 4.0 * v0
    v11 = b * v8
    v12 = -4.0 * v0
    return (
        Drawable((
            MoveTo(a * v1 + v2 + tx + v4 + 0.0, b * v1 + v5 + ty + v7 + 0.0),
            LineTo(v9 + c * v10 + tx + v4 + 0.0, v11 + d * v10 + ty + v7 + 0.0),
            LineTo(v3 + tx + v4 + 0.0, v6 + ty + v7 + 0.0),
            LineTo(v9 + c * v12 + tx + v4 + 0.0, v11 + d * v12 + ty + v7 + 0.0),
            _CLOSE,
        ), w, _BUTT, _ROUND_JOIN, _STROKE),
    )


def _tip14(w, a, b, c, d, tx, ty):
    # 'triangle 90' / 'triangle 90'
    v0 = 0.5 + 0.25 * w
    v1 = -5.5 * v0
    v2 = a * v1
    v3 = -6.0 * v0
    v4 = c * 0.0
    v5 = (a * 0.0 + v4) * w
    v6 = b * v1
    v7 = d * 0.0
    v8 = (b * 0.0 + v7) * w
    v9 = 0.5 * v0
    v10 = 6.0 * v0
    return (
        Drawable((
            MoveTo(v2 + c * v3 + tx + v5 + 0.0, v6 + d * v3 + ty + v8 + 0.0),
            LineTo(a * v9 + v4 + tx + v5 + 0.0, b * v9 + v7 + ty + v8 + 0.0),
            LineTo(v2 + c * v10 + tx + v5 + 0.0, v6 + d * v10 + ty + v8 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _FILL_STROKE),
    )


def _tip15(w, a, b, c, d, tx, ty):
    # 'triangle 90 reversed' / 'triangle 90 reversed': mirror of 'triangle 90' / 'triangle 90'
    return _tip14(w, -a, -b, c, d, tx, ty)


def _tip16(w, a, b, c, d, tx, ty):
    # 'triangle 60' / 'triangle 60'
    v0 = 0.5 + 0.25 * w
    v1 = 0.5 * v0
    v2 = 9.0 * v0
    v3 = v1 + v2 * -0.8660254037844387
    v4 = a * v3
    v5 = v2 * 0.49999999999999994
    v6 = c * 0.0
    v7 = (a * 0.0 + v6) * w
    v8 = b * v3
    v9 = d * 0.0
    v10 = (b * 0.0 + v9) * w
    v11 = v2 * -0.49999999999999994
    return (
        Drawable((
            MoveTo(v4 + c * v5 + tx + v7 + 0.0, v8 + d * v5 + ty + v10 + 0.0),
            LineTo(a * v1 + v6 + tx + v7 + 0.0, b * v1 + v9 + ty + v10 + 0.0),
            LineTo(v4 + c * v11 + tx + v7 + 0.0, v8 + d * v11 + ty + v10 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _FILL_STROKE),
    )


def _tip17(w, a, b, c, d, tx, ty):
    # 'triangle 60 reversed' / 'triangle 60 reversed': mirror of 'triangle 60' / 'triangle 60'
    return _tip16(w, -a, -b, c, d, tx, ty)


def _tip18(w, a, b, c, d, tx, ty):
    # 'triangle 45' / 'triangle 45'
    v0 = 0.5 + 0.25 * w
    v1 = 0.5 * v0
    v2 = 10.0 * v0
    v3 = v1 + v2 * -0.9205048534524404
    v4 = a * v3
    v5 = v2 * 0.39073112848927377
    v6 = c * 0.0
    v7 = (a * 0.0 + v6) * w
    v8 = b * v3
    v9 = d * 0.0
    v10 = (b * 0.0 + v9) * w
    v11 = v2 * -0.39073112848927377
    return (
        Drawable((
            MoveTo(v4 + c * v5 + tx + v7 + 0.0, v8 + d * v5 + ty + v10 + 0.0),
            LineTo(a * v1 + v6 + tx + v7 + 0.0, b * v1 + v9 + ty + v10 + 0.0),
            LineTo(v4 + c * v11 + tx + v7 + 0.0, v8 + d * v11 + ty + v10 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _FILL_STROKE),
    )


def _tip19(w, a, b, c, d, tx, ty):
    # 'triangle 45 reversed' / 'triangle 45 reversed': mirror of 'triangle 45' / 'triangle 45'
    return _tip18(w, -a, -b, c, d, tx, ty)


def _tip20(w, a, b, c, d, tx, ty):
    # 'open triangle 90' / 'open triangle 90'
    v0 = a * 0.0
    v1 = 0.5 + 0.25 * w
    v2 = -6.0 * v1
    v3 = c * 0.0
    v4 = (v0 + v3) * w
    v5 = b * 0.0
    v6 = d * 0.0
    v7 = (v5 + v6) * w
    v8 = 6.0 * v1
    return (
        Drawable((
            MoveTo(v0 + c * v2 + tx + v4 + 0.0, v5 + d * v2 + ty + v7 + 0.0),
            LineTo(a * v8 + v3 + tx + v4 + 0.0, b * v8 + v6 + ty + v7 + 0.0),
            LineTo(v0 + c * v8 + tx + v4 + 0.0, v5 + d * v8 + ty + v7 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip21(w, a, b, c, d, tx, ty):
    # 'open triangle 90 reversed' / 'open triangle 90 reversed'
    v0 = 0.5 + 0.25 * w
    v1 = 6.0 * v0
    v2 = a * v1
    v3 = -6.0 * v0
    v4 = a * 0.0 + c * 0.0
    v5 = v4 * w
    v6 = b * v1
    v7 = b * 0.0 + d * 0.0
    v8 = v7 * w
    return (
        Drawable((
            MoveTo(v2 + c * v3 + tx + v5 + 0.0, v6 + d * v3 + ty + v8 + 0.0),
            LineTo(v4 + tx + v5 + 0.0, v7 + ty + v8 + 0.0),
            LineTo(v2 + c * v1 + tx + v5 + 0.0, v6 + d * v1 + ty + v8 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip22(w, a, b, c, d, tx, ty):
    # 'open triangle 60' / 'open triangle 60'
    v0 = 0.5 + 0.25 * w
    v1 = 7.794 * v0
    v2 = 9.0 * v0
    v3 = v1 + v2 * -0.8660254037844387
    v4 = a * v3
    v5 = v2 * 0.49999999999999994
    v6 = c * 0.0
    v7 = (a * 0.0 + v6) * w
    v8 = b * v3
    v9 = d * 0.0
    v10 = (b * 0.0 + v9) * w
    v11 = v2 * -0.49999999999999994
    return (
        Drawable((
            MoveTo(v4 + c * v5 + tx + v7 + 0.0, v8 + d * v5 + ty + v10 + 0.0),
            LineTo(a * v1 + v6 + tx + v7 + 0.0, b * v1 + v9 + ty + v10 + 0.0),
            LineTo(v4 + c * v11 + tx + v7 + 0.0, v8 + d * v11 + ty + v10 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip23(w, a, b, c, d, tx, ty):
    # 'open triangle 60 reversed' / 'open triangle 60 reversed'
    v0 = 9.0 * (0.5 + 0.25 * w)
    v1 = 0.0 + v0 * 0.8660254037844387
    v2 = a * v1
    v3 = v0 * 0.49999999999999994
    v4 = a * 0.0 + c * 0.0
    v5 = v4 * w
    v6 = b * v1
    v7 = b * 0.0 + d * 0.0
    v8 = v7 * w
    v9 = v0 * -0.49999999999999994
    return (
        Drawable((
            MoveTo(v2 + c * v3 + tx + v5 + 0.0, v6 + d * v3 + ty + v8 + 0.0),
            LineTo(v4 + tx + v5 + 0.0, v7 + ty + v8 + 0.0),
            LineTo(v2 + c * v9 + tx + v5 + 0.0, v6 + d * v9 + ty + v8 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip24(w, a, b, c, d, tx, ty):
    # 'open triangle 45' / 'open triangle 45'
    v0 = 0.5 + 0.25 * w
    v1 = 9.205 * v0
    v2 = 10.0 * v0
    v3 = v1 + v2 * -0.9205048534524404
    v4 = a * v3
    v5 = v2 * 0.39073112848927377
    v6 = c * 0.0
    v7 = (a * 0.0 + v6) * w
    v8 = b * v3
    v9 = d * 0.0
    v10 = (b * 0.0 + v9) * w
    v11 = v2 * -0.39073112848927377
    return (
        Drawable((
            MoveTo(v4 + c * v5 + tx + v7 + 0.0, v8 + d * v5 + ty + v10 + 0.0),
            LineTo(a * v1 + v6 + tx + v7 + 0.0, b * v1 + v9 + ty + v10 + 0.0),
            LineTo(v4 + c * v11 + tx + v7 + 0.0, v8 + d * v11 + ty + v10 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip25(w, a, b, c, d, tx, ty):
    # 'open triangle 45 reversed' / 'open triangle 45 reversed'
    v0 = 10.0 * (0.5 + 0.25 * w)
    v1 = 0.0 + v0 * 0.9205048534524404
    v2 = a * v1
    v3 = v0 * 0.39073112848927377
    v4 = a * 0.0 + c * 0.0
    v5 = v4 * w
    v6 = b * v1
    v7 = b * 0.0 + d * 0.0
    v8 = v7 * w
    v9 = v0 * -0.39073112848927377
    return (
        Drawable((
            MoveTo(v2 + c * v3 + tx + v5 + 0.0, v6 + d * v3 + ty + v8 + 0.0),
            LineTo(v4 + tx + v5 + 0.0, v7 + ty + v8 + 0.0),
            LineTo(v2 + c * v9 + tx + v5 + 0.0, v6 + d * v9 + ty + v8 + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip26(w, a, b, c, d, tx, ty):
    # "latex'" / "latex'"
    v0 = 0.28 + 0.3 * w
    v1 = 6.0 * v0
    v2 = c * 0.0
    v3 = (a * 0.0 + v2) * w
    v4 = a * v1 + v2 + tx + v3 + 0.0
    v5 = d * 0.0
    v6 = (b * 0.0 + v5) * w
    v7 = b * v1 + v5 + ty + v6 + 0.0
    v8 = 3.5 * v0
    v9 = a * v8
    v10 = 0.5 * v0
    v11 = b * v8
    v12 = -v0
    v13 = a * v12
    v14 = 1.5 * v0
    v15 = b * v12
    v16 = -4.0 * v0
    v17 = a * v16
    v18 = 3.75 * v0
    v19 = b * v16
    v20 = -1.5 * v0
    v21 = a * v20
    v22 = b * v20
    v23 = -3.75 * v0
    v24 = -0.5 * v0
    return (
        Drawable((
            MoveTo(v4, v7),
            CurveTo(v9 + c * v10 + tx + v3 + 0.0, v11 + d * v10 + ty + v6 + 0.0,
                    v13 + c * v14 + tx + v3 + 0.0, v15 + d * v14 + ty + v6 + 0.0,
                    v17 + c * v18 + tx + v3 + 0.0, v19 + d * v18 + ty + v6 + 0.0),
            CurveTo(v21 + c * v0 + tx + v3 + 0.0, v22 + d * v0 + ty + v6 + 0.0,
                    v21 + c * v12 + tx + v3 + 0.0, v22 + d * v12 + ty + v6 + 0.0,
                    v17 + c * v23 + tx + v3 + 0.0, v19 + d * v23 + ty + v6 + 0.0),
            CurveTo(v13 + c * v20 + tx + v3 + 0.0, v15 + d * v20 + ty + v6 + 0.0,
                    v9 + c * v24 + tx + v3 + 0.0, v11 + d * v24 + ty + v6 + 0.0,
                    v4, v7),
        ), w, _BUTT, _MITER, _FILL),
    )


def _tip27(w, a, b, c, d, tx, ty):
    # "latex' reversed" / "latex' reversed": mirror of "latex'" / "latex'"
    return _tip26(w, -a, -b, c, d, tx, ty)


def _tip28(w, a, b, c, d, tx, ty):
    # "stealth'" / "stealth'"
    v0 = 0.28 + 0.3 * w
    v1 = 2.0 * v0
    v2 = c * 0.0
    v3 = (a * 0.0 + v2) * w
    v4 = a * v1 + v2 + tx + v3 + 0.0
    v5 = d * 0.0
    v6 = (b * 0.0 + v5) * w
    v7 = b * v1 + v5 + ty + v6 + 0.0
    v8 = -0.5 * v0
    v9 = a * v8
    v10 = 0.5 * v0
    v11 = b * v8
    v12 = -3.0 * v0
    v13 = a * v12
    v14 = 1.5 * v0
    v15 = b * v12
    v16 = -6.0 * v0
    v17 = a * v16
    v18 = 3.25 * v0
    v19 = b * v16
    v20 = -v0
    v21 = -3.25 * v0
    v22 = -1.5 * v0
    return (
        Drawable((
            MoveTo(v4, v7),
            CurveTo(v9 + c * v10 + tx + v3 + 0.0, v11 + d * v10 + ty + v6 + 0.0,
                    v13 + c * v14 + tx + v3 + 0.0, v15 + d * v14 + ty + v6 + 0.0,
                    v17 + c * v18 + tx + v3 + 0.0, v19 + d * v18 + ty + v6 + 0.0),
            CurveTo(v13 + c * v0 + tx + v3 + 0.0, v15 + d * v0 + ty + v6 + 0.0,
                    v13 + c * v20 + tx + v3 + 0.0, v15 + d * v20 + ty + v6 + 0.0,
                    v17 + c * v21 + tx + v3 + 0.0, v19 + d * v21 + ty + v6 + 0.0),
            CurveTo(v13 + c * v22 + tx + v3 + 0.0, v15 + d * v22 + ty + v6 + 0.0,
                    v9 + c * v8 + tx + v3 + 0.0, v11 + d * v8 + ty + v6 + 0.0,
                    v4, v7),
            _CLOSE,
        ), w, _BUTT, _ROUND_JOIN, _FILL_STROKE),
    )


def _tip29(w, a, b, c, d, tx, ty):
    # "stealth' reversed" / "stealth' reversed": mirror of "stealth'" / "stealth'"
    return _tip28(w, -a, -b, c, d, tx, ty)


def _tip30(w, a, b, c, d, tx, ty):
    # 'left to' / 'left to'
    v0 = w * 0.8
    v1 = 0.28 + 0.3 * w
    v2 = -3.0 * v1
    v3 = 4.0 * v1
    v4 = a * 0.0
    v5 = c * 0.0
    v6 = v4 + v5
    v7 = v6 * v0
    v8 = b * 0.0
    v9 = d * 0.0
    v10 = v8 + v9
    v11 = v10 * v0
    v12 = -2.75 * v1
    v13 = 2.5 * v1
    v14 = 0.25 * v1
    v15 = 0.75 * v1
    v16 = 0.55 * v1
    v17 = (v4 + c * -0.125) * v0
    v18 = (v8 + d * -0.125) * v0
    v19 = 0.5 * v1
    v20 = a * v19 + v5 + tx + v17 + 0.0
    v21 = b * v19 + v9 + ty + v18 + 0.0
    return (
        Drawable((
            MoveTo(a * v2 + c * v3 + tx + v7 + 0.0, b * v2 + d * v3 + ty + v11 + 0.0),
            CurveTo(a * v12 + c * v13 + tx + v7 + 0.0, b * v12 + d * v13 + ty + v11 + 0.0,
                    v4 + c * v14 + tx + v7 + 0.0, v8 + d * v14 + ty + v11 + 0.0,
                    a * v15 + v5 + tx + v7 + 0.0, b * v15 + v9 + ty + v11 + 0.0),
            CurveTo(a * v16 + v5 + tx + v17 + 0.0, b * v16 + v9 + ty + v18 + 0.0,
                    v20, v21,
                    v20, v21),
            LineTo(v6 + tx + v17 + 0.0, v10 + ty + v18 + 0.0),
        ), v0, _ROUND_CAP, _ROUND_JOIN, _STROKE),
    )


def _tip31(w, a, b, c, d, tx, ty):
    # 'right to' / 'right to'
    v0 = w * 0.8
    v1 = 0.28 + 0.3 * w
    v2 = -3.0 * v1
    v3 = -4.0 * v1
    v4 = a * 0.0
    v5 = c * 0.0
    v6 = v4 + v5
    v7 = v6 * v0
    v8 = b * 0.0
    v9 = d * 0.0
    v10 = v8 + v9
    v11 = v10 * v0
    v12 = -2.75 * v1
    v13 = -2.5 * v1
    v14 = -0.25 * v1
    v15 = 0.75 * v1
    v16 = 0.55 * v1
    v17 = (v4 + c * 0.125) * v0
    v18 = (v8 + d * 0.125) * v0
    v19 = 0.5 * v1
    v20 = a * v19 + v5 + tx + v17 + 0.0
    v21 = b * v19 + v9 + ty + v18 + 0.0
    return (
        Drawable((
            MoveTo(a * v2 + c * v3 + tx + v7 + 0.0, b * v2 + d * v3 + ty + v11 + 0.0),
            CurveTo(a * v12 + c * v13 + tx + v7 + 0.0, b * v12 + d * v13 + ty + v11 + 0.0,
                    v4 + c * v14 + tx + v7 + 0.0, v8 + d * v14 + ty + v11 + 0.0,
                    a * v15 + v5 + tx + v7 + 0.0, b * v15 + v9 + ty + v11 + 0.0),
            CurveTo(a * v16 + v5 + tx + v17 + 0.0, b * v16 + v9 + ty + v18 + 0.0,
                    v20, v21,
                    v20, v21),
            LineTo(v6 + tx + v17 + 0.0, v10 + ty + v18 + 0.0),
        ), v0, _ROUND_CAP, _ROUND_JOIN, _STROKE),
    )


def _tip32(w, a, b, c, d, tx, ty):
    # 'left to reversed' / 'left to reversed'
    v0 = a * 0.0
    v1 = c * 0.0
    v2 = v0 + v1
    v3 = v2 + tx
    v4 = b * 0.0
    v5 = d * 0.0
    v6 = v4 + v5
    v7 = v6 + ty
    v8 = w * 0.8
    v9 = 0.28 + 0.3 * w
    v10 = 3.75 * v9
    v11 = 4.0 * v9
    v12 = v2 * v8
    v13 = 0.0 + (v2 + (a * 0.625 + v1) * v8)
    v14 = a * v10 + c * v11 + tx + v12 + v13
    v15 = v6 * v8
    v16 = 0.0 + (v6 + (b * 0.625 + v5) * v8)
    v17 = b * v10 + d * v11 + ty + v15 + v16
    v18 = 3.5 * v9
    v19 = 2.5 * v9
    v20 = a * v18 + c * v19 + tx + v12 + v13
    v21 = b * v18 + d * v19 + ty + v15 + v16
    v22 = 0.75 * v9
    v23 = 0.25 * v9
    v24 = a * v22 + c * v23 + tx + v12 + v13
    v25 = b * v22 + d * v23 + ty + v15 + v16
    return (
        Drawable((
            MoveTo(v3 + (a * 0.5 + v1) * w + 0.0, v7 + (b * 0.5 + v5) * w + 0.0),
            LineTo(v3 + (a * -0.1 + v1) * w + 0.0, v7 + (b * -0.1 + v5) * w + 0.0),
        ), w, _BUTT, _ROUND_JOIN, _STROKE),
        Drawable((
            MoveTo(v14, v17),
            CurveTo(v20, v21,
                    v24, v25,
                    v3 + (v0 + c * 0.125) * v8 + v13, v7 + (v4 + d * 0.125) * v8 + v16),
            MoveTo(v14, v17),
            CurveTo(v20, v21,
                    v24, v25,
                    v3 + (v0 + c * -0.125) * v8 + v13, v7 + (v4 + d * -0.125) * v8 + v16),
        ), v8, _ROUND_CAP, _ROUND_JOIN, _STROKE),
    )


def _tip33(w, a, b, c, d, tx, ty):
    # 'right to reversed' / 'right to reversed'
    v0 = a * 0.0
    v1 = c * 0.0
    v2 = v0 + v1
    v3 = v2 + tx
    v4 = b * 0.0
    v5 = d * 0.0
    v6 = v4 + v5
    v7 = v6 + ty
    v8 = w * 0.8
    v9 = 0.28 + 0.3 * w
    v10 = 3.75 * v9
    v11 = -4.0 * v9
    v12 = v2 * v8
    v13 = 0.0 + (v2 + (a * 0.625 + v1) * v8)
    v14 = a * v10 + c * v11 + tx + v12 + v13
    v15 = v6 * v8
    v16 = 0.0 + (v6 + (b * 0.625 + v5) * v8)
    v17 = b * v10 + d * v11 + ty + v15 + v16
    v18 = 3.5 * v9
    v19 = -2.5 * v9
    v20 = a * v18 + c * v19 + tx + v12 + v13
    v21 = b * v18 + d * v19 + ty + v15 + v16
    v22 = 0.75 * v9
    v23 = -0.25 * v9
    v24 = a * v22 + c * v23 + tx + v12 + v13
    v25 = b * v22 + d * v23 + ty + v15 + v16
    return (
        Drawable((
            MoveTo(v3 + (a * 0.5 + v1) * w + 0.0, v7 + (b * 0.5 + v5) * w + 0.0),
            LineTo(v3 + (a * -0.1 + v1) * w + 0.0, v7 + (b * -0.1 + v5) * w + 0.0),
        ), w, _BUTT, _ROUND_JOIN, _STROKE),
        Drawable((
            MoveTo(v14, v17),
            CurveTo(v20, v21,
                    v24, v25,
                    v3 + (v0 + c * -0.125) * v8 + v13, v7 + (v4 + d * -0.125) * v8 + v16),
            MoveTo(v14, v17),
            CurveTo(v20, v21,
                    v24, v25,
                    v3 + (v0 + c * 0.125) * v8 + v13, v7 + (v4 + d * 0.125) * v8 + v16),
        ), v8, _ROUND_CAP, _ROUND_JOIN, _STROKE),
    )


def _tip34(w, a, b, c, d, tx, ty):
    # 'left hook' / 'left hook'
    v0 = c * 0.0
    v1 = a * 0.0 + v0
    v2 = v1 * w
    v3 = d * 0.0
    v4 = b * 0.0 + v3
    v5 = v4 * w
    v6 = 0.4 + 0.2 * w
    v7 = 0.75 * v6
    v8 = a * v7
    v9 = b * v7
    v10 = 2.415 * v6
    v11 = a * v10
    v12 = b * v10
    v13 = 3.75 * v6
    v14 = a * v13
    v15 = 1.665 * v6
    v16 = b * v13
    v17 = 3.0 * v6
    v18 = 4.665 * v6
    v19 = 6.0 * v6
    v20 = c * v19
    v21 = d * v19
    return (
        Drawable((
            MoveTo(v1 + tx + v2 + 0.0, v4 + ty + v5 + 0.0),
            LineTo(v8 + v0 + tx + v2 + 0.0, v9 + v3 + ty + v5 + 0.0),
            CurveTo(v11 + v0 + tx + v2 + 0.0, v12 + v3 + ty + v5 + 0.0,
                    v14 + c * v15 + tx + v2 + 0.0, v16 + d * v15 + ty + v5 + 0.0,
                    v14 + c * v17 + tx + v2 + 0.0, v16 + d * v17 + ty + v5 + 0.0),
            CurveTo(v14 + c * v18 + tx + v2 + 0.0, v16 + d * v18 + ty + v5 + 0.0,
                    v11 + v20 + tx + v2 + 0.0, v12 + v21 + ty + v5 + 0.0,
                    v8 + v20 + tx + v2 + 0.0, v9 + v21 + ty + v5 + 0.0),
        ), w, _ROUND_CAP, _MITER, _STROKE),
    )


def _tip35(w, a, b, c, d, tx, ty):
    # 'left hook reversed' / 'left hook reversed': mirror of 'left hook' / 'left hook'
    return _tip34(w, -a, -b, c, d, tx, ty)


def _tip36(w, a, b, c, d, tx, ty):
    # 'right hook' / 'right hook'
    v0 = c * 0.0
    v1 = a * 0.0 + v0
    v2 = v1 * w
    v3 = d * 0.0
    v4 = b * 0.0 + v3
    v5 = v4 * w
    v6 = 0.4 + 0.2 * w
    v7 = 0.75 * v6
    v8 = a * v7
    v9 = b * v7
    v10 = 2.415 * v6
    v11 = a * v10
    v12 = b * v10
    v13 = 3.75 * v6
    v14 = a * v13
    v15 = -1.665 * v6
    v16 = b * v13
    v17 = -3.0 * v6
    v18 = -4.665 * v6
    v19 = -6.0 * v6
    v20 = c * v19
    v21 = d * v19
    return (
        Drawable((
            MoveTo(v1 + tx + v2 + 0.0, v4 + ty + v5 + 0.0),
            LineTo(v8 + v0 + tx + v2 + 0.0, v9 + v3 + ty + v5 + 0.0),
            CurveTo(v11 + v0 + tx + v2 + 0.0, v12 + v3 + ty + v5 + 0.0,
                    v14 + c * v15 + tx + v2 + 0.0, v16 + d * v15 + ty + v5 + 0.0,
                    v14 + c * v17 + tx + v2 + 0.0, v16 + d * v17 + ty + v5 + 0.0),
            CurveTo(v14 + c * v18 + tx + v2 + 0.0, v16 + d * v18 + ty + v5 + 0.0,
                    v11 + v20 + tx + v2 + 0.0, v12 + v21 + ty + v5 + 0.0,
                    v8 + v20 + tx + v2 + 0.0, v9 + v21 + ty + v5 + 0.0),
        ), w, _ROUND_CAP, _MITER, _STROKE),
    )


def _tip37(w, a, b, c, d, tx, ty):
    # 'right hook reversed' / 'right hook reversed': mirror of 'right hook' / 'right hook'
    return _tip36(w, -a, -b, c, d, tx, ty)


def _tip38(w, a, b, c, d, tx, ty):
    # 'hooks' / 'hooks'
    v0 = c * 0.0
    v1 = a * 0.0 + v0
    v2 = v1 * w
    v3 = d * 0.0
    v4 = b * 0.0 + v3
    v5 = v4 * w
    v6 = 0.4 + 0.2 * w
    v7 = 0.75 * v6
    v8 = a * v7
    v9 = v8 + v0 + tx + v2 + 0.0
    v10 = b * v7
    v11 = v10 + v3 + ty + v5 + 0.0
    v12 = 2.415 * v6
    v13 = a * v12
    v14 = v13 + v0 + tx + v2 + 0.0
    v15 = b * v12
    v16 = v15 + v3 + ty + v5 + 0.0
    v17 = 3.75 * v6
    v18 = a * v17
    v19 = 1.665 * v6
    v20 = b * v17
    v21 = 3.0 * v6
    v22 = 4.665 * v6
    v23 = 6.0 * v6
    v24 = c * v23
    v25 = d * v23
    v26 = -1.665 * v6
    v27 = -3.0 * v6
    v28 = -4.665 * v6
    v29 = -6.0 * v6
    v30 = c * v29
    v31 = d * v29
    return (
        Drawable((
            MoveTo(v1 + tx + v2 + 0.0, v4 + ty + v5 + 0.0),
            LineTo(v9, v11),
            CurveTo(v14, v16,
                    v18 + c * v19 + tx + v2 + 0.0, v20 + d * v19 + ty + v5 + 0.0,
                    v18 + c * v21 + tx + v2 + 0.0, v20 + d * v21 + ty + v5 + 0.0),
            CurveTo(v18 + c * v22 + tx + v2 + 0.0, v20 + d * v22 + ty + v5 + 0.0,
                    v13 + v24 + tx + v2 + 0.0, v15 + v25 + ty + v5 + 0.0,
                    v8 + v24 + tx + v2 + 0.0, v10 + v25 + ty + v5 + 0.0),
            MoveTo(v9, v11),
            CurveTo(v14, v16,
                    v18 + c * v26 + tx + v2 + 0.0, v20 + d * v26 + ty + v5 + 0.0,
                    v18 + c * v27 + tx + v2 + 0.0, v20 + d * v27 + ty + v5 + 0.0),
            CurveTo(v18 + c * v28 + tx + v2 + 0.0, v20 + d * v28 + ty + v5 + 0.0,
                    v13 + v30 + tx + v2 + 0.0, v15 + v31 + ty + v5 + 0.0,
                    v8 + v30 + tx + v2 + 0.0, v10 + v31 + ty + v5 + 0.0),
        ), w, _ROUND_CAP, _MITER, _STROKE),
    )


def _tip39(w, a, b, c, d, tx, ty):
    # 'hooks reversed' / 'hooks reversed': mirror of 'hooks' / 'hooks'
    return _tip38(w, -a, -b, c, d, tx, ty)


def _tip40(w, a, b, c, d, tx, ty):
    # 'serif cm' / 'serif cm'
    v0 = 0.4 + 0.45 * w
    v1 = -0.75 * v0
    v2 = c * 0.0
    v3 = a * v1 + v2 + tx
    v4 = a * 0.0
    v5 = (v4 + c * 0.5) * w
    v6 = v4 + v2
    v7 = 0.0 + (v6 + (a * 0.04 + v2) * w)
    v8 = d * 0.0
    v9 = b * v1 + v8 + ty
    v10 = b * 0.0
    v11 = (v10 + d * 0.5) * w
    v12 = v10 + v8
    v13 = 0.0 + (v12 + (b * 0.04 + v8) * w)
    v14 = -0.375 * v0
    v15 = a * v14
    v16 = v15 + v2 + tx
    v17 = b * v14
    v18 = v17 + v8 + ty
    v19 = 1.95 * v0
    v20 = c * v19
    v21 = v6 * w
    v22 = d * v19
    v23 = v12 * w
    v24 = 0.5 * v0
    v25 = (a * -0.04 + v2) * w
    v26 = (b * -0.04 + v8) * w
    v27 = -0.5 * v0
    v28 = -1.95 * v0
    v29 = c * v28
    v30 = d * v28
    v31 = (v4 + c * -0.5) * w
    v32 = (v10 + d * -0.5) * w
    return (
        Drawable((
            MoveTo(v3 + v5 + v7, v9 + v11 + v13),
            CurveTo(v16 + v5 + v7, v18 + v11 + v13,
                    v16 + (v4 + c * 0.7) * w + v7, v18 + (v10 + d * 0.7) * w + v13,
                    v15 + v20 + tx + v21 + v7, v17 + v22 + ty + v23 + v13),
            LineTo(v4 + v20 + tx + v21 + v7, v10 + v22 + ty + v23 + v13),
            CurveTo(v4 + c * v24 + tx + v25 + v7, v10 + d * v24 + ty + v26 + v13,
                    v4 + c * v27 + tx + v25 + v7, v10 + d * v27 + ty + v26 + v13,
                    v4 + v29 + tx + v21 + v7, v10 + v30 + ty + v23 + v13),
            LineTo(v15 + v29 + tx + v21 + v7, v17 + v30 + ty + v23 + v13),
            CurveTo(v16 + (v4 + c * -0.7) * w + v7, v18 + (v10 + d * -0.7) * w + v13,
                    v16 + v31 + v7, v18 + v32 + v13,
                    v3 + v31 + v7, v9 + v32 + v13),
            _CLOSE,
        ), w, _BUTT, _MITER, _FILL),
    )


def _tip41(w, a, b, c, d, tx, ty):
    # 'round cap' / 'round cap'
    v0 = c * 0.0
    v1 = a * 0.0 + v0
    v2 = v1 + tx
    v3 = d * 0.0
    v4 = b * 0.0 + v3
    v5 = v4 + ty
    return (
        Drawable((
            MoveTo(v2 + v1 * w + 0.0, v5 + v4 * w + 0.0),
            LineTo(v2 + (a * 0.5 + v0) * w + 0.0, v5 + (b * 0.5 + v3) * w + 0.0),
        ), w, _ROUND_CAP, _MITER, _STROKE),
    )


def _tip42(w, a, b, c, d, tx, ty):
    # 'butt cap' / 'butt cap'
    v0 = c * 0.0
    v1 = a * 0.0 + v0 + tx
    v2 = d * 0.0
    v3 = b * 0.0 + v2 + ty
    return (
        Drawable((
            MoveTo(v1 + (a * -0.1 + v0) * w + 0.0, v3 + (b * -0.1 + v2) * w + 0.0),
            LineTo(v1 + (a * 0.5 + v0) * w + 0.0, v3 + (b * 0.5 + v2) * w + 0.0),
        ), w, _BUTT, _MITER, _STROKE),
    )


def _tip43(w, a, b, c, d, tx, ty):
    # 'triangle 90 cap' / 'triangle 90 cap'
    v0 = c * 0.0
    v1 = a * 0.0 + v0 + tx
    v2 = a * -0.1
    v3 = c * 0.5
    v4 = d * 0.0
    v5 = b * 0.0 + v4 + ty
    v6 = b * -0.1
    v7 = d * 0.5
    v8 = a * 0.5
    v9 = b * 0.5
    v10 = c * -0.5
    v11 = d * -0.5
    return (
        Drawable((
            MoveTo(v1 + (v2 + v3) * w + 0.0, v5 + (v6 + v7) * w + 0.0),
            LineTo(v1 + (v8 + v3) * w + 0.0, v5 + (v9 + v7) * w + 0.0),
            LineTo(v1 + (a * 1.0 + v0) * w + 0.0, v5 + (b * 1.0 + v4) * w + 0.0),
            LineTo(v1 + (v8 + v10) * w + 0.0, v5 + (v9 + v11) * w + 0.0),
            LineTo(v1 + (v2 + v10) * w + 0.0, v5 + (v6 + v11) * w + 0.0),
        ), w, _BUTT, _MITER, _FILL),
    )


def _tip44(w, a, b, c, d, tx, ty):
    # 'triangle 90 cap reversed' / 'triangle 90 cap reversed'
    v0 = c * 0.0
    v1 = a * 0.0 + v0 + tx
    v2 = a * 1.0
    v3 = c * 0.5
    v4 = d * 0.0
    v5 = b * 0.0 + v4 + ty
    v6 = b * 1.0
    v7 = d * 0.5
    v8 = a * -0.1
    v9 = b * -0.1
    v10 = c * -0.5
    v11 = d * -0.5
    return (
        Drawable((
            MoveTo(v1 + (v2 + v3) * w + 0.0, v5 + (v6 + v7) * w + 0.0),
            LineTo(v1 + (v8 + v3) * w + 0.0, v5 + (v9 + v7) * w + 0.0),
            LineTo(v1 + (v8 + v10) * w + 0.0, v5 + (v9 + v11) * w + 0.0),
            LineTo(v1 + (v2 + v10) * w + 0.0, v5 + (v6 + v11) * w + 0.0),
            LineTo(v1 + (a * 0.5 + v0) * w + 0.0, v5 + (b * 0.5 + v4) * w + 0.0),
        ), w, _BUTT, _MITER, _FILL),
    )


def _tip45(w, a, b, c, d, tx, ty):
    # 'fast cap' / 'fast cap'
    v0 = c * 0.0
    v1 = a * 0.0 + v0 + tx
    v2 = a * -0.1
    v3 = c * 0.5
    v4 = d * 0.0
    v5 = b * 0.0 + v4 + ty
    v6 = b * -0.1
    v7 = d * 0.5
    v8 = a * 0.5
    v9 = b * 0.5
    v10 = a * 1.0
    v11 = b * 1.0
    v12 = c * -0.5
    v13 = d * -0.5
    v14 = a * 1.5
    v15 = b * 1.5
    return (
        Drawable((
            MoveTo(v1 + (v2 + v3) * w + 0.0, v5 + (v6 + v7) * w + 0.0),
            LineTo(v1 + (v8 + v3) * w + 0.0, v5 + (v9 + v7) * w + 0.0),
            LineTo(v1 + (v10 + v0) * w + 0.0, v5 + (v11 + v4) * w + 0.0),
            LineTo(v1 + (v8 + v12) * w + 0.0, v5 + (v9 + v13) * w + 0.0),
            LineTo(v1 + (v2 + v12) * w + 0.0, v5 + (v6 + v13) * w + 0.0),
            _CLOSE,
            MoveTo(v1 + (v10 + v3) * w + 0.0, v5 + (v11 + v7) * w + 0.0),
            LineTo(v1 + (v14 + v3) * w + 0.0, v5 + (v15 + v7) * w + 0.0),
            LineTo(v1 + (a * 2.0 + v0) * w + 0.0, v5 + (b * 2.0 + v4) * w + 0.0),
            LineTo(v1 + (v14 + v12) * w + 0.0, v5 + (v15 + v13) * w + 0.0),
            LineTo(v1 + (v10 + v12) * w + 0.0, v5 + (v11 + v13) * w + 0.0),
            LineTo(v1 + (v14 + v0) * w + 0.0, v5 + (v15 + v4) * w + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _FILL),
    )


def _tip46(w, a, b, c, d, tx, ty):
    # 'fast cap reversed' / 'fast cap reversed'
    v0 = c * 0.0
    v1 = a * 0.0 + v0 + tx
    v2 = a * -0.1
    v3 = c * 0.5
    v4 = d * 0.0
    v5 = b * 0.0 + v4 + ty
    v6 = b * -0.1
    v7 = d * 0.5
    v8 = a * 1.0
    v9 = b * 1.0
    v10 = c * -0.5
    v11 = d * -0.5
    v12 = a * 1.5
    v13 = b * 1.5
    v14 = a * 2.0
    v15 = b * 2.0
    return (
        Drawable((
            MoveTo(v1 + (v2 + v3) * w + 0.0, v5 + (v6 + v7) * w + 0.0),
            LineTo(v1 + (v8 + v3) * w + 0.0, v5 + (v9 + v7) * w + 0.0),
            LineTo(v1 + (a * 0.5 + v0) * w + 0.0, v5 + (b * 0.5 + v4) * w + 0.0),
            LineTo(v1 + (v8 + v10) * w + 0.0, v5 + (v9 + v11) * w + 0.0),
            LineTo(v1 + (v2 + v10) * w + 0.0, v5 + (v6 + v11) * w + 0.0),
            _CLOSE,
            MoveTo(v1 + (v12 + v3) * w + 0.0, v5 + (v13 + v7) * w + 0.0),
            LineTo(v1 + (v14 + v3) * w + 0.0, v5 + (v15 + v7) * w + 0.0),
            LineTo(v1 + (v12 + v0) * w + 0.0, v5 + (v13 + v4) * w + 0.0),
            LineTo(v1 + (v14 + v10) * w + 0.0, v5 + (v15 + v11) * w + 0.0),
            LineTo(v1 + (v12 + v10) * w + 0.0, v5 + (v13 + v11) * w + 0.0),
            LineTo(v1 + (v8 + v0) * w + 0.0, v5 + (v9 + v4) * w + 0.0),
            _CLOSE,
        ), w, _BUTT, _MITER, _FILL),
    )


PLACED = {
    ']': _tip0,
    '[': _tip1,
    ')': _tip2,
    '(': _tip3,
    'angle 90': _tip4,
    'angle 90 reversed': _tip5,
    'angle 60': _tip6,
    'angle 60 reversed': _tip7,
    'angle 45': _tip8,
    'angle 45 reversed': _tip9,
    '*': _tip10,
    'o': _tip11,
    'diamond': _tip12,
    'open diamond': _tip13,
    'triangle 90': _tip14,
    'triangle 90 reversed': _tip15,
    'triangle 60': _tip16,
    'triangle 60 reversed': _tip17,
    'triangle 45': _tip18,
    'triangle 45 reversed': _tip19,
    'open triangle 90': _tip20,
    'open triangle 90 reversed': _tip21,
    'open triangle 60': _tip22,
    'open triangle 60 reversed': _tip23,
    'open triangle 45': _tip24,
    'open triangle 45 reversed': _tip25,
    "latex'": _tip26,
    "latex' reversed": _tip27,
    "stealth'": _tip28,
    "stealth' reversed": _tip29,
    'left to': _tip30,
    'right to': _tip31,
    'left to reversed': _tip32,
    'right to reversed': _tip33,
    'left hook': _tip34,
    'left hook reversed': _tip35,
    'right hook': _tip36,
    'right hook reversed': _tip37,
    'hooks': _tip38,
    'hooks reversed': _tip39,
    'serif cm': _tip40,
    'round cap': _tip41,
    'butt cap': _tip42,
    'triangle 90 cap': _tip43,
    'triangle 90 cap reversed': _tip44,
    'fast cap': _tip45,
    'fast cap reversed': _tip46,
}
