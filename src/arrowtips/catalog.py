"""The arrow-tip catalog.

Every tip is a pure function of the host stroke width w: its extents, the
signed reach (left, right) along the x axis with the tip front at the origin
pointing +x, and a render program.  Most tips measure themselves in a private base unit
``a = pt + k * w`` resolved when the program is built; coordinates written
against the line-width register stay symbolic (``wl``) and follow mid-program
register changes.

To add a tip, write its outline as a function of its base unit ``a``.  Then
``_declare`` it in the registry section with its reach as one ``_reach``
row (how many base units and widths it reaches behind and past its front)
and, next to it, its drawing as one ``_shape`` row (the unit, the outline,
the paint, the state ops set before the outline, and whether it closes).  A
drawing in two units takes ``_width`` as its unit and computes them from w.
Only ``_to_reversed_program``, which strokes twice, is written out.  Build no
program at import.  Then rerun ``scripts/compile_tips.py``.

Reversed forms declared as mirrors of an original, with
``_declare_reversed(original_end_name)``, satisfy, exactly:
left' = -right, right' = -left, program' = mirror_x(program).  Tips whose
"X reversed" sibling is an independent declaration (the open triangles, the
curved-tail tips, the cap chevrons) do not satisfy those laws and are not
linked; ``reverse_tip`` raises for them.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from typing import Callable

from ._record import Record
from .pathmodel import (
    Action,
    ClosePath,
    LineCap,
    LineJoin,
    RenderProgram,
    Scene,
    SetCap,
    SetJoin,
    SetLineWidthFactor,
    circle,
    curve_to,
    evaluate,
    line_to,
    mirror_x,
    move_to,
    translate,
    wl,
)


class Side(Enum):
    START = "start"
    END = "end"


_START, _END = Side.START, Side.END  # read once, as attach.py reads its enum members


class Extents(Record):
    """Signed horizontal reach of a tip whose front sits at the origin.

    ``left`` is where the tip's material starts (nonpositive in practice),
    ``right`` how far it protrudes past the path end.
    """

    __slots__ = __match_args__ = ("left", "right")


class TipDefinition(Record):
    """One catalog entry.  Identity equality: entries are registry singletons."""

    __slots__ = __match_args__ = ("start_name", "end_name", "extents_fn", "program_fn")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"<TipDefinition {self.start_name!r}/{self.end_name!r}>"


class TipId(Record):
    """A tip selected for one side of a path."""

    __slots__ = __match_args__ = ("definition", "side")

    @property
    def name(self) -> str:
        return (self.definition.start_name if self.side is _START
                else self.definition.end_name)


class UnknownTipError(LookupError):
    def __init__(self, name: str, side: Side) -> None:
        self.name = name
        self.side = side
        super().__init__(name, side)

    def __str__(self) -> str:
        import difflib  # only a misspelled name that is shown pays for it

        names = _BY_START if self.side is _START else _BY_END
        candidates = difflib.get_close_matches(self.name, names, n=3, cutoff=0.6)
        message = f"no {self.side.value} tip named {self.name!r}"
        if candidates:
            message += "; close matches: " + ", ".join(repr(c) for c in candidates)
        return message


class NoReversalError(LookupError):
    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"tip {name!r} has no declared reversed form")


def check_width(w: float) -> None:
    if not 0 < w < math.inf:
        raise ValueError(f"stroke width must be positive and finite, got {w}")


def _unit(pt: float, per_width: float) -> Callable[[float], float]:
    def resolve(w: float) -> float:
        return pt + per_width * w
    return resolve


_PAREN_UNIT = _unit(2.0, 1.5)
_ANGLE_UNIT = _unit(0.3, 0.25)
_TRIANGLE_UNIT = _unit(0.5, 0.25)
_DOT_UNIT = _unit(0.4, 0.2)       # filled/open dots and the hook family
_DIAMOND_UNIT = _unit(0.4, 0.275)
_CURVE_UNIT = _unit(0.28, 0.3)    # curved-outline tips
_SERIF_UNIT = _unit(0.4, 0.45)
_BRACKET_UNIT = _unit(1.0, 1.25)
_ONE = _unit(1.0, 0.0)            # tips measured in points and widths alone


def _width(w: float) -> float:  # the unit of a drawing that computes its own units
    return w


def _reach(unit: Callable[[float], float], back: float, back_w: float,
           front: float, front_w: float) -> Callable[[float], tuple[float, float]]:
    """Extents function of a tip that reaches behind and past its front.

    At width w, with ``a = unit(w)``, the tip starts ``back * a + back_w * w``
    behind its front and ends ``front * a + front_w * w`` past it.  Like every
    extents function, it returns the pair (left, right), which ``reach``
    checks and ``extents`` wraps in a record.
    """

    def extents(w: float) -> tuple[float, float]:
        a = unit(w)
        return -(back * a + back_w * w), front * a + front_w * w
    return extents


# Ops that many rows share.  An op is immutable, so one instance serves all.
_ROUND_CAP = SetCap(LineCap.ROUND)
_BUTT_CAP = SetCap(LineCap.BUTT)
_MITER_JOIN = SetJoin(LineJoin.MITER)
_ROUND_JOIN = SetJoin(LineJoin.ROUND)
_CLOSE = ClosePath()


def _shape(unit: Callable[[float], float], outline: Callable[[float], tuple], action: Action,
           *state, close: bool = False) -> Callable[[float], RenderProgram]:
    """Program function of a tip drawn as one outline and painted once.

    At width w the program sets ``state``, draws ``outline(unit(w))``, closes
    it if ``close``, and paints it once with ``action``.  A drawing in two
    units takes ``_width``.  Only ``_to_reversed_program`` is written out.
    """
    closing = (_CLOSE,) * close

    def program(w: float) -> RenderProgram:
        return RenderProgram((*state, *outline(unit(w)), *closing, action))
    return program


# --- outlines shared by several rows ------------------------------------------

def _vee_arm_ops(apex_x: float, arm_angle: float, arm_reach: float):
    """Upper arm, apex, lower arm of a symmetric vee opening to the left.

    The arms leave the apex at ``arm_angle`` and ``-arm_angle`` degrees.
    """
    up, down = math.radians(arm_angle), math.radians(-arm_angle)
    return (
        move_to(apex_x + arm_reach * math.cos(up), arm_reach * math.sin(up)),
        line_to(apex_x, 0.0),
        line_to(apex_x + arm_reach * math.cos(down), arm_reach * math.sin(down)),
    )


# The arms of ``angle N`` and of ``triangle N``, apex at half a unit.  The two
# differ in the base unit and the paint.
def _arms_90(a: float):
    return (move_to(-5.5 * a, -6.0 * a), line_to(0.5 * a, 0.0), line_to(-5.5 * a, 6.0 * a))


def _arms_60(a: float):
    return _vee_arm_ops(0.5 * a, 150.0, 9.0 * a)


def _arms_45(a: float):
    return _vee_arm_ops(0.5 * a, 157.0, 10.0 * a)


def _to_outline(a: float, sign: float):
    # Drawn after a 0.8 width rescale, so every register-relative coordinate
    # resolves against 0.8 w.  The base unit was fixed against the unscaled width.
    return (
        move_to(-3.0 * a, sign * 4.0 * a),
        curve_to(-2.75 * a, sign * 2.5 * a, 0.0, sign * 0.25 * a, 0.75 * a, 0.0),
        curve_to(0.55 * a, wl(-sign * 0.125),
                 0.5 * a, wl(-sign * 0.125),
                 0.5 * a, wl(-sign * 0.125)),
        line_to(0.0, wl(-sign * 0.125)),
    )


def _hook_arc_ops(a: float, sign: float):
    return (
        curve_to(2.415 * a, 0.0, 3.75 * a, sign * 1.665 * a, 3.75 * a, sign * 3.0 * a),
        curve_to(3.75 * a, sign * 4.665 * a, 2.415 * a, sign * 6.0 * a, 0.75 * a, sign * 6.0 * a),
    )


def _hook_outline(a: float, sign: float):
    """A hook bending toward ``sign`` y."""
    return (move_to(0.0, 0.0), line_to(0.75 * a, 0.0), *_hook_arc_ops(a, sign))


def _bracket_outline(w: float):
    # Drawn in two units, a and a + w.  The drawing unit is larger than the
    # extents unit of its _reach row, so the drawn bracket overhangs its
    # declared extents.  Kept as declared.
    a = _PAREN_UNIT(w)
    b = a + w
    return (move_to(-0.5 * b, -a), line_to(0.0, -a), line_to(0.0, a), line_to(-0.5 * b, a))


def _in_widths(*points: tuple[float, float]):
    """A move to the first point and lines to the rest, each in line widths."""
    (x, y), *rest = points
    return (move_to(wl(x), wl(y)), *(line_to(wl(x), wl(y)) for x, y in rest))


_TRIANGLE_CAP_POINTS = ((-0.1, 0.5), (0.5, 0.5), (1.0, 0.0), (0.5, -0.5), (-0.1, -0.5))


# --- the one drawing that _shape cannot state -----------------------------------

def _to_reversed_program(w: float, sign: float) -> RenderProgram:
    # Written out: it strokes twice.  Tail stub at full width, then the barb
    # at 0.8 width.  The origin shift of 0.625 registers executes after the
    # rescale, so it lands at 0.5 w.  The barb curve is issued twice with
    # differing final y, as declared.
    a = _CURVE_UNIT(w)
    return RenderProgram((
        _ROUND_JOIN, _BUTT_CAP,
        move_to(wl(0.5), 0.0),
        line_to(wl(-0.1), 0.0),
        Action.STROKE,
        _ROUND_CAP,
        SetLineWidthFactor(0.8),
        translate(wl(0.625)),
        move_to(3.75 * a, sign * 4.0 * a),
        curve_to(3.5 * a, sign * 2.5 * a, 0.75 * a, sign * 0.25 * a, 0.0, wl(sign * 0.125)),
        move_to(3.75 * a, sign * 4.0 * a),
        curve_to(3.5 * a, sign * 2.5 * a, 0.75 * a, sign * 0.25 * a, 0.0, wl(-sign * 0.125)),
        Action.STROKE,
    ))


def _round_cap_extents(w: float) -> tuple[float, float]:
    # Not a _reach row: its left extent is +0.0, and a negated sum gives -0.0.
    return 0.0, w


# --- registry -------------------------------------------------------------------

_BY_START: dict[str, TipId] = {}
_BY_END: dict[str, TipId] = {}
_PARTNER: dict[str, str] = {}


def _declare(start: str, extents_fn, program_fn, end: str | None = None) -> TipDefinition:
    """Register an entry; its end name is its start name unless given."""
    definition = TipDefinition(start, start if end is None else end, extents_fn, program_fn)
    _BY_START[definition.start_name] = TipId(definition, _START)
    _BY_END[definition.end_name] = TipId(definition, _END)
    return definition


def _declare_reversed(original_end: str, start: str | None = None,
                      end: str | None = None) -> TipDefinition:
    """Register the mirror of the entry whose end name is ``original_end``.

    Both names default to ``"<original_end> reversed"``.
    """
    original = _BY_END[original_end].definition

    def extents_fn(w: float) -> tuple[float, float]:
        left, right = original.extents_fn(w)
        return -right, -left

    def program_fn(w: float) -> RenderProgram:
        return mirror_x(original.program_fn(w))

    start = f"{original_end} reversed" if start is None else start
    definition = _declare(start, extents_fn, program_fn, end)
    _PARTNER[definition.end_name] = original_end
    _PARTNER[original_end] = definition.end_name
    return definition


# Each row: the names, the reach, then the drawing.

_declare("[", _reach(_BRACKET_UNIT, 1.0, 0.0, 0.0, 0.5), _shape(
    _width, _bracket_outline, Action.STROKE, _MITER_JOIN, _BUTT_CAP), "]")
_declare_reversed("]", "]", "[")
_declare("(", _reach(_PAREN_UNIT, 0.5, 0.5, 0.0625, 0.5), _shape(
    _PAREN_UNIT, lambda a: (
        move_to(-0.5 * a, -a),
        curve_to(0.25 * a, -0.5 * a, 0.25 * a, 0.5 * a, -0.5 * a, a),
    ), Action.STROKE, _ROUND_CAP), ")")
_declare_reversed(")", ")", "(")
_declare("angle 90", _reach(_ANGLE_UNIT, 5.5, 0.5, 0.5, 0.707), _shape(
    _ANGLE_UNIT, _arms_90, Action.STROKE, _ROUND_CAP, _MITER_JOIN))
_declare_reversed("angle 90")
_declare("angle 60", _reach(_ANGLE_UNIT, 7.29, 0.5, 0.5, 1.0), _shape(
    _ANGLE_UNIT, _arms_60, Action.STROKE, _ROUND_CAP, _MITER_JOIN))
_declare_reversed("angle 60")
_declare("angle 45", _reach(_ANGLE_UNIT, 8.705, 0.5, 0.5, 1.28), _shape(
    _ANGLE_UNIT, _arms_45, Action.STROKE, _ROUND_CAP, _MITER_JOIN))
_declare_reversed("angle 45")
_declare("*", _reach(_DOT_UNIT, 5.5, 1.0, 1.5, 0.5), _shape(
    _DOT_UNIT, lambda a: (circle(-3.0 * a, 0.0, 4.5 * a),), Action.FILL_STROKE))
_declare("o", _reach(_DOT_UNIT, 0.0, 0.5, 9.0, 0.5), _shape(
    _DOT_UNIT, lambda a: (circle(4.5 * a, 0.0, 4.5 * a),), Action.STROKE))
_declare("diamond", _reach(_DIAMOND_UNIT, 13.0, 0.5, 1.0, 0.5), _shape(
    _DIAMOND_UNIT, lambda a: (
        move_to(a, 0.0),
        line_to(-6.0 * a, 4.0 * a),
        line_to(-13.0 * a, 0.0),
        line_to(-6.0 * a, -4.0 * a),
    ), Action.FILL_STROKE, _ROUND_JOIN, close=True))
_declare("open diamond", _reach(_DIAMOND_UNIT, 0.0, 0.5, 14.0, 0.5), _shape(
    _DIAMOND_UNIT, lambda a: (
        move_to(14.0 * a, 0.0),
        line_to(7.0 * a, 4.0 * a),
        line_to(0.0, 0.0),
        line_to(7.0 * a, -4.0 * a),
    ), Action.STROKE, _ROUND_JOIN, close=True))
_declare("triangle 90", _reach(_TRIANGLE_UNIT, 5.5, 0.5, 0.5, 0.707), _shape(
    _TRIANGLE_UNIT, _arms_90, Action.FILL_STROKE, _MITER_JOIN, close=True))
_declare_reversed("triangle 90")
_declare("triangle 60", _reach(_TRIANGLE_UNIT, 7.29, 0.5, 0.5, 1.0), _shape(
    _TRIANGLE_UNIT, _arms_60, Action.FILL_STROKE, _MITER_JOIN, close=True))
_declare_reversed("triangle 60")
_declare("triangle 45", _reach(_TRIANGLE_UNIT, 8.705, 0.5, 0.5, 1.28), _shape(
    _TRIANGLE_UNIT, _arms_45, Action.FILL_STROKE, _MITER_JOIN, close=True))
_declare_reversed("triangle 45")
# The open triangles and their reversed forms are declared independently, not
# as mirrors: each is a closed, stroked outline of its own arms.
_declare("open triangle 90", _reach(_TRIANGLE_UNIT, 0.0, 0.5, 6.0, 0.707), _shape(
    _TRIANGLE_UNIT,
    lambda a: (move_to(0.0, -6.0 * a), line_to(6.0 * a, 0.0), line_to(0.0, 6.0 * a)),
    Action.STROKE, _MITER_JOIN, close=True))
_declare("open triangle 90 reversed", _reach(_TRIANGLE_UNIT, 0.0, 0.707, 6.0, 0.5), _shape(
    _TRIANGLE_UNIT,
    lambda a: (move_to(6.0 * a, -6.0 * a), line_to(0.0, 0.0), line_to(6.0 * a, 6.0 * a)),
    Action.STROKE, _MITER_JOIN, close=True))
_declare("open triangle 60", _reach(_TRIANGLE_UNIT, 0.0, 0.5, 7.794, 1.0), _shape(
    _TRIANGLE_UNIT, lambda a: _vee_arm_ops(7.794 * a, 150.0, 9.0 * a),
    Action.STROKE, _MITER_JOIN, close=True))
_declare("open triangle 60 reversed", _reach(_TRIANGLE_UNIT, 0.0, 1.0, 7.794, 0.5), _shape(
    _TRIANGLE_UNIT, lambda a: _vee_arm_ops(0.0, 30.0, 9.0 * a),
    Action.STROKE, _MITER_JOIN, close=True))
_declare("open triangle 45", _reach(_TRIANGLE_UNIT, 0.0, 0.5, 9.205, 1.28), _shape(
    _TRIANGLE_UNIT, lambda a: _vee_arm_ops(9.205 * a, 157.0, 10.0 * a),
    Action.STROKE, _MITER_JOIN, close=True))
_declare("open triangle 45 reversed", _reach(_TRIANGLE_UNIT, 0.0, 1.28, 9.205, 0.5), _shape(
    _TRIANGLE_UNIT, lambda a: _vee_arm_ops(0.0, 23.0, 10.0 * a),
    Action.STROKE, _MITER_JOIN, close=True))
_declare("latex'", _reach(_CURVE_UNIT, 4.0, 0.0, 6.0, 0.0), _shape(
    _CURVE_UNIT, lambda a: (
        move_to(6.0 * a, 0.0),
        curve_to(3.5 * a, 0.5 * a, -a, 1.5 * a, -4.0 * a, 3.75 * a),
        curve_to(-1.5 * a, a, -1.5 * a, -a, -4.0 * a, -3.75 * a),
        curve_to(-a, -1.5 * a, 3.5 * a, -0.5 * a, 6.0 * a, 0.0),
    ), Action.FILL))
_declare_reversed("latex'")
_declare("stealth'", _reach(_CURVE_UNIT, 6.0, 0.5, 2.0, 0.5), _shape(
    _CURVE_UNIT, lambda a: (
        move_to(2.0 * a, 0.0),
        curve_to(-0.5 * a, 0.5 * a, -3.0 * a, 1.5 * a, -6.0 * a, 3.25 * a),
        curve_to(-3.0 * a, a, -3.0 * a, -a, -6.0 * a, -3.25 * a),
        curve_to(-3.0 * a, -1.5 * a, -0.5 * a, -0.5 * a, 2.0 * a, 0.0),
    ), Action.FILL_STROKE, _ROUND_JOIN, close=True))
_declare_reversed("stealth'")
_declare("left to", _reach(_ONE, 0.84, 1.3, 0.21, 0.625), _shape(
    _CURVE_UNIT, partial(_to_outline, sign=1.0), Action.STROKE,
    SetLineWidthFactor(0.8), _ROUND_CAP, _ROUND_JOIN))
_declare("right to", _reach(_ONE, 0.84, 1.3, 0.21, 0.625), _shape(
    _CURVE_UNIT, partial(_to_outline, sign=-1.0), Action.STROKE,
    SetLineWidthFactor(0.8), _ROUND_CAP, _ROUND_JOIN))
_declare("left to reversed", _reach(_CURVE_UNIT, 0.0, 0.1, 3.75, 0.9),
         partial(_to_reversed_program, sign=1.0))
_declare("right to reversed", _reach(_CURVE_UNIT, 0.0, 0.1, 3.75, 0.9),
         partial(_to_reversed_program, sign=-1.0))
_declare("left hook", _reach(_DOT_UNIT, 0.0, 0.5, 3.75, 0.5), _shape(
    _DOT_UNIT, partial(_hook_outline, sign=1.0), Action.STROKE, _ROUND_CAP))
_declare_reversed("left hook")
_declare("right hook", _reach(_DOT_UNIT, 0.0, 0.5, 3.75, 0.5), _shape(
    _DOT_UNIT, partial(_hook_outline, sign=-1.0), Action.STROKE, _ROUND_CAP))
_declare_reversed("right hook")
_declare("hooks", _reach(_DOT_UNIT, 0.0, 0.5, 3.75, 0.5), _shape(
    _DOT_UNIT, lambda a: (*_hook_outline(a, 1.0), move_to(0.75 * a, 0.0), *_hook_arc_ops(a, -1.0)),
    Action.STROKE, _ROUND_CAP))
_declare_reversed("hooks")
_declare("serif cm", _reach(_SERIF_UNIT, 0.75, 0.0, 0.0, 0.04), _shape(
    _SERIF_UNIT, lambda a: (
        move_to(-0.75 * a, wl(0.5)),
        curve_to(-0.375 * a, wl(0.5), -0.375 * a, wl(0.7), -0.375 * a, 1.95 * a),
        line_to(0.0, 1.95 * a),
        curve_to(wl(-0.04), 0.5 * a, wl(-0.04), -0.5 * a, 0.0, -1.95 * a),
        line_to(-0.375 * a, -1.95 * a),
        curve_to(-0.375 * a, wl(-0.7), -0.375 * a, wl(-0.5), -0.75 * a, wl(-0.5)),
    ), Action.FILL, translate(wl(0.04)), close=True))
_declare("round cap", _round_cap_extents, _shape(
    _ONE, lambda a: (move_to(0.0, 0.0), line_to(wl(0.5), 0.0)), Action.STROKE, _ROUND_CAP))
_declare("butt cap", _reach(_ONE, 0.0, 0.1, 0.0, 0.5), _shape(
    _ONE, lambda a: (move_to(wl(-0.1), 0.0), line_to(wl(0.5), 0.0)), Action.STROKE, _BUTT_CAP))
_declare("triangle 90 cap", _reach(_ONE, 0.0, 0.1, 0.0, 1.0), _shape(
    _ONE, lambda a: _in_widths(*_TRIANGLE_CAP_POINTS), Action.FILL))
_declare("triangle 90 cap reversed", _reach(_ONE, 0.0, 0.1, 0.0, 1.0), _shape(
    _ONE, lambda a: _in_widths((1.0, 0.5), (-0.1, 0.5), (-0.1, -0.5), (1.0, -0.5), (0.5, 0.0)),
    Action.FILL))
_declare("fast cap", _reach(_ONE, 0.0, 0.1, 0.0, 2.0), _shape(
    _ONE, lambda a: (
        *_in_widths(*_TRIANGLE_CAP_POINTS), _CLOSE,
        *_in_widths((1.0, 0.5), (1.5, 0.5), (2.0, 0.0), (1.5, -0.5), (1.0, -0.5), (1.5, 0.0)),
    ), Action.FILL, close=True))
_declare("fast cap reversed", _reach(_ONE, 0.0, 0.1, 0.0, 2.0), _shape(
    _ONE, lambda a: (
        *_in_widths((-0.1, 0.5), (1.0, 0.5), (0.5, 0.0), (1.0, -0.5), (-0.1, -0.5)), _CLOSE,
        *_in_widths((1.5, 0.5), (2.0, 0.5), (1.5, 0.0), (2.0, -0.5), (1.5, -0.5), (1.0, 0.0)),
    ), Action.FILL, close=True))


# --- public API -------------------------------------------------------------------

def registry() -> tuple[TipDefinition, ...]:
    """All catalog entries in declaration order."""
    return tuple([tip.definition for tip in _BY_END.values()])


def start_names() -> tuple[str, ...]:
    return tuple(_BY_START)


def end_names() -> tuple[str, ...]:
    return tuple(_BY_END)


def lookup(name: str, side: Side) -> TipId:
    """The registry's tip ``name`` on ``side``: every call for them returns the same record."""
    table = _BY_START if side is _START else _BY_END
    if name not in table:
        raise UnknownTipError(name, side)
    return table[name]


def reach(tip: TipId, w: float) -> tuple[float, float]:
    """Signed reach (left, right) of ``tip`` at stroke width ``w``; ValueError if it overflows."""
    check_width(w)
    left, right = tip.definition.extents_fn(w)
    if not (math.isfinite(left) and math.isfinite(right)):
        raise ValueError(f"extents of tip {tip.name!r} overflow at stroke width {w}")
    return left, right


def extents(tip: TipId, w: float) -> Extents:
    """``reach(tip, w)`` as a record."""
    return Extents(*reach(tip, w))


def program(tip: TipId, w: float) -> RenderProgram:
    """Render program of ``tip`` at stroke width ``w``, front at the origin.

    ValueError if it overflows: if a coordinate of its evaluation is not finite.
    """
    check_width(w)
    p = tip.definition.program_fn(w)
    check_drawing(tip, w, evaluate(p, w))
    return p


def check_drawing(tip: TipId, w: float, scene: Scene,
                  origin: "tuple[float, float] | None" = None) -> Scene:
    """``scene``, a drawing of ``tip`` at stroke width ``w``; ValueError if it overflows.

    A drawing overflows when one of its coordinates is not finite.  For a
    placed drawing, ``origin`` is where the tip's origin went; the error names
    it, unless the width alone overflows the tip: then ``program`` raises.
    ``attach`` calls it only outside the box that scripts/compile_tips.py
    proves safe: w, |tx| or |ty| above ``_tips.BOUND``, or NaN.
    """
    for drawable in scene:
        for op in drawable.outline:
            for value in op._values():
                if not math.isfinite(value):
                    if origin is not None:  # raises first if the tip overflows unplaced
                        program(tip, w)
                    where = (f"at stroke width {w}" if origin is None else
                             f"when placed at ({origin[0]:g}, {origin[1]:g}) with stroke width {w}")
                    raise ValueError(f"coordinates of tip {tip.name!r} overflow {where}")
    return scene


def reverse_tip(tip: TipId) -> TipId:
    """The declared mirror partner of ``tip``, same side.

    Only tips declared as mirrored pairs resolve; independently declared
    "X reversed" siblings do not satisfy the mirror laws and raise.
    """
    partner_end = _PARTNER.get(tip.definition.end_name)
    if partner_end is None:
        raise NoReversalError(tip.name)
    return TipId(_BY_END[partner_end].definition, tip.side)


def declared_reversals() -> dict[str, str]:
    """End-name pairs linked by declared reversal, in both directions."""
    return dict(_PARTNER)
