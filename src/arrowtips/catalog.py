"""The arrow-tip catalog.

Every tip is a pure function of the host stroke width w: an extents record
(signed reach along the x axis, tip front at the origin pointing +x) and a
render program.  Most tips measure themselves in a private base unit
``a = pt + k * w`` resolved when the program is built; coordinates written
against the line-width register stay symbolic (``wl``) and follow mid-program
register changes.

To add a tip, write its extents and program functions of w, or one family
helper that returns the (extents, program) pairs of several shapes, as
``_vee_family`` does, and ``_declare`` each entry in the registry section.
Build no program at import.  Then rerun ``scripts/compile_tips.py``.

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

from ._record import Record, store
from ._tips import PLACED
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


class Extents(Record):
    """Signed horizontal reach of a tip whose front sits at the origin.

    ``left`` is where the tip's material starts (nonpositive in practice),
    ``right`` how far it protrudes past the path end.
    """

    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: float, right: float) -> None:
        store(self, "left", left)
        store(self, "right", right)


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

    def __init__(self, definition: TipDefinition, side: Side) -> None:
        store(self, "definition", definition)
        store(self, "side", side)

    @property
    def name(self) -> str:
        return (self.definition.start_name if self.side is Side.START
                else self.definition.end_name)


class UnknownTipError(LookupError):
    def __init__(self, name: str, side: Side) -> None:
        self.name = name
        self.side = side
        super().__init__(name, side)

    def __str__(self) -> str:
        import difflib  # only a misspelled name that is shown pays for it

        names = _BY_START if self.side is Side.START else _BY_END
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


# --- square bracket ---------------------------------------------------------

def _bracket_extents(w: float) -> Extents:
    a = _BRACKET_UNIT(w)
    return Extents(-a, 0.5 * w)


def _bracket_program(w: float) -> RenderProgram:
    # The drawing unit is larger than the extents unit, so the drawn bracket
    # overhangs its declared extents.  Kept as declared.
    a = _PAREN_UNIT(w)
    b = a + w
    return RenderProgram((
        SetJoin(LineJoin.MITER), SetCap(LineCap.BUTT),
        move_to(-0.5 * b, -a),
        line_to(0.0, -a),
        line_to(0.0, a),
        line_to(-0.5 * b, a),
        Action.STROKE,
    ))


# --- round bracket ----------------------------------------------------------

def _paren_extents(w: float) -> Extents:
    a = _PAREN_UNIT(w)
    return Extents(-(0.5 * a + 0.5 * w), 0.0625 * a + 0.5 * w)


def _paren_program(w: float) -> RenderProgram:
    a = _PAREN_UNIT(w)
    return RenderProgram((
        SetCap(LineCap.ROUND),
        move_to(-0.5 * a, -a),
        curve_to(0.25 * a, -0.5 * a, 0.25 * a, 0.5 * a, -0.5 * a, a),
        Action.STROKE,
    ))


# --- open vees and filled/open triangles -------------------------------------

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


def _vee_family(back: float, front_w: float, arms: Callable[[float], tuple]):
    """Extents and program functions of ``angle N`` and of ``triangle N``.

    Both draw the same ``arms(a)`` and reach ``back`` units behind and
    ``front_w`` widths past the apex at half a unit.  They differ in the base
    unit and the paint: the angle is an open stroke with round caps, the
    triangle is closed and filled.
    """

    def extents_fn(unit):
        def extents(w: float) -> Extents:
            a = unit(w)
            return Extents(-(back * a + 0.5 * w), 0.5 * a + front_w * w)
        return extents

    def angle_program(w: float) -> RenderProgram:
        return RenderProgram((
            SetCap(LineCap.ROUND), SetJoin(LineJoin.MITER),
            *arms(_ANGLE_UNIT(w)),
            Action.STROKE,
        ))

    def triangle_program(w: float) -> RenderProgram:
        return RenderProgram((
            SetJoin(LineJoin.MITER),
            *arms(_TRIANGLE_UNIT(w)),
            ClosePath(),
            Action.FILL_STROKE,
        ))

    return ((extents_fn(_ANGLE_UNIT), angle_program),
            (extents_fn(_TRIANGLE_UNIT), triangle_program))


_ANGLE_90, _TRIANGLE_90 = _vee_family(5.5, 0.707, lambda a: (
    move_to(-5.5 * a, -6.0 * a),
    line_to(0.5 * a, 0.0),
    line_to(-5.5 * a, 6.0 * a),
))
_ANGLE_60, _TRIANGLE_60 = _vee_family(
    7.29, 1.0, lambda a: _vee_arm_ops(0.5 * a, 150.0, 9.0 * a))
_ANGLE_45, _TRIANGLE_45 = _vee_family(
    8.705, 1.28, lambda a: _vee_arm_ops(0.5 * a, 157.0, 10.0 * a))


def _filled_dot_extents(w: float) -> Extents:
    a = _DOT_UNIT(w)
    return Extents(-(5.5 * a + w), 1.5 * a + 0.5 * w)


def _filled_dot_program(w: float) -> RenderProgram:
    a = _DOT_UNIT(w)
    return RenderProgram((
        circle(-3.0 * a, 0.0, 4.5 * a),
        Action.FILL_STROKE,
    ))


def _open_dot_extents(w: float) -> Extents:
    a = _DOT_UNIT(w)
    return Extents(-0.5 * w, 9.0 * a + 0.5 * w)


def _open_dot_program(w: float) -> RenderProgram:
    a = _DOT_UNIT(w)
    return RenderProgram((
        circle(4.5 * a, 0.0, 4.5 * a),
        Action.STROKE,
    ))


def _diamond_extents(w: float) -> Extents:
    a = _DIAMOND_UNIT(w)
    return Extents(-(13.0 * a + 0.5 * w), a + 0.5 * w)


def _diamond_program(w: float) -> RenderProgram:
    a = _DIAMOND_UNIT(w)
    return RenderProgram((
        SetJoin(LineJoin.ROUND),
        move_to(a, 0.0),
        line_to(-6.0 * a, 4.0 * a),
        line_to(-13.0 * a, 0.0),
        line_to(-6.0 * a, -4.0 * a),
        ClosePath(),
        Action.FILL_STROKE,
    ))


def _open_diamond_extents(w: float) -> Extents:
    a = _DIAMOND_UNIT(w)
    return Extents(-0.5 * w, 14.0 * a + 0.5 * w)


def _open_diamond_program(w: float) -> RenderProgram:
    a = _DIAMOND_UNIT(w)
    return RenderProgram((
        SetJoin(LineJoin.ROUND),
        move_to(14.0 * a, 0.0),
        line_to(7.0 * a, 4.0 * a),
        line_to(0.0, 0.0),
        line_to(7.0 * a, -4.0 * a),
        ClosePath(),
        Action.STROKE,
    ))


def _open_triangle_family(length: float, front_w: float, arms: Callable[[float], tuple],
                          reversed_arms: Callable[[float], tuple]):
    """Extents and program functions of ``open triangle N`` and of its reversed form.

    Both are closed, stroked outlines ``length`` triangle units long.  The
    forward one draws ``arms(a)`` and reaches ``front_w`` widths past its tip
    and half a width behind its base; the reversed one draws
    ``reversed_arms(a)``, with the two reaches swapped.  The forms are
    declared independently, not as mirrors.
    """

    def declared(arms, back_w: float, front_w: float):
        def extents(w: float) -> Extents:
            a = _TRIANGLE_UNIT(w)
            return Extents(-back_w * w, length * a + front_w * w)

        def program(w: float) -> RenderProgram:
            return RenderProgram((
                SetJoin(LineJoin.MITER),
                *arms(_TRIANGLE_UNIT(w)),
                ClosePath(),
                Action.STROKE,
            ))
        return extents, program

    return declared(arms, 0.5, front_w), declared(reversed_arms, front_w, 0.5)


_OPEN_TRIANGLE_90, _OPEN_TRIANGLE_90_REVERSED = _open_triangle_family(
    6.0, 0.707,
    lambda a: (move_to(0.0, -6.0 * a), line_to(6.0 * a, 0.0), line_to(0.0, 6.0 * a)),
    lambda a: (move_to(6.0 * a, -6.0 * a), line_to(0.0, 0.0), line_to(6.0 * a, 6.0 * a)))
_OPEN_TRIANGLE_60, _OPEN_TRIANGLE_60_REVERSED = _open_triangle_family(
    7.794, 1.0,
    lambda a: _vee_arm_ops(7.794 * a, 150.0, 9.0 * a),
    lambda a: _vee_arm_ops(0.0, 30.0, 9.0 * a))
_OPEN_TRIANGLE_45, _OPEN_TRIANGLE_45_REVERSED = _open_triangle_family(
    9.205, 1.28,
    lambda a: _vee_arm_ops(9.205 * a, 157.0, 10.0 * a),
    lambda a: _vee_arm_ops(0.0, 23.0, 10.0 * a))


# --- curved-outline tips ------------------------------------------------------

def _latex_prime_extents(w: float) -> Extents:
    a = _CURVE_UNIT(w)
    return Extents(-4.0 * a, 6.0 * a)


def _latex_prime_program(w: float) -> RenderProgram:
    a = _CURVE_UNIT(w)
    return RenderProgram((
        move_to(6.0 * a, 0.0),
        curve_to(3.5 * a, 0.5 * a, -a, 1.5 * a, -4.0 * a, 3.75 * a),
        curve_to(-1.5 * a, a, -1.5 * a, -a, -4.0 * a, -3.75 * a),
        curve_to(-a, -1.5 * a, 3.5 * a, -0.5 * a, 6.0 * a, 0.0),
        Action.FILL,
    ))


def _stealth_prime_extents(w: float) -> Extents:
    a = _CURVE_UNIT(w)
    return Extents(-(6.0 * a + 0.5 * w), 2.0 * a + 0.5 * w)


def _stealth_prime_program(w: float) -> RenderProgram:
    a = _CURVE_UNIT(w)
    return RenderProgram((
        SetJoin(LineJoin.ROUND),
        move_to(2.0 * a, 0.0),
        curve_to(-0.5 * a, 0.5 * a, -3.0 * a, 1.5 * a, -6.0 * a, 3.25 * a),
        curve_to(-3.0 * a, a, -3.0 * a, -a, -6.0 * a, -3.25 * a),
        curve_to(-3.0 * a, -1.5 * a, -0.5 * a, -0.5 * a, 2.0 * a, 0.0),
        ClosePath(),
        Action.FILL_STROKE,
    ))


def _to_extents(w: float) -> Extents:
    return Extents(-0.84 - 1.3 * w, 0.21 + 0.625 * w)


def _to_program(w: float, sign: float) -> RenderProgram:
    # The 0.8 width rescale comes first, so every register-relative
    # coordinate below resolves against 0.8 w.  The base unit was fixed
    # against the unscaled width.
    a = _CURVE_UNIT(w)
    return RenderProgram((
        SetLineWidthFactor(0.8),
        SetCap(LineCap.ROUND), SetJoin(LineJoin.ROUND),
        move_to(-3.0 * a, sign * 4.0 * a),
        curve_to(-2.75 * a, sign * 2.5 * a, 0.0, sign * 0.25 * a, 0.75 * a, 0.0),
        curve_to(0.55 * a, wl(-sign * 0.125),
                 0.5 * a, wl(-sign * 0.125),
                 0.5 * a, wl(-sign * 0.125)),
        line_to(0.0, wl(-sign * 0.125)),
        Action.STROKE,
    ))


def _to_reversed_extents(w: float) -> Extents:
    a = _CURVE_UNIT(w)
    return Extents(-0.1 * w, 3.75 * a + 0.9 * w)


def _to_reversed_program(w: float, sign: float) -> RenderProgram:
    # Tail stub at full width, then the barb at 0.8 width.  The origin shift
    # of 0.625 registers executes after the rescale, so it lands at 0.5 w.
    # The barb curve is issued twice with differing final y, as declared.
    a = _CURVE_UNIT(w)
    return RenderProgram((
        SetJoin(LineJoin.ROUND), SetCap(LineCap.BUTT),
        move_to(wl(0.5), 0.0),
        line_to(wl(-0.1), 0.0),
        Action.STROKE,
        SetCap(LineCap.ROUND),
        SetLineWidthFactor(0.8),
        translate(wl(0.625)),
        move_to(3.75 * a, sign * 4.0 * a),
        curve_to(3.5 * a, sign * 2.5 * a, 0.75 * a, sign * 0.25 * a, 0.0, wl(sign * 0.125)),
        move_to(3.75 * a, sign * 4.0 * a),
        curve_to(3.5 * a, sign * 2.5 * a, 0.75 * a, sign * 0.25 * a, 0.0, wl(-sign * 0.125)),
        Action.STROKE,
    ))


# --- hooks --------------------------------------------------------------------

def _hook_extents(w: float) -> Extents:
    a = _DOT_UNIT(w)
    return Extents(-0.5 * w, 3.75 * a + 0.5 * w)


def _hook_arc_ops(a: float, sign: float):
    return (
        curve_to(2.415 * a, 0.0, 3.75 * a, sign * 1.665 * a, 3.75 * a, sign * 3.0 * a),
        curve_to(3.75 * a, sign * 4.665 * a, 2.415 * a, sign * 6.0 * a, 0.75 * a, sign * 6.0 * a),
    )


def _hook_program(w: float, sign: float, twin: bool = False) -> RenderProgram:
    """A hook bending toward ``sign`` y; with ``twin``, also its mirror image."""
    a = _DOT_UNIT(w)
    ops = [
        SetCap(LineCap.ROUND),
        move_to(0.0, 0.0),
        line_to(0.75 * a, 0.0),
        *_hook_arc_ops(a, sign),
    ]
    if twin:
        ops += (move_to(0.75 * a, 0.0), *_hook_arc_ops(a, -1.0))
    return RenderProgram((*ops, Action.STROKE))


# --- serif ---------------------------------------------------------------------

def _serif_extents(w: float) -> Extents:
    a = _SERIF_UNIT(w)
    return Extents(-0.75 * a, 0.04 * w)


def _serif_program(w: float) -> RenderProgram:
    a = _SERIF_UNIT(w)
    return RenderProgram((
        translate(wl(0.04)),
        move_to(-0.75 * a, wl(0.5)),
        curve_to(-0.375 * a, wl(0.5), -0.375 * a, wl(0.7), -0.375 * a, 1.95 * a),
        line_to(0.0, 1.95 * a),
        curve_to(wl(-0.04), 0.5 * a, wl(-0.04), -0.5 * a, 0.0, -1.95 * a),
        line_to(-0.375 * a, -1.95 * a),
        curve_to(-0.375 * a, wl(-0.7), -0.375 * a, wl(-0.5), -0.75 * a, wl(-0.5)),
        ClosePath(),
        Action.FILL,
    ))


# --- line caps ------------------------------------------------------------------

def _round_cap_extents(w: float) -> Extents:
    return Extents(0.0, w)


def _round_cap_program(w: float) -> RenderProgram:
    return RenderProgram((
        SetCap(LineCap.ROUND),
        move_to(0.0, 0.0),
        line_to(wl(0.5), 0.0),
        Action.STROKE,
    ))


def _butt_cap_extents(w: float) -> Extents:
    return Extents(-0.1 * w, 0.5 * w)


def _butt_cap_program(w: float) -> RenderProgram:
    return RenderProgram((
        SetCap(LineCap.BUTT),
        move_to(wl(-0.1), 0.0),
        line_to(wl(0.5), 0.0),
        Action.STROKE,
    ))


def _filled_cap(*subpaths: tuple, close: bool = False) -> Callable[[float], RenderProgram]:
    """Program function of a filled cap outline whose points are in line widths.

    Each subpath is a table of (x, y) points: a move to the first, lines to
    the rest, and with ``close`` a closing segment.
    """

    def program(w: float) -> RenderProgram:
        ops = []
        for (x, y), *rest in subpaths:
            ops.append(move_to(wl(x), wl(y)))
            ops += (line_to(wl(x), wl(y)) for x, y in rest)
            if close:
                ops.append(ClosePath())
        return RenderProgram((*ops, Action.FILL))
    return program


def _triangle_cap_extents(w: float) -> Extents:
    return Extents(-0.1 * w, w)


_TRIANGLE_CAP_POINTS = ((-0.1, 0.5), (0.5, 0.5), (1.0, 0.0), (0.5, -0.5), (-0.1, -0.5))
_triangle_cap_program = _filled_cap(_TRIANGLE_CAP_POINTS)
_triangle_cap_reversed_program = _filled_cap(
    ((1.0, 0.5), (-0.1, 0.5), (-0.1, -0.5), (1.0, -0.5), (0.5, 0.0)))


def _fast_cap_extents(w: float) -> Extents:
    return Extents(-0.1 * w, 2.0 * w)


_fast_cap_program = _filled_cap(
    _TRIANGLE_CAP_POINTS,
    ((1.0, 0.5), (1.5, 0.5), (2.0, 0.0), (1.5, -0.5), (1.0, -0.5), (1.5, 0.0)),
    close=True)
_fast_cap_reversed_program = _filled_cap(
    ((-0.1, 0.5), (1.0, 0.5), (0.5, 0.0), (1.0, -0.5), (-0.1, -0.5)),
    ((1.5, 0.5), (2.0, 0.5), (1.5, 0.0), (2.0, -0.5), (1.5, -0.5), (1.0, 0.0)),
    close=True)


# --- registry -------------------------------------------------------------------

_BY_START: dict[str, TipDefinition] = {}
_BY_END: dict[str, TipDefinition] = {}
_PARTNER: dict[str, str] = {}


def _declare(start: str, extents_fn, program_fn, end: str | None = None) -> TipDefinition:
    """Register an entry; its end name is its start name unless given."""
    definition = TipDefinition(start, start if end is None else end, extents_fn, program_fn)
    _BY_START[definition.start_name] = definition
    _BY_END[definition.end_name] = definition
    return definition


def _declare_reversed(original_end: str, start: str | None = None,
                      end: str | None = None) -> TipDefinition:
    """Register the mirror of the entry whose end name is ``original_end``.

    Both names default to ``"<original_end> reversed"``.
    """
    original = _BY_END[original_end]

    def extents_fn(w: float) -> Extents:
        e = original.extents_fn(w)
        return Extents(-e.right, -e.left)

    def program_fn(w: float) -> RenderProgram:
        return mirror_x(original.program_fn(w))

    start = f"{original_end} reversed" if start is None else start
    definition = _declare(start, extents_fn, program_fn, end)
    _PARTNER[definition.end_name] = original_end
    _PARTNER[original_end] = definition.end_name
    return definition


_declare("[", _bracket_extents, _bracket_program, "]")
_declare_reversed("]", "]", "[")
_declare("(", _paren_extents, _paren_program, ")")
_declare_reversed(")", ")", "(")
_declare("angle 90", *_ANGLE_90)
_declare_reversed("angle 90")
_declare("angle 60", *_ANGLE_60)
_declare_reversed("angle 60")
_declare("angle 45", *_ANGLE_45)
_declare_reversed("angle 45")
_declare("*", _filled_dot_extents, _filled_dot_program)
_declare("o", _open_dot_extents, _open_dot_program)
_declare("diamond", _diamond_extents, _diamond_program)
_declare("open diamond", _open_diamond_extents, _open_diamond_program)
_declare("triangle 90", *_TRIANGLE_90)
_declare_reversed("triangle 90")
_declare("triangle 60", *_TRIANGLE_60)
_declare_reversed("triangle 60")
_declare("triangle 45", *_TRIANGLE_45)
_declare_reversed("triangle 45")
_declare("open triangle 90", *_OPEN_TRIANGLE_90)
_declare("open triangle 90 reversed", *_OPEN_TRIANGLE_90_REVERSED)
_declare("open triangle 60", *_OPEN_TRIANGLE_60)
_declare("open triangle 60 reversed", *_OPEN_TRIANGLE_60_REVERSED)
_declare("open triangle 45", *_OPEN_TRIANGLE_45)
_declare("open triangle 45 reversed", *_OPEN_TRIANGLE_45_REVERSED)
_declare("latex'", _latex_prime_extents, _latex_prime_program)
_declare_reversed("latex'")
_declare("stealth'", _stealth_prime_extents, _stealth_prime_program)
_declare_reversed("stealth'")
_declare("left to", _to_extents, partial(_to_program, sign=1.0))
_declare("right to", _to_extents, partial(_to_program, sign=-1.0))
_declare("left to reversed", _to_reversed_extents, partial(_to_reversed_program, sign=1.0))
_declare("right to reversed", _to_reversed_extents, partial(_to_reversed_program, sign=-1.0))
_declare("left hook", _hook_extents, partial(_hook_program, sign=1.0))
_declare_reversed("left hook")
_declare("right hook", _hook_extents, partial(_hook_program, sign=-1.0))
_declare_reversed("right hook")
_declare("hooks", _hook_extents, partial(_hook_program, sign=1.0, twin=True))
_declare_reversed("hooks")
_declare("serif cm", _serif_extents, _serif_program)
_declare("round cap", _round_cap_extents, _round_cap_program)
_declare("butt cap", _butt_cap_extents, _butt_cap_program)
_declare("triangle 90 cap", _triangle_cap_extents, _triangle_cap_program)
_declare("triangle 90 cap reversed", _triangle_cap_extents, _triangle_cap_reversed_program)
_declare("fast cap", _fast_cap_extents, _fast_cap_program)
_declare("fast cap reversed", _fast_cap_extents, _fast_cap_reversed_program)


# --- public API -------------------------------------------------------------------

def registry() -> tuple[TipDefinition, ...]:
    """All catalog entries in declaration order."""
    return tuple(_BY_END.values())


def start_names() -> tuple[str, ...]:
    return tuple(_BY_START)


def end_names() -> tuple[str, ...]:
    return tuple(_BY_END)


def lookup(name: str, side: Side) -> TipId:
    table = _BY_START if side is Side.START else _BY_END
    definition = table.get(name)
    if definition is None:
        raise UnknownTipError(name, side)
    return TipId(definition, side)


def extents(tip: TipId, w: float) -> Extents:
    """Signed horizontal reach of ``tip`` at stroke width ``w``; ValueError if it overflows."""
    check_width(w)
    e = tip.definition.extents_fn(w)
    if not (math.isfinite(e.left) and math.isfinite(e.right)):
        raise ValueError(f"extents of tip {tip.name!r} overflow at stroke width {w}")
    return e


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
    it, unless the width alone overflows the tip, when it names the width.
    ``attach`` calls it only outside the box that scripts/compile_tips.py
    proves safe: w, |tx| or |ty| above ``_tips.BOUND``, or NaN.
    """
    for drawable in scene:
        for op in drawable.outline:
            for value in op._values():
                if not math.isfinite(value):
                    if origin is not None:  # raises first if the tip overflows unplaced
                        check_drawing(tip, w, PLACED[tip.definition.end_name](
                            w, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0))
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
    return TipId(_BY_END[partner_end], tip.side)


def declared_reversals() -> dict[str, str]:
    """End-name pairs linked by declared reversal, in both directions."""
    return dict(_PARTNER)
