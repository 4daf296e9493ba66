import math
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrowtips._tips import PLACED
from arrowtips.catalog import (
    Extents,
    NoReversalError,
    Side,
    UnknownTipError,
    check_drawing,
    declared_reversals,
    end_names,
    extents,
    lookup,
    program,
    registry,
    reverse_tip,
    start_names,
)
from arrowtips.pathmodel import (
    Action,
    Circle,
    CurveTo,
    Drawable,
    LineCap,
    LineJoin,
    LineTo,
    MoveTo,
    evaluate,
)

WIDTHS = (0.4, 0.8, 1.6)


def test_registry_has_one_entry_per_declaration():
    assert len(registry()) == 47


def test_names_are_unique_per_side():
    assert len(set(start_names())) == 47
    assert len(set(end_names())) == 47


def test_bracket_name_depends_on_side():
    first = registry()[0]
    assert first.start_name == "["
    assert first.end_name == "]"
    assert lookup("]", Side.END).definition is first
    assert lookup("[", Side.START).definition is first
    # the mirror entry pairs them the other way around
    assert lookup("[", Side.END).definition is lookup("]", Side.START).definition
    assert lookup("[", Side.END).definition is not first


def test_lookup_returns_side_tagged_tip():
    tip = lookup("angle 60", Side.END)
    assert tip.side is Side.END
    assert tip.name == "angle 60"


def test_unknown_name_suggests_close_matches():
    with pytest.raises(UnknownTipError) as err:
        lookup("stealth", Side.END)
    assert err.value.name == "stealth"
    assert "stealth'" in str(err.value)


def test_width_must_be_positive():
    tip = lookup("angle 60", Side.END)
    with pytest.raises(ValueError):
        extents(tip, 0.0)
    with pytest.raises(ValueError):
        program(tip, -0.4)
    for w in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="must be positive and finite"):
            extents(tip, w)
        with pytest.raises(ValueError, match="must be positive and finite"):
            program(tip, w)


# Finite widths at which some programs, but not all, have a coordinate that
# overflows to inf (or to nan, where an inf meets its negation).  At 1e308 and
# above, the fast caps' ``wl(2.0)`` resolves to 2 w, which overflows although
# both parts of the stored coordinate are finite.
OVERFLOW_WIDTHS = (1e300, 1e307, 8e307, 1e308, 1.5e308, 1.7e308, 1.79e308)


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_programs_that_overflow_are_rejected(side):
    names = start_names() if side is Side.START else end_names()
    rejected = 0
    for name in names:
        tip = lookup(name, side)
        for w in OVERFLOW_WIDTHS:
            try:
                scene = evaluate(program(tip, w), w)
            except ValueError as err:
                assert str(err) == f"coordinates of tip {name!r} overflow at stroke width {w}"
                rejected += 1
                continue
            for value in (v for d in scene for op in d.outline for v in op._values()):
                assert math.isfinite(value), (name, w)
    assert 0 < rejected < len(names) * len(OVERFLOW_WIDTHS)


# 40 widths from 1e250 up to the largest float, evenly spaced in log.
IDENTITY_WIDTHS = (*(1e250 * (sys.float_info.max / 1e250) ** (i / 39) for i in range(39)),
                   sys.float_info.max)


@pytest.mark.parametrize("side", [Side.START, Side.END])
def test_the_identity_drawing_overflows_exactly_where_the_program_does(side):
    # The generated evaluator under the identity placement overflows at the
    # same widths as the reference, program.
    names = start_names() if side is Side.START else end_names()
    overflows = 0
    for name in names:
        tip = lookup(name, side)
        for w in IDENTITY_WIDTHS:
            drawing = PLACED[tip.definition.end_name](w, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
            finite = all(math.isfinite(v) for d in drawing for op in d.outline
                         for v in op._values())
            try:
                program(tip, w)
            except ValueError:
                overflows += 1
                assert not finite, (name, w)
            else:
                assert finite, (name, w)
    assert 0 < overflows < len(names) * len(IDENTITY_WIDTHS)


OP_FIELDS = [(cls, name) for cls in (MoveTo, LineTo, CurveTo, Circle)
             for name in cls.__match_args__]


@pytest.mark.parametrize("cls, name", OP_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in OP_FIELDS])
def test_check_drawing_scans_every_field_of_a_path_op(cls, name):
    # one op whose every field is finite but ``name``, in a one-drawable scene
    def scene(value):
        op = cls(**{field: value if field == name else 1.0 for field in cls.__match_args__})
        return (Drawable((op,), 0.4, LineCap.BUTT, LineJoin.MITER, Action.STROKE),)

    tip = lookup("latex'", Side.END)
    assert check_drawing(tip, 0.4, scene(2.0), origin=(3.0, -4.0)) == scene(2.0)
    with pytest.raises(ValueError) as err:
        check_drawing(tip, 0.4, scene(math.inf))
    assert str(err.value) == "coordinates of tip \"latex'\" overflow at stroke width 0.4"
    with pytest.raises(ValueError) as err:
        check_drawing(tip, 0.4, scene(math.inf), origin=(3.0, -4.0))
    assert str(err.value) == ("coordinates of tip \"latex'\" overflow "
                              "when placed at (3, -4) with stroke width 0.4")


def test_extents_that_overflow_are_rejected():
    # a finite width whose right extent overflows to inf
    with pytest.raises(ValueError) as err:
        extents(lookup("latex'", Side.END), 1e308)
    assert str(err.value) == "extents of tip \"latex'\" overflow at stroke width 1e+308"


# values frozen from the closed-form extent expressions; each is
# left(w) = l0 + l1*w, right(w) = r0 + r1*w evaluated in float64
FROZEN_EXTENTS = [
    ("angle 60", 0.4, -3.1160000000000005, 0.6000000000000001),
    ("]", 0.4, -1.5, 0.2),
    ("[", 0.4, -0.2, 1.5),
    ("o", 1.6, -0.8, 7.28),
    ("serif cm", 0.4, -0.43500000000000005, 0.016),
    ("round cap", 1.0, 0.0, 1.0),
    ("butt cap", 1.0, -0.1, 0.5),
    ("latex'", 0.4, -1.6, 2.4000000000000004),
    ("stealth'", 0.8, -3.52, 1.44),
    ("*", 0.8, -3.88, 1.2400000000000002),
    ("left to", 1.0, -2.14, 0.835),
    ("fast cap", 0.8, -0.08000000000000002, 1.6),
]


@pytest.mark.parametrize("name,w,left,right", FROZEN_EXTENTS)
def test_frozen_extent_values(name, w, left, right):
    e = extents(lookup(name, Side.END), w)
    assert e.left == pytest.approx(left, abs=1e-9)
    assert e.right == pytest.approx(right, abs=1e-9)


def test_every_program_evaluates_to_a_nonempty_scene():
    for definition in registry():
        tip = lookup(definition.end_name, Side.END)
        for w in WIDTHS:
            scene = evaluate(program(tip, w), w)
            assert len(scene) >= 1
            for drawable in scene:
                assert drawable.width > 0
                assert drawable.action in tuple(Action)
                assert len(drawable.outline) >= 1
                for op in drawable.outline:
                    for value in _op_coords(op):
                        assert isinstance(value, float)


def _op_coords(op):
    if isinstance(op, Circle):
        return (op.cx, op.cy, op.radius)
    return tuple(
        getattr(op, field)
        for field in ("x", "y", "c1x", "c1y", "c2x", "c2y")
        if hasattr(op, field)
    )


def test_declared_reversals_cover_thirteen_pairs():
    mapping = declared_reversals()
    assert len(mapping) == 26  # both directions of 13 pairs
    for name, partner in mapping.items():
        assert mapping[partner] == name


@pytest.mark.parametrize("name", ["]", "angle 60", "latex'", "hooks", "triangle 45 reversed"])
def test_reverse_tip_swaps_and_negates_extents(name):
    tip = lookup(name, Side.END)
    partner = reverse_tip(tip)
    assert partner.side is Side.END
    for w in WIDTHS:
        e = extents(tip, w)
        p = extents(partner, w)
        assert p.left == -e.right
        assert p.right == -e.left


def test_reverse_tip_preserves_side():
    tip = lookup("(", Side.START)
    assert reverse_tip(tip).side is Side.START
    assert reverse_tip(tip).name == ")"


def test_double_reversal_is_identity():
    for name, _ in declared_reversals().items():
        tip = lookup(name, Side.END)
        assert reverse_tip(reverse_tip(tip)).definition is tip.definition


INDEPENDENT = [
    "*", "o", "diamond", "open diamond",
    "open triangle 90", "open triangle 90 reversed",
    "left to", "right to", "left to reversed", "right to reversed",
    "serif cm", "round cap", "butt cap",
    "triangle 90 cap", "triangle 90 cap reversed",
    "fast cap", "fast cap reversed",
]


@pytest.mark.parametrize("name", INDEPENDENT)
def test_independent_declarations_refuse_reversal(name):
    with pytest.raises(NoReversalError):
        reverse_tip(lookup(name, Side.END))


@pytest.mark.parametrize(
    "name,unit",
    [("angle 60", lambda w: 0.3 + 0.25 * w), ("triangle 60", lambda w: 0.5 + 0.25 * w)],
)
def test_sixty_degree_tips_put_the_apex_at_half_a_unit(name, unit):
    tip = lookup(name, Side.END)
    for w in WIDTHS:
        a = unit(w)
        (drawable,) = evaluate(program(tip, w), w)
        upper, apex, lower = drawable.outline[:3]
        assert (apex.x, apex.y) == (0.5 * a, 0.0)
        arm = math.radians(150.0)
        assert (upper.x, upper.y) == (0.5 * a + 9.0 * a * math.cos(arm), 9.0 * a * math.sin(arm))
        # the arms are exact mirror images in y
        assert lower.x == upper.x
        assert lower.y == -upper.y


@given(st.sampled_from(sorted(end_names())), st.floats(min_value=0.05, max_value=5.0))
def test_extents_are_finite_and_ordered(name, w):
    e = extents(lookup(name, Side.END), w)
    assert e.left < e.right


@given(st.sampled_from(sorted(end_names())),
       st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.05, max_value=5.0))
def test_extents_are_linear_in_width(name, w1, w2):
    # every entry reduces to left(w) = l0 + l1*w, so chords agree with ends
    tip = lookup(name, Side.END)
    mid = (w1 + w2) / 2.0
    a, b, m = extents(tip, w1), extents(tip, w2), extents(tip, mid)
    assert m.left == pytest.approx((a.left + b.left) / 2.0, rel=1e-9, abs=1e-9)
    assert m.right == pytest.approx((a.right + b.right) / 2.0, rel=1e-9, abs=1e-9)


PIN_WIDTHS = (0.4, 0.8, 1.6, 0.37, 2.9, 1e-6, 1e6)
# sha256 over every entry, both sides, every width in PIN_WIDTHS: the tip's
# name, float.hex of both extents and repr of its program.  Any change to a
# tip's arithmetic, even in the last bit of one coordinate, moves it.
CATALOG_DIGEST = "599b59525a380c9878252746230f87d72a9db7dc362657481318b5fe85d4f18d"


def _catalog_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for definition in registry():
        for name, side in ((definition.start_name, Side.START), (definition.end_name, Side.END)):
            tip = lookup(name, side)
            for w in PIN_WIDTHS:
                e = extents(tip, w)
                digest.update(f"{name}|{side.value}|{float.hex(w)}|{float.hex(e.left)}|"
                              f"{float.hex(e.right)}|{program(tip, w)!r}\n".encode())
    return digest.hexdigest()


def test_catalog_is_pinned_to_the_bit():
    assert _catalog_digest() == CATALOG_DIGEST


# Widths at both ends of the float range: subnormal, the smallest normal,
# tiny, and large enough that some tips overflow.  PIN_WIDTHS holds normal
# widths only, so it cannot see the sign of a zero extent at a subnormal
# width, where ``o`` reaches back -0.0 and ``round cap`` +0.0.
EXTREME_WIDTHS = (5e-324, 1e-320, 2.2250738585072014e-308, 1e-300,
                  1e300, 1e307, 1.5e308, sys.float_info.max)
# sha256 over every entry, both sides, every width in EXTREME_WIDTHS: the
# tip's name and float.hex of both extents, or the ValueError text where the
# width overflows the tip.
EXTREME_EXTENTS_DIGEST = "d10576ff4290144027a500760a132eb14be274acbb9f61cd76e500ac9367693f"


def _extreme_extents_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    for definition in registry():
        for name, side in ((definition.start_name, Side.START), (definition.end_name, Side.END)):
            tip = lookup(name, side)
            for w in EXTREME_WIDTHS:
                try:
                    e = extents(tip, w)
                    reach = f"{float.hex(e.left)}|{float.hex(e.right)}"
                except ValueError as err:
                    reach = str(err)
                digest.update(f"{name}|{side.value}|{float.hex(w)}|{reach}\n".encode())
    return digest.hexdigest()


def test_extents_are_pinned_to_the_bit_at_extreme_widths():
    assert math.copysign(1.0, extents(lookup("o", Side.END), 5e-324).left) == -1.0
    assert math.copysign(1.0, extents(lookup("round cap", Side.END), 5e-324).left) == 1.0
    assert _extreme_extents_digest() == EXTREME_EXTENTS_DIGEST


def test_extents_builds_one_record_per_call(monkeypatch):
    # An extents function returns a (left, right) pair, and ``extents`` alone
    # builds the record, so a mirror does not build its original's record too.
    builds = []
    init = Extents.__init__

    def counted(self, left, right):
        builds.append(self)
        init(self, left, right)

    monkeypatch.setattr(Extents, "__init__", counted)
    per_call = {}
    for definition in registry():
        counts = []
        for name, side in ((definition.start_name, Side.START), (definition.end_name, Side.END)):
            builds.clear()
            extents(lookup(name, side), 0.8)
            counts.append(len(builds))
        per_call[definition.end_name] = tuple(counts)
    assert {name: counts for name, counts in per_call.items() if counts != (1, 1)} == {}
