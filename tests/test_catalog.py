import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrowtips.catalog import (
    NoReversalError,
    Side,
    UnknownTipError,
    declared_reversals,
    end_names,
    extents,
    lookup,
    program,
    registry,
    reverse_tip,
    start_names,
)
from arrowtips.pathmodel import Action, Circle, evaluate

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
    from arrowtips.geometry import Point, add, polar

    tip = lookup(name, Side.END)
    for w in WIDTHS:
        a = unit(w)
        (drawable,) = evaluate(program(tip, w), w)
        upper, apex, lower = drawable.outline[:3]
        assert (apex.x, apex.y) == (0.5 * a, 0.0)
        want_upper = add(Point(0.5 * a, 0.0), polar(150.0, 9.0 * a))
        assert (upper.x, upper.y) == (want_upper.x, want_upper.y)
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
