import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrowtips.pathmodel import (
    Action,
    Circle,
    ClosePath,
    CurveTo,
    Drawable,
    LineCap,
    LineJoin,
    LineTo,
    MoveTo,
    RenderProgram,
    SetCap,
    Translate,
    evaluate,
    move_to,
    wl,
)
from arrowtips.svg import format_number, render_document, scene_bounds, to_path_data


@pytest.mark.parametrize(
    "value,expected",
    [
        (2.0, "2"),
        (2.5, "2.5"),
        (-3.0, "-3"),
        (0.0, "0"),
        (-0.0, "0"),
        (-0.00004, "0"),  # rounds to -0.0000, which must not print a sign
        (0.12345, "0.1235"),
        (99.4, "99.4"),
        (1234.56789, "1234.5679"),
        (0, "0"),
        (False, "0"),
        (5e-324, "0"),
        (-5e-324, "0"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
    ],
)
def test_format_number(value, expected):
    assert format_number(value) == expected


def test_path_data_covers_all_ops():
    outline = (
        MoveTo(0.0, 0.0),
        LineTo(10.0, 0.0),
        CurveTo(12.0, 5.0, 18.0, 5.0, 20.0, 0.0),
        ClosePath(),
    )
    assert to_path_data(outline) == "M 0 0 L 10 0 C 12 5 18 5 20 0 Z"


def test_path_data_circle_is_two_half_arcs():
    assert to_path_data((Circle(0.0, 0.0, 2.0),)) == (
        "M 2 0 A 2 2 0 0 1 -2 0 A 2 2 0 0 1 2 0 Z"
    )
    # center offsets shift both arc endpoints
    assert to_path_data((Circle(5.0, 1.0, 2.0),)) == (
        "M 7 1 A 2 2 0 0 1 3 1 A 2 2 0 0 1 7 1 Z"
    )


def test_path_data_rejects_unresolved_coordinates():
    with pytest.raises(TypeError):
        to_path_data((move_to(wl(1.0), 0.0),))


@pytest.mark.parametrize("op", [Translate(1.0, 0.0), SetCap(LineCap.ROUND)])
def test_path_data_rejects_ops_that_are_not_path_ops(op):
    with pytest.raises(TypeError, match="not a resolved path op"):
        to_path_data((op,))


def spec_number(value):
    """The formatting rule: four decimals, trailing zeros and point trimmed, no -0."""
    text = f"{value:.4f}".rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def spec_tokens(op):
    """The path data of one op, token by token, written from the SVG rule."""
    if isinstance(op, Circle):
        r = spec_number(op.radius)
        east = [spec_number(op.cx + op.radius), spec_number(op.cy)]
        west = [spec_number(op.cx - op.radius), spec_number(op.cy)]
        arc = ["A", r, r, "0", "0", "1"]
        return ["M", *east, *arc, *west, *arc, *east, "Z"]
    if isinstance(op, ClosePath):
        return ["Z"]
    if isinstance(op, CurveTo):
        values = (op.c1x, op.c1y, op.c2x, op.c2y, op.x, op.y)
        return ["C", *map(spec_number, values)]
    return ["M" if isinstance(op, MoveTo) else "L", spec_number(op.x), spec_number(op.y)]


edge_values = (0.0, -0.0, 5e-324, -5e-324, -0.00004, 0.00005, 1e300, 1.7e308)
coordinates = st.one_of(
    st.sampled_from(edge_values),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)
path_ops = st.one_of(
    st.builds(MoveTo, coordinates, coordinates),
    st.builds(LineTo, coordinates, coordinates),
    st.builds(CurveTo, *[coordinates] * 6),
    st.just(ClosePath()),
    st.builds(Circle, coordinates, coordinates, coordinates),
)
outlines = st.lists(path_ops, min_size=1, max_size=8).map(tuple)


@settings(derandomize=True, max_examples=150)
@given(outlines)
def test_path_data_follows_the_formatting_rule(outline):
    # Command letters in op order, each number token by the rule.
    tokens = to_path_data(outline).split(" ")
    assert tokens == [token for op in outline for token in spec_tokens(op)]


drawables = st.builds(
    Drawable,
    outline=outlines,
    width=coordinates,
    cap=st.sampled_from(LineCap),
    join=st.sampled_from(LineJoin),
    action=st.sampled_from(Action),
)


def _shared_value_scenes():
    # A document of several scenes formats each distinct number once.  These
    # scenes share values across cells, among them values that compare equal
    # (0.0 and -0.0, 0 and False, 1 and True) and -1.0 and -2.0, which CPython
    # hashes alike: the memo must key by value.
    butt, miter = LineCap.BUTT, LineJoin.MITER
    return [
        (Drawable((MoveTo(0.0, 1), LineTo(-1.0, -0.00004), Circle(5e-324, True, 1)),
                  1, butt, miter, Action.STROKE),),
        (Drawable((MoveTo(-0.0, True), LineTo(-2.0, 5e-324),
                   CurveTo(False, 0, -1.0, -2.0, 1, -0.00004), ClosePath()),
                  True, LineCap.ROUND, LineJoin.ROUND, Action.FILL_STROKE),
         Drawable((MoveTo(-2.0, -1.0), LineTo(0, False)), -2.0, butt, miter, Action.STROKE)),
        (Drawable((MoveTo(-1.0, -2.0), LineTo(5e-324, -0.0)), -1.0, butt, miter, Action.FILL),
         Drawable((MoveTo(-0.00004, 1.0), LineTo(True, -1.0)), -0.00004, butt, miter,
                  Action.STROKE)),
    ]


@settings(derandomize=True, max_examples=50)
@given(st.lists(st.lists(drawables, min_size=1, max_size=3).map(tuple), min_size=1, max_size=4))
@example(_shared_value_scenes())
def test_documents_of_any_outline_parse_as_xml(scenes):
    text = render_document([(f"s{i}", scene) for i, scene in enumerate(scenes)], columns=3)
    root = ET.fromstring(text)
    paths = [path for cell in root for path in cell[1]]
    flat = [drawable for scene in scenes for drawable in scene]
    assert [path.get("d") for path in paths] == [to_path_data(d.outline) for d in flat]
    assert [path.get("stroke-width") for path in paths] == [
        None if d.action is Action.FILL else format_number(d.width) for d in flat]


def stroke_drawable():
    return Drawable(
        outline=(MoveTo(0.0, 0.0), LineTo(10.0, 0.0)),
        width=1.0,
        cap=LineCap.BUTT,
        join=LineJoin.MITER,
        action=Action.STROKE,
    )


def fill_drawable():
    return Drawable(
        outline=(MoveTo(0.0, 0.0), LineTo(4.0, 2.0), LineTo(4.0, -2.0), ClosePath()),
        width=1.0,
        cap=LineCap.BUTT,
        join=LineJoin.MITER,
        action=Action.FILL,
    )


def test_scene_bounds_pads_strokes_but_not_fills():
    assert scene_bounds((stroke_drawable(),)) == (-1.5, -1.5, 11.5, 1.5)
    assert scene_bounds((fill_drawable(),)) == (0.0, -2.0, 4.0, 2.0)


def test_scene_bounds_includes_circle_radius():
    drawable = Drawable(
        outline=(Circle(0.0, 0.0, 3.0),),
        width=1.0,
        cap=LineCap.BUTT,
        join=LineJoin.MITER,
        action=Action.FILL,
    )
    assert scene_bounds((drawable,)) == (-3.0, -3.0, 3.0, 3.0)


def test_scene_bounds_needs_geometry():
    with pytest.raises(ValueError):
        scene_bounds(())


def test_document_is_valid_xml_with_expected_structure():
    scenes = [("first", (stroke_drawable(),)), ("second", (fill_drawable(),))]
    text = render_document(scenes, columns=2)
    root = ET.fromstring(text)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert root.get("width") == "192"
    assert root.get("height") == "30"
    assert root.get("viewBox") == "0 0 192 30"
    cells = list(root)
    assert [cell.get("id") for cell in cells] == ["cell-r0-c0", "cell-r0-c1"]
    for cell, label in zip(cells, ["first", "second"]):
        text_el, group = list(cell)
        assert text_el.text == label
        assert group.get("transform") == "translate(28,20) scale(1,-1)"


def test_document_grid_wraps_rows():
    scenes = [(f"s{i}", (stroke_drawable(),)) for i in range(5)]
    text = render_document(scenes, columns=2)
    root = ET.fromstring(text)
    ids = [cell.get("id") for cell in root]
    assert ids == ["cell-r0-c0", "cell-r0-c1", "cell-r1-c0",
                   "cell-r1-c1", "cell-r2-c0"]
    assert root.get("height") == "90"


def test_labels_are_escaped():
    text = render_document([("<&> \"q\"", (stroke_drawable(),))])
    assert "&lt;&amp;&gt;" in text
    root = ET.fromstring(text)
    label = root[0][0]
    assert label.text == '<&> "q"'


# Characters XML 1.0 allows in content, less "\r", which a parser reads as "\n".
xml_text = st.text(st.one_of(
    st.sampled_from("\t\n"),
    st.characters(min_codepoint=0x20, exclude_categories=("Cs",), exclude_characters="\ufffe\uffff"),
))


@given(xml_text)
def test_label_text_is_saxutils_escape_and_parses_back(label):
    text = render_document([(label, (stroke_drawable(),))])
    assert f'font-size="6">{escape(label)}</text>' in text
    assert (ET.fromstring(text)[0][0].text or "") == label


def test_fill_element_has_no_stroke_attributes():
    text = render_document([("x", (fill_drawable(),))])
    root = ET.fromstring(text)
    (path,) = root[0][1]
    assert path.get("fill") == "#000"
    assert path.get("stroke") == "none"
    assert path.get("stroke-width") is None
    assert path.get("stroke-linecap") is None


def test_stroke_element_attribute_set():
    text = render_document([("x", (stroke_drawable(),))])
    root = ET.fromstring(text)
    (path,) = root[0][1]
    assert path.get("fill") == "none"
    assert path.get("stroke") == "#000"
    assert path.get("stroke-width") == "1"
    assert path.get("stroke-linecap") == "butt"
    assert path.get("stroke-linejoin") == "miter"


def test_fill_stroke_element_paints_both():
    program = RenderProgram((Circle(0.0, 0.0, 2.0), Action.FILL_STROKE))
    scene = evaluate(program, 1.0)
    text = render_document([("x", scene)])
    root = ET.fromstring(text)
    (path,) = root[0][1]
    assert path.get("fill") == "#000"
    assert path.get("stroke") == "#000"


def test_round_fill_stroke_element_text():
    drawable = Drawable(
        outline=(MoveTo(0.0, 0.0), LineTo(10.0, -0.0), ClosePath()),
        width=0.8,
        cap=LineCap.ROUND,
        join=LineJoin.ROUND,
        action=Action.FILL_STROKE,
    )
    text = render_document([("x", (drawable,))])
    assert (
        '<path d="M 0 0 L 10 0 Z" fill="#000" stroke="#000" stroke-width="0.8"'
        ' stroke-linecap="round" stroke-linejoin="round"/>'
    ) in text.splitlines()


@pytest.mark.parametrize("cap", LineCap)
@pytest.mark.parametrize("join", LineJoin)
def test_every_cap_and_join_is_written_by_value(cap, join):
    drawable = Drawable((MoveTo(0.0, 0.0), LineTo(1.0, 0.0)), 1.0, cap, join, Action.STROKE)
    (path,) = ET.fromstring(render_document([("x", (drawable,))]))[0][1]
    assert path.get("stroke-linecap") == cap.value
    assert path.get("stroke-linejoin") == join.value


def test_attribute_order_is_fixed():
    text = render_document([("x", (stroke_drawable(),))])
    line = next(l for l in text.splitlines() if l.startswith("<path"))
    d = line.index(" d=")
    fill = line.index(" fill=")
    stroke = line.index(" stroke=")
    width = line.index(" stroke-width=")
    cap = line.index(" stroke-linecap=")
    join = line.index(" stroke-linejoin=")
    assert d < fill < stroke < width < cap < join


def test_rendering_twice_is_byte_identical():
    scenes = [("a", (stroke_drawable(),)), ("b", (fill_drawable(),))]
    assert render_document(scenes, columns=2) == render_document(scenes, columns=2)


def test_document_uses_unix_newlines_and_trailing_newline():
    text = render_document([("x", (stroke_drawable(),))])
    assert "\r" not in text
    assert text.endswith("</svg>\n")
    assert text.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')


def test_columns_must_be_positive():
    with pytest.raises(ValueError):
        render_document([], columns=0)
