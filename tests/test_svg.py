import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import given
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
