import contextlib
import io
import math
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrowtips import catalog
from arrowtips.attach import CubicSegment, LineSegment
from arrowtips.catalog import Side, end_names, lookup, program, start_names
from arrowtips.cli import main, parse_path_literal
from arrowtips.geometry import Point

CUBIC = "M 0,0 C 30,40 70,40 100,0"


def run(args):
    return main(list(args))


def test_extents_round_cap(capsys):
    assert run(["extents", "--tip", "round cap", "--width", "1"]) == 0
    assert capsys.readouterr().out == "left=0 right=1\n"


def test_extents_butt_cap(capsys):
    assert run(["extents", "--tip", "butt cap", "--width", "1"]) == 0
    assert capsys.readouterr().out == "left=-0.1 right=0.5\n"


def test_extents_prints_full_precision(capsys):
    assert run(["extents", "--tip", "angle 60", "--width", "0.4"]) == 0
    out = capsys.readouterr().out
    assert out == "left=-3.1160000000000005 right=0.6000000000000001\n"


def test_extents_side_selects_orientation(capsys):
    assert run(["extents", "--tip", "[", "--side", "start", "--width", "0.4"]) == 0
    assert capsys.readouterr().out == "left=-1.5 right=0.2\n"
    assert run(["extents", "--tip", "[", "--side", "end", "--width", "0.4"]) == 0
    assert capsys.readouterr().out == "left=-0.2 right=1.5\n"


def test_extents_unknown_tip_fails(capsys):
    assert run(["extents", "--tip", "nope", "--width", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_extents_suggests_near_misses(capsys):
    assert run(["extents", "--tip", "stealth", "--width", "1"]) == 2
    assert "stealth'" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["inf", "nan"])
def test_extents_rejects_a_non_finite_width(capsys, width):
    assert run(["extents", "--tip", "latex'", "--width", width]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stroke width must be positive")
    assert err.count("\n") == 1


def test_extents_rejects_a_result_that_overflows(capsys):
    assert run(["extents", "--tip", "latex'", "--width", "1e308"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: extents of tip \"latex'\" overflow at stroke width 1e+308\n"


@pytest.mark.parametrize("args, message", [
    (["render", "--spec", "-latex'", "--path", "M 0,0 L 100,0", "--width", "1e308"],
     "extents of tip \"latex'\" overflow at stroke width 1e+308"),
    # the first gallery cell is "]"; its extents overflow above w = 1.44e308
    (["gallery", "--widths", "1.5e308"], "extents of tip ']' overflow at stroke width 1.5e+308"),
    # long enough for the tip's right extent, so only the left one overflows
    (["render", "--spec", "-]", "--path", "M 0,0 L 1.7e308,0", "--width", "1.5e308"],
     "extents of tip ']' overflow at stroke width 1.5e+308"),
], ids=["render", "gallery", "render-long-host"])
def test_render_and_gallery_report_overflowing_extents(tmp_path, capsys, args, message):
    out = tmp_path / "x.svg"
    assert run(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# The bracket's extents stay finite at these widths, but its drawing unit
# does not, so its coordinates overflow; both sides of the host are covered.
@pytest.mark.parametrize("spec, width, name", [
    ("-]", "8e307", "]"),
    ("-]", "1.25e308", "]"),
    ("[-", "8e307", "["),
])
def test_render_reports_overflowing_tip_coordinates(tmp_path, capsys, spec, width, name):
    out = tmp_path / "x.svg"
    args = ["render", "--spec", spec, "--path", "M 0,0 L 1e308,0", "--width", width,
            "--out", str(out)]
    assert run(args) == 2
    assert capsys.readouterr().err == (
        f"error: coordinates of tip '{name}' overflow at stroke width {float(width)}\n")
    assert not out.exists()


@pytest.fixture
def scans(monkeypatch):
    """The stroke widths of the placed drawings ``catalog.check_drawing`` scans, in order.

    A placed drawing's scan is the one ``attach`` makes; an unplaced one
    comes from ``catalog.program``, which the error path also calls to blame
    the width.
    """
    widths = []
    check = catalog.check_drawing

    def counted(tip, w, scene, origin=None):
        if origin is not None:
            widths.append(w)
        return check(tip, w, scene, origin)

    monkeypatch.setattr(catalog, "check_drawing", counted)
    return widths


def test_the_gallery_scans_no_drawing_for_overflow(tmp_path, scans):
    # Every gallery width and placement lies inside the proven box.
    assert run(["gallery", "--out", str(tmp_path / "gallery.svg")]) == 0
    assert scans == []


def test_a_width_outside_the_proven_box_is_scanned(tmp_path, capsys, scans):
    out = tmp_path / "over.svg"
    assert run(["render", "--spec", "-]", "--path", "M 0,0 L 1e308,0", "--width", "8e307",
                "--out", str(out)]) == 2
    assert scans == [8e307]
    assert capsys.readouterr().err == "error: coordinates of tip ']' overflow at stroke width 8e+307\n"
    assert not out.exists()


def test_render_names_the_placement_when_only_the_placed_tip_overflows(tmp_path, capsys):
    # The tip fits the host and its drawing at this width is finite, but
    # placed at the top of the float range it is not.
    out = tmp_path / "x.svg"
    args = ["render", "--spec", "-latex'", "--path", "M 0,1.79e308 L 1e308,1.79e308",
            "--width", "1e306", "--out", str(out)]
    assert run(args) == 2
    assert capsys.readouterr().err == (
        "error: coordinates of tip \"latex'\" overflow when placed at (9.82e+307, 1.79e+308) "
        "with stroke width 1e+306\n")
    assert not out.exists()


# Path literals mixing small coordinates with zeros, the smallest subnormal
# and coordinates near the top of the float range.  Each pair is one draw
# from a fixed table, which keeps generation within the test's time budget.
_COORDINATES = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.7e308, -1.7e308,
                0.3, -1.0, 2.5, -7.25, 12.5, 30.0, 40.0, -60.0, 70.0, 100.0)
_pairs = st.sampled_from([f"{x!r},{y!r}" for x in _COORDINATES for y in _COORDINATES])
_segments = st.one_of(st.builds("L {}".format, _pairs),
                      st.builds("C {} {} {}".format, _pairs, _pairs, _pairs))
_path_literals = st.builds(lambda start, rest: " ".join(["M", start, *rest]),
                           _pairs, st.lists(_segments, min_size=1, max_size=3))


def _program_error(name, side, width):
    """The error line that ``name``'s unplaced program at ``width`` gives, if any."""
    try:
        if name is not None:
            program(lookup(name, side), width)
    except ValueError as err:
        return f"error: {err}\n"


@settings(derandomize=True, deadline=None, max_examples=120)
@example(path="M 0,1.79e308 L 1e308,1.79e308", start=None, end="latex'", width=1e306)
@given(path=_path_literals, start=st.one_of(st.none(), st.sampled_from(start_names())),
       end=st.one_of(st.none(), st.sampled_from(end_names())),
       width=st.floats(min_value=1e-5, max_value=1e308))
def test_render_writes_a_finite_svg_or_one_error_line(path, start, end, width):
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "x.svg"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["render", "--spec", f"{start or ''}-{end or ''}", "--path", path,
                        "--width", repr(width), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            text = out.read_text(encoding="utf-8")
            ET.fromstring(text)
            assert "inf" not in text and "nan" not in text
        else:
            assert not out.exists()
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1
            assert "Traceback" not in message
            if message.startswith("error: coordinates") and "placed" not in message:
                # blamed on the width: the tip overflows at it wherever it is placed
                assert message in {_program_error(start, Side.START, width),
                                   _program_error(end, Side.END, width)}


def test_render_cubic_host(tmp_path):
    out = tmp_path / "arrow.svg"
    code = run(["render", "--spec", "[-latex'", "--path", CUBIC, "--out", str(out)])
    assert code == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    paths = root.findall(".//{http://www.w3.org/2000/svg}path")
    assert len(paths) == 3  # host plus one drawable per tip


def test_render_rejects_bad_spec(tmp_path, capsys):
    out = tmp_path / "x.svg"
    assert run(["render", "--spec", "latex'", "--path", CUBIC, "--out", str(out)]) == 2
    assert run(["render", "--spec", "-latex'latex'", "--path", CUBIC, "--out", str(out)]) == 2
    assert not out.exists()


def test_render_suggests_close_matches_for_a_misspelled_spec(tmp_path, capsys):
    out = tmp_path / "x.svg"
    assert run(["render", "--spec", "-latx'", "--path", CUBIC, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: no end tip named \"latx'\"; close matches: \"latex'\"\n")


@pytest.mark.parametrize("path, reason", [
    ("M 0,0 L 1,0", "path is only 1.0 long"),
    ("M 1000000,0 L 1000002.4,0",
     "the rest of the 2.400000000023283 long path collapses to a point"),
], ids=["too-short", "collapse"])
def test_render_names_the_tip_a_host_is_too_short_for(tmp_path, capsys, path, reason):
    out = tmp_path / "x.svg"
    assert run(["render", "--spec", "-latex'", "--path", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: tip \"latex'\": cannot shorten by 2.4000000000000004: {reason}\n")
    assert not out.exists()


@pytest.mark.parametrize("spec", ["-latex'", "-hooks", "-latex' reversed"])
def test_render_takes_an_end_only_spec_as_a_separate_argument(tmp_path, spec):
    out = tmp_path / "arrow.svg"
    assert run(["render", "--spec", spec, "--path", CUBIC, "--out", str(out)]) == 0
    paths = ET.fromstring(out.read_text(encoding="utf-8")).findall(
        ".//{http://www.w3.org/2000/svg}path")
    assert len(paths) >= 2  # host plus the end tip


# parse strips all str.isspace() padding, some of which XML 1.0 forbids.
@pytest.mark.parametrize("spec", ["\f-latex'", "\x1c-latex'", "-latex'\x0b", " [-latex'\x1f\t"])
def test_render_labels_a_padded_spec_without_its_padding(tmp_path, spec):
    out = tmp_path / "arrow.svg"
    assert run(["render", "--spec", spec, "--path", "M 0,0 L 100,0", "--out", str(out)]) == 0
    label = ET.fromstring(out.read_text(encoding="utf-8")).find(
        ".//{http://www.w3.org/2000/svg}text")
    assert label.text == spec.strip()


def test_render_rejects_a_path_whose_length_overflows(tmp_path, capsys):
    out = tmp_path / "x.svg"
    args = ["render", "--spec", "-latex'", "--path", "M -1e308,0 L 1e308,0", "--out", str(out)]
    assert run(args) == 2
    assert "path length overflows" in capsys.readouterr().err
    assert not out.exists()


def test_render_measures_only_the_segment_a_tip_cuts(tmp_path, capsys):
    # the overflowing first segment is never measured, so only the layout fails
    out = tmp_path / "x.svg"
    args = ["render", "--spec", "-latex'", "--path", "M -1e308,0 L 1e308,0 L 1e308,100",
            "--out", str(out)]
    assert run(args) == 2
    assert capsys.readouterr().err == (
        "error: the drawing is too large to lay out: its size overflows\n")
    assert not out.exists()


# With no tip the path length is never measured, so only the layout can
# notice that the drawing's size overflows.
@pytest.mark.parametrize("path, width", [
    ("M -1.7e308,0 L 1.7e308,0", "0.4"),
    ("M 0,0 L 1e308,1e308", "1e308"),
], ids=["long-host", "wide-stroke"])
def test_render_rejects_a_drawing_too_large_to_lay_out(tmp_path, capsys, path, width):
    out = tmp_path / "x.svg"
    args = ["render", "--spec", "-", "--path", path, "--width", width, "--out", str(out)]
    assert run(args) == 2
    assert capsys.readouterr().err == (
        "error: the drawing is too large to lay out: its size overflows\n")
    assert not out.exists()


def test_render_keeps_the_host_miter_join_inside_the_view_box(tmp_path):
    # The join at (100, 0) meets at 30 degrees: 1/sin(15°) ≈ 3.86 is within
    # SVG's default miter limit of 4, so the spike is drawn, 10/sin(15°) from
    # the corner along the outer bisector, at -15 degrees.
    out = tmp_path / "x.svg"
    args = ["render", "--spec", "-", "--path", "M 0,0 L 100,0 L 0,57.74", "--width", "20",
            "--out", str(out)]
    assert run(args) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    _, _, view_width, view_height = map(float, root.get("viewBox").split())
    scene = root.find(".//{http://www.w3.org/2000/svg}g/{http://www.w3.org/2000/svg}g")
    origin = re.fullmatch(r"translate\(([^,]+),([^)]+)\) scale\(1,-1\)", scene.get("transform"))
    origin_x, origin_y = map(float, origin.groups())
    reach = 10.0 / math.sin(math.radians(15.0))
    tip_x = origin_x + 100.0 + reach * math.cos(math.radians(15.0))
    tip_y = origin_y + reach * math.sin(math.radians(15.0))  # y is flipped
    assert 0.0 <= tip_x <= view_width
    assert 0.0 <= tip_y <= view_height


def test_render_rejects_bad_path(tmp_path):
    out = tmp_path / "x.svg"
    assert run(["render", "--spec", "-", "--path", "L 1,2", "--out", str(out)]) == 2


def test_render_rejects_nonpositive_width(tmp_path):
    out = tmp_path / "x.svg"
    args = ["render", "--spec", "-", "--path", CUBIC, "--width", "0", "--out", str(out)]
    assert run(args) == 2


def test_widths_that_print_as_zero_are_rejected(tmp_path, capsys):
    out = tmp_path / "x.svg"
    args = ["render", "--spec", "-", "--path", CUBIC, "--width", "1e-320", "--out", str(out)]
    assert run(args) == 2
    assert run(["gallery", "--widths", "0.4,1e-320", "--out", str(out)]) == 2
    assert "written as 0" in capsys.readouterr().err
    assert not out.exists()


def test_render_reports_io_errors(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.svg"
    args = ["render", "--spec", "-", "--path", CUBIC, "--out", str(out)]
    assert run(args) == 3
    assert "error:" in capsys.readouterr().err


def test_gallery_single_width(tmp_path):
    out = tmp_path / "gallery.svg"
    assert run(["gallery", "--widths", "0.7", "--out", str(out)]) == 0
    root = ET.fromstring(out.read_text(encoding="utf-8"))
    cells = [g for g in root if g.get("id", "").startswith("cell-")]
    assert len(cells) == 47
    assert cells[-1].get("id") == "cell-r46-c0"


def test_gallery_is_reproducible(tmp_path):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert run(["gallery", "--out", str(first)]) == 0
    assert run(["gallery", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_gallery_rejects_bad_widths(tmp_path):
    out = tmp_path / "x.svg"
    assert run(["gallery", "--widths", "0,1", "--out", str(out)]) == 2
    assert run(["gallery", "--widths", "abc", "--out", str(out)]) == 2


@pytest.mark.parametrize("widths, part", [
    ("abc", "abc"), ("", ""), ("0.4;0.8", "0.4;0.8"), ("0.4,,0.8", ""), ("0.4, x", " x"),
])
def test_gallery_names_the_widths_option_for_a_part_that_is_not_a_number(tmp_path, capsys,
                                                                         widths, part):
    out = tmp_path / "x.svg"
    assert run(["gallery", "--widths", widths, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: argument --widths: invalid float value: {part!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["render", "--spec", "-latex'", "--path", CUBIC, "--width", "inf"],
    ["render", "--spec", "-", "--path", CUBIC, "--width", "inf"],
    ["gallery", "--widths", "0.4,inf"],
])
def test_infinite_widths_are_rejected_by_the_width_check(tmp_path, capsys, args):
    out = tmp_path / "x.svg"
    assert run(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: stroke width must be positive and finite, got inf\n"
    assert not out.exists()


# An option takes the word after it, or after "=", as its value, so "--" is a
# value like any other: a valid file name for --out, and a bad value elsewhere.
@pytest.mark.parametrize("args", [
    ["render", "--spec=--", "--path=M 0,0 L 100,0", "--out=x.svg"],
    ["render", "--spec", "--", "--path=M 0,0 L 100,0", "--out=x.svg"],
    ["render", "--spec=-latex'", "--path=--", "--out=x.svg"],
    ["render", "--spec=-latex'", "--path=M 0,0 L 100,0", "--width=--", "--out=x.svg"],
    ["render", "--spec=-latex'", "--path=M 0,0 L 100,0", "--out=--"],
    ["extents", "--tip=--", "--width=0.4"],
    ["extents", "--tip=latex'", "--width=--"],
    ["gallery", "--widths=--", "--out=x.svg"],
    ["gallery", "--out=--"],
], ids=" ".join)
def test_an_option_given_as_double_dash_ends_without_a_traceback(tmp_path, monkeypatch, capsys,
                                                                 args):
    monkeypatch.chdir(tmp_path)
    code = main(args)
    err = capsys.readouterr().err
    if "--out=--" in args:
        assert (code, err) == (0, "")
        ET.parse(tmp_path / "--")
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("args, message", [
    ([], "expected a command: gallery, render, extents"),
    (["draw"], "expected a command: gallery, render, extents, got 'draw'"),
    (["render", "--spec", "-latex'", "--path", CUBIC, "--wdth", "1", "--out", "x.svg"],
     "render: unknown option '--wdth'"),
    (["render", "--spec", "-latex'", "--path", CUBIC, "--out"],
     "argument --out: expected one argument"),
    (["render", "--spec", "-latex'"], "render: the following arguments are required: --path, --out"),
    (["extents", "--tip", "latex'", "--side", "up", "--width", "1"],
     "argument --side: invalid choice: 'up' (choose from 'start', 'end')"),
], ids=["no-command", "unknown-command", "unknown-option", "no-value", "missing", "bad-side"])
def test_a_usage_error_prints_one_error_line(tmp_path, monkeypatch, capsys, args, message):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def _usage_commands(text):
    return [line.split()[2] for line in text.splitlines() if line.startswith("usage: arrowtips ")]


@pytest.mark.parametrize("args", [["--help"], ["-h"], ["render", "--help"]], ids=" ".join)
def test_help_prints_a_usage_line_for_each_command(capsys, args):
    assert run(args) == 0
    captured = capsys.readouterr()
    assert _usage_commands(captured.out) == ["gallery", "render", "extents"]
    assert captured.err == ""


def test_help_does_not_need_docstrings():
    result = subprocess.run([sys.executable, "-OO", "-m", "arrowtips", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert _usage_commands(result.stdout) == ["gallery", "render", "extents"]


# Each option takes the next word as its value, even one that starts with "-".
@pytest.mark.parametrize("args, code, err", [
    (["render", "--spec", "-latex'", "--path", "M 0,0 L 100,0", "--out", "-arrow.svg"], 0, ""),
    (["gallery", "--widths", "-1,2", "--out", "x.svg"], 2,
     "error: stroke width must be positive and finite, got -1.0\n"),
], ids=["render-out", "gallery-widths"])
def test_a_value_that_starts_with_a_dash_reaches_its_option(tmp_path, monkeypatch, capsys, args,
                                                            code, err):
    monkeypatch.chdir(tmp_path)
    assert main(args) == code
    assert capsys.readouterr().err == err
    if code == 0:
        ET.parse(tmp_path / "-arrow.svg")
    else:
        assert list(tmp_path.iterdir()) == []


def test_parse_path_literal_line():
    path = parse_path_literal("M 0,0 L 10,0")
    assert path.segments == (LineSegment(Point(0.0, 0.0), Point(10.0, 0.0)),)


def test_parse_path_literal_mixed_segments():
    path = parse_path_literal("M 0,0 C 1,2 3,4 5,6 L 7,8")
    cubic, line = path.segments
    assert cubic == CubicSegment(Point(0.0, 0.0), Point(1.0, 2.0), Point(3.0, 4.0), Point(5.0, 6.0))
    assert line == LineSegment(Point(5.0, 6.0), Point(7.0, 8.0))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "L 0,0 L 1,1",          # must start with M
        "M 0,0",                 # no segments
        "M 0,0 L 1",             # malformed pair
        "M 0,0 L",               # pair missing entirely
        "M 0,0 L 1,x",           # non-numeric coordinate
        "M 0,0 L 1,1 M 2,2 L 3,3",  # second subpath
        "M 0,0 Q 1,1",           # unknown command
    ],
)
def test_parse_path_literal_rejects(text):
    with pytest.raises(ValueError):
        parse_path_literal(text)


def test_module_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "arrowtips", "extents", "--tip", "round cap", "--width", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "left=0 right=1\n"
