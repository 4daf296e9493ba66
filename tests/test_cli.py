import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from arrowtips.attach import CubicSegment, LineSegment
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


@pytest.mark.parametrize("spec", ["-latex'", "-hooks", "-latex' reversed"])
def test_render_takes_an_end_only_spec_as_a_separate_argument(tmp_path, spec):
    out = tmp_path / "arrow.svg"
    assert run(["render", "--spec", spec, "--path", CUBIC, "--out", str(out)]) == 0
    paths = ET.fromstring(out.read_text(encoding="utf-8")).findall(
        ".//{http://www.w3.org/2000/svg}path")
    assert len(paths) >= 2  # host plus the end tip


def test_render_rejects_a_path_whose_length_overflows(tmp_path, capsys):
    out = tmp_path / "x.svg"
    args = ["render", "--spec", "-latex'", "--path", "M -1e308,0 L 1e308,0", "--out", str(out)]
    assert run(args) == 2
    assert "path length overflows" in capsys.readouterr().err
    assert not out.exists()


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


def test_usage_errors_exit_2(capsys):
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


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
