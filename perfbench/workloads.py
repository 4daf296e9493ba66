"""Seeded inputs, the op under test, and output checks for each workload.

Generators depend only on the seed and the tip names below, never on the
program, so the program sees only the generated inputs.  Nothing here
imports arrowtips at module level: ``Workload.load`` does that, after the
worker has started its set-up clock.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ElementTree
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import arclength

# (start name, end name) of the 47 catalog entries, in registry order.
TIP_PAIRS = (
    ("[", "]"), ("]", "["), ("(", ")"), (")", "("),
    ("angle 90", "angle 90"), ("angle 90 reversed", "angle 90 reversed"),
    ("angle 60", "angle 60"), ("angle 60 reversed", "angle 60 reversed"),
    ("angle 45", "angle 45"), ("angle 45 reversed", "angle 45 reversed"),
    ("*", "*"), ("o", "o"), ("diamond", "diamond"), ("open diamond", "open diamond"),
    ("triangle 90", "triangle 90"), ("triangle 90 reversed", "triangle 90 reversed"),
    ("triangle 60", "triangle 60"), ("triangle 60 reversed", "triangle 60 reversed"),
    ("triangle 45", "triangle 45"), ("triangle 45 reversed", "triangle 45 reversed"),
    ("open triangle 90", "open triangle 90"),
    ("open triangle 90 reversed", "open triangle 90 reversed"),
    ("open triangle 60", "open triangle 60"),
    ("open triangle 60 reversed", "open triangle 60 reversed"),
    ("open triangle 45", "open triangle 45"),
    ("open triangle 45 reversed", "open triangle 45 reversed"),
    ("latex'", "latex'"), ("latex' reversed", "latex' reversed"),
    ("stealth'", "stealth'"), ("stealth' reversed", "stealth' reversed"),
    ("left to", "left to"), ("right to", "right to"),
    ("left to reversed", "left to reversed"), ("right to reversed", "right to reversed"),
    ("left hook", "left hook"), ("left hook reversed", "left hook reversed"),
    ("right hook", "right hook"), ("right hook reversed", "right hook reversed"),
    ("hooks", "hooks"), ("hooks reversed", "hooks reversed"),
    ("serif cm", "serif cm"), ("round cap", "round cap"), ("butt cap", "butt cap"),
    ("triangle 90 cap", "triangle 90 cap"),
    ("triangle 90 cap reversed", "triangle 90 cap reversed"),
    ("fast cap", "fast cap"), ("fast cap reversed", "fast cap reversed"),
)
_ROW = {**{(s, "start"): i for i, (s, _) in enumerate(TIP_PAIRS)},
        **{(e, "end"): i for i, (_, e) in enumerate(TIP_PAIRS)}}

GALLERY_WIDTHS = (0.4, 0.8, 1.6)
GALLERY_SEGMENT = 40.0
# sha256 of the default gallery document (``arrowtips gallery``) at the
# commit this benchmark was defined on; the gallery must stay byte-identical.
GALLERY_SHA256 = "9bba20eb00c69b9e6e7da9ac7dff978bfc86230fd9c9a444441c8d8fc65f6370"
EXTENTS_TOLERANCE = 1e-9
KEY_WINDOW = 4096

# The looping cubic from ROADMAP item 2, kept in every block of hosts.
ROADMAP_HOST = (("C", (0.0, 0.0), (200.0, 0.0), (-100.0, 0.0), (100.0, 0.0)),)
HOST_BLOCK = 20
CUSP_SPEED = 0.02

# Per block of 20 curves arrows: which ends carry tips.
CURVES_SPECS = ("both",) * 10 + ("start",) * 5 + ("end",) * 5
# Per block of 6 cli invocations: renders follow the curves spec mix, and
# the end-only render is written README-style as ``--spec "-<tip>"``.
CLI_BLOCK = ("render-both", "render-both", "render-start", "render-end",
             "extents-end", "extents-start")


# --- input generation ------------------------------------------------------

def _segment(rng: random.Random, start, heading: float, chord: float):
    ux, uy = math.cos(heading), math.sin(heading)

    def at(u: float, v: float):
        return (round(start[0] + chord * (u * ux - v * uy), 2),
                round(start[1] + chord * (u * uy + v * ux), 2))

    if rng.random() < 0.25:
        return ("L", start, at(1.0, 0.0))
    # Control points uniform in a box around the chord, so loops and
    # near-cusps occur at the rate this box gives; none is forced or dropped.
    c1 = at(rng.uniform(-0.5, 1.5), rng.uniform(-1.0, 1.0))
    c2 = at(rng.uniform(-0.5, 1.5), rng.uniform(-1.0, 1.0))
    return ("C", start, c1, c2, at(1.0, 0.0))


def make_host(rng: random.Random):
    """1-3 segments, each a cubic with probability 3/4."""
    segments = []
    point = (0.0, 0.0)
    heading = rng.uniform(-math.pi, math.pi)
    for _ in range(rng.choice((1, 2, 3))):
        segment = _segment(rng, point, heading, rng.uniform(40.0, 120.0))
        segments.append(segment)
        point = segment[-1]
        heading += rng.uniform(-1.0, 1.0)
    return tuple(segments)


def host_stream(rng: random.Random):
    """Endless hosts in blocks of ``HOST_BLOCK``, one of them ``ROADMAP_HOST``."""
    while True:
        roadmap_at = rng.randrange(HOST_BLOCK)
        for index in range(HOST_BLOCK):
            yield ROADMAP_HOST if index == roadmap_at else make_host(rng)


def _bezier_samples(segment, n: int = 32):
    """Points and (scaled) tangents of a cubic at t = i/n, i = 0..n."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = segment[1:]
    points, tangents = [], []
    for i in range(n + 1):
        t = i / n
        s = 1.0 - t
        points.append((s * s * s * x0 + 3 * s * s * t * x1 + 3 * s * t * t * x2 + t * t * t * x3,
                       s * s * s * y0 + 3 * s * s * t * y1 + 3 * s * t * t * y2 + t * t * t * y3))
        tangents.append((s * s * (x1 - x0) + 2 * s * t * (x2 - x1) + t * t * (x3 - x2),
                         s * s * (y1 - y0) + 2 * s * t * (y2 - y1) + t * t * (y3 - y2)))
    return points, tangents


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _looped(segment) -> bool:
    """Whether a cubic has a near-cusp or a loop, judged on 33 samples.

    Near-cusp: its speed falls below ``CUSP_SPEED`` of its maximum.  Loop:
    its sampled polyline crosses itself.  A loop turns the tangent by more
    than 180 degrees, so only such curves get the crossing test.
    """
    if segment[0] != "C":
        return False
    points, tangents = _bezier_samples(segment)
    speeds = [math.hypot(*d) for d in tangents]
    if min(speeds) < CUSP_SPEED * max(speeds):
        return True
    turning = sum(math.atan2(ax * by - ay * bx, ax * bx + ay * by)
                  for (ax, ay), (bx, by) in zip(tangents, tangents[1:]))
    if abs(turning) <= math.pi:
        return False
    pieces = list(zip(points, points[1:]))
    return any(_cross(a, b, c) * _cross(a, b, d) < 0 and _cross(c, d, a) * _cross(c, d, b) < 0
               for i, (a, b) in enumerate(pieces) for c, d in pieces[i + 2:])


def make_spec(rng: random.Random, spec_kind: str) -> str:
    start = rng.choice(TIP_PAIRS)[0] if spec_kind in ("both", "start") else ""
    end = rng.choice(TIP_PAIRS)[1] if spec_kind in ("both", "end") else ""
    return f"{start}-{end}"


def split_spec(text: str) -> tuple[str | None, str | None]:
    start, _, end = text.partition("-")
    return start or None, end or None


@dataclass(frozen=True)
class Arrow:
    spec: str
    segments: tuple
    width: float
    looped: bool  # some cubic of the host loops or has a (near-)cusp


def make_arrow(rng: random.Random, spec_kind: str, segments, width: float) -> Arrow:
    return Arrow(make_spec(rng, spec_kind), segments, width, any(map(_looped, segments)))


def curves_stream(seed):
    """Endless arrows in blocks of 20 with a fixed spec mix."""
    rng = random.Random(seed)
    hosts = host_stream(random.Random(f"hosts-{seed}"))
    while True:
        specs = list(CURVES_SPECS)
        rng.shuffle(specs)
        for spec_kind in specs:
            yield make_arrow(rng, spec_kind, next(hosts), rng.uniform(0.2, 2.0))


def _coordinate(value: float) -> str:
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def path_literal(segments) -> str:
    parts = ["M", ",".join(map(_coordinate, segments[0][1]))]
    for segment in segments:
        parts.append(segment[0])
        parts.extend(",".join(map(_coordinate, p)) for p in segment[2:])
    return " ".join(parts)


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    arrow: Arrow | None   # the render input, None for extents
    tip: tuple[str, str] | None   # (name, side) for extents


def cli_stream(seed):
    """Endless CLI invocations in blocks of ``CLI_BLOCK``, argv README-style.

    Renders take their hosts from the same host stream as ``curves``.
    """
    rng = random.Random(seed)
    hosts = host_stream(random.Random(f"hosts-{seed}"))
    while True:
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for entry in block:
            command, spec_kind = entry.split("-")
            width = round(rng.uniform(0.2, 2.0), 2)
            if command == "extents":
                start, end = rng.choice(TIP_PAIRS)
                name = start if spec_kind == "start" else end
                argv = ("extents", "--tip", name, "--width", _coordinate(width))
                if spec_kind == "start":
                    argv += ("--side", "start")
                yield Invocation(argv, None, (name, spec_kind))
                continue
            arrow = make_arrow(rng, spec_kind, next(hosts), width)
            argv = ("render", "--spec", arrow.spec, "--path", path_literal(arrow.segments),
                    "--width", _coordinate(width), "--out", "arrow.svg")
            yield Invocation(argv, arrow, None)


# --- checks ----------------------------------------------------------------

def load_oracle(root: Path):
    """``scripts/extents_oracle.py`` loaded by path, as the test suite does."""
    path = root / "scripts" / "extents_oracle.py"
    spec = importlib.util.spec_from_file_location("extents_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Properties:
    """Workload properties that a later change can cite as its base."""

    ops: int = 0
    tips: int = 0
    cubic_tips: int = 0
    hosts: int = 0
    looped_hosts: int = 0
    key_requests: int = 0
    key_repeats: int = 0
    program_ops: int = 0
    drawables: int = 0
    svg_bytes: int = 0
    end_only: int = 0
    option_like_end_only: int = 0
    # cli invocations set aside because they hit the argparse defect, and
    # how many of them still exit 2 with argparse's message
    set_aside: int = 0
    defect_exits: int = 0
    # The last KEY_WINDOW program keys, so that bookkeeping memory does not
    # grow with the op count and show up in peak_rss_mb.
    seen: OrderedDict = field(default_factory=OrderedDict)

    def tip(self, key, cubic_end: bool, program_ops: int) -> None:
        self.tips += 1
        self.cubic_tips += cubic_end
        self.key_requests += 1
        if key in self.seen:
            self.key_repeats += 1
            self.seen.move_to_end(key)
        else:
            self.seen[key] = None
            if len(self.seen) > KEY_WINDOW:
                self.seen.popitem(last=False)
        self.program_ops += program_ops

    def counts(self) -> dict:
        return {name: value for name, value in vars(self).items() if name != "seen"}

    def summary(self) -> dict:
        per_op = max(self.ops, 1)
        return {
            "ops": self.ops,
            "attach.cubic_end_share": self.cubic_tips / max(self.tips, 1),
            "host.loop_or_cusp_share": self.looped_hosts / max(self.hosts, 1),
            "catalog.repeat_key_share": self.key_repeats / max(self.key_requests, 1),
            "catalog.program_ops": self.program_ops / per_op,
            "pathmodel.drawables": self.drawables / per_op,
            "svg.bytes": self.svg_bytes / per_op,
            "spec.end_only_share": self.end_only / per_op,
            "spec.option_like_end_only_share": self.option_like_end_only / per_op,
            "cli.set_aside_share": self.set_aside / max(self.ops + self.set_aside, 1),
            "cli.defect_exit_share": self.defect_exits / max(self.set_aside, 1),
        }


@dataclass
class Outcome:
    failed: bool = False
    shorten_errors: list = field(default_factory=list)
    message: str = ""

    def fail(self, message: str) -> "Outcome":
        self.failed = True
        self.message = self.message or message
        return self


def _xml_ok(data) -> bool:
    try:
        ElementTree.fromstring(data)
    except ElementTree.ParseError:
        return False
    return True


def _segments_of(host) -> tuple:
    """Segments of a program ``HostPath`` as the generator's tuples."""
    out = []
    for s in host:
        if type(s).__name__ == "LineSegment":
            out.append(("L", (s.start.x, s.start.y), (s.end.x, s.end.y)))
        else:
            out.append(("C", (s.start.x, s.start.y), (s.control1.x, s.control1.y),
                        (s.control2.x, s.control2.y), (s.end.x, s.end.y)))
    return tuple(out)


def _outline_segments(outline) -> tuple:
    """Resolved host outline (MoveTo, LineTo, CurveTo) as the generator's tuples."""
    out = []
    current = None
    for op in outline:
        kind = type(op).__name__
        if kind == "MoveTo":
            current = (op.x, op.y)
            continue
        end = (op.x, op.y)
        if kind == "LineTo":
            out.append(("L", current, end))
        else:
            out.append(("C", current, (op.c1x, op.c1y), (op.c2x, op.c2y), end))
        current = end
    return tuple(out)


def removed_length(before: tuple, after: tuple, side: str, lengths: dict) -> float:
    """Reference arc length cut from ``side``; shared segments are skipped."""
    if side == "start":
        before, after = before[::-1], after[::-1]
    keep = 0
    while keep < min(len(before), len(after)) and before[keep] == after[keep]:
        keep += 1

    def length(segment) -> float:
        if segment not in lengths:
            lengths[segment] = arclength.segment_length(segment)
        return lengths[segment]

    return sum(map(length, before[keep:])) - sum(map(length, after[keep:]))


class Workload:
    name = ""
    block = 1  # ops run in whole blocks so input shares are exact
    modules = ("attach", "catalog", "geometry", "pathmodel", "specparser", "svg")

    def __init__(self, oracle) -> None:
        self.oracle = oracle
        self.program_ops: dict = {}

    def load(self) -> None:
        self.m = {name: importlib.import_module(f"arrowtips.{name}") for name in self.modules}

    def prepare(self, raw):
        return raw

    def run_set_aside(self, props: Properties) -> Outcome:
        """Runs, untimed, the inputs that ``inputs`` kept out of the ops."""
        return Outcome()

    def host_path(self, segments):
        attach = self.m["attach"]
        Point = self.m["geometry"].Point
        return attach.HostPath(tuple(
            (attach.LineSegment if s[0] == "L" else attach.CubicSegment)(*(Point(*p) for p in s[1:]))
            for s in segments))

    def _expected(self, name: str, side: str, width: float) -> tuple[float, float]:
        return self.oracle.extents(TIP_PAIRS[_ROW[(name, side)]][1], width)

    def _check_tip(self, name: str, side: str, width: float, outcome: Outcome) -> float:
        """Compares catalog and oracle extents; returns the declared right extent."""
        catalog = self.m["catalog"]
        got = catalog.extents(catalog.lookup(name, catalog.Side(side)), width)
        left, right = self._expected(name, side, width)
        if abs(got.left - left) > EXTENTS_TOLERANCE or abs(got.right - right) > EXTENTS_TOLERANCE:
            outcome.fail(f"extents of {name!r} ({side}) at w={width}: "
                         f"({got.left}, {got.right}) != oracle ({left}, {right})")
        return got.right

    def _count_tip(self, props: Properties, name: str, side: str, width: float,
                   cubic_end: bool) -> None:
        key = (_ROW[(name, side)], width)
        if key not in self.program_ops:
            if len(self.program_ops) >= KEY_WINDOW:
                self.program_ops.clear()
            catalog = self.m["catalog"]
            tip = catalog.lookup(name, catalog.Side(side))
            self.program_ops[key] = len(catalog.program(tip, width).ops)
        props.tip(key, cubic_end, self.program_ops[key])


class Gallery(Workload):
    """The default gallery document, rebuilt and serialized in process."""

    name = "gallery"

    def __init__(self, oracle) -> None:
        super().__init__(oracle)
        self.parsed: dict[str, bool] = {}

    def inputs(self, seed):
        while True:
            yield GALLERY_WIDTHS

    def op(self, widths):
        # Built the way ``arrowtips gallery`` builds it.
        attach, catalog, svg = self.m["attach"], self.m["catalog"], self.m["svg"]
        Point = self.m["geometry"].Point
        host = attach.HostPath((attach.LineSegment(Point(0.0, 0.0),
                                                   Point(GALLERY_SEGMENT, 0.0)),))
        spec_type = self.m["specparser"].ArrowSpec
        scenes = []
        for definition in catalog.registry():
            for width in widths:
                label = f"{definition.end_name} w={svg.format_number(width)}"
                scenes.append((label, attach.decorate(
                    host, spec_type(end=definition.end_name), width)))
        return svg.render_document(scenes, columns=len(widths)), scenes

    def check(self, widths, output, props: Properties) -> Outcome:
        outcome = Outcome()
        document, scenes = output
        data = document.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        if digest != GALLERY_SHA256:
            outcome.fail("gallery document differs from the pinned sha256")
        # Identical bytes parse identically, so each distinct document is parsed once.
        if digest not in self.parsed:
            self.parsed[digest] = _xml_ok(data)
        if not self.parsed[digest]:
            outcome.fail("gallery document is not well-formed XML")
        for index, (label, scene) in enumerate(scenes):
            name = label.rsplit(" w=", 1)[0]
            width = widths[index % len(widths)]
            right = self._check_tip(name, "end", width, outcome)
            kept = _outline_segments(scene[0].outline)
            removed = GALLERY_SEGMENT - sum(arclength.segment_length(s) for s in kept)
            outcome.shorten_errors.append(abs(removed - right))
            self._count_tip(props, name, "end", width, cubic_end=False)
            props.drawables += len(scene)
        props.hosts += len(scenes)
        props.svg_bytes += len(data)
        return outcome


class Curves(Workload):
    """Single arrows on seeded hosts, through parse, decorate, bounds, render."""

    name = "curves"
    block = len(CURVES_SPECS)

    def inputs(self, seed):
        return curves_stream(seed)

    def prepare(self, arrow: Arrow):
        return arrow.spec, self.host_path(arrow.segments), arrow.width

    def op(self, prepared):
        # The same calls ``arrowtips render`` makes, minus the file write.
        text, host, width = prepared
        attach, specparser, svg = self.m["attach"], self.m["specparser"], self.m["svg"]
        scene = attach.decorate(host, specparser.parse(text), width)
        min_x, min_y, max_x, max_y = svg.scene_bounds(scene)
        pad, label_zone = 4.0, 12.0
        document = svg.render_document(
            [(text, scene)], columns=1,
            cell_width=(max_x - min_x) + 2 * pad,
            cell_height=(max_y - min_y) + 2 * pad + label_zone,
            origin_x=pad - min_x, origin_y=label_zone + pad + max_y,
        )
        return document, scene

    def check(self, arrow: Arrow, output, props: Properties) -> Outcome:
        outcome = Outcome()
        document, scene = output
        data = document.encode("utf-8")
        if not _xml_ok(data):
            outcome.fail("arrow document is not well-formed XML")
        self.shorten_errors(arrow, _outline_segments(scene[0].outline), outcome)
        self.count(arrow, props)
        props.drawables += len(scene)
        props.svg_bytes += len(data)
        return outcome

    def shorten_errors(self, arrow: Arrow, final: tuple, outcome: Outcome) -> None:
        """|reference length removed - declared right extent| for each tip.

        The end tip is attached first; with both ends tipped, the path between
        the two cuts is rebuilt with the program's own ``shorten``.
        """
        start, end = split_spec(arrow.spec)
        lengths: dict = {}
        before = arrow.segments
        if end is not None:
            right = self._check_tip(end, "end", arrow.width, outcome)
            after = final
            if start is not None:
                attach, catalog = self.m["attach"], self.m["catalog"]
                cut = attach.shorten(self.host_path(before), catalog.Side.END, right)
                after = _segments_of(cut.segments)
            outcome.shorten_errors.append(
                abs(removed_length(before, after, "end", lengths) - right))
            before = after
        if start is not None:
            right = self._check_tip(start, "start", arrow.width, outcome)
            outcome.shorten_errors.append(
                abs(removed_length(before, final, "start", lengths) - right))

    def count(self, arrow: Arrow, props: Properties) -> None:
        start, end = split_spec(arrow.spec)
        props.hosts += 1
        props.looped_hosts += arrow.looped
        if start is None:
            props.end_only += 1
            props.option_like_end_only += reads_as_option(end)
        if end is not None:
            self._count_tip(props, end, "end", arrow.width, arrow.segments[-1][0] == "C")
        if start is not None:
            self._count_tip(props, start, "start", arrow.width, arrow.segments[0][0] == "C")


def reads_as_option(tip: str) -> bool:
    """Whether argparse reads ``--spec "-<tip>"`` as an option, not a value.

    argparse takes a value that starts with ``-`` for an option unless it
    has a space, and ``-h...`` always matches the ``-h`` flag.
    """
    return " " not in tip or tip.startswith("h")


# What argparse prints when it reads ``--spec "-<tip>"`` as an option.
ARGPARSE_DEFECT = "argument --spec: expected one argument"


def hits_argparse_defect(invocation: Invocation) -> bool:
    """A README-style end-only render that argparse rejects with exit 2."""
    if invocation.arrow is None:
        return False
    start, end = split_spec(invocation.arrow.spec)
    return start is None and reads_as_option(end)


class Cli(Curves):
    """Fresh ``python -m arrowtips`` processes, one at a time."""

    name = "cli"
    block = len(CLI_BLOCK)
    modules = Curves.modules + ("cli",)

    def __init__(self, oracle, scratch: Path) -> None:
        super().__init__(oracle)
        self.scratch = scratch
        self.out = scratch / "arrow.svg"
        self.peak_rss_kb = 0  # of the CLI children only

    def inputs(self, seed):
        """README-style invocations, minus those that hit the argparse defect.

        Those are set aside for ``run_set_aside``, so that every op is one
        the program accepts.  The list starts anew with each stream.
        """
        self.set_aside: list[Invocation] = []
        for invocation in cli_stream(seed):
            if hits_argparse_defect(invocation):
                self.set_aside.append(invocation)
            else:
                yield invocation

    def prepare(self, invocation):
        return invocation.argv

    def run_set_aside(self, props: Properties) -> Outcome:
        """Each set-aside invocation exits 2 with argparse's message while the
        defect stands, and exits 0 with a well-formed file once it is fixed.
        Anything else is wrong output.
        """
        outcome = Outcome()
        for invocation in self.set_aside:
            child = subprocess.run([sys.executable, "-m", "arrowtips", *invocation.argv],
                                   cwd=self.scratch, capture_output=True, text=True,
                                   timeout=60)
            data = self.out.read_bytes() if self.out.exists() else b""
            self.out.unlink(missing_ok=True)
            props.set_aside += 1
            if child.returncode == 2 and ARGPARSE_DEFECT in child.stderr:
                props.defect_exits += 1
            elif child.returncode != 0 or not _xml_ok(data):
                outcome.fail(f"set-aside {' '.join(invocation.argv[:3])!r} exited "
                             f"{child.returncode} without a well-formed SVG file")
        return outcome

    def op(self, argv):
        # The environment from run.py already puts the checkout's src/ first.
        child = subprocess.Popen([sys.executable, "-m", "arrowtips", *argv], cwd=self.scratch,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        with child.stdout:
            stdout = child.stdout.read()
        # wait4 gives this child's own peak RSS; other children do not mix in.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return child.returncode, stdout

    def op_in_process(self, argv):
        """The same invocation through ``cli.main`` in this process."""
        argv = [str(self.out) if a == "arrow.svg" else a for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = self.m["cli"].main(argv)
        return code, stdout.getvalue()

    def check(self, invocation: Invocation, output, props: Properties) -> Outcome:
        outcome = Outcome()
        code, stdout = output
        props.seen.clear()  # a program cache could only live as long as the process
        if invocation.arrow is not None:
            self.count(invocation.arrow, props)
            data = self.out.read_bytes() if self.out.exists() else b""
            self.out.unlink(missing_ok=True)
            props.drawables += data.count(b"<path ")
            props.svg_bytes += len(data)
            if code == 0 and not _xml_ok(data):
                outcome.fail("render exited 0 without a well-formed SVG file")
        elif code == 0:
            name, side = invocation.tip
            width = float(invocation.argv[4])
            try:
                fields = dict(part.split("=") for part in stdout.split())
                got = (float(fields["left"]), float(fields["right"]))
            except (KeyError, ValueError):
                return outcome.fail(f"extents printed {stdout!r}")
            want = self._expected(name, side, width)
            if max(abs(got[0] - want[0]), abs(got[1] - want[1])) > EXTENTS_TOLERANCE:
                outcome.fail(f"extents of {name!r} at w={width}: {got} != oracle {want}")
        if code != 0:
            outcome.fail(f"exit {code}")
        return outcome


WORKLOADS = {"gallery": Gallery, "curves": Curves, "cli": Cli}
