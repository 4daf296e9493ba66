"""Bit-level pins on the output of the whole pipeline.

A change to evaluation, mirroring or placement that moves any float, even
below the four decimals the SVG prints, fails here.
"""

import dataclasses
import hashlib

from arrowtips.attach import HostPath, LineSegment, decorate
from arrowtips.catalog import registry
from arrowtips.cli import main as cli_main
from arrowtips.geometry import Point
from arrowtips.specparser import ArrowSpec

GALLERY_SHA256 = "9bba20eb00c69b9e6e7da9ac7dff978bfc86230fd9c9a444441c8d8fc65f6370"
SCENES_SHA256 = "812136d91b6f988d2458dd98ba02d102a5a53df4c990b6a22d6ed8445a93ec0d"
WIDTHS = (0.4, 0.8, 1.6)


def test_default_gallery_document_is_pinned(tmp_path):
    out = tmp_path / "gallery.svg"
    assert cli_main(["gallery", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GALLERY_SHA256


def _scene_lines(scene):
    for drawable in scene:
        yield " ".join((drawable.action.value, drawable.cap.value, drawable.join.value,
                        float.hex(drawable.width)))
        for op in drawable.outline:
            values = (getattr(op, field.name) for field in dataclasses.fields(op))
            yield " ".join((type(op).__name__, *(float.hex(v) for v in values)))


def test_every_decorated_scene_is_pinned_to_the_bit():
    host = HostPath((LineSegment(Point(0.0, 0.0), Point(40.0, 0.0)),))
    digest = hashlib.sha256()
    for definition in registry():
        for spec in (ArrowSpec(start=definition.start_name), ArrowSpec(end=definition.end_name)):
            for w in WIDTHS:
                digest.update(f"{spec} {float.hex(w)}\n".encode())
                for line in _scene_lines(decorate(host, spec, w)):
                    digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == SCENES_SHA256
