"""The per-arrow path reads no enum class attribute, hashes no enum and builds no ``Extents``.

On Python 3.10 and 3.11 ``EnumType.__getattr__`` puts a read such as
``Side.END`` on the slow attribute path, and on every version
``Enum.__hash__`` and ``.value`` run as Python code, so the modules that
every arrow passes through bind the members they compare against once, at
import.  ``attach`` needs only a tip's right extent, so it reads the checked
pair from ``catalog.reach`` and builds no ``Extents`` record.  This runs real
traffic, the default gallery and renders of seeded ``curves`` arrows through
``cli.main``, with the enum classes in those modules and ``catalog.Extents``
replaced by a tripwire and a profiler watching for any call into ``enum.py``.
"""

import enum
import importlib
import itertools
import sys
from pathlib import Path

from arrowtips import attach, catalog, cli, specparser, svg

ENUM_CLASSES = ("Side", "LineCap", "LineJoin", "Action")
PER_ARROW_MODULES = (attach, catalog, specparser, svg)
RENDERS = 40


class _Tripwire:
    """Stands in for a class; a read of a member or method, or a build, is logged and raises."""

    def __init__(self, reads: list, name: str) -> None:
        self._reads, self._name = reads, name

    def __getattr__(self, attribute: str):
        self._reads.append(f"{self._name}.{attribute}")
        raise AssertionError(f"the per-arrow path read {self._name}.{attribute}")

    def __call__(self, *args):
        self._reads.append(f"{self._name}()")
        raise AssertionError(f"the per-arrow path built {self._name}")


def _render_argvs(tmp_path) -> list[list[str]]:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    out = str(tmp_path / "arrow.svg")
    return [["render", "--spec", arrow.spec, "--path", workloads.path_literal(arrow.segments),
             "--width", repr(arrow.width), "--out", out]
            for arrow in itertools.islice(workloads.curves_stream(1), RENDERS)]


def test_gallery_and_renders_touch_no_enum_machinery(monkeypatch, tmp_path):
    argvs = [["gallery", "--out", str(tmp_path / "gallery.svg")], *_render_argvs(tmp_path)]
    reads: list[str] = []
    calls: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == enum.__file__:
            calls.append(f"{frame.f_code.co_name} from {frame.f_back.f_code.co_name}")

    for module in PER_ARROW_MODULES:
        for name in ENUM_CLASSES:
            if name in vars(module):
                monkeypatch.setattr(module, name, _Tripwire(reads, f"{module.__name__}.{name}"))
    monkeypatch.setattr(catalog, "Extents", _Tripwire(reads, "arrowtips.catalog.Extents"))
    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert (reads, calls) == ([], [])
    assert codes == [0] * len(argvs)  # every arrow is drawn
