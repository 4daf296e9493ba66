"""In-memory spans around the calls into each arrowtips layer.

The traced run wraps public functions of the arrowtips modules with span
recorders for the duration of one traced op, then puts the originals back.
Nothing under ``src/`` changes: the wrappers replace module attributes, and
every module namespace that imported the same function object gets the same
wrapper, so calls made inside the package are traced too.

A span has a name, start and end in ns, its parent span and its op id.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable

# (module, attribute, span name).  ``attach.shorten`` gets its name from the
# type of the segment at the end being cut; see ``_shorten_name``.
LAYERS = (
    ("arrowtips.specparser", "parse", "specparser.parse"),
    ("arrowtips.catalog", "lookup", "catalog.lookup"),
    ("arrowtips.catalog", "extents", "catalog.extents"),
    ("arrowtips.catalog", "program", "catalog.program"),
    ("arrowtips.attach", "decorate", "attach.decorate"),
    ("arrowtips.attach", "path_length", "attach.path_length"),
    ("arrowtips.attach", "placement", "attach.placement"),
    ("arrowtips.attach", "shorten", None),
    ("arrowtips.pathmodel", "transform_program", "pathmodel.transform_program"),
    ("arrowtips.pathmodel", "evaluate", "pathmodel.evaluate"),
    ("arrowtips.svg", "scene_bounds", "svg.scene_bounds"),
    ("arrowtips.svg", "render_document", "svg.render_document"),
    ("arrowtips.cli", "main", "cli.main"),
)

OP_SPAN = "op"


def _shorten_name(path, side, amount) -> str:
    segment = path.segments[-1] if side.value == "end" else path.segments[0]
    kind = "cubic" if type(segment).__name__ == "CubicSegment" else "line"
    return f"attach.shorten_{kind}"


class Tracer:
    """Spans kept in flat integer columns, so long traced runs stay small."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op_of = array("q")
        self._stack: list[int] = []
        self.op_id = -1

    def begin(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_of.append(self.op_id)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def rows(self):
        """Each span as (name, start_ns, end_ns, parent index, op id)."""
        names = self.names
        for i in range(len(self.start)):
            yield names[self.name[i]], self.start[i], self.end[i], self.parent[i], self.op_of[i]

    def wrap(self, function: Callable, name) -> Callable:
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                return function(*args, **kwargs)
            finally:
                finish(index)

        return traced

    def op(self, op_id: int, call: Callable, *args):
        """Run ``call(*args)`` as op ``op_id`` inside a root span.

        Returns (result, duration_ns of the root span).
        """
        self.op_id = op_id
        index = self.begin(OP_SPAN)
        try:
            result = call(*args)
        finally:
            self.finish(index)
        return result, self.end[index] - self.start[index]


@contextmanager
def instrumented(tracer: Tracer):
    """Swap the layer functions for span-recording wrappers, then restore."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "arrowtips" or name.startswith("arrowtips."))]
    swapped = []
    try:
        for module_name, attribute, name in LAYERS:
            if module_name not in sys.modules:
                continue
            original = getattr(sys.modules[module_name], attribute)
            wrapper = tracer.wrap(original, name or _shorten_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        swapped.append((module, key, original))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for module, key, original in reversed(swapped):
            setattr(module, key, original)


def self_times(tracer: Tracer) -> list[int]:
    """Self time in ns of each span.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    duration = [e - s for s, e in zip(tracer.start, tracer.end)]
    covered = [0] * len(duration)
    for i, parent in enumerate(tracer.parent):
        if parent >= 0:
            covered[parent] += duration[i]
    return [d - c for d, c in zip(duration, covered)]


def layer_totals(tracer: Tracer) -> dict[str, tuple[int, int]]:
    """Span name -> (total self time in ns, number of calls)."""
    own = [0] * len(tracer.names)
    calls = [0] * len(tracer.names)
    for name_id, self_ns in zip(tracer.name, self_times(tracer)):
        own[name_id] += self_ns
        calls[name_id] += 1
    return {name: (own[i], calls[i]) for i, name in enumerate(tracer.names)}
