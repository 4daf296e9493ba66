"""Fixed reference work that tells how fast the host runs right now.

On a shared host a core runs the same code up to about 1.8x slower for
seconds to minutes at a time.  Timing a fixed piece of reference work right
after the ops it belongs to, on the same core, measures that state, and
``adjust`` scales an op time to what it would be when the reference work
takes its ``*_REFERENCE_MS``.  The reference work never touches arrowtips,
so a change to the program moves the op times but not the reference.

Two kinds of reference work, one for each kind of op:

- ``in_process_ms`` runs pure Python (string formatting, float math, dicts)
  in the calling interpreter.  It goes with in-process ops.
- ``child_ms`` starts a fresh ``python -c "import numpy"``: the interpreter
  start-up and numpy import that a CLI child and set-up also do, without
  arrowtips.  It goes with those two.

A reference does not slow down by exactly the same factor as the work it
stands for, so the adjustment narrows the spread between runs but does not
remove it; README.md gives the figures.

Nothing here imports numpy or arrowtips, so importing this module does not
shift work out of a set-up measurement.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

# Time of each reference on an unloaded core of the 2-vCPU Xeon VM where
# the benchmark was defined (Python 3.11, numpy 2.4).
IN_PROCESS_REFERENCE_MS = 1.2
CHILD_REFERENCE_MS = 110.0
CHILD_COMMAND = (sys.executable, "-c", "import numpy")


def _reference_work() -> float:
    rows = []
    for i in range(1200):
        x = i * 0.37
        rows.append(f"{x:.3f},{math.sin(x) * x:.3f}")
    index = {row: (len(row), row[:3]) for row in rows}
    points = [(i * 0.5, i * 0.25) for i in range(400)]
    length = sum(math.hypot(c - a, d - b) for (a, b), (c, d) in zip(points, points[1:]))
    return len(",".join(rows)) + len(index) + length


def in_process_ms() -> float:
    start = time.perf_counter_ns()
    _reference_work()
    return (time.perf_counter_ns() - start) / 1e6


def child_ms() -> float:
    start = time.perf_counter_ns()
    subprocess.run(CHILD_COMMAND, check=True, timeout=60,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter_ns() - start) / 1e6


def adjust(value: float, reference_ms: float, measured_ms: float) -> float:
    """``value`` scaled to a host on which the reference takes ``reference_ms``."""
    return value * reference_ms / measured_ms
