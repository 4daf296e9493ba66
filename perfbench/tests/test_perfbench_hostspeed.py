"""The host-speed reference work and the adjustment by it."""

import subprocess
import sys
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parents[1]


def test_adjust_scales_by_the_reference_ratio():
    assert hostspeed.adjust(10.0, 1.2, 2.4) == 5.0
    assert hostspeed.adjust(10.0, 1.2, 1.2) == 10.0


def test_references_take_time():
    assert hostspeed.in_process_ms() > 0.0
    assert hostspeed.child_ms() > 0.0


def test_importing_it_leaves_numpy_and_arrowtips_to_the_set_up_clock():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hostspeed; "
            "print('numpy' in sys.modules, 'arrowtips' in sys.modules)")
    child = subprocess.run([sys.executable, "-c", code, str(HERE)], check=True,
                           capture_output=True, text=True, timeout=60)
    assert child.stdout.split() == ["False", "False"]
