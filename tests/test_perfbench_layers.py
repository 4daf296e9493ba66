"""The names that the benchmark's tracer patches exist in the package.

``perfbench/spans.py`` wraps each ``(module, attribute)`` of its ``LAYERS``
for a traced run, and its own tests read ``arrowtips.attach.evaluate``.  A
change that deletes or renames one of them fails here, not in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
SPANS = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(SPANS)
LAYERS = [layer[:2] for layer in SPANS.LAYERS]


@pytest.mark.parametrize("module,attribute", LAYERS, ids=[".".join(layer) for layer in LAYERS])
def test_every_traced_layer_is_a_function_of_the_package(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_attach_keeps_the_evaluate_that_the_tracer_wraps():
    from arrowtips import attach, pathmodel

    assert attach.evaluate is pathmodel.evaluate
