"""Spans nest, self times are nonnegative, and tracing changes nothing."""

import itertools
import sys
from pathlib import Path

import run
import spans
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def traced(workload_cls, seed, ops):
    workload = workload_cls(workloads.load_oracle(ROOT))
    workload.load()
    tracer = spans.Tracer()
    for op_id, raw in enumerate(itertools.islice(workload.inputs(seed), ops)):
        prepared = workload.prepare(raw)
        with spans.instrumented(tracer):
            traced_output, _ = tracer.op(op_id, workload.op, prepared)
        assert traced_output[0] == workload.op(prepared)[0]
    return tracer


def check_nesting(tracer):
    rows = list(tracer.rows())
    assert rows
    for name, start, end, parent, op_id in rows:
        assert start <= end
        if parent < 0:
            assert name == spans.OP_SPAN
        else:
            _, parent_start, parent_end, _, parent_op = rows[parent]
            assert parent_start <= start and end <= parent_end and op_id == parent_op
    own = spans.self_times(tracer)
    assert min(own) >= 0
    roots = [i for i, row in enumerate(rows) if row[3] < 0]
    assert sum(own) == sum(rows[i][2] - rows[i][1] for i in roots)


def test_curves_spans_nest_with_nonnegative_self_times():
    tracer = traced(workloads.Curves, 1, 20)
    check_nesting(tracer)
    names = set(tracer.names)
    assert {"specparser.parse", "attach.decorate", "attach.shorten_cubic", "catalog.program",
            "pathmodel.evaluate", "svg.scene_bounds", "svg.render_document"} <= names
    decorate = tracer.names.index("attach.decorate")
    for i in range(len(tracer.start)):
        if tracer.names[tracer.name[i]] == "attach.shorten_cubic":
            assert tracer.name[tracer.parent[i]] == decorate


def test_gallery_spans_nest_and_cover_every_cell():
    tracer = traced(workloads.Gallery, 1, 1)
    check_nesting(tracer)
    totals = spans.layer_totals(tracer)
    assert totals["attach.decorate"][1] == 141
    assert "attach.shorten_cubic" not in totals


def test_instrumentation_is_removed_afterwards():
    import arrowtips.attach  # noqa: F401

    attach = sys.modules["arrowtips.attach"]
    before = (attach.decorate, attach.shorten, attach.evaluate)
    with spans.instrumented(spans.Tracer()):
        assert attach.decorate is not before[0] and attach.evaluate is not before[2]
    assert (attach.decorate, attach.shorten, attach.evaluate) == before


def test_tail_is_the_value_with_ten_samples_beyond_it():
    value, percentile = run._tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0


def test_parts_merge_into_one_run():
    def part(durations, ops, hosts, looped):
        counts = workloads.Properties(ops=ops, hosts=hosts, looped_hosts=looped).counts()
        return {"durations_ms": durations, "adjusted_ms": [d / 2 for d in durations],
                "reference_ms": 1.0 + ops, "failed": 0, "messages": [],
                "peak_rss_mb": 40.0 + ops, "shorten_err_pt_max": None, "counts": counts}

    merged = run._merge([part([float(i) for i in range(1, 51)], 2, 10, 1),
                         part([float(i) for i in range(51, 101)], 3, 10, 4)])
    assert merged["attempted"] == 100
    assert merged["raw.op_ms_p50"] == 50.5 and merged["op_ms_p50"] == 25.25
    assert merged["raw.op_ms_tail"] == 90.0 and merged["op_ms_tail"] == 45.0
    assert merged["ops_per_s"] == 2 * merged["raw.ops_per_s"] == 1000 / 25.25
    assert merged["reference_ms"] == 3.5
    assert merged["peak_rss_mb"] == 43.0 and merged["shorten_err_pt_max"] is None
    assert merged["properties"]["ops"] == 5
    assert merged["properties"]["host.loop_or_cusp_share"] == 0.25


def test_numpy_share_of_an_import_report():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       numpy._core",
        "import time:        20 |         30 |     numpy",
        "import time:         5 |          5 |     numpy.polynomial.legendre",
        "import time:         7 |         42 |   arrowtips.attach",
        "import time:         3 |         45 | arrowtips",
    ])
    assert worker._numpy_import_ms(report) == 0.035
