"""One measurement in a fresh interpreter; prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --mode setup|run --part K

``--mode setup`` only measures set-up: from just before ``import arrowtips``
to the end of the first, untimed op, then adjusted for host speed (see
hostspeed.py).  ``--mode run`` then runs ops in a closed loop (one caller,
next op after the previous one and its checks) for ``--seconds``, in whole
input blocks.  With ``--trace 1`` every input runs
twice, once plain and once with spans, in alternating order; the spans give
the per-layer numbers and the pair gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))  # the checkout under test comes first

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CHILD_REPEATS = 5
# Workload properties that the traced run also reports as per-layer counts.
PROPERTY_UNITS = {"catalog.program_ops": "count", "pathmodel.drawables": "count",
                  "svg.bytes": "B", "catalog.repeat_key_share": "ratio",
                  "attach.cubic_end_share": "ratio"}


def _verify_provenance() -> None:
    import arrowtips

    where = Path(arrowtips.__file__).resolve()
    if where.parent != SRC / "arrowtips":
        raise SystemExit(f"perfbench: imported arrowtips from {where}, not from {SRC}")


def _numpy_import_ms(importtime_report: str) -> float:
    """Cumulative ms of the outermost numpy imports in a ``-X importtime`` report."""
    total_us = 0
    stack: list[tuple[int, bool]] = []
    for line in reversed(importtime_report.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split(":", 1)[1].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = len(name) - len(name.lstrip())
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_numpy = name.strip().split(".")[0] == "numpy"
        if is_numpy and not inside:
            total_us += int(cumulative)
        stack.append((depth, inside or is_numpy))
    return total_us / 1000.0


def measure_children() -> dict:
    """Interpreter start, ``import arrowtips`` and its numpy share, in fresh children."""
    code = "import time; t = time.perf_counter(); import arrowtips; print(time.perf_counter() - t)"
    interp, imports, numpy_ms = [], [], []
    for _ in range(CHILD_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        interp.append((time.perf_counter() - start) * 1e3)
        child = subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                               capture_output=True, text=True)
        imports.append(float(child.stdout) * 1e3)
        child = subprocess.run([sys.executable, "-X", "importtime", "-c", "import arrowtips"],
                               check=True, timeout=60, capture_output=True, text=True)
        numpy_ms.append(_numpy_import_ms(child.stderr))
    return {"cli.interp_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imports),
            "cli.import_numpy_ms": statistics.median(numpy_ms)}


class Tally:
    def __init__(self) -> None:
        self.failed = 0
        self.messages: list[str] = []
        self.shorten_err_max = None  # only the maximum, so memory does not grow with ops

    def add(self, outcome) -> None:
        self.failed += outcome.failed
        if outcome.shorten_errors:
            self.shorten_err_max = max(self.shorten_err_max or 0.0, *outcome.shorten_errors)
        if outcome.message and len(self.messages) < 5:
            self.messages.append(outcome.message)

    def crash(self, exc: Exception) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{type(exc).__name__}: {exc}")


def run_op(op, prepared, tally: Tally):
    try:
        return op(prepared)
    except Exception as exc:  # a crash is a failed op, not the end of the run
        tally.crash(exc)
        return None


def timed_loop(workload, seed, seconds: float) -> dict:
    """Op times, raw and host-adjusted, and counts; run.py merges them over its workers.

    After each input block the host's reference work is timed, and the
    block's op times are adjusted by it (see hostspeed.py).
    """
    if workload.name == "cli":
        reference, reference_ms = hostspeed.child_ms, hostspeed.CHILD_REFERENCE_MS
    else:
        reference, reference_ms = hostspeed.in_process_ms, hostspeed.IN_PROCESS_REFERENCE_MS
    props = workloads.Properties()
    tally = Tally()
    durations, adjusted, references = array("d"), array("d"), array("d")
    stream = workload.inputs(seed)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(durations) % workload.block:
        raw = next(stream)
        prepared = workload.prepare(raw)
        start = time.perf_counter_ns()
        output = run_op(workload.op, prepared, tally)
        durations.append((time.perf_counter_ns() - start) / 1e6)
        props.ops += 1
        if output is not None:
            tally.add(workload.check(raw, output, props))
        if len(durations) % workload.block == 0:
            references.append(reference())
            adjusted.extend(hostspeed.adjust(d, reference_ms, references[-1])
                            for d in durations[-workload.block:])
    tally.add(workload.run_set_aside(props))
    peak_rss_kb = (workload.peak_rss_kb if workload.name == "cli"
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return {
        "durations_ms": durations.tolist(),
        "adjusted_ms": adjusted.tolist(),
        "reference_ms": statistics.median(references),
        "failed": tally.failed,
        "messages": tally.messages,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "shorten_err_pt_max": tally.shorten_err_max,
        "counts": props.counts(),
    }


def traced_loop(workload, seed, seconds: float, trace_path: Path) -> dict:
    children = measure_children()
    op = workload.op_in_process if workload.name == "cli" else workload.op
    tracer = spans.Tracer()
    props, scratch_props = workloads.Properties(), workloads.Properties()
    tally = Tally()
    plain_ns = traced_ns = 0
    stream = workload.inputs(seed)
    deadline = time.perf_counter() + seconds
    count = 0
    while time.perf_counter() < deadline or count % workload.block:
        raw = next(stream)
        prepared = workload.prepare(raw)
        outputs = {}
        for traced in ((False, True) if count % 2 == 0 else (True, False)):
            if traced:
                with spans.instrumented(tracer):
                    try:
                        output, elapsed = tracer.op(count, op, prepared)
                    except Exception as exc:
                        tally.crash(exc)
                        output, elapsed = None, 0
                traced_ns += elapsed
            else:
                # Failures are counted on the traced half; a plain-only one shows
                # up as differing output below.
                start = time.perf_counter_ns()
                output = run_op(op, prepared, Tally())
                plain_ns += time.perf_counter_ns() - start
            if output is None:
                continue
            # Each output is checked right away: a cli op's file is read and removed.
            outcome = workload.check(raw, output, props if traced else scratch_props)
            if traced:
                tally.add(outcome)
            outputs[traced] = output[0]
        if len(outputs) == 2 and outputs[False] != outputs[True]:
            tally.add(workloads.Outcome().fail("traced and plain runs gave different output"))
        props.ops += 1
        count += 1
    tally.add(workload.run_set_aside(props))

    totals = spans.layer_totals(tracer)
    metrics = {}
    for _, _, name in spans.LAYERS:
        for layer in ([name] if name else ["attach.shorten_cubic", "attach.shorten_line"]):
            own_ns = totals.get(layer, (0, 0))[0]
            unit = "ms" if layer == "cli.main" else "us"
            metrics[f"{layer}_{unit}"] = (own_ns / count / (1e6 if unit == "ms" else 1e3), unit)
    metrics["op.self_us"] = (totals.get(spans.OP_SPAN, (0, 0))[0] / count / 1e3, "us")
    metrics["trace.overhead_ratio"] = (traced_ns / plain_ns, "ratio")
    metrics.update((name, (value, "ms")) for name, value in children.items())
    summary = props.summary()
    metrics.update((name, (summary[name], unit)) for name, unit in PROPERTY_UNITS.items())

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(trace_path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                                 "ops": count}) + "\n")
        for row in tracer.rows():
            handle.write(json.dumps(row) + "\n")
    return {
        "attempted": count,
        "failed": tally.failed,
        "messages": tally.messages,
        "metrics": metrics,
        "calls_per_op": {name: calls / count for name, (_, calls) in sorted(totals.items())},
        "properties": summary,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), default="run")
    parser.add_argument("--part", type=int, default=0,
                        help="which of run.py's workers this is; each gets its own inputs")
    args = parser.parse_args(argv)
    seed = f"{args.seed}/{args.part}"

    if "arrowtips" in sys.modules:
        raise SystemExit("perfbench: arrowtips was imported before the checkout's copy")
    oracle = workloads.load_oracle(ROOT)
    scratch = ROOT / ".bench_out" / f"work-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        workload = cls(oracle, scratch) if cls is workloads.Cli else cls(oracle)
        first = next(workload.inputs(seed))

        start = time.perf_counter()
        workload.load()
        output = workload.op(workload.prepare(first))
        setup_s = time.perf_counter() - start

        _verify_provenance()
        first_outcome = workload.check(first, output, workloads.Properties())
        setup_reference_ms = hostspeed.child_ms()
        result = {"setup_s": hostspeed.adjust(setup_s, hostspeed.CHILD_REFERENCE_MS,
                                              setup_reference_ms),
                  "setup_s_raw": setup_s, "setup_failed": first_outcome.failed}
        if args.mode == "run" and args.trace:
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            result.update(traced_loop(workload, seed, args.seconds, trace_path))
        elif args.mode == "run":
            result.update(timed_loop(workload, seed, args.seconds))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
