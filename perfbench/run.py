"""Benchmark of the arrowtips checkout this directory sits in.

    python3 perfbench/run.py --workload gallery|curves|cli --seed N --seconds S --trace 0|1

Each run starts fresh worker interpreters that import the checkout's
``src/``.  Untraced, ``PARTS`` workers each measure a share of the run, with
a set-up-only worker before, between and after them; traced, one worker runs
the whole time.  Output lines name every metric with its unit; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  The full result also goes to
``.bench_out/<workload>-seed<N>-trace<T>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOADS = ("gallery", "curves", "cli")
PARTS = 6
SETUP_TIMEOUT_S = 10.0
DEADLINE_S = 170.0
REQUIRED = ("src/arrowtips/__init__.py", "scripts/extents_oracle.py")

# Gated in BENCHMARK.json.  Op and set-up times are adjusted for host speed
# (hostspeed.py); the raw figures are reported beside them.
END_TO_END = (("ops_per_s", "1/s"), ("op_ms_p50", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))
REPORTED_ONLY = (
    ("op_ms_tail", "ms"), ("raw.ops_per_s", "1/s"), ("raw.op_ms_p50", "ms"),
    ("raw.op_ms_tail", "ms"), ("raw.setup_s", "s"), ("fail_ratio", "ratio"),
    ("shorten_err_pt_max", "pt"),
)


def _git_commit() -> str:
    """HEAD read from ``.git`` files; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _provenance(env: dict) -> dict:
    """What a child interpreter with this environment imports."""
    code = ("import sys, arrowtips, numpy; "
            "print(arrowtips.__file__); print(numpy.__version__); print(sys.version.split()[0])")
    child = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, timeout=60,
                           capture_output=True, text=True, check=True)
    where, numpy_version, python_version = child.stdout.split("\n")[:3]
    if Path(where).resolve().parent != ROOT / "src" / "arrowtips":
        raise SystemExit(f"perfbench: children import arrowtips from {where}, not this checkout")
    return {
        "arrowtips_file": str(Path(where).resolve().relative_to(ROOT)),
        "commit": _git_commit(),
        "python": python_version,
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
    }


def _worker(args, mode: str, env: dict, timeout: float, part: int = 0,
            seconds: float | None = None) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(seconds or args.seconds),
               "--trace", str(args.trace), "--mode", mode, "--part", str(part)]
    child = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=max(timeout, 1.0))
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"perfbench: worker exited with {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def _tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _merge(parts: list[dict]) -> dict:
    """One untraced result from the measured workers' op times and counts."""
    durations = [d for part in parts for d in part["durations_ms"]]
    adjusted = [d for part in parts for d in part["adjusted_ms"]]
    props = workloads.Properties()
    for part in parts:
        for name, value in part["counts"].items():
            setattr(props, name, getattr(props, name) + value)
    errors = [p["shorten_err_pt_max"] for p in parts if p["shorten_err_pt_max"] is not None]
    tail, percentile = _tail(adjusted)
    return {
        "attempted": len(durations),
        "failed": sum(p["failed"] for p in parts),
        "messages": [m for p in parts for m in p["messages"]][:5],
        # ops over the time spent inside ops (checks excluded)
        "ops_per_s": len(adjusted) / (sum(adjusted) / 1e3),
        "op_ms_p50": statistics.median(adjusted),
        "op_ms_tail": tail,
        "op_ms_tail_percentile": percentile,
        "raw.ops_per_s": len(durations) / (sum(durations) / 1e3),
        "raw.op_ms_p50": statistics.median(durations),
        "raw.op_ms_tail": _tail(durations)[0],
        "reference_ms": statistics.median(p["reference_ms"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "shorten_err_pt_max": max(errors) if errors else None,
        "properties": props.summary(),
    }


def _number(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not an arrowtips checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    # Set-up then measures imports from bytecode, as after an install.
    compileall.compile_dir(str(ROOT / "src"), quiet=2)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    provenance = _provenance(env)
    # Every worker and child runs on one CPU, so that an op and the reference
    # work timed right after it share a core (hostspeed.py).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if args.trace:
        result = _worker(args, "run", env, DEADLINE_S - 30.0 - (time.monotonic() - started))
        setups = [result]
    else:
        # The measured run is split over PARTS fresh workers, with a set-up-only
        # worker before, between and after them, so that the set-up samples
        # are spread over the whole run.
        setups, parts = [], []
        for part in range(PARTS):
            setups.append(_worker(args, "setup", env, SETUP_TIMEOUT_S, part=PARTS + part))
            left = DEADLINE_S - 30.0 - (time.monotonic() - started)
            parts.append(_worker(args, "run", env, left / (PARTS - part), part=part,
                                 seconds=args.seconds / PARTS))
        setups.append(_worker(args, "setup", env, SETUP_TIMEOUT_S, part=2 * PARTS))
        setups += parts
        result = _merge(parts)
    setup_times = [s["setup_s"] for s in setups]
    # Every failed check is wrong output, in an op or in a set-up's first op.
    correct = result["failed"] + sum(s["setup_failed"] for s in setups) == 0

    if args.trace:
        metrics = {name: value for name, (value, _) in result["metrics"].items()}
        units = {name: unit for name, (_, unit) in result["metrics"].items()}
    else:
        metrics = {name: result[name] for name, _ in END_TO_END if name in result}
        metrics["setup_s"] = statistics.median(setup_times)
        result["raw.setup_s"] = statistics.median(s["setup_s_raw"] for s in setups)
        units = dict(END_TO_END)
    summary = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance, "setup_s_all": setup_times,
        "setup_s_raw_all": [s["setup_s_raw"] for s in setups],
        **{k: v for k, v in result.items()
           if k not in ("setup_s", "setup_s_raw", "setup_failed")},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 caller")
    print("provenance " + "  ".join(f"{k}={v}" for k, v in provenance.items()))
    lines = [(name, value, units[name]) for name, value in metrics.items()]
    if not args.trace:
        reported = {**result, "fail_ratio": failed / attempted}
        lines += [(name, reported[name], unit) for name, unit in REPORTED_ONLY]
    for name, value, unit in lines:
        note = ""
        if name == "op_ms_tail":
            note = f"  (p{result['op_ms_tail_percentile']:.2f} of {attempted} ops)"
        elif name == "setup_s":
            note = f"  (median of {len(setup_times)} fresh workers)"
        print(f"  {name:<32} {_number(value):>12} {unit}{note}")
    for name, value in result["properties"].items():
        print(f"  property {name:<31} {_number(value):>12}")
    for message in result["messages"]:
        print(f"  failure: {message}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
