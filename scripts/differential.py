#!/usr/bin/env python3
"""Print one named sha256 per line of what the program emits.

Two checkouts emit the same output where they print the same lines:

    gallery  the default gallery document, as ``arrowtips gallery`` writes it
    curves   one document per arrow: the first ``ARROWS`` (400) arrows of
             each seed's ``perfbench/workloads.curves_stream``, each host
             built by ``Workload.host_path`` and laid out as ``Curves.op``
             lays it out, joined with no separator; an arrow whose host or
             drawing raises ``ValueError`` gives the ``repr`` of the error
    floats   ``float.hex`` of every coordinate and width of those arrows'
             drawables, in scene order
    tips     every tip's extents and program ``repr`` at ``TIP_WIDTHS``
    cli      each argv of ``CLI_ARGVS`` run in process through ``cli.main``:
             its exit code, stdout, stderr and the bytes of the file it
             writes, or the file's absence

Usage, from any directory:

    python3 scripts/differential.py                # seeds 1-40
    python3 scripts/differential.py --seeds 1-2

The arrows come from the benchmark's own generators, which depend only on
the seed, so both checkouts draw the same inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
try:
    import workloads
    from arrowtips import catalog, cli
finally:
    del sys.path[:2]

ARROWS = 400
TIP_WIDTHS = (1e-3, 0.4, 0.8, 1.6, 10.0, 1e6)
# README's examples, the CI's extents at the smallest width, and the error
# cases of tests/test_cli.py.  ``OUT`` stands for a fresh file in a temporary
# directory; no argv fails on I/O, so no output names that directory.
CLI_ARGVS = (
    ("render", "--spec", "[-latex'", "--path", "M 0,0 C 30,40 70,40 100,0", "--out", "OUT"),
    ("render", "--spec", "-latex'", "--path", "M 0,0 L 100,0", "--out", "OUT"),
    ("extents", "--tip", "angle 60", "--width", "0.4"),
    ("extents", "--tip", "[", "--side", "start", "--width", "0.4"),
    ("--help",),
    ("extents", "--tip", "o", "--width", "5e-324"),
    ("extents", "--tip", "round cap", "--width", "5e-324"),
    ("extents", "--tip", "latex'", "--width", "1e308"),
    ("render", "--spec", "-]", "--path", "M 0,0 L 1.7e308,0", "--width", "1.5e308", "--out", "OUT"),
    ("render", "--spec", "-]", "--path", "M 0,0 L 1e308,0", "--width", "8e307", "--out", "OUT"),
    ("render", "--spec", "-latex'", "--path", "M 0,1.79e308 L 1e308,1.79e308", "--width", "1e306",
     "--out", "OUT"),
    ("render", "--spec", "-latex'", "--path", "M 0,0 C 0.3,0.4 0.7,0.4 1,0", "--out", "OUT"),
)


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def gallery() -> str:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "gallery.svg"
        if cli.main(["gallery", "--out", str(out)]) != 0:
            raise RuntimeError("arrowtips gallery failed")
        return hashlib.sha256(out.read_bytes()).hexdigest()


def curves(seeds: range, arrows: int) -> tuple[str, str]:
    """The ``curves`` and ``floats`` digests."""
    documents, floats = hashlib.sha256(), hashlib.sha256()
    workload = workloads.Curves(oracle=None)
    workload.load()
    for seed in seeds:
        for arrow in itertools.islice(workloads.curves_stream(seed), arrows):
            try:
                document, scene = workload.op(workload.prepare(arrow))
            except ValueError as error:
                documents.update(repr(error).encode("utf-8"))
                continue
            documents.update(document.encode("utf-8"))
            for drawable in scene:
                values = [drawable.width]
                for op in drawable.outline:
                    values += op._values()
                floats.update(" ".join(map(float.hex, values)).encode("ascii") + b"\n")
    return documents.hexdigest(), floats.hexdigest()


def tips() -> str:
    digest = hashlib.sha256()
    for definition in catalog.registry():
        tip = catalog.lookup(definition.end_name, catalog.Side.END)
        for w in TIP_WIDTHS:
            text = f"{tip.name!r} {w!r} {catalog.extents(tip, w)!r} {catalog.program(tip, w)!r}\n"
            digest.update(text.encode("utf-8"))
    return digest.hexdigest()


def cli_runs() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as scratch:
        for index, argv in enumerate(CLI_ARGVS):
            out = Path(scratch) / f"{index}.svg"
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main([str(out) if word == "OUT" else word for word in argv])
            if code == 3:  # an I/O error would put the temporary path in the digest
                raise RuntimeError(f"arrowtips {' '.join(argv)} failed on I/O")
            written = out.read_bytes() if out.exists() else None
            run = (argv, code, stdout.getvalue(), stderr.getvalue(), written)
            digest.update(repr(run).encode("utf-8"))
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-40"),
                        help="curves seeds, FIRST-LAST or one seed (default 1-40)")
    args = parser.parse_args(argv)
    documents, floats = curves(args.seeds, ARROWS)
    label = f"{args.seeds.start}-{args.seeds.stop - 1}"
    print(f"gallery {gallery()}")
    print(f"curves {label} {documents}")
    print(f"floats {label} {floats}")
    print(f"tips {tips()}")
    print(f"cli {cli_runs()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
