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

Usage, from any directory:

    python3 scripts/differential.py                # seeds 1-40
    python3 scripts/differential.py --seeds 1-2

The arrows come from the benchmark's own generators, which depend only on
the seed, so both checkouts draw the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
