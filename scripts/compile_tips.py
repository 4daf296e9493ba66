#!/usr/bin/env python3
"""Generate ``src/arrowtips/_tips.py``: one placed evaluator per drawn shape.

Every tip program is a pure function of the stroke width w.  This script
calls each drawn shape's ``program_fn`` once with a symbolic width, places
the result with a symbolic rigid transform and runs the interpreter on it:

    evaluate(transform_program(program_fn(W), (A, B, C, D, TX, TY)), W)

The symbolic values record ``+``, ``-``, ``*`` and negation as expression
trees, in the order Python performs them, so each tree repeats the exact
arithmetic that the interpreter does at a float width.  Each tip's drawables
are then written out as one straight-line function of
``(w, a, b, c, d, tx, ty)``.  Shared subtrees are computed once, into a
local; that is exact, because the same float operations on the same operands
give the same bits.  Trees are otherwise copied as they are.  A declared
mirror is not traced: it calls its original with the x axis flipped
(``module_text``).

Running the interpreter on the traced program also checks its structure
once per tip: a program that ``evaluate`` would reject raises the same
``ProgramError``, with the same op index, here.  Circle radii are still
checked at run time.

The traced trees also prove that no evaluator overflows inside a box: for
w and |tx|, |ty| up to ``BOUND`` and |a|, |b|, |c|, |d| up to 2 (the parts of
a unit tangent, with room for their rounding), ``bound`` pushes an absolute
bound through every node of every tree.  Each node's bound is its operands'
bounds combined by the same float op, and rounding to nearest is monotone
and odd, so it bounds what the evaluator computes, rounding included.  A
finite bound at every node therefore means a finite coordinate.  A declared
mirror runs its original's trees at (-a, -b, c, d), inside the same box.
The script refuses to write a module that the proof does not cover, and the
module states ``BOUND``, so ``attach`` scans a drawing for overflow only
outside the box.  The largest bound today is about 1.2e301, far below the
largest float, 1.8e308.

Usage, from the repository root:

    python3 scripts/compile_tips.py   # rewrite the module

Run it after every edit to ``catalog.py``; the tier-1 test
``test_generated_module_matches_the_catalog`` fails while the committed
module differs from what this script writes.  It never imports the module
it writes, so it works from a broken or missing ``_tips.py`` too.
"""

from __future__ import annotations

import argparse
import ast
import math
import sys
import types
from fractions import Fraction
from pathlib import Path

# Trace the catalog of this checkout, whatever the caller's path, as a bare
# package: its __init__ imports the generated module, which may be broken or
# missing, and nothing the tracer loads does.
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = types.ModuleType("arrowtips")
PACKAGE.__path__ = [str(ROOT / "src" / "arrowtips")]
sys.modules.setdefault("arrowtips", PACKAGE)

from arrowtips.catalog import TipDefinition, declared_reversals, registry  # noqa: E402
from arrowtips.geometry import AffineTransform  # noqa: E402
from arrowtips.pathmodel import Circle, ClosePath, evaluate, transform_program  # noqa: E402

MODULE = ROOT / "src" / "arrowtips" / "_tips.py"

# The generated functions' parameters, in order.
PARAMETERS = ("w", "a", "b", "c", "d", "tx", "ty")

# The proven box: each parameter's largest size.  Not an option: a module
# that the proof does not cover is never written.
BOUND = 1e300
BOX = {"w": BOUND, "a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0, "tx": BOUND, "ty": BOUND}


class Sym:
    """A float-valued expression tree over the parameters.

    ``op`` is "var" (``args`` holds the name), "const" (the float), or one of
    "+", "-", "*", "neg" over Sym operands.
    """

    __slots__ = ("op", "args")

    def __init__(self, op: str, *args) -> None:
        self.op = op
        self.args = args

    def __add__(self, other):
        return Sym("+", self, _lift(other))

    def __radd__(self, other):
        return Sym("+", _lift(other), self)

    def __sub__(self, other):
        return Sym("-", self, _lift(other))

    def __rsub__(self, other):
        return Sym("-", _lift(other), self)

    def __mul__(self, other):
        return Sym("*", self, _lift(other))

    def __rmul__(self, other):
        return Sym("*", _lift(other), self)

    def __neg__(self):
        return Sym("neg", self)

    # A comparison with 0 is answered only when it holds, or fails, for every
    # width w > 0; anything else cannot be compiled into straight-line code.
    def __gt__(self, other):
        return _sign(self, other) > 0

    def __repr__(self) -> str:
        return _code(self, {})


def _lift(value) -> Sym:
    if isinstance(value, Sym):
        return value
    if isinstance(value, (int, float)):
        return Sym("const", float(value))
    raise TypeError(f"cannot trace arithmetic with {value!r}")


def var(name: str) -> Sym:
    return Sym("var", name)


def affine(node) -> tuple[Fraction, Fraction]:
    """Exact (c0, c1) with node = c0 + c1 * w, up to the rounding of each op.

    Raises ValueError for a tree that reads a placement parameter or is not
    affine in w.
    """
    if not isinstance(node, Sym):
        return Fraction(node), Fraction(0)
    if node.op == "const":
        return Fraction(node.args[0]), Fraction(0)
    if node.op == "var":
        if node.args[0] != "w":
            raise ValueError(f"{node.args[0]} is not the width")
        return Fraction(0), Fraction(1)
    if node.op == "neg":
        c0, c1 = affine(node.args[0])
        return -c0, -c1
    (p0, p1), (q0, q1) = affine(node.args[0]), affine(node.args[1])
    if node.op == "+":
        return p0 + q0, p1 + q1
    if node.op == "-":
        return p0 - q0, p1 - q1
    if p1 and q1:
        raise ValueError(f"{node!r} is not affine in w")
    return p0 * q0, p0 * q1 + p1 * q0


def _sign(node: Sym, other) -> int:
    """The sign of ``node`` for every w > 0, compared against 0 only."""
    if other != 0:
        raise TypeError(f"a traced value compares only with 0, not {other!r}")
    c0, c1 = affine(node)
    if c0 >= 0 and c1 >= 0:
        return 1 if c0 or c1 else 0
    if c0 <= 0 and c1 <= 0:
        return -1
    raise ValueError(f"the sign of {node!r} depends on the width")


def trace(definition: TipDefinition):
    """(traced program, traced placed scene) of one catalog entry."""
    w, *placement = (var(name) for name in PARAMETERS)
    program = definition.program_fn(w)
    return program, evaluate(transform_program(program, AffineTransform(*placement)), w)


def affine_extents(definition: TipDefinition) -> tuple[tuple[float, float], tuple[float, float]]:
    """((l0, l1), (r0, r1)) of the entry's traced extents, the oracle's row form."""
    left, right = definition.extents_fn(var("w"))
    return tuple(tuple(float(c) for c in affine(side)) for side in (left, right))


def bound(node: Sym, bounds: dict) -> float:
    """An upper bound on |node| over ``BOX``, as floats compute it; ``bounds`` keeps every node's.

    |fl(x + y)| = fl(|x + y|) <= fl(X + Y) for |x| <= X and |y| <= Y, because
    rounding to nearest is monotone and odd; likewise for ``-`` and ``*``.
    """
    known = bounds.get(id(node))
    if known is not None:
        return known
    if node.op == "var":
        result = BOX[node.args[0]]
    elif node.op == "const":
        result = abs(node.args[0])
    elif node.op == "neg":
        result = bound(node.args[0], bounds)
    else:
        x, y = bound(node.args[0], bounds), bound(node.args[1], bounds)
        result = x * y if node.op == "*" else x + y
    bounds[id(node)] = result
    return result


def prove_finite(name: str, roots: list[Sym]) -> None:
    """ValueError unless every node under ``roots`` has a finite bound over ``BOX``."""
    bounds: dict = {}
    for root in roots:
        bound(root, bounds)
    if not all(b < math.inf for b in bounds.values()):  # a NaN bound fails too
        raise ValueError(f"tip {name!r}: a traced value can overflow inside the box {BOX}")


# --- code generation --------------------------------------------------------

def _key(node: Sym):
    """Structural identity; float.hex keeps 0.0 and -0.0 apart."""
    if node.op == "const":
        return ("const", float.hex(node.args[0]))
    if node.op == "var":
        return node.args
    return (node.op, *(_key(arg) for arg in node.args))


_OPERATORS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}


def _code(node: Sym, names: dict) -> str:
    """Python source for ``node``; ``ast.unparse`` adds the parentheses its grouping needs."""

    def tree(node: Sym) -> ast.expr:
        name = names.get(_key(node))
        if name is not None:
            return ast.Name(name)
        if node.op == "var":
            return ast.Name(node.args[0])
        if node.op == "const":
            return ast.Constant(node.args[0])
        if node.op == "neg":
            return ast.UnaryOp(ast.USub(), tree(node.args[0]))
        return ast.BinOp(tree(node.args[0]), _OPERATORS[node.op](), tree(node.args[1]))

    return ast.unparse(tree(node))


def _shared(roots: list[Sym]) -> list[Sym]:
    """Distinct subtrees used more than once, operands before their users."""
    uses: dict = {}
    order: list[Sym] = []

    def visit(node: Sym) -> None:
        key = _key(node)
        uses[key] = uses.get(key, 0) + 1
        if uses[key] == 1 and node.op not in ("var", "const"):
            for arg in node.args:
                visit(arg)
            order.append(node)

    for root in roots:
        visit(root)
    return [node for node in order if uses[_key(node)] > 1]


_CAPS = {"butt": "_BUTT", "round": "_ROUND_CAP"}
_JOINS = {"miter": "_MITER", "round": "_ROUND_JOIN"}
_ACTIONS = {"stroke": "_STROKE", "fill": "_FILL", "fillstroke": "_FILL_STROKE"}


def compile_tip(definition: TipDefinition, function: str) -> str:
    """Source of the placed evaluator ``function`` for one catalog entry."""
    program, scene = trace(definition)
    circle_ops = [index for index, op in enumerate(program.ops) if isinstance(op, Circle)]
    roots = []
    for drawable in scene:
        roots += [drawable.width, *(v for op in drawable.outline for v in op._values())]
    prove_finite(definition.end_name, roots)
    names = {}
    lines = [f"def {function}(w, a, b, c, d, tx, ty):",
             f"    # {definition.start_name!r} / {definition.end_name!r}"]
    for index, node in enumerate(_shared(roots)):
        lines.append(f"    v{index} = {_code(node, names)}")
        names[_key(node)] = f"v{index}"
    circles = iter(circle_ops)
    radii = 0
    drawables = []
    for drawable in scene:
        ops = []
        for op in drawable.outline:
            if isinstance(op, ClosePath):
                ops.append("_CLOSE")
                continue
            args = [_code(value, names) for value in op._values()]
            if isinstance(op, Circle):
                # evaluate's radius check, kept at run time with its op index
                radius = f"r{radii}"
                radii += 1
                lines += [f"    {radius} = {args[2]}",
                          f"    if not {radius} > 0:",
                          f"        raise ProgramError({next(circles)}, "
                          f"f\"circle radius must be positive, got {{{radius}}}\")"]
                args[2] = radius
            # one (x, y) pair to a line
            pairs = [", ".join(args[i:i + 2]) for i in range(0, len(args), 2)]
            ops.append(f"{type(op).__name__}(" + ",\n                    ".join(pairs) + ")")
        width = _code(drawable.width, names)
        outline = "".join(f"\n            {op}," for op in ops)
        drawables.append(f"        Drawable(({outline}\n        ), {width}, "
                         f"{_CAPS[drawable.cap.value]}, {_JOINS[drawable.join.value]}, "
                         f"{_ACTIONS[drawable.action.value]}),")
    lines += ["    return (", *drawables, "    )"]
    return "\n".join(lines) + "\n"


HEADER = f'''\
"""Placed evaluators of the catalog tips.

GENERATED by scripts/compile_tips.py from catalog.py: do not edit.  After an
edit to catalog.py, regenerate it with

    python3 scripts/compile_tips.py

``PLACED`` maps each tip's end name to a function of the stroke width w and a
rigid placement (a, b, c, d, tx, ty) that returns the tip's placed drawables,
bit for bit what ``evaluate(transform_program(program(tip, w), placement), w)``
returns, for every w > 0 and every placement.

No coordinate they compute can overflow while w, |tx| and |ty| are at most
``BOUND`` and |a|, |b|, |c|, |d| at most 2: the script proves it from the
traced trees and writes no module that the proof does not cover.
"""

from .pathmodel import (Action, Circle, ClosePath, CurveTo, Drawable, LineCap, LineJoin, LineTo,
                        MoveTo, ProgramError)

_BUTT, _ROUND_CAP = LineCap.BUTT, LineCap.ROUND
_MITER, _ROUND_JOIN = LineJoin.MITER, LineJoin.ROUND
_STROKE, _FILL, _FILL_STROKE = Action.STROKE, Action.FILL, Action.FILL_STROKE
_CLOSE = ClosePath()
BOUND = {BOUND!r}
'''


def module_text(definitions=None) -> str:
    """The generated module for ``definitions`` (default: the whole registry).

    A declared mirror calls its original with (-a, -b, c, d), which is exact:
    ``mirror_x`` negates only x parts (``Scalar.fixed``, ``.widths``,
    ``Translate.dx``), ``transform_program`` multiplies them only by a and b,
    and IEEE gives ``a * -v == -a * v`` to the bit, signed zeros and infinities
    included.  Radii and ops are kept, so the original's checks cover it too.
    """
    definitions = registry() if definitions is None else definitions
    first = {d.end_name: i for i, d in enumerate(definitions)}
    parts = [HEADER]
    for i, d in enumerate(definitions):
        k = first.get(declared_reversals().get(d.end_name), i)  # the original
        parts.append(f"def _tip{i}(w, a, b, c, d, tx, ty):\n    # {d.start_name!r} / {d.end_name!r}"
                     f": mirror of {definitions[k].start_name!r} / {definitions[k].end_name!r}\n"
                     f"    return _tip{k}(w, -a, -b, c, d, tx, ty)\n" if k < i else
                     compile_tip(d, f"_tip{i}"))
    table = "".join(f"    {d.end_name!r}: _tip{i},\n" for i, d in enumerate(definitions))
    parts.append("PLACED = {\n" + table + "}\n")
    return "\n\n".join(parts)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    text = module_text()
    MODULE.write_text(text, encoding="utf-8", newline="\n")
    mirrors = len(declared_reversals()) // 2
    print(f"wrote {MODULE.name}: {len(registry())} tips, {len(registry()) - mirrors} traced, "
          f"{mirrors} mirrors, {text.count(chr(10))} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
