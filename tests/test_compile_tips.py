"""The generator of ``arrowtips._tips``, loaded from scripts/ by path."""

import ast
import itertools
import math
import shutil
import subprocess
import sys

import pytest

from arrowtips import _tips
from arrowtips.catalog import (
    Side,
    TipDefinition,
    declared_reversals,
    lookup,
    program,
    registry,
)
from arrowtips.geometry import AffineTransform
from arrowtips.pathmodel import (
    Action,
    ClosePath,
    LineCap,
    ProgramError,
    RenderProgram,
    SetCap,
    circle,
    evaluate,
    line_to,
    move_to,
    transform_program,
    wl,
)


def test_generated_module_matches_the_catalog(compiler):
    assert compiler.MODULE.read_text(encoding="utf-8") == compiler.module_text()


@pytest.mark.parametrize("damage", ["broken", "missing"])
def test_the_script_regenerates_a_broken_or_missing_module(compiler, tmp_path, damage):
    # A copy of the package and the script, in the same layout.
    package = tmp_path / "src" / "arrowtips"
    package.mkdir(parents=True)
    for source in compiler.MODULE.parent.glob("*.py"):
        shutil.copy(source, package)
    (tmp_path / "scripts").mkdir()
    script = shutil.copy(compiler.ROOT / "scripts" / "compile_tips.py", tmp_path / "scripts")
    module = package / "_tips.py"
    if damage == "broken":
        module.write_text("not python (\n", encoding="utf-8")
    else:
        module.unlink()
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, capture_output=True,
                            text=True)
    assert result.returncode == 0, result.stderr
    assert module.read_bytes() == compiler.MODULE.read_bytes()


def test_each_declared_mirror_calls_its_original_and_every_other_tip_is_traced(compiler):
    tree = ast.parse(compiler.MODULE.read_text(encoding="utf-8"))
    bodies = {node.name: node.body for node in tree.body if isinstance(node, ast.FunctionDef)}
    index = {d.end_name: i for i, d in enumerate(registry())}
    # the later entry of each declared pair -> the earlier one, its original
    originals = {index[end]: index[other] for end, other in declared_reversals().items()
                 if index[other] < index[end]}
    assert len(originals) == 13
    for i, definition in enumerate(registry()):
        assert _tips.PLACED[definition.end_name].__name__ == f"_tip{i}"
        body = bodies[f"_tip{i}"]
        if i in originals:
            assert [ast.unparse(s) for s in body] == [
                f"return _tip{originals[i]}(w, -a, -b, c, d, tx, ty)"]
            continue
        names = {n.id for s in body for n in ast.walk(s) if isinstance(n, ast.Name)}
        assert not any(name.startswith("_tip") for name in names), definition.end_name
        drawn = body[-1].value
        assert isinstance(drawn, ast.Tuple)
        assert all(e.func.id == "Drawable" for e in drawn.elts), definition.end_name


def test_traced_extents_match_the_oracle_rows_for_every_width(compiler, oracle):
    assert len(registry()) == len(oracle.ENTRIES)
    for definition, (start, end, left, right) in zip(registry(), oracle.ENTRIES):
        assert (definition.start_name, definition.end_name) == (start, end)
        traced_left, traced_right = compiler.affine_extents(definition)
        for got, want in zip(traced_left + traced_right, left + right):
            assert abs(got - want) <= 1e-12, (end, traced_left, traced_right)


# The widths of the attach sweep; each placement below puts an extreme value
# into one entry of a rotation by (0.6, 0.8), or into all six.
SWEEP_WIDTHS = (0.4, 0.8, 1.6, 0.37, 2.9, 1e-6, 1e6)
EXTREMES = (math.inf, -math.inf, math.nan, 1e308, -1e308)


def _extreme_placements():
    rotation = (0.6, 0.8, -0.8, 0.6, 12.5, -3.25)
    for value in EXTREMES:
        for i in range(len(rotation)):
            yield AffineTransform(*rotation[:i], value, *rotation[i + 1:])
        yield AffineTransform(*(value,) * len(rotation))


def _bits(call):
    """float.hex of everything ``call()`` draws, or (index, message) if it raises."""
    try:
        scene = call()
    except ProgramError as err:
        return err.index, str(err)
    return [(d.action, d.cap, d.join, float.hex(d.width),
             *((type(op).__name__, *map(float.hex, op._values())) for op in d.outline))
            for d in scene]


def test_generated_evaluators_equal_the_interpreter_for_every_placement():
    placements = list(_extreme_placements())
    for definition in registry():
        tip = lookup(definition.end_name, Side.END)
        placed = _tips.PLACED[definition.end_name]
        for w in SWEEP_WIDTHS:
            built = program(tip, w)
            for t in placements:
                want = _bits(lambda: evaluate(transform_program(built, t), w))
                got = _bits(lambda: placed(w, t.a, t.b, t.c, t.d, t.tx, t.ty))
                assert got == want, (definition.end_name, w, t)


def _definition(program_fn):
    return TipDefinition("bad", "bad", lambda w: (0.0, w), program_fn)


MALFORMED = {
    "line without a subpath": lambda w: RenderProgram((
        SetCap(LineCap.ROUND), line_to(w, 0.0), Action.STROKE)),
    "close without a subpath": lambda w: RenderProgram((
        move_to(0.0, 0.0), line_to(w, 0.0), Action.STROKE, ClosePath(), Action.FILL)),
    "action with no path": lambda w: RenderProgram((
        move_to(0.0, 0.0), line_to(w, 0.0), Action.STROKE, Action.FILL)),
    "ops after the final action": lambda w: RenderProgram((
        move_to(0.0, 0.0), line_to(w, 0.0), Action.STROKE, move_to(w, 0.0), line_to(0.0, w))),
    "no action": lambda w: RenderProgram((SetCap(LineCap.ROUND),)),
}


@pytest.mark.parametrize("program_fn", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_programs_fail_to_compile_as_the_interpreter_rejects_them(compiler,
                                                                             program_fn):
    with pytest.raises(ProgramError) as interpreted:
        evaluate(program_fn(1.0), 1.0)
    with pytest.raises(ProgramError) as compiled:
        compiler.compile_tip(_definition(program_fn), "_bad")
    assert (compiled.value.index, str(compiled.value)) == (
        interpreted.value.index, str(interpreted.value))


def test_the_module_states_the_proven_bound(compiler):
    assert _tips.BOUND == compiler.BOUND == 1e300
    assert compiler.BOX == {"w": 1e300, "a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0,
                            "tx": 1e300, "ty": 1e300}


def test_every_evaluator_is_finite_at_the_corners_of_the_proven_box(compiler):
    big = compiler.BOUND
    corners = [(*rotation, *shift) for rotation in itertools.product((-2.0, 2.0), repeat=4)
               for shift in itertools.product((-big, big), repeat=2)]
    assert len(corners) == 64
    for end_name, placed in _tips.PLACED.items():
        for w in (big, 1e-300):
            for corner in corners:
                for drawable in placed(w, *corner):
                    values = [drawable.width, *(v for op in drawable.outline
                                                for v in op._values())]
                    assert all(map(math.isfinite, values)), (end_name, w, corner)


def test_the_compiler_refuses_a_tip_that_can_overflow_inside_the_box(compiler):
    # Finite at every width the tests use, but not at w = 1e300.
    definition = _definition(lambda w: RenderProgram((
        move_to(0.0, 0.0), line_to(w * 1e9, 0.0), Action.STROKE)))
    with pytest.raises(ValueError, match="'bad': a traced value can overflow inside the box"):
        compiler.compile_tip(definition, "_bad")
    with pytest.raises(ValueError, match="can overflow"):
        compiler.module_text([definition])


def test_circle_radius_is_still_checked_at_run_time(compiler):
    # 0.5 * w is positive for every w > 0, but underflows to 0.0 at the
    # smallest subnormal width, which evaluate rejects.
    definition = _definition(lambda w: RenderProgram((circle(0.0, 0.0, wl(0.5)), Action.STROKE)))
    namespace = {"__name__": "arrowtips._generated", "__package__": "arrowtips"}
    exec(compiler.module_text([definition]), namespace)
    placed = namespace["PLACED"]["bad"]
    t = AffineTransform(1.0, 0.0, -0.0, 1.0, 0.0, 0.0)
    w = 5e-324
    with pytest.raises(ProgramError) as interpreted:
        evaluate(transform_program(definition.program_fn(w), t), w)
    with pytest.raises(ProgramError) as compiled:
        placed(w, t.a, t.b, t.c, t.d, t.tx, t.ty)
    assert (compiled.value.index, str(compiled.value)) == (
        interpreted.value.index, str(interpreted.value))
    assert placed(1.0, t.a, t.b, t.c, t.d, t.tx, t.ty) == evaluate(
        transform_program(definition.program_fn(1.0), t), 1.0)
