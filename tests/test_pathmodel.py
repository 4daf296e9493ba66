import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrowtips.geometry import AffineTransform
from arrowtips.pathmodel import (
    Action,
    ClosePath,
    Circle,
    CurveTo,
    LineCap,
    LineJoin,
    LineTo,
    MoveTo,
    ProgramError,
    RenderProgram,
    Scalar,
    SetCap,
    SetJoin,
    SetLineWidthFactor,
    Translate,
    circle,
    curve_to,
    evaluate,
    line_to,
    mirror_x,
    mirror_y,
    move_to,
    transform_program,
    translate,
    wl,
)


def test_scalar_resolves_linear_combination():
    s = Scalar(1.5, widths=0.25)
    assert s.resolve(0.8) == 1.5 + 0.25 * 0.8
    assert (-s).resolve(0.8) == -(1.5 + 0.25 * 0.8)


def test_wl_is_pure_register_multiple():
    s = wl(0.5)
    assert s.fixed == 0.0
    assert s.widths == 0.5
    assert s.resolve(1.6) == 0.8


def test_builders_coerce_plain_floats():
    op = move_to(1.0, 2.0)
    assert isinstance(op.x, Scalar)
    assert op.x.fixed == 1.0
    assert op.x.widths == 0.0
    assert isinstance(line_to(wl(1.0), 0.0).y, Scalar)


def test_width_factor_must_be_positive():
    with pytest.raises(ValueError):
        SetLineWidthFactor(0.0)
    with pytest.raises(ValueError):
        SetLineWidthFactor(-0.5)


def test_evaluate_rejects_nonpositive_width():
    program = RenderProgram((move_to(0.0, 0.0), line_to(1.0, 0.0), Action.STROKE))
    with pytest.raises(ValueError):
        evaluate(program, 0.0)
    with pytest.raises(ValueError):
        evaluate(program, -1.0)


def test_register_rescale_is_exact():
    # 0.125 * 0.8 is exactly representable, so the register-relative
    # coordinate after the rescale must be bit-for-bit 0.1
    program = RenderProgram(
        (
            SetLineWidthFactor(0.8),
            move_to(wl(0.125), wl(-0.125)),
            line_to(wl(0.125), wl(0.125)),
            Action.STROKE,
        )
    )
    (drawable,) = evaluate(program, 1.0)
    assert drawable.width == 0.8
    m, l = drawable.outline
    assert (m.x, m.y) == (0.1, -0.1)
    assert (l.x, l.y) == (0.1, 0.1)


def test_register_starts_at_host_width():
    program = RenderProgram((move_to(wl(1.0), 0.0), line_to(wl(2.0), 0.0), Action.STROKE))
    (drawable,) = evaluate(program, 0.4)
    assert drawable.width == 0.4
    assert drawable.outline[0].x == 0.4
    assert drawable.outline[1].x == 0.8


def test_translate_shifts_only_later_ops():
    program = RenderProgram(
        (
            move_to(0.0, 0.0),
            line_to(1.0, 0.0),
            Action.STROKE,
            translate(10.0, 0.0),
            move_to(0.0, 0.0),
            line_to(1.0, 0.0),
            Action.STROKE,
        )
    )
    first, second = evaluate(program, 1.0)
    assert first.outline[0].x == 0.0
    assert second.outline[0].x == 10.0
    assert second.outline[1].x == 11.0
    # within one path, the op right after a translation reads the new origin
    # and the op before it does not
    program = RenderProgram(
        (
            move_to(0.0, 0.0),
            translate(10.0, 0.0),
            line_to(1.0, 0.0),
            Action.STROKE,
        )
    )
    (drawable,) = evaluate(program, 1.0)
    m, l = drawable.outline
    assert (m.x.hex(), l.x.hex()) == ((0.0).hex(), (11.0).hex())


def test_translate_accumulates():
    # the second program's translation reads the register as the rescale
    # left it: wl(1.0) is 1.0 at w = 2, not 2.0
    for rescale, width, x in [((), 0.5, 2.5), ((SetLineWidthFactor(0.5),), 2.0, 3.0)]:
        program = RenderProgram(
            (
                *rescale,
                translate(wl(1.0), 0.0),
                translate(2.0, 3.0),
                move_to(0.0, 0.0),
                line_to(1.0, 1.0),
                Action.STROKE,
            )
        )
        (drawable,) = evaluate(program, width)
        assert drawable.outline[0].x.hex() == x.hex()
        assert drawable.outline[0].y.hex() == (3.0).hex()


def test_cap_and_join_persist_across_actions():
    program = RenderProgram(
        (
            SetCap(LineCap.ROUND),
            SetJoin(LineJoin.ROUND),
            move_to(0.0, 0.0),
            line_to(1.0, 0.0),
            Action.STROKE,
            move_to(2.0, 0.0),
            line_to(3.0, 0.0),
            Action.STROKE,
        )
    )
    first, second = evaluate(program, 1.0)
    for drawable in (first, second):
        assert drawable.cap is LineCap.ROUND
        assert drawable.join is LineJoin.ROUND


def test_default_state_is_butt_miter():
    program = RenderProgram((move_to(0.0, 0.0), line_to(1.0, 0.0), Action.STROKE))
    (drawable,) = evaluate(program, 1.0)
    assert drawable.cap is LineCap.BUTT
    assert drawable.join is LineJoin.MITER
    assert drawable.action is Action.STROKE


def test_line_before_move_reports_op_index():
    program = RenderProgram((line_to(1.0, 0.0), Action.STROKE))
    with pytest.raises(ProgramError) as err:
        evaluate(program, 1.0)
    assert err.value.index == 0
    assert "op 0" in str(err.value)


def test_curve_before_move_fails():
    program = RenderProgram(
        (SetCap(LineCap.ROUND), curve_to(0, 0, 1, 1, 2, 0), Action.STROKE)
    )
    with pytest.raises(ProgramError) as err:
        evaluate(program, 1.0)
    assert err.value.index == 1


def test_a_stray_value_reports_its_index_as_an_unknown_op():
    program = RenderProgram((move_to(0.0, 0.0), "stray", line_to(1.0, 0.0), Action.STROKE))
    with pytest.raises(ProgramError) as err:
        evaluate(program, 1.0)
    assert err.value.index == 1
    assert str(err.value) == "op 1: unknown op 'stray'"


def test_close_without_subpath_fails():
    program = RenderProgram((ClosePath(), Action.STROKE))
    with pytest.raises(ProgramError):
        evaluate(program, 1.0)


def test_action_with_no_path_fails():
    program = RenderProgram((Action.STROKE,))
    with pytest.raises(ProgramError):
        evaluate(program, 1.0)


def test_trailing_path_ops_fail():
    program = RenderProgram(
        (
            move_to(0.0, 0.0),
            line_to(1.0, 0.0),
            Action.STROKE,
            move_to(2.0, 0.0),
            line_to(3.0, 0.0),
        )
    )
    with pytest.raises(ProgramError) as err:
        evaluate(program, 1.0)
    assert err.value.index == 3


def test_program_with_no_action_fails():
    # undrawn path ops are reported by index ...
    program = RenderProgram((move_to(0.0, 0.0), line_to(1.0, 0.0)))
    with pytest.raises(ProgramError) as err:
        evaluate(program, 1.0)
    assert err.value.index == 0
    # ... a program that never draws anything has no index to blame
    with pytest.raises(ProgramError) as err:
        evaluate(RenderProgram((SetCap(LineCap.ROUND),)), 1.0)
    assert err.value.index is None


def test_circle_requires_positive_radius():
    program = RenderProgram((circle(0.0, 0.0, wl(-1.0)), Action.STROKE))
    with pytest.raises(ProgramError):
        evaluate(program, 1.0)


def test_circle_evaluates_center_and_radius():
    program = RenderProgram((circle(wl(1.0), 2.0, wl(0.5)), Action.FILL_STROKE))
    (drawable,) = evaluate(program, 0.8)
    (op,) = drawable.outline
    assert isinstance(op, Circle)
    assert (op.cx, op.cy, op.radius) == (0.8, 2.0, 0.4)
    assert drawable.action is Action.FILL_STROKE


scalars = st.builds(
    Scalar,
    st.floats(allow_nan=False, allow_infinity=False, min_value=-100, max_value=100),
    widths=st.floats(allow_nan=False, allow_infinity=False, min_value=-4, max_value=4),
)


@st.composite
def programs(draw):
    ops = [draw(st.sampled_from([move_to(0.0, 0.0), move_to(1.0, wl(0.5))]))]
    n = draw(st.integers(min_value=1, max_value=8))
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=6))
        if kind == 0:
            ops.append(LineTo(draw(scalars), draw(scalars)))
        elif kind == 1:
            ops.append(
                CurveTo(
                    draw(scalars), draw(scalars),
                    draw(scalars), draw(scalars),
                    draw(scalars), draw(scalars),
                )
            )
        elif kind == 2:
            ops.append(Translate(draw(scalars), draw(scalars)))
        elif kind == 3:
            ops.append(SetCap(draw(st.sampled_from(list(LineCap)))))
        elif kind == 4:
            ops.append(SetLineWidthFactor(draw(st.floats(min_value=0.1, max_value=2.0))))
        elif kind == 5:
            ops.append(Circle(draw(scalars), draw(scalars), Scalar(1.0)))
        else:
            ops.append(LineTo(draw(scalars), draw(scalars)))
    ops.append(draw(st.sampled_from(list(Action))))
    return RenderProgram(tuple(ops))


@given(programs())
def test_mirroring_twice_restores_the_program(program):
    assert mirror_x(mirror_x(program)) == program
    assert mirror_y(mirror_y(program)) == program


def test_mirror_x_negates_x_coordinates_and_shift():
    program = RenderProgram(
        (
            translate(wl(0.625), 1.0),
            move_to(2.0, 3.0),
            curve_to(1.0, 1.0, wl(0.5), 0.0, 4.0, 5.0),
            circle(1.0, 2.0, 0.5),
            Action.FILL,
        )
    )
    mirrored = mirror_x(program)
    shift, m, c, circ, action = mirrored.ops
    # the displacement flips with the axis so later geometry stays mirrored
    assert shift.dx == -wl(0.625)
    assert shift.dy == Scalar(1.0)
    assert m.x == Scalar(-2.0)
    assert m.y == Scalar(3.0)
    assert c.c1x == Scalar(-1.0)
    assert c.c2x == -wl(0.5)
    assert c.c2y == Scalar(0.0)
    assert circ.cx == Scalar(-1.0)
    assert circ.radius == Scalar(0.5)
    assert action is Action.FILL


def test_mirror_y_leaves_x_alone():
    program = RenderProgram(
        (move_to(2.0, 3.0), line_to(wl(1.0), wl(-0.5)), Action.STROKE)
    )
    mirrored = mirror_y(program)
    m, l, _ = mirrored.ops
    assert m.x == Scalar(2.0)
    assert m.y == Scalar(-3.0)
    assert l.y == wl(0.5)


def test_transform_program_moves_points_and_keeps_state_ops():
    quarter = AffineTransform(0.0, 1.0, -1.0, 0.0, 0.0, 0.0)  # exact, built without trig
    program = RenderProgram(
        (
            SetLineWidthFactor(0.8),
            MoveTo(1.0, 0.0),
            LineTo(2.0, 0.0),
            Translate(3.0, 0.0),
            Circle(0.0, 0.0, 0.5),
            Action.STROKE,
        )
    )
    turned = transform_program(program, quarter)
    factor, m, l, shift, circ, action = turned.ops
    assert factor == SetLineWidthFactor(0.8)
    assert m.x == Scalar(0.0)
    assert m.y == Scalar(1.0)
    assert l.y == Scalar(2.0)
    # displacements rotate but do not pick up the translation part
    assert shift.dx == Scalar(0.0)
    assert shift.dy == Scalar(3.0)
    assert circ.radius == Scalar(0.5)
    assert action is Action.STROKE


def test_transform_program_keeps_register_relative_parts_symbolic():
    quarter = AffineTransform(0.0, 1.0, -1.0, 0.0, 0.0, 0.0)
    program = RenderProgram((move_to(wl(1.0), 0.0), Action.STROKE))
    turned = transform_program(program, quarter)
    m = turned.ops[0]
    # the register multiple rotates with the point: x widths move into y
    assert m.x == Scalar(0.0)
    assert m.y == wl(1.0)


def test_transform_program_translation_shifts_anchors_not_displacements():
    resolved = RenderProgram(
        (MoveTo(0.0, 0.0), Translate(1.0, 0.0), LineTo(0.0, 0.0), Action.STROKE)
    )
    shift = AffineTransform(1.0, 0.0, 0.0, 1.0, 10.0, 0.0)
    shifted = transform_program(resolved, shift)
    m, t, l, _ = shifted.ops
    assert m.x == Scalar(10.0)
    assert t.dx == Scalar(1.0)  # pure displacement, unaffected by the offset
    assert l.x == Scalar(10.0)


def test_render_program_is_immutable():
    program = RenderProgram((move_to(0.0, 0.0), line_to(1.0, 0.0), Action.STROKE))
    with pytest.raises(dataclasses.FrozenInstanceError):
        program.ops = ()
