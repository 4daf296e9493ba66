"""The record contract: each runtime record behaves as its frozen dataclass did.

Each record is compared with a frozen dataclass of the same name and fields,
built here with ``dataclasses.make_dataclass``: the old form of the class.
"""

import copy
import dataclasses
import functools
import math
import pickle

import pytest

from arrowtips._record import Record
from arrowtips.attach import (
    CubicSegment,
    DegeneratePathError,
    HostPath,
    LineSegment,
    Placement,
)
from arrowtips.catalog import Extents, Side, TipDefinition, TipId, registry
from arrowtips.geometry import AffineTransform, Point
from arrowtips.pathmodel import (
    Action,
    Circle,
    ClosePath,
    CurveTo,
    Drawable,
    LineCap,
    LineJoin,
    LineTo,
    MoveTo,
    RenderProgram,
    Scalar,
    SetCap,
    SetJoin,
    SetLineWidthFactor,
    Translate,
    _PathOp,
    _PointOp,
)
from arrowtips.specparser import ArrowSpec

O, X, Y = Point(0.0, 0.0), Point(1.0, 0.0), Point(0.0, 1.0)
LINE = LineSegment(O, X)
SHIFT = AffineTransform(1.0, 0.0, -0.0, 1.0, 3.0, 4.0)

ENTRY, OTHER_ENTRY = registry()[:2]
OUTLINE = (MoveTo(0.0, 0.0), LineTo(1.0, 0.0))

# Each converted class with one value per field, in field order, and a
# second value for each field.
CASES = [
    (Point, {"x": 1.5, "y": -2.0}, {"x": 2.5, "y": 2.0}),
    (AffineTransform, {"a": 1.0, "b": 0.0, "c": -0.0, "d": 1.0, "tx": 3.0, "ty": 4.0},
     {"a": 0.0, "b": 1.0, "c": -1.0, "d": 0.0, "tx": 5.0, "ty": 6.0}),
    (LineSegment, {"start": O, "end": X}, {"start": Y, "end": O}),
    (CubicSegment, {"start": O, "control1": X, "control2": Y, "end": X},
     {"start": Y, "control1": O, "control2": X, "end": Y}),
    (HostPath, {"segments": (LINE, LineSegment(X, Y))}, {"segments": (LINE,)}),
    (Placement, {"transform": SHIFT}, {"transform": AffineTransform(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)}),
    (Extents, {"left": -1.0, "right": 2.0}, {"left": -2.0, "right": 2.5}),
    (TipDefinition, {"start_name": ENTRY.start_name, "end_name": ENTRY.end_name,
                     "extents_fn": ENTRY.extents_fn, "program_fn": ENTRY.program_fn},
     {"start_name": "a", "end_name": "b", "extents_fn": OTHER_ENTRY.extents_fn,
      "program_fn": OTHER_ENTRY.program_fn}),
    (TipId, {"definition": ENTRY, "side": Side.END},
     {"definition": OTHER_ENTRY, "side": Side.START}),
    (ArrowSpec, {"start": "[", "end": "latex'"}, {"start": None, "end": None}),
    (Scalar, {"fixed": 1.0, "widths": 0.5}, {"fixed": -1.0, "widths": 0.0}),
    (SetCap, {"cap": LineCap.ROUND}, {"cap": LineCap.BUTT}),
    (SetJoin, {"join": LineJoin.ROUND}, {"join": LineJoin.MITER}),
    (SetLineWidthFactor, {"factor": 0.5}, {"factor": 2.0}),
    (Translate, {"dx": Scalar(1.0), "dy": Scalar(0.0, 2.0)}, {"dx": Scalar(0.0), "dy": 2.0}),
    (Drawable, {"outline": OUTLINE, "width": 1.0, "cap": LineCap.BUTT, "join": LineJoin.MITER,
                "action": Action.STROKE},
     {"outline": OUTLINE[:1], "width": 2.0, "cap": LineCap.ROUND, "join": LineJoin.ROUND,
      "action": Action.FILL}),
    (RenderProgram, {"ops": (SetCap(LineCap.ROUND), *OUTLINE, Action.STROKE)},
     {"ops": (*OUTLINE, Action.FILL)}),
    (MoveTo, {"x": 1.0, "y": -2.0}, {"x": 0.5, "y": 2.0}),
    (LineTo, {"x": 1.0, "y": -2.0}, {"x": 0.5, "y": 2.0}),
    (CurveTo, {"c1x": 1.0, "c1y": 2.0, "c2x": 3.0, "c2y": 4.0, "x": 5.0, "y": 6.0},
     {"c1x": -1.0, "c1y": -2.0, "c2x": -3.0, "c2y": -4.0, "x": -5.0, "y": -6.0}),
    (ClosePath, {}, {}),
    (Circle, {"cx": 1.0, "cy": 2.0, "radius": 0.5}, {"cx": -1.0, "cy": 0.0, "radius": 1.5}),
]
IDS = [cls.__name__ for cls, *_ in CASES]
PATH_OPS = {MoveTo, LineTo, CurveTo, ClosePath, Circle}
# Entries are registry singletons: a definition equals only itself.
BY_IDENTITY = {TipDefinition}


@functools.cache
def _dataclass_of(cls, names):
    return dataclasses.make_dataclass(cls.__name__, names, frozen=True)


def _dataclass_form(cls, fields):
    """The instance that the frozen dataclass form of ``cls`` makes from ``fields``."""
    return _dataclass_of(cls, tuple(fields))(**fields)


@pytest.fixture(params=[case[:2] for case in CASES], ids=IDS)
def case(request):
    return request.param


def _package_records(base=Record):
    """Every record class of the package that derives from ``base``, at any depth."""
    for cls in base.__subclasses__():
        if cls.__module__.startswith("arrowtips."):
            yield cls
            yield from _package_records(cls)


def test_the_contract_covers_every_record_class():
    # The path ops derive through two bases that no caller builds.
    assert set(_package_records()) == {cls for cls, *_ in CASES} | {_PathOp, _PointOp}


def test_positional_and_keyword_construction_agree(case):
    cls, fields = case
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert cls.__match_args__ == tuple(fields)
    for record in (by_position, by_keyword):
        assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())
    if cls not in BY_IDENTITY:
        assert by_position == by_keyword


def test_equality_holds_only_within_the_class(case):
    cls, fields = case
    record = cls(**fields)
    values = tuple(fields.values())

    class Subclass(cls):
        __slots__ = ()

    others = [_dataclass_form(cls, fields), Subclass(**fields), values, *values[:1]]
    for other in others:
        assert not record == other and record != other
        assert not other == record and other != record
    assert record == record and not record != record
    if cls in BY_IDENTITY:
        assert record != cls(**fields)
    else:
        assert record == cls(**fields) and not record != cls(**fields)


@pytest.mark.parametrize("cls,fields,others",
                         [case for case in CASES if case[0] not in BY_IDENTITY],
                         ids=[cls.__name__ for cls, *_ in CASES if cls not in BY_IDENTITY])
def test_a_field_that_differs_makes_records_unequal(cls, fields, others):
    record = cls(**fields)
    for name, other in others.items():
        changed = cls(**{**fields, name: other})
        assert changed != record and not changed == record
        assert record != changed and not record == changed


def test_a_nan_field_compares_as_in_the_dataclass_form():
    # Tuples take identical items as equal: a record holding the same nan
    # object equals its twin, one holding another nan does not.
    nan = float("nan")
    for cls, fields in ((Extents, {"left": nan, "right": 1.0}),
                        (AffineTransform, {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, "tx": nan,
                                           "ty": 0.0}),
                        (Scalar, {"fixed": nan, "widths": 0.0})):
        other = {name: float("nan") if value is nan else value for name, value in fields.items()}
        for twin, equal in ((fields, True), (other, False)):
            assert (_dataclass_form(cls, fields) == _dataclass_form(cls, twin)) is equal
            assert (cls(**fields) == cls(**twin)) is equal


def test_equal_records_hash_alike_and_as_their_dataclass_form(case):
    cls, fields = case
    record = cls(**fields)
    if cls in BY_IDENTITY:
        assert hash(record) == object.__hash__(record)
    else:
        assert hash(record) == hash(cls(*fields.values())) == hash(_dataclass_form(cls, fields))
        assert {record, cls(**fields)} == {record}


def test_repr_is_the_dataclass_repr(case):
    cls, fields = case
    record = cls(**fields)
    if cls is TipDefinition:
        assert repr(record) == f"<TipDefinition {ENTRY.start_name!r}/{ENTRY.end_name!r}>"
    else:
        assert repr(record) == repr(_dataclass_form(cls, fields))
        assert f"{record}" == repr(record)


def test_assigning_or_deleting_a_field_raises_frozen_instance_error(case):
    cls, fields = case
    record = cls(**fields)
    for name in (*fields, "unknown"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())


# A copied definition is another registry entry, which equals only itself.
@pytest.mark.parametrize("cls,fields",
                         [case[:2] for case in CASES if case[0] not in (TipDefinition, TipId)],
                         ids=[cls.__name__ for cls, *_ in CASES if cls not in (TipDefinition, TipId)])
def test_copies_and_pickles_are_equal_records(cls, fields):
    record = cls(**fields)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


def test_defaults_are_the_dataclass_defaults():
    assert ArrowSpec() == ArrowSpec(None, None) == ArrowSpec(start=None, end=None)
    assert repr(ArrowSpec(end="latex'")) == "ArrowSpec(start=None, end=\"latex'\")"
    assert Scalar(1.0) == Scalar(1.0, 0.0) == Scalar(fixed=1.0)
    assert Scalar(1.0).widths == 0.0
    for cls, *_ in CASES:
        if cls not in (ArrowSpec, Scalar, ClosePath):  # a close has no field
            with pytest.raises(TypeError):
                cls()


@pytest.mark.parametrize("make", [
    lambda: Translate(1.0, 2.0, 3.0),
    lambda: Translate(1.0, 2.0, dx=3.0),
    lambda: Translate(dy=2.0),
    lambda: Translate(1.0),
    lambda: Translate(1.0, 2.0, scale=3.0),
    lambda: SetCap(),
    lambda: TipDefinition("a", "b", None),
], ids=["too-many", "twice", "missing-first", "missing-last", "unknown", "none", "one-short"])
def test_the_shared_constructor_rejects_what_the_dataclass_rejected(make):
    with pytest.raises(TypeError):
        make()


def test_no_record_has_an_instance_dict():
    for cls, fields, _ in CASES:
        # Each class slots the fields it adds: a move or a line adds none.
        assert cls.__slots__ == (() if cls in (MoveTo, LineTo) else cls.__match_args__)
        assert not hasattr(cls(**fields), "__dict__")


@pytest.mark.parametrize("cls,fields", [case[:2] for case in CASES if case[0] in PATH_OPS],
                         ids=[cls.__name__ for cls, *_ in CASES if cls in PATH_OPS])
def test_a_path_op_gives_its_fields_to_dataclasses_fields(cls, fields):
    op = cls(*fields.values())
    assert op._values() == tuple(fields.values())
    names = [field.name for field in dataclasses.fields(_dataclass_form(cls, fields))]
    assert [field.name for field in dataclasses.fields(op)] == names == list(fields)
    assert [field.name for field in dataclasses.fields(cls)] == names
    assert dataclasses.is_dataclass(op) and dataclasses.astuple(op) == tuple(fields.values())


@pytest.mark.parametrize("make,error,message", [
    (lambda: Point(0.0, math.inf), ValueError, r"point components must be finite, got \(0.0, inf\)"),
    (lambda: SetLineWidthFactor(math.nan), ValueError, "width factor must be positive, got nan"),
    (lambda: HostPath(()), ValueError, "host path needs at least one segment"),
    (lambda: HostPath((LINE, LineSegment(Y, X))), ValueError,
     "segments 0 and 1 do not share an endpoint"),
    (lambda: HostPath((LineSegment(O, O), CubicSegment(O, O, O, O))), DegeneratePathError,
     "all path points coincide"),
], ids=["point", "width-factor", "no-segments", "gap", "degenerate"])
def test_each_kept_check_raises_its_message(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_host_path_and_render_program_store_a_tuple():
    assert HostPath([LINE]).segments == (LINE,)
    assert RenderProgram([Action.STROKE]).ops == (Action.STROKE,)


def test_a_record_matches_by_position():
    match Point(1.0, 2.0):
        case Point(x, y):
            assert (x, y) == (1.0, 2.0)
        case _:
            pytest.fail("a Point did not match its own class pattern")
