import pytest
from hypothesis import given
from hypothesis import strategies as st

from arrowtips.catalog import Side, UnknownTipError, end_names, start_names
from arrowtips.specparser import (
    ArrowSpec,
    SpecSyntaxError,
    TipSequenceError,
    format_spec,
    parse,
)


def test_no_name_contains_the_separator():
    # the parser splits on the first '-'; names must never collide with it
    assert all("-" not in n for n in start_names())
    assert all("-" not in n for n in end_names())


def test_bare_separator_means_no_tips():
    assert parse("-") == ArrowSpec(None, None)


def test_end_only():
    assert parse("-latex'") == ArrowSpec(start=None, end="latex'")


def test_start_only():
    assert parse("angle 60-") == ArrowSpec(start="angle 60", end=None)


def test_both_sides():
    assert parse("[-latex' reversed") == ArrowSpec(start="[", end="latex' reversed")


def test_surrounding_whitespace_is_ignored():
    assert parse("  [-]  ") == parse("[-]")


def test_missing_separator_is_a_syntax_error():
    with pytest.raises(SpecSyntaxError):
        parse("latex'")
    with pytest.raises(SpecSyntaxError):
        parse("")


def test_every_name_parses_on_each_side():
    for name in start_names():
        assert parse(f"{name}-").start == name
    for name in end_names():
        assert parse(f"-{name}").end == name


def test_round_trip_through_format():
    for name in start_names():
        assert format_spec(parse(f"{name}-")) == f"{name}-"
    for name in end_names():
        assert format_spec(parse(f"-{name}")) == f"-{name}"
    assert format_spec(parse("-")) == "-"
    assert format_spec(parse("(-latex'")) == "(-latex'"


@given(st.sampled_from(sorted(start_names())), st.sampled_from(sorted(end_names())))
def test_any_pairing_round_trips(start, end):
    text = f"{start}-{end}"
    assert format_spec(parse(text)) == text


def test_longest_name_wins():
    # "angle 60 reversed" must not parse as "angle 60" plus residue
    assert parse("-angle 60 reversed").end == "angle 60 reversed"


def test_unknown_residue_is_reported():
    with pytest.raises(UnknownTipError) as err:
        parse("-latex'x")
    assert err.value.name == "x"
    assert err.value.side is Side.END


def test_wholly_unknown_name_is_reported():
    with pytest.raises(UnknownTipError) as err:
        parse("-no such tip")
    assert err.value.name == "no such tip"


def test_two_tips_on_one_side_is_a_sequence_error():
    with pytest.raises(TipSequenceError):
        parse("-latex'latex'")
    with pytest.raises(TipSequenceError):
        parse("][-")


def test_interior_whitespace_is_significant():
    # names embed single spaces; doubling one breaks the match
    with pytest.raises(UnknownTipError):
        parse("-angle  60")


def test_format_spec_handles_empty_sides():
    assert format_spec(ArrowSpec(None, None)) == "-"


@pytest.mark.parametrize("spec, error, message", [
    ("-latex'latex'", TipSequenceError,
     "end side \"latex'latex'\" stacks several tips; one tip per side"),
    ("][-", TipSequenceError, "start side '][' stacks several tips; one tip per side"),
    ("-latex'x", UnknownTipError, "no end tip named 'x'"),
    ("hooks reversedx-", UnknownTipError, "no start tip named 'x'"),
    ("-no such tip", UnknownTipError, "no end tip named 'no such tip'"),
    ("-latx'", UnknownTipError, "no end tip named \"latx'\"; close matches: \"latex'\""),
    ("angle 6-", UnknownTipError,
     "no start tip named 'angle 6'; close matches: 'angle 60', 'angle 90', 'angle 45'"),
])
def test_sequence_and_unknown_tip_messages(spec, error, message):
    with pytest.raises(error) as raised:
        parse(spec)
    assert type(raised.value) is error
    assert str(raised.value) == message
