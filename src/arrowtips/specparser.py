"""Arrow spec strings: ``"<start tip>-<end tip>"`` with either side optional.

No registered name contains ``-``, so the first ``-`` always separates the
sides.  Each side must be exactly one registered name, found by one set
lookup; for anything else a longest-first prefix scan tells a stack of tips
(``TipSequenceError``) from an unknown residue (``UnknownTipError``).
"""

from __future__ import annotations

from typing import Optional

from . import catalog
from ._record import Record, setters
from .catalog import Side, UnknownTipError


class ArrowSpec(Record):
    """Validated tip names for the two path ends; None means bare end."""

    __slots__ = __match_args__ = ("start", "end")

    def __init__(self, start: Optional[str] = None, end: Optional[str] = None) -> None:
        _set_spec_start(self, start)
        _set_spec_end(self, end)


_set_spec_start, _set_spec_end = setters(ArrowSpec)


class SpecSyntaxError(ValueError):
    pass


class TipSequenceError(ValueError):
    """A side held several tip names in a row; chains are not supported."""


# Each side's (Side, name set, names longest first), built once from the complete
# catalog and read as attach.py reads its enum members: no parse hashes a Side.
_START_NAMES, _END_NAMES = (
    (side, frozenset(names), tuple(sorted(names, key=len, reverse=True)))
    for side, names in ((Side.START, catalog.start_names()), (Side.END, catalog.end_names()))
)


def _match_side(text: str, table: tuple) -> Optional[str]:
    if not text:
        return None
    side, known, longest_first = table
    if text in known:
        return text
    for name in longest_first:
        if text.startswith(name):
            residue = text[len(name):]
            if any(residue.startswith(other) for other in longest_first):
                raise TipSequenceError(
                    f"{side.value} side {text!r} stacks several tips; one tip per side"
                )
            raise UnknownTipError(residue, side)
    raise UnknownTipError(text, side)


def parse(spec: str) -> ArrowSpec:
    """Parse a spec string; whitespace around the whole string is ignored."""
    text = spec.strip()
    separator = text.find("-")
    if separator < 0:
        raise SpecSyntaxError(f"spec {spec!r} has no '-' separator")
    return ArrowSpec(
        start=_match_side(text[:separator], _START_NAMES),
        end=_match_side(text[separator + 1:], _END_NAMES),
    )


def format_spec(spec: ArrowSpec) -> str:
    """Inverse of parse for valid specs."""
    return f"{spec.start or ''}-{spec.end or ''}"
