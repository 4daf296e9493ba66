"""Arrow spec strings: ``"<start tip>-<end tip>"`` with either side optional.

No registered name contains ``-``, so the first ``-`` always separates the
sides.  Each side must be exactly one registered name, found by one set
lookup; for anything else a longest-first prefix scan tells a stack of tips
(``TipSequenceError``) from an unknown residue (``UnknownTipError``).
"""

from __future__ import annotations

from typing import Optional

from . import catalog
from ._record import Record, store
from .catalog import Side, UnknownTipError


class ArrowSpec(Record):
    """Validated tip names for the two path ends; None means bare end."""

    __slots__ = __match_args__ = ("start", "end")

    def __init__(self, start: Optional[str] = None, end: Optional[str] = None) -> None:
        store(self, "start", start)
        store(self, "end", end)


class SpecSyntaxError(ValueError):
    pass


class TipSequenceError(ValueError):
    """A side held several tip names in a row; chains are not supported."""


# The catalog is complete once imported, so each side's names are sorted once.
_LONGEST_FIRST = {
    side: tuple(sorted(names, key=len, reverse=True))
    for side, names in ((Side.START, catalog.start_names()), (Side.END, catalog.end_names()))
}
_NAMES = {side: frozenset(names) for side, names in _LONGEST_FIRST.items()}


def _match_side(text: str, side: Side) -> Optional[str]:
    if not text:
        return None
    if text in _NAMES[side]:
        return text
    names = _LONGEST_FIRST[side]
    for name in names:
        if text.startswith(name):
            residue = text[len(name):]
            if any(residue.startswith(other) for other in names):
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
        start=_match_side(text[:separator], Side.START),
        end=_match_side(text[separator + 1:], Side.END),
    )


def format_spec(spec: ArrowSpec) -> str:
    """Inverse of parse for valid specs."""
    return f"{spec.start or ''}-{spec.end or ''}"
