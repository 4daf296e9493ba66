"""Frozen value records, without ``@dataclass``.

``@dataclass`` costs about 0.8 ms per class, because it writes the class's
methods as source and compiles them, and ``dataclasses`` loads ``inspect``.
Every CLI call is a fresh process that pays it again.  So the value classes
derive from ``Record``, which gives what ``@dataclass(frozen=True)`` gave: the
same constructor signature, equality only within one class, a field hash and
``repr``, and ``FrozenInstanceError`` on assignment.  The shared constructor
takes no defaults and costs about 1.2 us more per build than a hand-written
one for two fields, and 1.9 us for six, so a class writes its own
``__init__`` only if it checks, converts or defaults a field (``Point``,
``HostPath``, ``RenderProgram``, ``SetLineWidthFactor``, ``Scalar``,
``ArrowSpec``), or if a benchmark op builds it at least 0.5 times per arrow
(``HOT`` in ``tests/test_records.py``, which counts the builds).

A hand-written ``__init__`` stores each field through its class's slot
descriptor, bound once at module level by ``setters``: about 55 ns a field,
against about 110 ns for ``object.__setattr__``, which finds the slot by
name on every call.  A ``CurveTo``, with six fields, then builds in about
0.55 us instead of 0.8 us, and every arrow builds dozens of points, path
ops and drawables.

``dataclasses`` is imported only where ``FrozenInstanceError`` is raised, so
a CLI process does not load it.
"""

from __future__ import annotations


def setters(cls: type) -> tuple:
    """The bound ``__set__`` of each of ``cls``'s field slots, in field order.

    A hand-written ``__init__`` stores its fields through these, bound once
    at module level, past the record's own ``__setattr__``.
    """
    return tuple([getattr(cls, name).__set__ for name in cls.__match_args__])


class Record:
    """A frozen value whose fields are named, in order, by ``__match_args__``.

    A subclass names all its fields in ``__match_args__`` and the ones it adds
    in ``__slots__``, so no record has a ``__dict__``; ``_values()`` reads the
    fields in order.  It equals only a record of its own class with equal fields.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *args: object, **kwargs: object) -> None:
        names = self.__match_args__
        given = dict(zip(names, args))
        values = {**given, **kwargs}
        if len(args) > len(names) or given.keys() & kwargs.keys() or values.keys() != set(names):
            raise TypeError(f"{self.__class__.__qualname__}() takes {', '.join(names)}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
