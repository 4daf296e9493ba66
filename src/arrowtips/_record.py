"""Frozen value records, without ``@dataclass``.

``@dataclass`` costs about 0.8 ms per class, because it writes the class's
methods as source and compiles them, and ``dataclasses`` loads ``inspect``.
Every CLI call is a fresh process that pays it again.  So the value classes
derive from ``Record``, which gives what ``@dataclass(frozen=True)`` gave: the
same constructor signature, equality only within one class, a field hash and
``repr``, and ``FrozenInstanceError`` on assignment.  Classes that check or
convert their fields, have a default, or that each arrow builds write their
own ``__init__``, since the shared one is about 4x slower and takes no
defaults; ``Point``, which a host path compares, writes its own ``__eq__`` for
speed.

The resolved path ops (``MoveTo``, ``LineTo``, ``CurveTo``, ``ClosePath``,
``Circle``) serve ``__dataclass_fields__`` from their dataclass form, made on
first read, so ``dataclasses.fields(op)`` works.  ``dataclasses`` is imported
only there and where ``FrozenInstanceError`` is raised, so a CLI process does
not load it.
"""

from __future__ import annotations

# How a record's ``__init__`` stores a field past its own ``__setattr__``.
store = object.__setattr__


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
            store(self, name, values[name])

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
