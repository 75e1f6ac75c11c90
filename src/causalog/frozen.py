"""The base of the library's immutable value classes.

Each subclass writes its own ``__init__``, which checks its arguments and
stores them through ``self.__dict__``, and lists its fields, in constructor
order, in ``_fields``. ``_trusted`` builds a record without that
``__init__``, for a caller that has already made its checks.
"""

from __future__ import annotations


class Frozen:
    """An immutable record of the fields ``_fields`` names.

    Assigning or deleting an attribute raises AttributeError; a
    ``functools.cached_property`` still caches, since it writes to
    ``__dict__``. The repr reads ``Name(field=value, ...)``. Two records are
    equal when they are of the same class and ``_values()``, the fields as a
    tuple, are equal, and the hash is that tuple's. ``__match_args__`` is
    ``_fields``, so class patterns match positionally. These are not
    dataclasses: ``dataclasses.fields``, ``replace`` and ``asdict`` do not
    apply. ``Literal`` and ``Clause`` define their own ``__eq__`` and
    ``__hash__`` over their fields: the generic pair hashed a literal in
    561 ns against 160 ns, and made ``validate`` 7% and ``twin-export`` 19%
    slower on 20 layered 16-node programs. A subclass that compares by
    identity puts back ``object``'s."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls._fields

    @classmethod
    def _trusted(cls, **fields):
        """The record of ``fields``, given by name, built without
        ``__init__``: the caller has made every check that ``__init__``
        makes."""
        record = object.__new__(cls)
        record.__dict__.update(fields)
        return record

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())
