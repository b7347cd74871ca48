"""The immutable value type behind the package's records.

A record lists its fields in `__slots__` and sets them in its own
`__init__`, which also runs the record's checks.  The base compares, hashes
and prints a record by its fields, in slot order, refuses assignment, and
pickles and copies it by calling the constructor again, so no path builds a
record that skipped its checks.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    _set = object.__setattr__  # sets a field; for use in `__init__` only

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
